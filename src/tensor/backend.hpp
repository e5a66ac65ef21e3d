// Kernel backend seam.
//
// Every hot kernel (conv2d_rows, box_blur3, the RPN anchor-scoring pass)
// ships in up to four implementations:
//
//   reference — the original guarded loops; ground truth, never removed.
//   fast      — PR-5's raw-pointer interior/border split; the scalar
//               deterministic baseline every other backend is pinned to.
//   simd      — explicit 2/4-lane vector kernels (SSE2 baseline, AVX2 and
//               NEON behind compile guards, `#pragma omp simd` elsewhere).
//   int8      — per-channel symmetric quantized kernels (Tier B): integer
//               conv/blur/integral/contrast chains that dequantize at the
//               branch-merge boundary so fusion/NMS/loss stay float.
//
// The determinism contract now has two tiers:
//
//   Tier A (reference/fast/simd): bitwise. `fast` is bitwise equal to
//   `reference` (pinned since PR 5), and `simd` is bitwise equal to `fast`
//   — each vector lane executes the scalar kernel's exact operation chain
//   in the same order, so per-lane IEEE arithmetic reproduces the scalar
//   stream bit for bit. The bench self-gates this every run with a max|Δ|
//   report.
//
//   Tier B (int8): bitwise *self*-deterministic — one engine configuration
//   produces bit-identical merged reports across worker counts, shard
//   counts, and the steal/pipeline toggles, because the quantized chains
//   are exact integer arithmetic and the activation calibration runs once
//   per engine over a deterministic seed stream. Against the fp32 oracle
//   it is held to an accuracy envelope instead of bitwise equality (mAP
//   delta and per-frame loss divergence bounds, re-verified by bench
//   self-gates every run). Any kernel that cannot meet its tier stays off
//   the deterministic aggregate path.
//
// Selection: engines resolve `Backend::kAuto` to a concrete backend once at
// construction (like scan-equivalence pinning). Process-wide precedence for
// kAuto, mirroring the ECO_REFERENCE_KERNELS pattern:
//
//   1. ECO_REFERENCE_KERNELS=1  -> reference (audit mode, overrides all)
//   2. ECO_BACKEND=<name>       -> that backend (reference|fast|simd|int8)
//   3. ECO_SIMD=0               -> fast (scalar kernels, vector path off)
//   4. otherwise                -> simd
//
// An unrecognized ECO_BACKEND value is a loud failure (std::invalid_argument
// listing the valid names), not a silent fallback — a typo'd backend name
// must never masquerade as a clean simd run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace eco::tensor {

enum class Backend : std::uint8_t {
  kAuto = 0,   // resolve from the environment at engine construction
  kReference,  // original guarded loops (ground truth)
  kFast,       // scalar raw-pointer kernels (deterministic baseline)
  kSimd,       // explicit vector kernels, bitwise equal to kFast
  kInt8,       // quantized integer kernels (Tier B: self-deterministic)
};

/// Canonical lowercase name ("auto", "reference", "fast", "simd", "int8").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Parses a backend name; empty optional for anything unrecognized.
[[nodiscard]] std::optional<Backend> parse_backend(const std::string& name);

/// Resolves an ECO_BACKEND env value to a backend. Throws
/// std::invalid_argument naming the offender and listing the valid names
/// when `name` parses to nothing — the pure (uncached) core of
/// default_backend(), split out so the failure mode is unit-testable.
[[nodiscard]] Backend backend_from_env_value(const std::string& name);

/// The process-wide default backend, resolved once from the environment
/// (see precedence above). Never returns kAuto. Throws on an unrecognized
/// ECO_BACKEND value.
[[nodiscard]] Backend default_backend();

/// `backend`, with kAuto replaced by default_backend().
[[nodiscard]] Backend resolve_backend(Backend backend);

/// True when the simd kernels were compiled with an explicit vector ISA
/// (SSE2/AVX2/NEON) rather than falling back to the portable scalar chain.
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when the int8 kernels were compiled with explicit integer vector
/// instructions (SSE2 madd baseline) rather than the portable scalar
/// integer chain. Either path computes the identical integers — this only
/// reports which dispatch a bench artifact actually exercised.
[[nodiscard]] bool int8_kernels_compiled() noexcept;

/// True when this CPU supports AVX2 (probed once). The simd kernels widen
/// from the SSE2 baseline to 4/8-lane AVX2 loops behind this check; both
/// widths run the identical per-lane IEEE chain, so the choice never
/// changes a result — only how many lanes retire per step. The int8 conv
/// interior widens its 8-wide madd accumulation to 16-wide the same way.
[[nodiscard]] bool cpu_has_avx2() noexcept;

}  // namespace eco::tensor
