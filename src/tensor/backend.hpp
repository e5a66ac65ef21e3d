// Kernel backend seam.
//
// Every hot kernel (conv2d_rows, box_blur3, the RPN anchor-scoring pass)
// ships in up to three implementations:
//
//   reference — the original guarded loops; ground truth, never removed.
//   fast      — PR-5's raw-pointer interior/border split; the scalar
//               deterministic baseline every other backend is pinned to.
//   simd      — explicit 2/4-lane vector kernels (SSE2 baseline, AVX2 and
//               NEON behind compile guards, `#pragma omp simd` elsewhere).
//
// The determinism contract has one tier, and it is bitwise. `fast` is
// bitwise equal to `reference` (pinned since PR 5), and `simd` is bitwise
// equal to `fast` — each vector lane executes the scalar kernel's exact
// operation chain in the same order, so per-lane IEEE arithmetic reproduces
// the scalar stream bit for bit. The bench self-gates this every run with a
// max|Δ| report. A kernel that cannot meet it stays off the deterministic
// aggregate path.
//
// Selection: engines resolve `Backend::kAuto` to a concrete backend once at
// construction (like scan-equivalence pinning). Two process-wide selectors
// decide kAuto, in this order:
//
//   1. ECO_REFERENCE_KERNELS=1  -> reference (audit mode, overrides all)
//   2. ECO_SIMD=0               -> fast (scalar kernels, vector path off)
//   3. otherwise                -> simd
#pragma once

#include <cstdint>

namespace eco::tensor {

enum class Backend : std::uint8_t {
  kAuto = 0,   // resolve from the environment at engine construction
  kReference,  // original guarded loops (ground truth)
  kFast,       // scalar raw-pointer kernels (deterministic baseline)
  kSimd,       // explicit vector kernels, bitwise equal to kFast
};

/// Canonical lowercase name ("auto", "reference", "fast", "simd").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// The process-wide default backend, resolved once from the environment
/// (see precedence above). Never returns kAuto.
[[nodiscard]] Backend default_backend();

/// `backend`, with kAuto replaced by default_backend().
[[nodiscard]] Backend resolve_backend(Backend backend);

/// True when the simd kernels were compiled with an explicit vector ISA
/// (SSE2/AVX2/NEON) rather than falling back to the portable scalar chain.
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when this CPU supports AVX2 (probed once). The simd kernels widen
/// from the SSE2 baseline to 4/8-lane AVX2 loops behind this check; both
/// widths run the identical per-lane IEEE chain, so the choice never
/// changes a result — only how many lanes retire per step.
[[nodiscard]] bool cpu_has_avx2() noexcept;

}  // namespace eco::tensor
