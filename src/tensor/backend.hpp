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
// Selection is in code only: every config that carries a backend
// (EngineConfig, StemConfig, RpnConfig, Conv2dSpec) defaults to kSimd, and
// tests and the bench pick kReference or kFast explicitly. No environment
// variable changes which kernels run.
#pragma once

#include <cstdint>

namespace eco::tensor {

enum class Backend : std::uint8_t {
  kReference,  // original guarded loops (ground truth)
  kFast,       // scalar raw-pointer kernels (deterministic baseline)
  kSimd,       // explicit vector kernels, bitwise equal to kFast
};

/// Canonical lowercase name ("reference", "fast", "simd").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// True when the simd kernels were compiled with an explicit vector ISA
/// (SSE2/AVX2/NEON) rather than falling back to the portable scalar chain.
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when this CPU supports AVX2 (probed once). The simd kernels widen
/// from the SSE2 baseline to 4/8-lane AVX2 loops behind this check; both
/// widths run the identical per-lane IEEE chain, so the choice never
/// changes a result — only how many lanes retire per step.
[[nodiscard]] bool cpu_has_avx2() noexcept;

}  // namespace eco::tensor
