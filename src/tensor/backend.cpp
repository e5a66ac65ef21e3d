#include "tensor/backend.hpp"

#include "tensor/ops.hpp"
#include "util/env.hpp"

namespace eco::tensor {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kReference:
      return "reference";
    case Backend::kFast:
      return "fast";
    case Backend::kSimd:
      return "simd";
  }
  return "auto";
}

Backend default_backend() {
  static const Backend resolved = [] {
    if (use_reference_kernels()) return Backend::kReference;
    if (util::env_disabled("ECO_SIMD")) return Backend::kFast;
    return Backend::kSimd;
  }();
  return resolved;
}

Backend resolve_backend(Backend backend) {
  return backend == Backend::kAuto ? default_backend() : backend;
}

bool simd_kernels_compiled() noexcept {
#if defined(__AVX2__) || defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

bool cpu_has_avx2() noexcept {
#if defined(__AVX2__)
  return true;  // the whole build targets AVX2 already
#elif defined(__x86_64__) && defined(__GNUC__)
  static const bool probed = __builtin_cpu_supports("avx2") != 0;
  return probed;
#else
  return false;
#endif
}

}  // namespace eco::tensor
