#include "tensor/backend.hpp"

namespace eco::tensor {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kReference:
      return "reference";
    case Backend::kFast:
      return "fast";
    case Backend::kSimd:
      return "simd";
  }
  return "unknown";
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
