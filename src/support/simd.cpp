#include "support/simd.hpp"

#include "support/error.hpp"

namespace v2d::simd {

bool avx2_supported() {
#if V2D_SIMD_HAVE_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void set_width(Width w) {
  V2D_REQUIRE(w == Width::Generic || avx2_supported(),
              "this CPU cannot run the AVX2 kernels");
  detail::active().store(w, std::memory_order_relaxed);
}

const char* width_name(Width w) {
  return w == Width::Avx2 ? "avx2" : "generic";
}

}  // namespace v2d::simd
