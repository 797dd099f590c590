#pragma once
/// \file simd.hpp
/// \brief One kernel body, two vector widths: generic x86-64 and AVX2.
///
/// A native kernel is written once, as a `V2D_SIMD_BODY` function, and
/// `simd::dispatch<&body>(args…)` runs it either as compiled for the
/// baseline target or inlined into a `target("avx2")` instantiation.  The
/// width is picked once, on first use, from the host CPU.
///
/// Both widths give the same bits.  Elementwise bodies keep their
/// per-element expression order, which vectorizing does not change, and
/// the only reductions run through the exact accumulator
/// (support/exact_sum.hpp), whose result no split of the work can change.
/// The AVX2 instantiation enables nothing else: no `fma` (contraction would
/// round a·b + c once instead of twice, unlike the interpreter) and no
/// `arch=`.
///
/// Vector-extension types stay inside the bodies.  A 32-byte vector passed
/// by value across this boundary would change the calling convention
/// between the two widths (gcc's -Wpsabi).

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define V2D_SIMD_HAVE_AVX2 1
#define V2D_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define V2D_SIMD_HAVE_AVX2 0
#define V2D_SIMD_TARGET_AVX2
#endif

/// Marks a kernel body: always inlined, so each width compiles its own copy.
#define V2D_SIMD_BODY __attribute__((always_inline)) inline

namespace v2d::simd {

enum class Width : std::uint8_t { Generic, Avx2 };

/// True when the host CPU runs AVX2 code (and this build can emit it).
bool avx2_supported();

namespace detail {
/// The active width, picked on first use.
inline std::atomic<Width>& active() {
  static std::atomic<Width> w{avx2_supported() ? Width::Avx2
                                               : Width::Generic};
  return w;
}
}  // namespace detail

/// The width the native kernels run at: AVX2 where supported, else generic.
inline Width width() {
  return detail::active().load(std::memory_order_relaxed);
}

/// Run the native kernels at `w` from now on (tests compare both widths).
/// Requesting AVX2 on a CPU without it is a v2d::Error.  Call it only while
/// no kernel runs on another thread.
void set_width(Width w);

const char* width_name(Width w);

namespace detail {
template <auto Body, class... A>
V2D_SIMD_TARGET_AVX2 decltype(auto) at_avx2(A... a) {
  return Body(a...);
}
}  // namespace detail

/// Call `Body(a…)` at the current width.  A body templated on its register
/// width passes its AVX2 instantiation as `Wide`.
template <auto Body, auto Wide = Body, class... A>
inline decltype(auto) dispatch(A... a) {
#if V2D_SIMD_HAVE_AVX2
  if (width() == Width::Avx2) return detail::at_avx2<Wide>(a...);
#endif
  return Body(a...);
}

}  // namespace v2d::simd
