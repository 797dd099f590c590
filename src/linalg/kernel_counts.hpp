#pragma once
/// \file kernel_counts.hpp
/// \brief Memoized recording for the fast execution path.
///
/// In VlaExecMode::Native the kernels do not record op-by-op; the
/// instruction stream a whilelt strip-mined kernel would issue is a pure
/// function of (kernel shape, n, VL, tail), so it is recorded once per
/// (shape, n) by dry-running the kernel's own interpreter body
/// (vla::Context::record_dry) and memoized in the Context's count cache.
/// The interpreter is the only definition of each kernel's stream; the
/// equivalence suite (tests/test_vla_fastpath.cpp) pins every primitive
/// shape's op mix across the full VL range and all tail predicates (empty,
/// partial, full), and that no two shapes share a memo key.
///
/// The fused composites of --fuse plan (src/linalg/fusion/) are shapes
/// like any other: each records its interpreter sweep through
/// record_native under its own value after ProlongRow.

#include <cstdint>

#include "vla/vla.hpp"

namespace v2d::linalg {

/// Kernel shapes with memoized recordings.  Values are stable cache-key
/// tags (packed with n into the Context memo key), one per primitive
/// kernel and one per fused composite.
enum class KernelShape : std::uint8_t {
  Dprod,
  Daxpy,
  Dscal,
  Ddaxpy,
  Xpby,
  Copy,
  Fill,
  Sub,
  Hadamard,
  StencilRow,
  CouplingRow,
  DiagCorrectRow,
  DiagScaleRow,
  RestrictRow,
  ProlongRow,
  // Fused composites (fusion/fused_exec.cpp), one per lowered chain.
  Daxpy2,
  AxpyOut,
  PUpdate,
  HadamardDot2,
  HadamardUpdateDot2,
  StencilSub,
  StencilSubCoupled,
  StencilDot,
  StencilDotW,
  StencilDotCoupled,
  StencilDotWCoupled,
};

/// Fold the recording of one `shape`(n) call into `ctx`, memoized per
/// (shape, n) in the context's count cache.  On a miss `interp(dry)` runs
/// the kernel's interpreter path in a dry context (see
/// vla::Context::record_dry); `calls` and `elements` stay zero
/// (ExecContext::commit owns those).
template <typename Interp>
inline void record_native(vla::Context& ctx, KernelShape shape,
                          std::uint64_t n, Interp&& interp) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(shape) << 56) | (n & 0x00ff'ffff'ffff'ffffULL);
  ctx.record_dry(key, interp);
}

}  // namespace v2d::linalg
