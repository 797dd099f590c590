#pragma once
/// \file kernel_counts.hpp
/// \brief Memoized recording for the fast execution path.
///
/// In VlaExecMode::Native the kernels do not record op-by-op; the
/// instruction stream a whilelt strip-mined kernel row would issue is a
/// pure function of (kernel shape, n, VL, tail), so it is recorded once per
/// (shape, n) by dry-running the kernel's own interpreter row
/// (vla::Context::record_dry) and memoized in the Context's count cache.
/// A native tile entry records its whole tile with one call: nj × the
/// row's recording, counted as nj memo probes — exactly what nj row calls
/// record, since the memo folds a run of one key into run × counts.
/// The interpreter is the only definition of each kernel's stream; the
/// equivalence suite (tests/test_vla_fastpath.cpp) pins every shape's op
/// mix across the full VL range and all tail predicates (empty, partial,
/// full), and that no two shapes share a memo key.
///
/// Every kernel, whether primitive (kernels.cpp), multigrid
/// (mg/mg_kernels.cpp) or fused composite (fusion/fused_exec.cpp), is an
/// interpreter row, a V2D_SIMD_BODY body and one tile entry in one file;
/// the tile entry hands the row and the body to run_tile under the
/// kernel's own KernelShape.

#include <cstdint>

#include "linalg/tile.hpp"
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
  // Fused composites (fusion/fused_exec.cpp), one per composite form.
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

/// Fold the recording of `t.nj` calls of `shape`(t.ni) — one tile — into
/// `ctx`: the row's stream is memoized per (shape, ni) in the context's
/// count cache and added nj times, counting nj memo probes (see
/// vla::Context::record_dry).  On a miss `interp(dry)` runs the kernel's
/// interpreter row in a dry context; `calls` and `elements` stay zero
/// (ExecContext::commit owns those).
template <typename Interp>
inline void record_native(vla::Context& ctx, KernelShape shape, const Tile& t,
                          Interp&& interp) {
  const std::uint64_t key = (static_cast<std::uint64_t>(shape) << 56) |
                            (t.ni & 0x00ff'ffff'ffff'ffffULL);
  ctx.record_dry(key, t.nj, interp);
}

/// Run one tile entry in the context's exec mode.  Native: record the tile
/// (record_native, dry-running `row(dry, 0)`) and run `native()`, the one
/// dispatched body with the row loop inside — or only one of the two when
/// the context splits its calls (vla::NativeWork): a RecordOnly call is the
/// entry's record-only form, and a RunOnly call records nothing.
/// Interpret: run `row(ctx, j)` for every row j — the reference, and the
/// source of every recording.
template <typename Row, typename Native>
inline void run_tile(vla::Context& ctx, KernelShape shape, const Tile& t,
                     Row&& row, Native&& native) {
  if (ctx.native()) {
    record_native(ctx, shape, t, [&](vla::Context& dry) { row(dry, 0); });
    if (ctx.runs()) native();
    return;
  }
  for (std::size_t j = 0; j < t.nj; ++j) row(ctx, j);
}

}  // namespace v2d::linalg
