#pragma once
/// \file kernel_counts.hpp
/// \brief Closed-form KernelCounts formulas for the fast execution path.
///
/// In VlaExecMode::Native the kernels do not record op-by-op; the
/// instruction stream a whilelt strip-mined kernel would issue is a pure
/// function of (kernel shape, n, VL, tail), so it is computed once from
/// the formulas here and memoized in the Context's count cache.  The
/// equivalence suite (tests/test_vla_fastpath.cpp) pins every formula to
/// the interpreter's recording across the full VL range and all tail
/// predicates (empty, partial, full).

#include <cstdint>

#include "sim/isa.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// Kernel shapes with analytic recordings.  Values are stable cache-key
/// tags (packed with n into the Context memo key).
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
};

/// The exact KernelCounts the interpreter backend records for one call of
/// `shape` over n elements at vector length `vl` lanes.  `calls` and
/// `elements` are left zero (ExecContext::commit owns those).
sim::KernelCounts analytic_counts(KernelShape shape, std::uint64_t n,
                                  unsigned vl);

/// Fold the analytic recording for one `shape`(n) call into `ctx`,
/// memoized per (shape, n) in the context's count cache.
inline void record_analytic(vla::Context& ctx, KernelShape shape,
                            std::uint64_t n) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(shape) << 56) | (n & 0x00ff'ffff'ffff'ffffULL);
  ctx.record_memo(key, [&] { return analytic_counts(shape, n, ctx.lanes()); });
}

}  // namespace v2d::linalg
