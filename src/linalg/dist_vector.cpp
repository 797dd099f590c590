#include "linalg/dist_vector.hpp"

#include <cmath>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

void require_same_shape(const grid::DistField& a, const grid::DistField& b) {
  bool same = a.ns() == b.ns() && a.nranks() == b.nranks();
  // Operands walk one extent per rank, so each rank's tile must match.
  for (int r = 0; same && &a.decomp() != &b.decomp() && r < a.nranks(); ++r) {
    const grid::TileExtent& ea = a.decomp().extent(r);
    const grid::TileExtent& eb = b.decomp().extent(r);
    same = ea.i0 == eb.i0 && ea.j0 == eb.j0 && ea.ni == eb.ni && ea.nj == eb.nj;
  }
  V2D_REQUIRE(same, "distributed vectors have different shapes");
}

std::uint64_t DistVector::working_set(int rank, int arrays) const {
  const grid::TileExtent& e = field_.decomp().extent(rank);
  return static_cast<std::uint64_t>(arrays) * field_.ns() *
         static_cast<std::uint64_t>(e.ni) * e.nj * sizeof(double);
}

// Each op below is one sweep_rows call; its operand list is the op's
// working set, outputs last.  A row op's `row` holds the operands' row
// starts in list order.

void DistVector::daxpy(ExecContext& ctx, double a, const DistVector& x) {
  sweep_rows(ctx, KernelFamily::Daxpy, "daxpy", {&x.field_, &field_},
             [a](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::daxpy(v, a, {row[0], n}, {row[1], n});
             });
}

void DistVector::dscal(ExecContext& ctx, double c, double d) {
  sweep_rows(ctx, KernelFamily::Dscal, "dscal", {&field_},
             [c, d](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::dscal(v, c, d, {row[0], n});
             });
}

void DistVector::ddaxpy(ExecContext& ctx, double a, const DistVector& x,
                        double b, const DistVector& y) {
  sweep_rows(ctx, KernelFamily::Ddaxpy, "ddaxpy",
             {&x.field_, &y.field_, &field_},
             [a, b](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::ddaxpy(v, a, {row[0], n}, b, {row[1], n},
                              {row[2], n});
             });
}

void DistVector::xpby(ExecContext& ctx, const DistVector& x, double b) {
  sweep_rows(ctx, KernelFamily::VecMisc, "xpby", {&x.field_, &field_},
             [b](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::xpby(v, {row[0], n}, b, {row[1], n});
             });
}

void DistVector::copy_from(ExecContext& ctx, const DistVector& x) {
  sweep_rows(ctx, KernelFamily::VecMisc, "copy", {&x.field_, &field_},
             [](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::copy(v, {row[0], n}, {row[1], n});
             });
}

void DistVector::fill(ExecContext& ctx, double a) {
  sweep_rows(ctx, KernelFamily::VecMisc, "fill", {&field_},
             [a](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::fill(v, a, {row[0], n});
             });
}

void DistVector::assign_sub(ExecContext& ctx, const DistVector& x,
                            const DistVector& y) {
  sweep_rows(ctx, KernelFamily::VecMisc, "sub",
             {&x.field_, &y.field_, &field_},
             [](vla::Context& v, int, const auto& row, std::size_t n) {
               linalg::sub(v, {row[0], n}, {row[1], n}, {row[2], n});
             });
}

void DistVector::daxpy2(ExecContext& ctx, DistVector& x, double a,
                        const DistVector& p, DistVector& r, double b,
                        const DistVector& q) {
  if (!ctx.fused()) {
    x.daxpy(ctx, a, p);
    r.daxpy(ctx, b, q);
    return;
  }
  sweep_rows(ctx, KernelFamily::Daxpy, "daxpy2",
             {&p.field_, &q.field_, &x.field_, &r.field_},
             [a, b](vla::Context& v, int, const auto& row, std::size_t n) {
               fusion::daxpy2(v, a, {row[0], n}, {row[2], n}, b,
                              {row[1], n}, {row[3], n});
             });
}

void DistVector::assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                             const DistVector& z) {
  if (!ctx.fused()) {
    copy_from(ctx, x);
    daxpy(ctx, a, z);
    return;
  }
  sweep_rows(ctx, KernelFamily::VecMisc, "axpy",
             {&x.field_, &z.field_, &field_},
             [a](vla::Context& v, int, const auto& row, std::size_t n) {
               fusion::axpy_out(v, {row[0], n}, a, {row[1], n}, {row[2], n});
             });
}

void DistVector::p_update(ExecContext& ctx, const DistVector& x, double b,
                          double w, const DistVector& v) {
  if (!ctx.fused()) {
    daxpy(ctx, -w, v);
    xpby(ctx, x, b);
    return;
  }
  sweep_rows(ctx, KernelFamily::VecMisc, "p-update",
             {&x.field_, &v.field_, &field_},
             [b, w](vla::Context& vc, int, const auto& row, std::size_t n) {
               fusion::p_update(vc, {row[0], n}, b, w, {row[1], n},
                                {row[2], n});
             });
}

double DistVector::dot(ExecContext& ctx, const DistVector& x,
                       const DistVector& y) {
  const DotPair pair{&x, &y};
  return dot_ganged(ctx, std::span<const DotPair>(&pair, 1))[0];
}

std::vector<double> DistVector::dot_ganged(ExecContext& ctx,
                                           std::span<const DotPair> pairs) {
  V2D_REQUIRE(!pairs.empty(), "dot_ganged: no pairs");
  const DistVector& first = *pairs[0].x;
  for (const DotPair& pr : pairs) {
    require_same_shape(pr.x->field_, pr.y->field_);
    require_same_shape(pr.x->field_, first.field_);
  }
  // Each inner product is the exact sum of its once-rounded products,
  // rounded once (see support/exact_sum.hpp), so neither the tiling, the
  // SIMD width nor the host-thread count can change its bits.  The VLA
  // recording below still prices the ordinary strip-mined DPROD the
  // hardware would run; on the fast path the DPROD is not computed at all
  // and only its memoized recording is kept — execution and recording
  // fully decoupled.  Each rank sums its tiles into private partials, so
  // threads share no state, and the partials merge in any order.
  const bool fast = ctx.vctx.native();
  const int nranks = first.nranks();
  const std::size_t np = pairs.size();
  std::vector<ExactSum> partial(static_cast<std::size_t>(nranks) * np);
  par_ranks(ctx, first, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = first.field().decomp().extent(r);
    const auto ni = static_cast<std::size_t>(e.ni);
    ExactSum* acc = &partial[static_cast<std::size_t>(r) * np];
    for (std::size_t k = 0; k < np; ++k) {
      for (int s = 0; s < first.ns(); ++s) {
        grid::TileView xv =
            const_cast<DistVector*>(pairs[k].x)->field().view(r, s);
        grid::TileView yv =
            const_cast<DistVector*>(pairs[k].y)->field().view(r, s);
        for (int lj = 0; lj < e.nj; ++lj) {
          const std::span<const double> xr(xv.row(lj), ni);
          const std::span<const double> yr(yv.row(lj), ni);
          if (fast)
            linalg::dprod_record_only(rctx.vctx, xr, yr);
          else
            (void)linalg::dprod(rctx.vctx, xr, yr);
        }
        acc[k].add_dot_rows(xv.row(0), xv.row_stride, yv.row(0),
                            yv.row_stride, ni, static_cast<std::size_t>(e.nj));
      }
    }
    const auto elements =
        static_cast<std::uint64_t>(e.ni) * e.nj * first.ns() * np;
    rctx.commit(r, KernelFamily::Dprod, "dprod", elements,
                first.working_set(r, 2 * static_cast<int>(np)));
  });
  // One ganged allreduce for all inner products in the gang.
  ctx.allreduce(np * sizeof(double));
  std::vector<double> out(np);
  for (std::size_t k = 0; k < np; ++k) {
    ExactSum total;
    for (int r = 0; r < nranks; ++r)
      total.add(partial[static_cast<std::size_t>(r) * np + k]);
    out[k] = total.value();
  }
  return out;
}

double DistVector::norm2(ExecContext& ctx, const DistVector& x) {
  return std::sqrt(dot(ctx, x, x));
}

}  // namespace v2d::linalg
