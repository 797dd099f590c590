#include "linalg/dist_vector.hpp"

#include <cmath>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

namespace {
void require_same_shape(const DistVector& a, const DistVector& b) {
  V2D_REQUIRE(a.ns() == b.ns() && a.nranks() == b.nranks() &&
                  a.global_size() == b.global_size(),
              "distributed vectors have different shapes");
}
}  // namespace

std::uint64_t DistVector::working_set(int rank, int arrays) const {
  const grid::TileExtent& e = field_.decomp().extent(rank);
  return static_cast<std::uint64_t>(arrays) * field_.ns() *
         static_cast<std::uint64_t>(e.ni) * e.nj * sizeof(double);
}

template <typename RowOp>
void DistVector::for_each_row(ExecContext& ctx, KernelFamily family,
                              const std::string& region, int arrays,
                              RowOp&& op) {
  par_ranks(ctx, field_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = field_.decomp().extent(r);
    for (int s = 0; s < ns(); ++s) {
      for (int lj = 0; lj < e.nj; ++lj) {
        op(rctx, r, s, lj, static_cast<std::size_t>(e.ni));
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns();
    rctx.commit(r, family, region, elements, working_set(r, arrays));
  });
}

void DistVector::daxpy(ExecContext& ctx, double a, const DistVector& x) {
  require_same_shape(*this, x);
  for_each_row(ctx, KernelFamily::Daxpy, "daxpy", 2,
               [this, a, xp = &x](ExecContext& rctx, int r, int s, int lj,
                                  std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::daxpy(rctx.vctx, a,
                               std::span<const double>(xv.row(lj), n),
                               std::span<double>(yv.row(lj), n));
               });
}

void DistVector::dscal(ExecContext& ctx, double c, double d) {
  for_each_row(ctx, KernelFamily::Dscal, "dscal", 1,
               [this, c, d](ExecContext& rctx, int r, int s, int lj,
                            std::size_t n) {
                 grid::TileView yv = field_.view(r, s);
                 linalg::dscal(rctx.vctx, c, d,
                               std::span<double>(yv.row(lj), n));
               });
}

void DistVector::ddaxpy(ExecContext& ctx, double a, const DistVector& x,
                        double b, const DistVector& y) {
  require_same_shape(*this, x);
  require_same_shape(*this, y);
  for_each_row(ctx, KernelFamily::Ddaxpy, "ddaxpy", 3,
               [this, a, b, xp = &x, yp = &y](ExecContext& rctx, int r, int s,
                                              int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv =
                     const_cast<DistVector*>(yp)->field().view(r, s);
                 grid::TileView zv = field_.view(r, s);
                 linalg::ddaxpy(rctx.vctx, a,
                                std::span<const double>(xv.row(lj), n), b,
                                std::span<const double>(yv.row(lj), n),
                                std::span<double>(zv.row(lj), n));
               });
}

void DistVector::xpby(ExecContext& ctx, const DistVector& x, double b) {
  require_same_shape(*this, x);
  for_each_row(ctx, KernelFamily::VecMisc, "xpby", 2,
               [this, b, xp = &x](ExecContext& rctx, int r, int s, int lj,
                                  std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::xpby(rctx.vctx,
                              std::span<const double>(xv.row(lj), n), b,
                              std::span<double>(yv.row(lj), n));
               });
}

void DistVector::copy_from(ExecContext& ctx, const DistVector& x) {
  require_same_shape(*this, x);
  for_each_row(ctx, KernelFamily::VecMisc, "copy", 2,
               [this, xp = &x](ExecContext& rctx, int r, int s, int lj,
                               std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::copy(rctx.vctx,
                              std::span<const double>(xv.row(lj), n),
                              std::span<double>(yv.row(lj), n));
               });
}

void DistVector::fill(ExecContext& ctx, double a) {
  for_each_row(ctx, KernelFamily::VecMisc, "fill", 1,
               [this, a](ExecContext& rctx, int r, int s, int lj,
                         std::size_t n) {
                 grid::TileView yv = field_.view(r, s);
                 linalg::fill(rctx.vctx, a, std::span<double>(yv.row(lj), n));
               });
}

void DistVector::assign_sub(ExecContext& ctx, const DistVector& x,
                            const DistVector& y) {
  require_same_shape(*this, x);
  require_same_shape(*this, y);
  for_each_row(ctx, KernelFamily::VecMisc, "sub", 3,
               [this, xp = &x, yp = &y](ExecContext& rctx, int r, int s,
                                        int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv =
                     const_cast<DistVector*>(yp)->field().view(r, s);
                 grid::TileView zv = field_.view(r, s);
                 linalg::sub(rctx.vctx,
                             std::span<const double>(xv.row(lj), n),
                             std::span<const double>(yv.row(lj), n),
                             std::span<double>(zv.row(lj), n));
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
  require_same_shape(x, p);
  require_same_shape(x, r);
  require_same_shape(x, q);
  x.for_each_row(ctx, KernelFamily::Daxpy, "daxpy2", 4,
                 [a, b, xp = &x, pp = &p, rp = &r, qp = &q](
                     ExecContext& rctx, int rk, int s, int lj, std::size_t n) {
                   grid::TileView pv =
                       const_cast<DistVector*>(pp)->field().view(rk, s);
                   grid::TileView qv =
                       const_cast<DistVector*>(qp)->field().view(rk, s);
                   grid::TileView xv = xp->field().view(rk, s);
                   grid::TileView rv = rp->field().view(rk, s);
                   fusion::daxpy2(rctx.vctx, a,
                                  std::span<const double>(pv.row(lj), n),
                                  std::span<double>(xv.row(lj), n), b,
                                  std::span<const double>(qv.row(lj), n),
                                  std::span<double>(rv.row(lj), n));
                 });
}

void DistVector::assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                             const DistVector& z) {
  if (!ctx.fused()) {
    copy_from(ctx, x);
    daxpy(ctx, a, z);
    return;
  }
  require_same_shape(*this, x);
  require_same_shape(*this, z);
  for_each_row(ctx, KernelFamily::VecMisc, "axpy", 3,
               [this, a, xp = &x, zp = &z](ExecContext& rctx, int r, int s,
                                           int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView zv =
                     const_cast<DistVector*>(zp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 fusion::axpy_out(rctx.vctx,
                                  std::span<const double>(xv.row(lj), n), a,
                                  std::span<const double>(zv.row(lj), n),
                                  std::span<double>(yv.row(lj), n));
               });
}

void DistVector::p_update(ExecContext& ctx, const DistVector& x, double b,
                          double w, const DistVector& v) {
  if (!ctx.fused()) {
    daxpy(ctx, -w, v);
    xpby(ctx, x, b);
    return;
  }
  require_same_shape(*this, x);
  require_same_shape(*this, v);
  for_each_row(ctx, KernelFamily::VecMisc, "p-update", 3,
               [this, b, w, xp = &x, vp = &v](ExecContext& rctx, int r, int s,
                                              int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView vv =
                     const_cast<DistVector*>(vp)->field().view(r, s);
                 grid::TileView pv = field_.view(r, s);
                 fusion::p_update(rctx.vctx,
                                  std::span<const double>(xv.row(lj), n), b,
                                  w, std::span<const double>(vv.row(lj), n),
                                  std::span<double>(pv.row(lj), n));
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
    require_same_shape(*pr.x, *pr.y);
    require_same_shape(*pr.x, first);
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
