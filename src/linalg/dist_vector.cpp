#include "linalg/dist_vector.hpp"

#include <cmath>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

void require_same_shape(const grid::DistField& a, const grid::DistField& b) {
  bool same =
      a.ns() == b.ns() && a.ng() == b.ng() && a.nranks() == b.nranks();
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

// Each op below is one rank loop over its operands, listed as the op's
// working set, outputs last.  A tile op's `p` holds the operands' tile
// bases in list order.

using sim::Region;

namespace {

// The passes of the kernels that also make up a composite's Off sequence.

auto daxpy_pass(double a, const grid::DistField& x, grid::DistField& y) {
  return tile_pass(KernelFamily::Daxpy, Region::Daxpy, {&x, &y},
                   [a](vla::Context& v, int, const auto& p, const Tile& t) {
                     linalg::daxpy(v, a, p[0], p[1], t);
                   });
}

auto xpby_pass(const grid::DistField& x, double b, grid::DistField& y) {
  return tile_pass(KernelFamily::VecMisc, Region::Xpby, {&x, &y},
                   [b](vla::Context& v, int, const auto& p, const Tile& t) {
                     linalg::xpby(v, p[0], b, p[1], t);
                   });
}

auto copy_pass(const grid::DistField& x, grid::DistField& y) {
  return tile_pass(KernelFamily::VecMisc, Region::Copy, {&x, &y},
                   [](vla::Context& v, int, const auto& p, const Tile& t) {
                     linalg::copy(v, p[0], p[1], t);
                   });
}

}  // namespace

void DistVector::daxpy(ExecContext& ctx, double a, const DistVector& x) {
  sweep_pass(ctx, field_, daxpy_pass(a, x.field_, field_));
}

void DistVector::dscal(ExecContext& ctx, double c, double d) {
  sweep_tiles(ctx, KernelFamily::Dscal, Region::Dscal, {&field_},
              [c, d](vla::Context& v, int, const auto& p, const Tile& t) {
                linalg::dscal(v, c, d, p[0], t);
              });
}

void DistVector::ddaxpy(ExecContext& ctx, double a, const DistVector& x,
                        double b, const DistVector& y) {
  sweep_tiles(ctx, KernelFamily::Ddaxpy, Region::Ddaxpy,
              {&x.field_, &y.field_, &field_},
              [a, b](vla::Context& v, int, const auto& p, const Tile& t) {
                linalg::ddaxpy(v, a, p[0], b, p[1], p[2], t);
              });
}

void DistVector::xpby(ExecContext& ctx, const DistVector& x, double b) {
  sweep_pass(ctx, field_, xpby_pass(x.field_, b, field_));
}

void DistVector::copy_from(ExecContext& ctx, const DistVector& x) {
  sweep_pass(ctx, field_, copy_pass(x.field_, field_));
}

void DistVector::fill(ExecContext& ctx, double a) {
  sweep_tiles(ctx, KernelFamily::VecMisc, Region::Fill, {&field_},
              [a](vla::Context& v, int, const auto& p, const Tile& t) {
                linalg::fill(v, a, p[0], t);
              });
}

void DistVector::assign_sub(ExecContext& ctx, const DistVector& x,
                            const DistVector& y) {
  sweep_tiles(ctx, KernelFamily::VecMisc, Region::Sub,
              {&x.field_, &y.field_, &field_},
              [](vla::Context& v, int, const auto& p, const Tile& t) {
                linalg::sub(v, p[0], p[1], p[2], t);
              });
}

void DistVector::daxpy2(ExecContext& ctx, DistVector& x, double a,
                        const DistVector& p, DistVector& r, double b,
                        const DistVector& q) {
  sweep_composite(
      ctx, x.field_,
      tile_pass(KernelFamily::Daxpy, Region::Daxpy2,
                {&p.field_, &q.field_, &x.field_, &r.field_},
                [a, b](vla::Context& v, int, const auto& o, const Tile& t) {
                  fusion::daxpy2(v, a, o[0], o[2], b, o[1], o[3], t);
                }),
      daxpy_pass(a, p.field_, x.field_), daxpy_pass(b, q.field_, r.field_));
}

void DistVector::assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                             const DistVector& z) {
  sweep_composite(
      ctx, field_,
      tile_pass(KernelFamily::VecMisc, Region::Axpy,
                {&x.field_, &z.field_, &field_},
                [a](vla::Context& v, int, const auto& p, const Tile& t) {
                  fusion::axpy_out(v, p[0], a, p[1], p[2], t);
                }),
      copy_pass(x.field_, field_), daxpy_pass(a, z.field_, field_));
}

void DistVector::p_update(ExecContext& ctx, const DistVector& x, double b,
                          double w, const DistVector& v) {
  sweep_composite(
      ctx, field_,
      tile_pass(KernelFamily::VecMisc, Region::PUpdate,
                {&x.field_, &v.field_, &field_},
                [b, w](vla::Context& vc, int, const auto& p, const Tile& t) {
                  fusion::p_update(vc, p[0], b, w, p[1], p[2], t);
                }),
      daxpy_pass(-w, v.field_, field_), xpby_pass(x.field_, b, field_));
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
  // recording still prices the ordinary strip-mined DPROD the hardware
  // would run, one tile entry per (pair, species): on the fast path only
  // its memoized recording is kept, so execution and recording are fully
  // decoupled.  The sums run as one gang sweep per (rank, species), which
  // loads each distinct vector of the pairs once.  Each rank sums its tiles
  // into private partials, so threads share no state, and the partials
  // merge in any order.
  const int nranks = first.nranks();
  const std::size_t np = pairs.size();
  std::vector<ExactSum> partial(static_cast<std::size_t>(nranks) * np);
  par_ranks(ctx, first, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = first.field().decomp().extent(r);
    ExactSum* acc = &partial[static_cast<std::size_t>(r) * np];
    for (int s = 0; s < first.ns(); ++s) {
      const Tile t = tile_of(
          const_cast<DistVector&>(first).field().view(r, s));
      ExactSum::Gang gang(t.stride, t.ni, t.nj);
      for (std::size_t k = 0; k < np; ++k) {
        const grid::TileView xv =
            const_cast<DistVector*>(pairs[k].x)->field().view(r, s);
        const grid::TileView yv =
            const_cast<DistVector*>(pairs[k].y)->field().view(r, s);
        linalg::dprod_record_only(rctx.vctx, xv.base, yv.base, t);
        gang.add(xv.base, yv.base, &acc[k]);
      }
      gang.sweep();
    }
    const auto elements =
        static_cast<std::uint64_t>(e.ni) * e.nj * first.ns() * np;
    rctx.commit(r, KernelFamily::Dprod, Region::Dprod, elements,
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
