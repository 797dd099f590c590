#include "linalg/stencil_op.hpp"

#include <memory>
#include <vector>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;
using sim::Region;

StencilOperator::StencilOperator(const grid::Grid2D& g,
                                 const grid::Decomposition& d, int ns)
    : grid_(&g),
      dec_(&d),
      ns_(ns),
      cc_(g, d, ns, 1),
      cw_(g, d, ns, 1),
      ce_(g, d, ns, 1),
      cs_(g, d, ns, 1),
      cn_(g, d, ns, 1) {}

void StencilOperator::enable_coupling() {
  V2D_REQUIRE(ns_ == 2, "species coupling is defined for ns == 2");
  if (!csp_) csp_ = std::make_unique<grid::DistField>(*grid_, *dec_, ns_, 1);
}

grid::DistField& StencilOperator::csp() {
  V2D_REQUIRE(csp_, "coupling not enabled");
  return *csp_;
}

const grid::DistField& StencilOperator::csp() const {
  V2D_REQUIRE(csp_, "coupling not enabled");
  return *csp_;
}

void StencilOperator::zero_boundary_coefficients() {
  const int gnx1 = grid_->nx1();
  const int gnx2 = grid_->nx2();
  parallel_for(dec_->nranks(), [&](int r) {
    const grid::TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView w = cw_.view(r, s), ev = ce_.view(r, s);
      grid::TileView sv = cs_.view(r, s), nv = cn_.view(r, s);
      if (e.i0 == 0)
        for (int lj = 0; lj < e.nj; ++lj) w(0, lj) = 0.0;
      if (e.i0 + e.ni == gnx1)
        for (int lj = 0; lj < e.nj; ++lj) ev(e.ni - 1, lj) = 0.0;
      if (e.j0 == 0)
        for (int li = 0; li < e.ni; ++li) sv(li, 0) = 0.0;
      if (e.j0 + e.nj == gnx2)
        for (int li = 0; li < e.ni; ++li) nv(li, e.nj - 1) = 0.0;
    }
  });
}

void StencilOperator::apply(ExecContext& ctx, DistVector& x,
                            DistVector& y) const {
  apply_as(ctx, x, y, KernelFamily::Matvec, Region::Matvec);
}

void StencilOperator::apply_as(ExecContext& ctx, DistVector& x, DistVector& y,
                               KernelFamily family, Region region) const {
  sweep(ctx, x, y, nullptr, nullptr, nullptr, family, region, region);
}

double StencilOperator::apply_dot(ExecContext& ctx, DistVector& x,
                                  DistVector& y, const DistVector* w) const {
  ExactSum dot;
  sweep(ctx, x, y, nullptr, w, &dot, KernelFamily::Matvec, Region::Matvec,
        Region::MatvecDot);
  return dot.value();
}

void StencilOperator::apply_residual(ExecContext& ctx, DistVector& x,
                                     const DistVector& b, DistVector& r) const {
  sweep(ctx, x, r, &b, nullptr, nullptr, KernelFamily::Matvec, Region::Matvec,
        Region::MatvecResidual);
}

void StencilOperator::apply_residual_as(ExecContext& ctx, DistVector& x,
                                        const DistVector& b, DistVector& r,
                                        KernelFamily family,
                                        Region region) const {
  sweep(ctx, x, r, &b, nullptr, nullptr, family, region, region);
}

namespace {

/// One (rank, species) tile of a product form's operands: the five
/// coefficients, x with the rows below and above, y, and, where the form
/// has them, the coupling band (csp and the other species' x), b and the
/// dot's other operand w.
struct ProductTile {
  const double *cc, *cw, *ce, *cs, *cn;
  const double *xc, *xs, *xn;
  const double *sp, *xo;
  const double *b, *w;
  double* y;
  Tile t;
};

}  // namespace

void StencilOperator::sweep(ExecContext& ctx, DistVector& x, DistVector& y,
                            const DistVector* b, const DistVector* w,
                            ExactSum* dot, KernelFamily family, Region region,
                            Region fused_region) const {
  V2D_REQUIRE(x.ns() == ns_ && y.ns() == ns_ &&
                  (b == nullptr || b->ns() == ns_),
              "species count mismatch");
  // The halo exchange is part of the matrix-free product.
  grid::DistField& xf = x.field();
  const auto transfers = xf.exchange_ghosts();
  xf.apply_bc(grid::BcKind::Dirichlet0);  // BCs are folded into coefficients
  ctx.exchange(transfers);

  // The dot's other operand: w, or x itself (the CG p·Ap case, whose fused
  // sweep reuses the center tap).
  const DistVector& wv = w != nullptr ? *w : x;
  const auto tile = [&](int r, int s) {
    const auto base = [r, s](const grid::DistField& f) {
      return const_cast<grid::DistField&>(f).view(r, s).base;
    };
    const grid::TileView xv = xf.view(r, s);
    return ProductTile{base(cc_), base(cw_), base(ce_), base(cs_), base(cn_),
                       xv.base, xv.row(-1), xv.row(1),
                       csp_ ? base(*csp_) : nullptr,
                       csp_ ? xf.view(r, 1 - s).base : nullptr,
                       b != nullptr ? base(b->field()) : nullptr,
                       dot != nullptr ? base(wv.field()) : nullptr,
                       y.field().view(r, s).base, tile_of(xv)};
  };
  // On-the-fly coefficient evaluation: mostly state/table reads plus a
  // little arithmetic, per element (see kMatvecEval* docs).  Those reads
  // revisit the same zones every sweep, so they add traffic (bytes_moved)
  // but not footprint.
  const auto evaluate = [&](vla::Context& v, int r) {
    if (eval_doubles_read_ == 0 && eval_flops_ == 0) return;
    const grid::TileExtent& e = dec_->extent(r);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    v.record_external(sim::OpClass::LoadContig, elements * eval_doubles_read_,
                      elements * eval_doubles_read_ * sizeof(double), 0);
    v.record_external(sim::OpClass::FlopFma, elements * eval_flops_ / 2, 0, 0);
  };

  // y ← A·x: the stencil tile entry, then the coupling tile entry.  Working
  // set: x (with ghosts), y, five coefficients and the coupling band.
  const int arrays = 7 + (csp_ ? 1 : 0);
  const TilePass matvec{family, region, arrays, [&](vla::Context& v, int r) {
                          for (int s = 0; s < ns_; ++s) {
                            const ProductTile o = tile(r, s);
                            stencil_rows(v, o.cc, o.cw, o.ce, o.cs, o.cn, o.xc,
                                         o.xs, o.xn, o.y, o.t);
                            if (csp_) coupling_rows(v, o.sp, o.xo, o.y, o.t);
                          }
                          evaluate(v, r);
                        }};
  if (b == nullptr && dot == nullptr) return sweep_pass(ctx, y.field(), matvec);

  // The fused form: y ← b − A·x, or y ← A·x with *dot += w·y, in one tile
  // entry.  It also streams b or a distinct w; the dot itself streams
  // nothing extra.  Per-rank exact partials of the dot, merged below, are
  // the same exact sum dot_ganged forms, so the result is bit-identical in
  // both fuse modes and independent of the tiling and host-thread count.
  std::vector<ExactSum> partial(
      dot != nullptr ? static_cast<std::size_t>(dec_->nranks()) : 0);
  const TilePass fused{
      family, fused_region, arrays + (b != nullptr || w != nullptr ? 1 : 0),
      [&](vla::Context& v, int r) {
        ExactSum* acc =
            dot != nullptr ? &partial[static_cast<std::size_t>(r)] : nullptr;
        for (int s = 0; s < ns_; ++s) {
          const ProductTile o = tile(r, s);
          fusion::stencil_rows_fused(v, o.cc, o.cw, o.ce, o.cs, o.cn, o.xc,
                                     o.xs, o.xn, o.sp, o.xo, o.b, o.w, acc,
                                     o.y, o.t);
        }
        evaluate(v, r);
      }};
  if (b != nullptr) {
    // Off: the product into y, then SUB y ← b − y.
    sweep_composite(
        ctx, y.field(), fused, matvec,
        tile_pass(KernelFamily::VecMisc, Region::Sub,
                  {&b->field(), &y.field(), &y.field()},
                  [](vla::Context& v, int, const auto& p, const Tile& t) {
                    sub(v, p[0], p[1], p[2], t);
                  }));
    return;
  }
  // Off: the product, then dot_ganged's DPROD of the one pair w·y.  Its
  // exact sum is added here only where the fused body did not run.
  sweep_composite(
      ctx, y.field(), fused, matvec,
      tile_pass(KernelFamily::Dprod, Region::Dprod, {&wv.field(), &y.field()},
                [&](vla::Context& v, int r, const auto& p, const Tile& t) {
                  dprod_record_only(v, p[0], p[1], t);
                  if (!v.runs()) return;
                  ExactSum::Gang gang(t.stride, t.ni, t.nj);
                  gang.add(p[0], p[1], &partial[static_cast<std::size_t>(r)]);
                  gang.sweep();
                }));
  // The dot pays its single global reduction.
  ctx.allreduce(sizeof(double));
  for (const ExactSum& p : partial) dot->add(p);
}

BandedMatrix StencilOperator::assemble() const {
  const std::int64_t nx1 = grid_->nx1();
  const std::int64_t plane = nx1 * grid_->nx2();
  std::vector<std::int64_t> offsets = {0, -1, 1, -nx1, nx1};
  if (csp_) {
    offsets.push_back(-plane);
    offsets.push_back(plane);
  }
  BandedMatrix A(size(), std::move(offsets));

  auto* self = const_cast<StencilOperator*>(this);
  for (int r = 0; r < dec_->nranks(); ++r) {
    const grid::TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView vcc = self->cc_.view(r, s);
      grid::TileView vcw = self->cw_.view(r, s);
      grid::TileView vce = self->ce_.view(r, s);
      grid::TileView vcs = self->cs_.view(r, s);
      grid::TileView vcn = self->cn_.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const std::int64_t row = grid_->linear_index(s, gi, gj);
          A.at(row, 0) = vcc(li, lj);
          if (gi > 0) A.at(row, -1) = vcw(li, lj);
          if (gi + 1 < nx1) A.at(row, 1) = vce(li, lj);
          if (gj > 0) A.at(row, -nx1) = vcs(li, lj);
          if (gj + 1 < grid_->nx2()) A.at(row, nx1) = vcn(li, lj);
          if (csp_) {
            grid::TileView vsp = self->csp_->view(r, s);
            A.at(row, s == 0 ? plane : -plane) = vsp(li, lj);
          }
        }
      }
    }
  }
  return A;
}

}  // namespace v2d::linalg
