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
  sweep(ctx, x, y, nullptr, nullptr, nullptr, family, region);
}

double StencilOperator::apply_dot(ExecContext& ctx, DistVector& x,
                                  DistVector& y, const DistVector* w) const {
  if (!ctx.fused()) {
    apply(ctx, x, y);
    return DistVector::dot(ctx, w != nullptr ? *w : x, y);
  }
  ExactSum dot;
  sweep(ctx, x, y, nullptr, w, &dot, KernelFamily::Matvec, Region::MatvecDot);
  return dot.value();
}

void StencilOperator::apply_residual(ExecContext& ctx, DistVector& x,
                                     const DistVector& b, DistVector& r) const {
  apply_residual_as(ctx, x, b, r, KernelFamily::Matvec,
                    ctx.fused() ? Region::MatvecResidual : Region::Matvec);
}

void StencilOperator::apply_residual_as(ExecContext& ctx, DistVector& x,
                                        const DistVector& b, DistVector& r,
                                        KernelFamily family,
                                        Region region) const {
  if (ctx.fused()) {
    sweep(ctx, x, r, &b, nullptr, nullptr, family, region);
    return;
  }
  apply_as(ctx, x, r, family, region);
  r.assign_sub(ctx, b, r);
}

void StencilOperator::sweep(ExecContext& ctx, DistVector& x, DistVector& y,
                            const DistVector* b, const DistVector* w,
                            ExactSum* dot, KernelFamily family,
                            Region region) const {
  V2D_REQUIRE(x.ns() == ns_ && y.ns() == ns_ &&
                  (b == nullptr || b->ns() == ns_),
              "species count mismatch");
  // The halo exchange is part of the matrix-free product.
  grid::DistField& xf = x.field();
  const auto transfers = xf.exchange_ghosts();
  xf.apply_bc(grid::BcKind::Dirichlet0);  // BCs are folded into coefficients
  ctx.exchange(transfers);

  auto* self = const_cast<StencilOperator*>(this);
  auto* bf = b != nullptr ? &const_cast<DistVector*>(b)->field() : nullptr;
  auto* wf = w != nullptr ? &const_cast<DistVector*>(w)->field() : nullptr;
  const bool fused = b != nullptr || dot != nullptr;
  // Per-rank exact partials of the dot, merged below — the same exact sum
  // dot_ganged forms, so the result is bit-identical to the unfused
  // apply() + dot() and independent of the tiling and host-thread count.
  std::vector<ExactSum> partial(
      dot != nullptr ? static_cast<std::size_t>(dec_->nranks()) : 0);
  par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    ExactSum* acc = dot != nullptr ? &partial[static_cast<std::size_t>(r)]
                                   : nullptr;
    for (int s = 0; s < ns_; ++s) {
      grid::TileView xv = xf.view(r, s), yv = y.field().view(r, s);
      const double* cc = self->cc_.view(r, s).base;
      const double* cw = self->cw_.view(r, s).base;
      const double* ce = self->ce_.view(r, s).base;
      const double* cs = self->cs_.view(r, s).base;
      const double* cn = self->cn_.view(r, s).base;
      // Coupling band: csp and the other species' x; residual b; dot w.
      const double* sp = csp_ ? self->csp_->view(r, s).base : nullptr;
      const double* xo = csp_ ? xf.view(r, 1 - s).base : nullptr;
      const double* bv = bf != nullptr ? bf->view(r, s).base : nullptr;
      const double* wv = acc == nullptr ? nullptr
                         : wf != nullptr ? wf->view(r, s).base
                                         : xv.base;
      const Tile t = tile_of(xv);
      if (fused) {
        fusion::stencil_rows_fused(rctx.vctx, cc, cw, ce, cs, cn, xv.base,
                                   xv.row(-1), xv.row(1), sp, xo, bv, wv, acc,
                                   yv.base, t);
        continue;
      }
      stencil_rows(rctx.vctx, cc, cw, ce, cs, cn, xv.base, xv.row(-1),
                   xv.row(1), yv.base, t);
      if (csp_) coupling_rows(rctx.vctx, sp, xo, yv.base, t);
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    if (eval_doubles_read_ > 0 || eval_flops_ > 0) {
      // On-the-fly coefficient evaluation: mostly state/table reads plus
      // a little arithmetic, per element (see kMatvecEval* docs).
      rctx.vctx.record_external(sim::OpClass::LoadContig,
                                elements * eval_doubles_read_,
                                elements * eval_doubles_read_ * sizeof(double),
                                0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * eval_flops_ / 2, 0, 0);
    }
    // Working set: x (with ghosts), y, five coefficient arrays, plus the
    // coupling, b and a distinct w when present; the dot itself streams
    // nothing extra.  The on-the-fly evaluation's table/state reads
    // revisit the same zones every sweep, so they add traffic
    // (bytes_moved) but not footprint.
    const int arrays = 7 + (csp_ ? 1 : 0) + (b != nullptr ? 1 : 0) +
                       (w != nullptr ? 1 : 0);
    rctx.commit(r, family, region, elements, y.working_set(r, arrays));
  });
  if (dot == nullptr) return;
  // The folded dot still pays its single global reduction.
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
