#include "hydro/euler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace v2d::hydro {

using compiler::KernelFamily;
using linalg::ExecContext;

void HydroState::set_primitive(const GammaLawEos& eos, int gi, int gj,
                               double rho, double u1, double u2, double p) {
  V2D_REQUIRE(rho > 0.0 && p > 0.0, "primitive state must be positive");
  field_.gset(kRho, gi, gj, rho);
  field_.gset(kMom1, gi, gj, rho * u1);
  field_.gset(kMom2, gi, gj, rho * u2);
  const double kinetic = 0.5 * rho * (u1 * u1 + u2 * u2);
  field_.gset(kEner, gi, gj, rho * eos.eint(rho, p) + kinetic);
}

namespace {
double field_total(const grid::DistField& f, int component) {
  const grid::Grid2D& g = f.grid();
  const auto& dec = f.decomp();
  double total = 0.0;
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    const grid::TileView v = f.view(r, component);
    for (int lj = 0; lj < e.nj; ++lj)
      for (int li = 0; li < e.ni; ++li)
        total += v(li, lj) * g.volume(e.i0 + li, e.j0 + lj);
  }
  return total;
}
}  // namespace

double HydroState::total_energy() const { return field_total(field_, kEner); }
double HydroState::total_mass() const { return field_total(field_, kRho); }

HydroSolver::HydroSolver(const grid::Grid2D& g, const grid::Decomposition& d,
                         GammaLawEos eos, HydroBc bc, double cfl)
    : grid_(&g), dec_(&d), eos_(eos), bc_(bc), cfl_(cfl) {
  V2D_REQUIRE(g.coord() == grid::Coord::Cartesian,
              "the hydro solver supports Cartesian coordinates");
  V2D_REQUIRE(cfl > 0.0 && cfl < 1.0, "CFL number must be in (0, 1)");
}

void HydroSolver::fill_ghosts(ExecContext& ctx, HydroState& state) {
  grid::DistField& f = state.field();
  const auto transfers = f.exchange_ghosts();
  f.apply_bc(grid::BcKind::Neumann0);
  ctx.exchange(transfers);
  if (bc_ != HydroBc::Reflecting) return;
  for (int r = 0; r < dec_->nranks(); ++r) reflect_rank(f, r);
}

void HydroSolver::reflect_rank(grid::DistField& f, int r) const {
  const grid::TileExtent& e = dec_->extent(r);
  grid::TileView m1 = f.view(r, kMom1);
  grid::TileView m2 = f.view(r, kMom2);
  if (e.i0 == 0)
    for (int lj = -1; lj <= e.nj; ++lj) m1(-1, lj) = -m1(0, lj);
  if (e.i0 + e.ni == grid_->nx1())
    for (int lj = -1; lj <= e.nj; ++lj) m1(e.ni, lj) = -m1(e.ni - 1, lj);
  if (e.j0 == 0)
    for (int li = -1; li <= e.ni; ++li) m2(li, -1) = -m2(li, 0);
  if (e.j0 + e.nj == grid_->nx2())
    for (int li = -1; li <= e.ni; ++li) m2(li, e.nj) = -m2(li, e.nj - 1);
}

double HydroSolver::cfl_dt(ExecContext& ctx, const HydroState& state) const {
  const grid::DistField& f = state.field();
  // Per-rank minima reduced in rank order: dt does not depend on the
  // host-thread count.
  std::vector<double> dt_r(static_cast<std::size_t>(dec_->nranks()),
                           std::numeric_limits<double>::max());
  linalg::par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    const grid::TileView rho = f.view(r, kRho);
    const grid::TileView m1 = f.view(r, kMom1);
    const grid::TileView m2 = f.view(r, kMom2);
    const grid::TileView en = f.view(r, kEner);
    double dt = std::numeric_limits<double>::max();
    for (int lj = 0; lj < e.nj; ++lj) {
      for (int li = 0; li < e.ni; ++li) {
        const double d = rho(li, lj);
        V2D_CHECK(d > 0.0, "negative density in cfl_dt");
        const double u1 = m1(li, lj) / d, u2 = m2(li, lj) / d;
        const double eint =
            (en(li, lj) - 0.5 * d * (u1 * u1 + u2 * u2)) / d;
        const double p = std::max(1.0e-30, eos_.pressure(d, eint));
        const double c = eos_.sound_speed(d, p);
        dt = std::min(dt, grid_->dx1() / (std::fabs(u1) + c));
        dt = std::min(dt, grid_->dx2() / (std::fabs(u2) + c));
      }
    }
    dt_r[static_cast<std::size_t>(r)] = dt;
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj;
    rctx.commit_synthetic(r, KernelFamily::Hydro, sim::Region::HydroCfl, elements, 20,
                          32, 0, elements * 32);
  });
  double dt = std::numeric_limits<double>::max();
  for (const double v : dt_r) dt = std::min(dt, v);
  ctx.allreduce(sizeof(double));
  return cfl_ * dt;
}

namespace {

struct Prim {
  double rho, un, ut, p, e;  // normal/transverse split, total energy
};

struct Flux {
  double rho, mn, mt, e;
};

Flux physical_flux(const Prim& w) {
  return Flux{w.rho * w.un, w.rho * w.un * w.un + w.p, w.rho * w.un * w.ut,
              (w.e + w.p) * w.un};
}

/// HLL flux with Davis wavespeed estimates.
Flux hll_flux(const GammaLawEos& eos, const Prim& l, const Prim& r) {
  const double cl = eos.sound_speed(l.rho, l.p);
  const double cr = eos.sound_speed(r.rho, r.p);
  const double sl = std::min(l.un - cl, r.un - cr);
  const double sr = std::max(l.un + cl, r.un + cr);
  const Flux fl = physical_flux(l);
  const Flux fr = physical_flux(r);
  if (sl >= 0.0) return fl;
  if (sr <= 0.0) return fr;
  const double inv = 1.0 / (sr - sl);
  auto blend = [&](double f_l, double f_r, double u_l, double u_r) {
    return (sr * f_l - sl * f_r + sl * sr * (u_r - u_l)) * inv;
  };
  return Flux{
      blend(fl.rho, fr.rho, l.rho, r.rho),
      blend(fl.mn, fr.mn, l.rho * l.un, r.rho * r.un),
      blend(fl.mt, fr.mt, l.rho * l.ut, r.rho * r.ut),
      blend(fl.e, fr.e, l.e, r.e),
  };
}

}  // namespace

void HydroSolver::sweep(ExecContext& ctx, HydroState& state, double dt,
                        int direction) {
  grid::DistField& f = state.field();
  fill_ghosts(ctx, state);
  const double dx = direction == 0 ? grid_->dx1() : grid_->dx2();
  const double lambda = dt / dx;

  // Rank tiles are disjoint and ghosts were filled above, so the sweeps
  // of all simulated ranks run concurrently on the host pool.  Each row
  // pencil (x1) or column pencil (x2) carries its left-face flux in a
  // register.
  linalg::par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    grid::TileView rho = f.view(r, kRho);
    grid::TileView m1 = f.view(r, kMom1);
    grid::TileView m2 = f.view(r, kMom2);
    grid::TileView en = f.view(r, kEner);

    auto prim_at = [&](int li, int lj) {
      const double d = rho(li, lj);
      const double mm1 = m1(li, lj), mm2 = m2(li, lj);
      const double u1 = mm1 / d, u2 = mm2 / d;
      const double eint = std::max(
          1.0e-30, (en(li, lj) - 0.5 * d * (u1 * u1 + u2 * u2)) / d);
      const double p = eos_.pressure(d, eint);
      Prim w;
      w.rho = d;
      w.un = direction == 0 ? u1 : u2;
      w.ut = direction == 0 ? u2 : u1;
      w.p = p;
      w.e = en(li, lj);
      return w;
    };

    // Fluxes are computed per pencil and applied immediately; a one-face
    // flux buffer carries the left face.
    const int nzone = direction == 0 ? e.ni : e.nj;
    const int npencil = direction == 0 ? e.nj : e.ni;
    for (int pencil = 0; pencil < npencil; ++pencil) {
      auto zone = [&](int k) {
        return direction == 0 ? std::pair{k, pencil} : std::pair{pencil, k};
      };
      auto [i0, j0] = zone(0);
      Flux left = hll_flux(eos_, prim_at(direction == 0 ? i0 - 1 : i0,
                                         direction == 0 ? j0 : j0 - 1),
                           prim_at(i0, j0));
      for (int k = 0; k < nzone; ++k) {
        auto [li, lj] = zone(k);
        auto [ri, rj] = zone(k + 1);
        // zone(k+1) may be a ghost when k is the last zone.
        const Prim wl = prim_at(li, lj);
        const Prim wr = (k + 1 < nzone)
                            ? prim_at(ri, rj)
                            : prim_at(direction == 0 ? li + 1 : li,
                                      direction == 0 ? lj : lj + 1);
        const Flux right = hll_flux(eos_, wl, wr);
        rho(li, lj) -= lambda * (right.rho - left.rho);
        if (direction == 0) {
          m1(li, lj) -= lambda * (right.mn - left.mn);
          m2(li, lj) -= lambda * (right.mt - left.mt);
        } else {
          m2(li, lj) -= lambda * (right.mn - left.mn);
          m1(li, lj) -= lambda * (right.mt - left.mt);
        }
        en(li, lj) -= lambda * (right.e - left.e);
        left = right;
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj;
    // ~90 flops/zone (one HLL flux per face + update), ~14 doubles read,
    // 4 written.
    rctx.commit_synthetic(r, KernelFamily::Hydro, sim::Region::HydroSweep, elements, 90,
                          112, 32, elements * 144);
  });
}

void HydroSolver::step(ExecContext& ctx, HydroState& state, double dt) {
  V2D_REQUIRE(dt > 0.0, "time step must be positive");
  sweep(ctx, state, dt, 0);
  sweep(ctx, state, dt, 1);
}

}  // namespace v2d::hydro
