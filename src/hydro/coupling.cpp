#include "hydro/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace v2d::hydro {

using compiler::KernelFamily;

CouplingResult apply_rad_heating(linalg::ExecContext& ctx, HydroState& gas,
                                 linalg::DistVector& e_rad,
                                 const rad::FldBuilder& rad_builder,
                                 const GammaLawEos& eos, double dt) {
  (void)eos;
  const auto& cfg = rad_builder.config();
  const auto& opac = rad_builder.opacities();
  const grid::Grid2D& g = gas.field().grid();
  const auto& dec = gas.field().decomp();
  CouplingResult result;

  auto& temp =
      const_cast<rad::FldBuilder&>(rad_builder).temperature();
  auto& rho = const_cast<rad::FldBuilder&>(rad_builder).density();
  const bool uniform = opac.uniform();
  // Per-rank energy partials merged in rank order below, so the result is
  // independent of the host-thread count.
  std::vector<double> to_gas(static_cast<std::size_t>(dec.nranks()), 0.0);
  linalg::par_ranks(ctx, dec, [&](int r, linalg::ExecContext& rctx) {
    const grid::TileExtent& e = dec.extent(r);
    grid::TileView en = gas.field().view(r, kEner);
    grid::TileView tv = temp.view(r, 0);
    grid::TileView rv = rho.view(r, 0);
    double partial = 0.0;
    for (int s = 0; s < e_rad.ns(); ++s) {
      grid::TileView ev = e_rad.field().view(r, s);
      const double ka_u = opac.absorption(s).evaluate(1.0, 1.0);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const double T = tv(li, lj);
          const double ka =
              uniform ? ka_u : opac.absorption(s).evaluate(T, rv(li, lj));
          const double emission =
              0.5 * cfg.radiation_constant * T * T * T * T;
          // Limit the transfer so neither side goes negative.
          double dq = dt * cfg.c_light * ka * (ev(li, lj) - emission);
          dq = std::min(dq, ev(li, lj));
          dq = std::max(dq, -std::max(0.0, en(li, lj)));
          ev(li, lj) -= dq;
          en(li, lj) += dq;
          partial += dq * g.volume(e.i0 + li, e.j0 + lj);
        }
      }
    }
    to_gas[static_cast<std::size_t>(r)] = partial;
    const auto elements =
        static_cast<std::uint64_t>(e.ni) * e.nj * e_rad.ns();
    rctx.commit_synthetic(r, KernelFamily::Physics, sim::Region::RadGasExchange,
                          elements, 14, 32, 16, elements * 48);
  });
  for (const double v : to_gas) result.energy_to_gas += v;
  return result;
}

}  // namespace v2d::hydro
