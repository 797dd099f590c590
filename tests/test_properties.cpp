/// \file test_properties.cpp
/// \brief Cross-cutting property tests that tie several modules together.

#include <gtest/gtest.h>

#include <cmath>

#include "core/v2d.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "mpisim/msgqueue.hpp"
#include "rad/gaussian.hpp"
#include "support/rng.hpp"

namespace v2d {
namespace {

// --- machine-sensitivity: the cost model must respond to hardware ------------

TEST(Properties, GenericX86PricesDifferentlyThanA64fx) {
  sim::KernelCounts c;
  c.record(sim::OpClass::LoadContig, 8, 1000);
  c.record(sim::OpClass::FlopFma, 8, 500);
  c.bytes_read = 64000;
  c.calls = 1;
  const sim::CodegenFactors f;
  const sim::CostModel a64fx(sim::MachineSpec::a64fx());
  const sim::CostModel x86(sim::MachineSpec::generic_x86());
  const double t_a = a64fx.seconds(
      a64fx.price(c, sim::ExecMode::SVE, f, 16 * 1024).total_cycles());
  const double t_x = x86.seconds(
      x86.price(c, sim::ExecMode::SVE, f, 16 * 1024).total_cycles());
  EXPECT_NE(t_a, t_x);
  EXPECT_GT(t_a, 0.0);
  EXPECT_GT(t_x, 0.0);
}

// --- solver agreement: CG and BiCGSTAB on the same symmetric system ----------

TEST(Properties, CgAndBicgstabAgreeOnSymmetricSystem) {
  const grid::Grid2D g(14, 10, 0, 1, 0, 1);
  const grid::Decomposition d(g, mpisim::CartTopology(2, 1));
  linalg::StencilOperator A(g, d, 1);
  A.cc().fill(5.0);
  A.cw().fill(-1.0);
  A.ce().fill(-1.0);
  A.cs().fill(-1.0);
  A.cn().fill(-1.0);
  A.zero_boundary_coefficients();

  linalg::DistVector b(g, d, 1), x_cg(g, d, 1), x_bi(g, d, 1);
  Rng rng(71);
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 14; ++i) b.field().gset(0, i, j, rng.uniform(-1, 1));
  linalg::ExecContext ctx;
  x_cg.fill(ctx, 0.0);
  x_bi.fill(ctx, 0.0);

  linalg::SolveOptions opt;
  opt.rel_tol = 1e-12;
  linalg::IdentityPrecond ident;
  linalg::CgSolver cg(g, d, 1);
  linalg::BicgstabSolver bi(g, d, 1);
  ASSERT_TRUE(cg.solve(ctx, A, ident, x_cg, b, opt).converged);
  ASSERT_TRUE(bi.solve(ctx, A, ident, x_bi, b, opt).converged);

  const auto a = x_cg.field().gather_global();
  const auto c = x_bi.field().gather_global();
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k], c[k], 1e-9);
}

// --- msgqueue vs analytic exchange model -------------------------------------

TEST(Properties, MsgQueueMatchesAnalyticHaloCost) {
  // A 1-D ring halo exchange played through the event-level simulator must
  // land within 2x of the analytic ExecModel phase cost (they use the same
  // pt2pt pricing but different completion semantics).
  const int nranks = 4;
  const auto profile = compiler::cray_2103();
  const mpisim::Placement placement(nranks);
  const mpisim::NetCost net(profile.mpi(), placement);
  const std::uint64_t bytes = 1600;

  mpisim::MsgQueueSim q(net, nranks);
  std::vector<int> reqs;
  for (int r = 0; r < nranks - 1; ++r) {
    reqs.push_back(q.isend(r, r + 1, 0, bytes));
    reqs.push_back(q.irecv(r + 1, r, 0));
    reqs.push_back(q.isend(r + 1, r, 1, bytes));
    reqs.push_back(q.irecv(r, r + 1, 1));
  }
  q.wait_all();
  double queue_max = 0.0;
  for (int r = 0; r < nranks; ++r) queue_max = std::max(queue_max, q.clock(r));

  mpisim::ExecModel em(sim::MachineSpec::a64fx(), {profile}, nranks);
  std::vector<mpisim::Transfer> transfers;
  for (int r = 0; r < nranks - 1; ++r) {
    transfers.push_back({r, r + 1, bytes, false});
    transfers.push_back({r + 1, r, bytes, false});
  }
  em.exchange(transfers, sim::Region::MpiHalo);
  const double analytic = em.elapsed(0);

  EXPECT_GT(queue_max, 0.0);
  EXPECT_GT(analytic, 0.0);
  // The analytic phase model adds pack/unpack costs the event simulator
  // does not track, so agreement is order-of-magnitude, not exact.
  EXPECT_LT(std::max(queue_max, analytic) / std::min(queue_max, analytic),
            4.0);
}

// --- Simulation properties ------------------------------------------------------

TEST(Properties, VectorLengthChangesSimulatedTimeNotPhysics) {
  auto run = [](unsigned bits) {
    core::RunConfig cfg;
    cfg.nx1 = 32;
    cfg.nx2 = 16;
    cfg.steps = 1;
    cfg.vector_bits = bits;
    core::Simulation sim(cfg);
    sim.run();
    return std::pair{sim.elapsed(0), sim.total_energy()};
  };
  const auto [t512, e512] = run(512);
  const auto [t128, e128] = run(128);
  // Same physics...
  EXPECT_NEAR(e512, e128, 1e-9 * std::fabs(e512));
  // ...different cost: the 128-bit machine also has narrower SIMD in the
  // pricing, so it must be slower.
  EXPECT_LT(t512, t128 * 1.05);
}

TEST(Properties, EnergyDecaysWithAbsorption) {
  core::RunConfig cfg;
  cfg.nx1 = 32;
  cfg.nx2 = 16;
  cfg.steps = 3;
  cfg.kappa_absorb = 2.0;
  core::Simulation sim(cfg);
  // Cold matter: emission (aT^4) must stay far below the radiation field
  // so absorption is a net sink.
  sim.stepper().builder().temperature().fill(0.01);
  const double e0 = sim.total_energy();
  sim.run();
  // Absorption moves radiation energy into matter (emission at the cold
  // initial temperature is smaller), so the radiation total must drop.
  EXPECT_LT(sim.total_energy(), e0);
}

TEST(Properties, ClassicAndGangedProduceSameField) {
  auto run = [](bool ganged) {
    core::RunConfig cfg;
    cfg.nx1 = 32;
    cfg.nx2 = 16;
    cfg.steps = 2;
    cfg.ganged = ganged;
    core::Simulation sim(cfg);
    sim.run();
    return sim.radiation().field().gather_global();
  };
  const auto a = run(true);
  const auto b = run(false);
  ASSERT_EQ(a.size(), b.size());
  // Same systems, same preconditioner; trajectories differ only through
  // the ganged scheme's reconstructed residual norm.
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_NEAR(a[k], b[k], 1e-8 * std::fabs(a[k]) + 1e-14);
}

TEST(Properties, CylindricalDiffusionConservesEnergy) {
  // The FLD discretization in cylindrical coordinates (r, z) must conserve
  // Σ E·V under zero-flux boundaries, exercising the area/volume factors.
  const grid::Grid2D g(24, 16, 0.1, 1.1, 0.0, 1.0, grid::Coord::Cylindrical);
  const grid::Decomposition d(g, mpisim::CartTopology(1, 1));
  rad::OpacitySet opac(2);
  for (int s = 0; s < 2; ++s) {
    opac.absorption(s) = rad::OpacityLaw::constant(0.0);
    opac.scattering(s) = rad::OpacityLaw::constant(10.0);
  }
  rad::FldConfig fcfg;
  fcfg.include_absorption = false;
  rad::FldBuilder builder(g, d, 2, opac, fcfg);
  rad::RadiationStepper stepper(g, d, std::move(builder));
  linalg::DistVector e(g, d, 2);
  // Off-axis blob.
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 24; ++i)
      for (int s = 0; s < 2; ++s)
        e.field().gset(s, i, j,
                       std::exp(-20.0 * (std::pow(g.x1c(i) - 0.6, 2) +
                                         std::pow(g.x2c(j) - 0.5, 2))));
  const double before = rad::GaussianPulse::total_energy(e);
  linalg::ExecContext ctx;
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(stepper.step(ctx, e, 0.02).all_converged());
  }
  EXPECT_NEAR(rad::GaussianPulse::total_energy(e), before, 1e-6 * before);
}

}  // namespace
}  // namespace v2d
