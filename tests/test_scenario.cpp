/// \file test_scenario.cpp
/// \brief The scenario subsystem: the catalog, its correctness, and the
/// bit-identity pin of gaussian-pulse against the pre-refactor driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <vector>

#include "compiler/profile.hpp"
#include "core/v2d.hpp"
#include "linalg/stencil_op.hpp"
#include "rad/fld.hpp"
#include "rad/gaussian.hpp"
#include "rad/radstep.hpp"
#include "scenario/registry.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

#include "ledger_testutil.hpp"

namespace v2d {
namespace {

// --- catalog -----------------------------------------------------------------

TEST(ScenarioCatalog, HoldsTheFourBuiltinsSortedByName) {
  std::vector<std::string_view> names;
  for (const scenario::Scenario& s : scenario::catalog())
    names.push_back(s.name);
  const std::vector<std::string_view> expected = {
      "gaussian-pulse", "hotspot-absorber", "sedov-radhydro",
      "two-species-relax"};
  EXPECT_EQ(names, expected);
  for (const std::string_view name : expected) {
    const scenario::Scenario& s = scenario::lookup(name);
    EXPECT_FALSE(s.description.empty());
    auto problem = s.make();
    ASSERT_NE(problem, nullptr);
    EXPECT_EQ(problem->name(), name);
  }
}

TEST(ScenarioCatalog, UnknownNameListsTheCatalog) {
  try {
    (void)scenario::lookup("no-such-problem");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "unknown problem 'no-such-problem' (known problems: "
                 "gaussian-pulse, hotspot-absorber, sedov-radhydro, "
                 "two-species-relax)");
  }
}

TEST(ScenarioCatalog, RunConfigRejectsUnknownProblemAtBuildTime) {
  Options opt;
  core::RunConfig::register_options(opt);
  const char* argv[] = {"prog", "--problem", "typo-pulse"};
  opt.parse(3, argv);
  try {
    (void)core::RunConfig::from_options(opt);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("typo-pulse"), std::string::npos);
    EXPECT_NE(msg.find("known problems"), std::string::npos);
    EXPECT_NE(msg.find("gaussian-pulse"), std::string::npos);
  }
}

TEST(ScenarioCatalog, SimulationConstructorRejectsUnknownProblem) {
  core::RunConfig cfg;
  cfg.problem = "no-such-problem";
  EXPECT_THROW(core::Simulation sim(cfg), Error);
}

// --- gaussian-pulse bit-identity pin -----------------------------------------

/// The pre-refactor Simulation hardwired this exact wiring into its
/// constructor and stepped it with cfg.dt.  Replicating it by hand and
/// comparing fields, per-rank clocks and full ledgers against the
/// scenario-driven driver pins the refactor: the scenario layer must add
/// or reorder no priced operation.
struct HardwiredReplica {
  grid::Grid2D g;
  grid::Decomposition dec;
  mpisim::ExecModel em;
  linalg::ExecContext ctx;
  rad::RadiationStepper stepper;
  linalg::DistVector e;
  rad::GaussianPulse pulse;

  static rad::OpacitySet opacities(const core::RunConfig& cfg) {
    rad::OpacitySet opac(cfg.ns);
    for (int s = 0; s < cfg.ns; ++s) {
      const double shade = 1.0 + 0.1 * s;
      const double ka = cfg.kappa_absorb * shade;
      opac.absorption(s) = rad::OpacityLaw::constant(ka);
      opac.scattering(s) = rad::OpacityLaw::constant(
          std::max(0.0, cfg.kappa_total * shade - ka));
    }
    return opac;
  }

  static rad::FldConfig fld_config(const core::RunConfig& cfg) {
    rad::FldConfig fc;
    fc.limiter = cfg.limiter;
    fc.include_absorption = cfg.kappa_absorb > 0.0;
    fc.exchange_kappa = cfg.exchange_kappa;
    return fc;
  }

  static linalg::SolveOptions solve_options(const core::RunConfig& cfg) {
    linalg::SolveOptions opt;
    opt.rel_tol = cfg.rel_tol;
    opt.max_iterations = cfg.max_iterations;
    opt.ganged = cfg.ganged;
    return opt;
  }

  static std::vector<compiler::CodegenProfile> profiles(
      const core::RunConfig& cfg) {
    std::vector<compiler::CodegenProfile> out;
    for (const auto& n : cfg.compilers)
      out.push_back(compiler::find_profile(n));
    return out;
  }

  explicit HardwiredReplica(const core::RunConfig& cfg)
      : g(cfg.nx1, cfg.nx2, -1.0, 1.0, -0.5, 0.5),
        dec(g, mpisim::CartTopology(cfg.nprx1, cfg.nprx2)),
        em(sim::MachineSpec::a64fx(), profiles(cfg), cfg.nranks()),
        ctx(vla::VectorArch(cfg.vector_bits), &em,
            vla::vla_exec_mode_from_name(cfg.vla_exec),
            linalg::fuse_mode_from_name(cfg.fuse)),
        stepper(g, dec,
                rad::FldBuilder(g, dec, cfg.ns, opacities(cfg),
                                fld_config(cfg)),
                solve_options(cfg), cfg.preconditioner, cfg.mg_options()),
        e(g, dec, cfg.ns) {
    set_host_threads(cfg.host_threads);
    pulse.d_coeff = fld_config(cfg).c_light / (3.0 * cfg.kappa_total);
    pulse.t0 = 1.0;
    pulse.fill(e, 0.0);
  }
};

TEST(GaussianPulseScenario, BitIdenticalToTheHardwiredDriver) {
  for (const char* vla_exec : {"native", "interpret"}) {
    core::RunConfig cfg;
    cfg.nx1 = 40;
    cfg.nx2 = 20;
    cfg.steps = 2;
    cfg.dt = 0.02;
    cfg.nprx1 = 2;
    cfg.nprx2 = 2;
    cfg.compilers = {"cray", "gnu"};
    cfg.vla_exec = vla_exec;

    core::Simulation sim(cfg);
    sim.run();

    HardwiredReplica ref(cfg);
    for (int s = 0; s < cfg.steps; ++s) {
      ASSERT_TRUE(ref.stepper.step(ref.ctx, ref.e, cfg.dt).all_converged());
    }

    // Same trajectory, to the last bit.
    const auto field = sim.radiation().field().gather_global();
    const auto field_ref = ref.e.field().gather_global();
    ASSERT_EQ(field.size(), field_ref.size());
    for (std::size_t i = 0; i < field.size(); ++i)
      ASSERT_EQ(field[i], field_ref[i]) << vla_exec << " zone " << i;

    // Same simulated clocks and ledgers, per profile, per rank.
    ASSERT_EQ(sim.exec().nprofiles(), ref.em.nprofiles());
    for (std::size_t p = 0; p < ref.em.nprofiles(); ++p) {
      for (int r = 0; r < ref.em.nranks(); ++r) {
        const std::string where = std::string(vla_exec) + " p" +
                                  std::to_string(p) + " r" +
                                  std::to_string(r);
        EXPECT_EQ(sim.exec().rank_time(p, r), ref.em.rank_time(p, r))
            << where;
        testutil::expect_ledgers_identical(sim.exec().ledger(p, r),
                                           ref.em.ledger(p, r), where);
      }
    }

    // Same analytic reference.
    EXPECT_EQ(sim.analytic_error(),
              ref.pulse.rel_l2_error(ref.e, cfg.steps * cfg.dt));
  }
}

// --- the new catalog entries run end-to-end priced ---------------------------

TEST(SedovRadhydroScenario, ConservesMassAndPricesHydroKernels) {
  core::RunConfig cfg;
  cfg.problem = "sedov-radhydro";
  cfg.nx1 = 32;
  cfg.nx2 = 32;
  cfg.steps = 5;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  cfg.kappa_total = 5.0;
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_EQ(sim.steps_taken(), 5);
  // Conservation pin: HLL in a reflecting box conserves mass to round-off.
  EXPECT_LT(sim.analytic_error(), 1.0e-12);
  EXPECT_GT(sim.total_energy(), 0.0);
  // The hydro sweeps, CFL reduction and radiation-gas exchange are all
  // recorded and priced alongside the radiation solves.
  const auto led = sim.exec().merged_ledger(0);
  for (const char* region : {"hydro-sweep", "hydro-cfl", "rad-gas-exchange",
                             "matvec", "physics-assembly"}) {
    ASSERT_TRUE(led.has(region)) << region;
    EXPECT_GT(led.at(region).total_cycles, 0.0) << region;
  }
  // CFL picks the step: simulated time advanced but not by steps*dt.
  EXPECT_GT(sim.time(), 0.0);
  EXPECT_LT(sim.time(), cfg.steps * cfg.dt);
  EXPECT_GT(sim.elapsed(0), 0.0);
}

TEST(HotspotAbsorberScenario, StaysInsideTheDiscreteDecayBracket) {
  core::RunConfig cfg;
  cfg.problem = "hotspot-absorber";
  cfg.nx1 = 48;
  cfg.nx2 = 24;
  cfg.steps = 6;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  core::Simulation sim(cfg);
  const double e0 = sim.total_energy();
  sim.run();
  // Energy decays (absorption, no emission) and the total stays inside
  // the analytic backward-Euler bracket up to solver tolerance.
  EXPECT_LT(sim.total_energy(), e0);
  EXPECT_LT(sim.analytic_error(), 1.0e-6);
}

TEST(HotspotAbsorberScenario, NonuniformAssemblyExchangesMaterialHalos) {
  // One diffusion assembly: the uniform-material path exchanges only the
  // limiter field's halos; the power-law path adds the rho and T halos —
  // exactly three exchanges over the same transfer graph.
  const grid::Grid2D g(16, 16, 0.0, 1.0, 0.0, 1.0);
  const grid::Decomposition dec(g, mpisim::CartTopology(2, 1));
  auto count_halo_messages = [&](const rad::OpacitySet& opac) {
    mpisim::ExecModel em(sim::MachineSpec::a64fx(), {compiler::cray_2103()},
                         dec.nranks());
    linalg::ExecContext ctx(vla::VectorArch(512), &em,
                            vla::VlaExecMode::Native);
    rad::FldBuilder builder(g, dec, 1, opac, rad::FldConfig{});
    linalg::StencilOperator A(g, dec, 1);
    linalg::DistVector e(g, dec, 1), rhs(g, dec, 1);
    e.field().fill(1.0);
    builder.build_diffusion(ctx, e, e, 0.01, A, rhs);
    return em.merged_ledger(0).at("mpi_halo").comm_messages;
  };
  rad::OpacitySet uniform(1);
  uniform.scattering(0) = rad::OpacityLaw::constant(5.0);
  rad::OpacitySet powerlaw(1);
  powerlaw.scattering(0) = rad::OpacityLaw::constant(5.0);
  powerlaw.absorption(0) = rad::OpacityLaw{0.5, 1.0, 0.0, 1.0, 1.0};
  const auto msgs_uniform = count_halo_messages(uniform);
  EXPECT_GT(msgs_uniform, 0u);
  EXPECT_EQ(count_halo_messages(powerlaw), 3 * msgs_uniform);
}

TEST(TwoSpeciesRelaxScenario, MatchesTheClosedFormContraction) {
  core::RunConfig cfg;
  cfg.problem = "two-species-relax";
  cfg.nx1 = 24;
  cfg.nx2 = 24;
  cfg.steps = 8;
  cfg.exchange_kappa = 2.0;  // exchange-dominated
  core::Simulation sim(cfg);
  const double e0 = sim.total_energy();
  sim.run();
  // Per-step contraction is exact; the measured mean difference must track
  // it to solver tolerance, and the species sum is conserved.
  EXPECT_LT(sim.analytic_error(), 1.0e-6);
  EXPECT_NEAR(sim.total_energy(), e0, 1.0e-8 * e0);
  // Equilibration really happened: the predicted difference shrank.
  const double contraction =
      std::pow(1.0 + 2.0 * cfg.dt * cfg.exchange_kappa, -cfg.steps);
  EXPECT_LT(contraction, 0.5);
}

TEST(TwoSpeciesRelaxScenario, RequiresTwoSpecies) {
  core::RunConfig cfg;
  cfg.problem = "two-species-relax";
  cfg.ns = 1;
  EXPECT_THROW(core::Simulation sim(cfg), Error);
}

}  // namespace
}  // namespace v2d
