/// \file test_core.cpp
/// \brief End-to-end tests of the Simulation driver and run configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "io/h5lite.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace v2d::core {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.nx1 = 40;
  cfg.nx2 = 20;
  cfg.steps = 2;
  cfg.dt = 0.02;
  return cfg;
}

TEST(Config, OptionRoundTrip) {
  Options opt;
  RunConfig::register_options(opt);
  // Zero opacities are allowed: each switches its process off.
  const char* argv[] = {"prog",          "--nx1",      "64",
                        "--nprx1",       "4",          "--nprx2",
                        "2",             "--compilers", "gnu,cray",
                        "--ganged",      "0",          "--limiter",
                        "wilson",        "--precond",  "jacobi",
                        "--kappa",       "0",          "--kappa-absorb",
                        "0",             "--kappa-exchange", "0"};
  opt.parse(21, argv);
  const RunConfig cfg = RunConfig::from_options(opt);
  EXPECT_EQ(cfg.nx1, 64);
  EXPECT_EQ(cfg.nranks(), 8);
  ASSERT_EQ(cfg.compilers.size(), 2u);
  EXPECT_EQ(cfg.compilers[1], "cray");
  EXPECT_FALSE(cfg.ganged);
  EXPECT_EQ(cfg.limiter, rad::LimiterKind::Wilson);
  EXPECT_EQ(cfg.preconditioner, "jacobi");
  EXPECT_EQ(cfg.kappa_total, 0.0);
  EXPECT_EQ(cfg.kappa_absorb, 0.0);
  EXPECT_EQ(cfg.exchange_kappa, 0.0);
}

/// Expect `RunConfig::from_options` to reject each command line with an
/// error naming its first option.
void expect_each_rejected(const std::vector<std::vector<const char*>>& cases) {
  for (const auto& args : cases) {
    Options opt;
    RunConfig::register_options(opt);
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    opt.parse(static_cast<int>(argv.size()), argv.data());
    try {
      (void)RunConfig::from_options(opt);
      ADD_FAILURE() << args[0] << " " << args[1] << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(args[0]), std::string::npos)
          << e.what();
    }
  }
}

/// An integer option that does not fit its field is an error naming the
/// option, never a silent wrap (4294967328 narrowed to int is 32), and so
/// is a count below its floor: a negative count whose zero has a meaning
/// (`--steps -1` used to run zero steps and pass), and a zero or negative
/// one that must count something (`--ns -1` used to end in a failed
/// allocation, `--nx1 0` or `--max-iter 0` deep in the library,
/// `--mg-max-direct-zones -5` nowhere under SPAI(0) and as "coarsening
/// stalled" at the first multigrid build).  A host
/// thread count above the pool's bound is rejected before any pool exists
/// (`--host-threads 100000000` used to abort while starting threads).
TEST(Config, OutOfRangeIntegersThrow) {
  const std::string threads = std::to_string(kMaxHostThreads + 1);
  expect_each_rejected({
      {"--nx1", "4294967328", "--nx2", "4294967328"},
      {"--steps", "4294967297"},
      {"--steps", "99999999999999999999"},
      {"--nprx1", "4294967298"},
      {"--vector-bits", "4294967808"},
      {"--vector-bits", "-1"},
      {"--steps", "-1"},
      {"--checkpoint-every", "-2"},
      {"--host-threads", "-5"},
      {"--host-threads", threads.c_str()},
      {"--ns", "-1"},
      {"--ns", "0"},
      {"--nx1", "0"},
      {"--nx2", "-3"},
      {"--nprx1", "0"},
      {"--nprx2", "-1"},
      {"--max-iter", "0"},
      {"--mg-levels", "-1"},
      {"--mg-coarse-size", "0"},
      {"--mg-nu-pre", "-1"},
      {"--mg-nu-post", "-2"},
      {"--mg-nu-pre", "0", "--mg-nu-post", "0"},
      {"--mg-max-direct-zones", "0"},
      {"--mg-max-direct-zones", "-5"},
  });
}

/// A value outside a bound that lives in the library is an error naming the
/// option when the options are read, through that bound itself:
/// VectorArch's vector-length range, the decomposition's tiles-vs-zones
/// check against --nx1/--nx2, the compiler-profile catalog, the
/// preconditioner kinds and the multigrid smoother catalog.  Before, each
/// failed only inside the library when a session was built (a bare
/// `requirement failed` naming no option), and `--mg-smoother nope` under
/// the default SPAI(0) preconditioner ran to exit 0.  An empty
/// `--compilers` list failed the same bare way.  Every message names the
/// option and its value.
TEST(Config, ValuesOutsideALibraryBoundThrow) {
  expect_each_rejected({
      {"--vector-bits", "100"},
      {"--vector-bits", "0"},
      {"--vector-bits", "4096"},
      {"--nprx1", "300"},
      {"--nprx2", "101"},
      {"--nprx1", "65", "--nx1", "64"},
      {"--compilers", "nope"},
      {"--compilers", "gnu,nope"},
      {"--compilers", ","},
      {"--compilers", ""},
      {"--precond", "nope"},
      {"--mg-smoother", "nope"},
      {"--mg-smoother", "nope", "--precond", "mg"},
      // Catalog lookups that failed at parse time already, but named the
      // value only.
      {"--problem", "nope"},
      {"--limiter", "nope"},
      {"--solver-fallbacks", "jacobi,nope"},
      {"--guard", "maybe"},
      {"--vla-exec", "nope"},
      {"--fuse", "nope"},
  });
}

/// A real option out of its range is an error naming the option when the
/// options are read, not at the first solve (`--dt 0`, `--tol 0`) or never
/// (`--kappa-absorb -1` ran to exit 0).
TEST(Config, OutOfRangeNumbersThrow) {
  expect_each_rejected({
      {"--dt", "0"},
      {"--dt", "-0.03"},
      {"--tol", "0"},
      {"--tol", "-1e-8"},
      {"--kappa", "-1"},
      {"--kappa-absorb", "-1"},
      {"--kappa-exchange", "-0.05"},
      {"--guard-drift", "-0.1"},
      {"--mg-omega", "0"},
      {"--mg-cheb-boost", "1"},
  });
}

TEST(SimulationTest, RunsAndConverges) {
  core::Simulation sim(small_config());
  sim.run();
  EXPECT_EQ(sim.steps_taken(), 2);
  EXPECT_NEAR(sim.time(), 0.04, 1e-12);
  EXPECT_GT(sim.elapsed(0), 0.0);
  EXPECT_GT(sim.total_energy(), 0.0);
}

TEST(SimulationTest, SveFasterThanNoSve) {
  RunConfig cfg = small_config();
  cfg.compilers = {"cray", "cray-noopt"};
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_LT(sim.elapsed(0), sim.elapsed(1));
}

TEST(SimulationTest, CompilerOrderingAtOneProcessor) {
  RunConfig cfg = small_config();
  cfg.compilers = {"gnu", "fujitsu", "cray"};
  core::Simulation sim(cfg);
  sim.run();
  // Table I, P = 1: GNU slowest, Cray fastest.
  EXPECT_GT(sim.elapsed(0), sim.elapsed(1));
  EXPECT_GT(sim.elapsed(1), sim.elapsed(2));
}

TEST(SimulationTest, ProfilerSeesThreeCallSites) {
  core::Simulation sim(small_config());
  sim.run();
  const auto flat = sim.profiler(0).flat();
  int sites = 0;
  for (const auto& e : flat) {
    if (e.path.find("bicgstab-site-") != std::string::npos) {
      ++sites;
      EXPECT_EQ(e.calls, 2u);  // two steps
      EXPECT_GT(e.inclusive_s, 0.0);
    }
  }
  EXPECT_EQ(sites, 3);
}

TEST(SimulationTest, IterationsAreTilingIndependent) {
  int total_ref = -1;
  for (const auto& [px1, px2] : {std::pair{1, 1}, std::pair{4, 2},
                                std::pair{2, 4}}) {
    RunConfig cfg = small_config();
    cfg.nprx1 = px1;
    cfg.nprx2 = px2;
    core::Simulation sim(cfg);
    const auto stats = sim.advance();
    if (total_ref < 0) total_ref = stats.total_iterations();
    EXPECT_EQ(stats.total_iterations(), total_ref)
        << px1 << "x" << px2;
  }
}

TEST(SimulationTest, MoreRanksDontSlowSmallCounts) {
  // With the paper's configuration shape, going 1 -> 8 ranks must reduce
  // the simulated time (parallel speedup at small P).
  RunConfig cfg1 = small_config();
  RunConfig cfg8 = small_config();
  cfg8.nprx1 = 4;
  cfg8.nprx2 = 2;
  core::Simulation s1(cfg1), s8(cfg8);
  s1.run();
  s8.run();
  EXPECT_LT(s8.elapsed(0), s1.elapsed(0));
}

TEST(SimulationTest, AnalyticErrorSmallForUnlimitedDiffusion) {
  RunConfig cfg = small_config();
  cfg.nx1 = 64;
  cfg.nx2 = 32;
  cfg.limiter = rad::LimiterKind::None;
  cfg.steps = 5;
  core::Simulation sim(cfg);
  sim.run();
  // First-order backward Euler at dt=0.02: a few percent truncation error.
  EXPECT_LT(sim.analytic_error(), 0.04);
}

TEST(SimulationTest, CheckpointWritesFields) {
  const std::string path = ::testing::TempDir() + "/v2d_ckpt.h5l";
  RunConfig cfg = small_config();
  cfg.checkpoint_path = path;
  core::Simulation sim(cfg);
  sim.run();

  const io::H5File f = io::H5File::load(path);
  EXPECT_EQ(f.root().attr_str("code"), "v2dsve");
  EXPECT_EQ(f.root().attr_i64("step"), 2);
  const io::Dataset& d = f.root().group("fields").dataset("radiation_energy");
  EXPECT_EQ(d.element_count(),
            static_cast<std::uint64_t>(cfg.ns) * cfg.nx1 * cfg.nx2);
  // Io work was priced.
  EXPECT_TRUE(sim.exec().merged_ledger(0).has("checkpoint"));
  std::remove(path.c_str());
}

TEST(SimulationTest, GangedReducesAllreduceCount) {
  RunConfig ganged = small_config(), classic = small_config();
  ganged.nprx1 = classic.nprx1 = 4;
  classic.ganged = false;
  core::Simulation sg(ganged), sc(classic);
  sg.run();
  sc.run();
  const auto mg = sg.exec().merged_ledger(0);
  const auto mc = sc.exec().merged_ledger(0);
  EXPECT_LT(mg.at("mpi_allreduce").comm_messages,
            mc.at("mpi_allreduce").comm_messages);
}

TEST(SimulationTest, UnknownCompilerRejected) {
  RunConfig cfg = small_config();
  cfg.compilers = {"msvc"};
  EXPECT_THROW(core::Simulation sim(cfg), Error);
}

}  // namespace
}  // namespace v2d::core
