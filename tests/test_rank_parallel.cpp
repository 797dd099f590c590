/// \file test_rank_parallel.cpp
/// \brief The rank-parallel host execution engine: thread-pool semantics
/// and the bit-identical-to-serial contract.
///
/// Ranks own disjoint tiles and disjoint clock/ledger slots, so executing
/// them concurrently must change *nothing* observable: fields, per-rank
/// ledgers and simulated clocks are compared exactly (==, not near)
/// between --host-threads 1 and 4+ runs, in both VLA exec modes.
/// HostThreadsTest extends the contract across fuse modes, unganged dots,
/// the multigrid V-cycle, a hydro scenario and a mixed farm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"
#include "perfmon/perf_stat.hpp"
#include "sim_capture.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace v2d {
namespace {

using testutil::SimCapture;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(1000, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  int order_ok = 1;
  int last = -1;
  pool.run(16, [&](int i) {
    if (i != last + 1) order_ok = 0;
    last = i;
  });
  EXPECT_EQ(order_ok, 1);  // serial fast path keeps loop order
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(100,
                        [&](int i) {
                          if (i == 37) throw Error("task failure");
                        }),
               Error);
  // The pool survives a failed region.
  std::atomic<int> count{0};
  pool.run(64, [&](int) { count++; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  pool.run(4, [&](int outer) {
    pool.run(4, [&](int inner) {
      hits[static_cast<std::size_t>(4 * outer + inner)]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SetHostThreadsResizesGlobalPool) {
  set_host_threads(3);
  EXPECT_EQ(host_threads(), 3);
  set_host_threads(0);  // restore hardware-concurrency default
  EXPECT_GE(host_threads(), 1);
}

// --- bit-identical contract ---------------------------------------------------

/// Ganged inner products accumulate per-rank partials merged in rank
/// order, so the value cannot depend on the host-thread count.
TEST(RankParallelTest, DotGangedInvariantUnderThreadCount) {
  const grid::Grid2D g(48, 24, -1.0, 1.0, -0.5, 0.5);
  const grid::Decomposition d(g, mpisim::CartTopology(4, 2));
  linalg::DistVector x(g, d, 2), y(g, d, 2);
  Rng rng(42);
  for (int j = 0; j < g.nx2(); ++j) {
    for (int i = 0; i < g.nx1(); ++i) {
      for (int s = 0; s < 2; ++s) {
        x.field().gset(s, i, j, rng.uniform(-1.0, 1.0));
        y.field().gset(s, i, j, rng.uniform(-1.0, 1.0));
      }
    }
  }
  std::vector<double> reference;
  for (const int threads : {1, 4, 7}) {
    set_host_threads(threads);
    linalg::ExecContext ctx(vla::VectorArch(512), nullptr,
                            vla::VlaExecMode::Native);
    const linalg::DistVector::DotPair pairs[2] = {{&x, &y}, {&x, &x}};
    const auto out = linalg::DistVector::dot_ganged(
        ctx, std::span<const linalg::DistVector::DotPair>(pairs, 2));
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t k = 0; k < out.size(); ++k)
        EXPECT_EQ(out[k], reference[k]) << "threads=" << threads;
    }
  }
  set_host_threads(0);
}

/// The 16-rank radiation run every identity test below is built from.
core::RunConfig pulse_config(int host_threads, const std::string& vla_exec,
                             int steps) {
  core::RunConfig cfg;
  cfg.nx1 = 64;
  cfg.nx2 = 32;
  cfg.ns = 2;
  cfg.steps = steps;
  cfg.dt = 0.05;
  cfg.nprx1 = 4;
  cfg.nprx2 = 4;  // 16 simulated ranks
  cfg.preconditioner = "spai0";
  cfg.compilers = {"cray", "gnu"};
  cfg.vla_exec = vla_exec;
  cfg.host_threads = host_threads;
  return cfg;
}

SimCapture run_config(const core::RunConfig& cfg) {
  core::Simulation sim(cfg);
  sim.run();
  const SimCapture out = testutil::capture(sim);
  set_host_threads(0);
  return out;
}

/// The acceptance criterion: a radiation run on 16 simulated ranks with
/// --host-threads 1 vs 4+ produces identical field results, identical
/// per-rank ledgers and identical simulated clocks.
TEST(RankParallelTest, RadiationRunBitIdenticalAcrossHostThreads) {
  const SimCapture serial = run_config(pulse_config(1, "native", 2));
  const SimCapture par4 = run_config(pulse_config(4, "native", 2));
  testutil::expect_captures_identical(serial, par4, "native@4");
  const SimCapture par_hw = run_config(pulse_config(0, "native", 2));
  testutil::expect_captures_identical(serial, par_hw, "native@hw");
}

TEST(RankParallelTest, InterpretModeBitIdenticalAcrossHostThreads) {
  const SimCapture serial = run_config(pulse_config(1, "interpret", 1));
  const SimCapture par = run_config(pulse_config(4, "interpret", 1));
  testutil::expect_captures_identical(serial, par, "interpret@4");
}

/// Every native row call is one memo probe, a hit or a miss, at any thread
/// count: one gaussian-pulse 200x100 step on the paper's 5x4 tiling makes
/// 1,766,000 probes of 9 distinct keys.  Batching runs of same-key calls
/// must leave both totals exactly as they are.
TEST(RankParallelTest, MemoProbeTotalsInvariantUnderThreadCount) {
  for (const int threads : {1, 4}) {
    core::RunConfig cfg;
    cfg.nprx1 = 5;
    cfg.nprx2 = 4;
    cfg.steps = 1;
    cfg.host_threads = threads;
    core::Simulation sim(cfg);
    (void)sim.drive_step();
    const auto memo = perfmon::MemoCacheStats::of(sim.context().vctx);
    EXPECT_EQ(memo.probes(), 1766000u) << "threads=" << threads;
    EXPECT_EQ(memo.misses, 9u) << "threads=" << threads;
  }
  set_host_threads(0);
}

// --- every rank-parallel path, 1 vs 4 host threads ----------------------------

/// The 2x2-rank pulse the HostThreadsTest pins below start from.
core::RunConfig small_pulse_config(const std::string& vla_exec, int steps) {
  core::RunConfig cfg = pulse_config(1, vla_exec, steps);
  cfg.nx1 = 48;
  cfg.nx2 = 24;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  return cfg;
}

/// `cfg` at 1 host thread and at 4 must capture identically.
void expect_thread_count_invariant(const core::RunConfig& cfg,
                                   const std::string& label) {
  core::RunConfig serial = cfg;
  serial.host_threads = 1;
  core::RunConfig par = cfg;
  par.host_threads = 4;
  testutil::expect_captures_identical(run_config(serial), run_config(par),
                                      label + "@4");
}

/// Fused kernels (planner groups under --fuse plan) run their own rank
/// loops: every fuse mode must stay bit-identical across host-thread
/// counts.
TEST(HostThreadsTest, FuseModesBitIdenticalAcrossHostThreads) {
  for (const char* fuse : {"off", "plan"}) {
    core::RunConfig cfg = small_pulse_config("native", 2);
    cfg.fuse = fuse;
    expect_thread_count_invariant(cfg, std::string("fuse=") + fuse);
  }
}

/// Classic (unganged) BiCGSTAB issues one dot per reduction; each must
/// merge its per-rank partials in rank order in both VLA backends.
TEST(HostThreadsTest, ClassicDotsBitIdenticalAcrossHostThreads) {
  for (const char* mode : {"native", "interpret"}) {
    const std::string vla_exec(mode);
    core::RunConfig cfg = small_pulse_config(vla_exec, 1);
    cfg.ganged = false;
    expect_thread_count_invariant(cfg, vla_exec + "+classic");
  }
}

/// The V-cycle's smoother stages and corner-filling transfers are rank
/// loops of their own.
TEST(HostThreadsTest, MgPrecondBitIdenticalAcrossHostThreads) {
  for (const char* fuse : {"off", "plan"}) {
    core::RunConfig cfg = pulse_config(1, "native", 2);
    cfg.preconditioner = "mg";
    cfg.fuse = fuse;
    expect_thread_count_invariant(cfg, std::string("mg+fuse=") + fuse);
  }
}

/// Hydro sweeps update the field in place after a Neumann ghost fill;
/// the coupled radhydro scenario pins field, clock and ledger identity
/// for that path.
TEST(HostThreadsTest, HydroScenarioBitIdenticalAcrossHostThreads) {
  core::RunConfig cfg;
  cfg.problem = "sedov-radhydro";
  cfg.nx1 = 32;
  cfg.nx2 = 32;
  cfg.steps = 2;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  expect_thread_count_invariant(cfg, "sedov");
}

/// A farm mixing scenarios and fuse modes matches each job's solo run
/// exactly, whichever pool lane a job lands on.
TEST(HostThreadsTest, MixedFarmBitIdenticalToSolo) {
  std::vector<farm::FarmJob> jobs;
  jobs.push_back({"pulse", small_pulse_config("native", 2)});

  core::RunConfig relax;
  relax.problem = "two-species-relax";
  relax.nx1 = 24;
  relax.nx2 = 24;
  relax.steps = 2;
  relax.fuse = "plan";
  relax.host_threads = 1;
  jobs.push_back({"relax-fused", relax});

  std::vector<SimCapture> solo;
  solo.reserve(jobs.size());
  for (const auto& j : jobs) solo.push_back(run_config(j.cfg));

  farm::FarmOptions opt;
  opt.host_threads = 3;
  std::vector<SimCapture> farmed(jobs.size());
  opt.on_job_complete = [&farmed](std::size_t i, core::Simulation& sim) {
    farmed[i] = testutil::capture(sim);
  };
  farm::FarmScheduler sched(opt);
  for (const auto& j : jobs) sched.add(j);
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  ASSERT_EQ(sum.failed, 0u);

  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed[i],
                                        jobs[i].name + "@farm");
}

}  // namespace
}  // namespace v2d
