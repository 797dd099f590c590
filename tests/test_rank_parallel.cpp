/// \file test_rank_parallel.cpp
/// \brief The rank-parallel host execution engine: thread-pool semantics
/// and the bit-identical-to-serial contract.
///
/// Ranks own disjoint tiles and disjoint clock/ledger slots, so executing
/// them concurrently must change *nothing* observable: fields, per-rank
/// ledgers and simulated clocks are compared exactly (==, not near)
/// between --host-threads 1 and 4+ runs, in both VLA exec modes.  The
/// same contract covers --host-sched: the dependency-scheduled graph
/// executor (HostSchedTest) must match the barrier pool and the serial
/// path bit-for-bit across vla-exec backends, fuse modes, a hydro
/// scenario and a mixed farm.

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

// --- host scheduler (--host-sched graph) --------------------------------------

/// The graph scheduler's acceptance criterion: dependency-scheduled
/// execution with halo/compute overlap matches both the barrier pool and
/// the serial path bit-for-bit, in both VLA exec backends.
TEST(HostSchedTest, GraphBitIdenticalToBarrierAndSerial) {
  for (const char* mode : {"native", "interpret"}) {
    const std::string vla_exec(mode);
    const int steps = vla_exec == "native" ? 2 : 1;
    const SimCapture ref = run_config(pulse_config(1, vla_exec, steps));

    core::RunConfig graph1 = pulse_config(1, vla_exec, steps);
    graph1.host_sched = "graph";
    testutil::expect_captures_identical(ref, run_config(graph1),
                                        vla_exec + "+graph@1");

    core::RunConfig graph4 = pulse_config(4, vla_exec, steps);
    graph4.host_sched = "graph";
    testutil::expect_captures_identical(ref, run_config(graph4),
                                        vla_exec + "+graph@4");
  }
}

/// Fused kernels reshape the per-iteration task graph (fewer, bigger
/// nodes; planner groups under --fuse plan): every fuse mode must stay
/// bit-identical between schedulers.
TEST(HostSchedTest, FuseModesBitIdenticalUnderGraph) {
  for (const char* fuse : {"off", "on", "plan"}) {
    core::RunConfig barrier = pulse_config(1, "native", 2);
    barrier.nx1 = 48;
    barrier.nx2 = 24;
    barrier.nprx1 = 2;
    barrier.nprx2 = 2;
    barrier.fuse = fuse;
    core::RunConfig graph = barrier;
    graph.host_threads = 4;
    graph.host_sched = "graph";
    testutil::expect_captures_identical(
        run_config(barrier), run_config(graph),
        std::string("fuse=") + fuse + "+graph@4");
  }
}

/// Wave 2 pipelines reductions past the dot joins: per-rank partial
/// tasks feed one rank-ordered compensated combine, and only the
/// scalar's consumer waits on it.  Classic (unganged) BiCGSTAB dots take
/// the same path as the ganged reductions and must stay bit-identical —
/// fields, per-profile clocks and full ledgers — in both VLA backends.
TEST(HostSchedTest, ClassicDotsBitIdenticalUnderGraph) {
  for (const char* mode : {"native", "interpret"}) {
    const std::string vla_exec(mode);
    core::RunConfig barrier = pulse_config(1, vla_exec, 1);
    barrier.nx1 = 48;
    barrier.nx2 = 24;
    barrier.nprx1 = 2;
    barrier.nprx2 = 2;
    barrier.ganged = false;
    core::RunConfig graph = barrier;
    graph.host_threads = 4;
    graph.host_sched = "graph";
    testutil::expect_captures_identical(run_config(barrier), run_config(graph),
                                        vla_exec + "+classic+graph@4");
  }
}

/// MgPrecond::apply opens its own GraphRegion; inside the Krylov
/// solver's region it must join the outer session (region inside region)
/// rather than deadlock or double-install the scheduler hook.  The
/// V-cycle also exercises the overlapped corner-filling transfers and
/// the chained smoother stages.
TEST(HostSchedTest, MgPrecondRegionNestingBitIdenticalUnderGraph) {
  for (const char* fuse : {"off", "on"}) {
    core::RunConfig barrier = pulse_config(1, "native", 2);
    barrier.preconditioner = "mg";
    barrier.fuse = fuse;
    core::RunConfig graph = barrier;
    graph.host_threads = 4;
    graph.host_sched = "graph";
    testutil::expect_captures_identical(
        run_config(barrier), run_config(graph),
        std::string("mg+fuse=") + fuse + "+graph@4");
  }
}

/// Hydro sweeps pipeline through the session (the x1 sweep's exchange is
/// the join the x2 sweep chains after); the coupled radhydro scenario
/// pins field, clock and ledger identity for that path.
TEST(HostSchedTest, HydroScenarioBitIdenticalUnderGraph) {
  core::RunConfig barrier;
  barrier.problem = "sedov-radhydro";
  barrier.nx1 = 32;
  barrier.nx2 = 32;
  barrier.steps = 2;
  barrier.nprx1 = 2;
  barrier.nprx2 = 2;
  barrier.host_threads = 1;
  core::RunConfig graph = barrier;
  graph.host_threads = 4;
  graph.host_sched = "graph";
  testutil::expect_captures_identical(run_config(barrier), run_config(graph),
                                      "sedov+graph@4");
}

/// A farm mixing graph- and barrier-scheduled jobs matches each job's
/// solo run exactly.  Inside a farmed pool task GraphRegion keeps inline
/// semantics, so this also pins that the scheduler knob never perturbs
/// results regardless of where the job lands.
TEST(HostSchedTest, MixedFarmBitIdenticalToSolo) {
  std::vector<farm::FarmJob> jobs;

  core::RunConfig pulse = pulse_config(1, "native", 2);
  pulse.nx1 = 48;
  pulse.nx2 = 24;
  pulse.nprx1 = 2;
  pulse.nprx2 = 2;
  jobs.push_back({"pulse-barrier", pulse});

  core::RunConfig pulse_graph = pulse;
  pulse_graph.host_sched = "graph";
  jobs.push_back({"pulse-graph", pulse_graph});

  core::RunConfig relax;
  relax.problem = "two-species-relax";
  relax.nx1 = 24;
  relax.nx2 = 24;
  relax.steps = 2;
  relax.fuse = "on";
  relax.host_sched = "graph";
  relax.host_threads = 1;
  jobs.push_back({"relax-graph-fused", relax});

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
