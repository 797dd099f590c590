/// \file test_fusion_planner.cpp
/// \brief The --fuse plan differential contract, end to end.
///
/// --fuse plan is bit-identical in fields to off across solvers ×
/// preconditioners × exec modes × VL tail shapes, its simulated clocks
/// beat off's, it is pinned across restarts, and the retired `on`
/// spelling runs exactly the plan path — solo and in a mixed-fuse farm.
/// The composites themselves are pinned in test_fusion.cpp (against the
/// interpreter and their unfused chains) and test_vla_fastpath.cpp (their
/// recorded op mixes); the problems come from solver_problem.hpp, shared
/// with test_fusion.cpp.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "sim_capture.hpp"
#include "solver_problem.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace v2d::linalg {
namespace {

using testutil::expect_same_trajectory;
using testutil::fill_operator;
using testutil::Problem;
using testutil::randomize;
using testutil::SolveOutcome;
using vla::VectorArch;
using vla::VlaExecMode;

/// Every solver/precond/exec-mode/VL combination: --fuse plan reproduces
/// the off trajectory bit-for-bit.  VL 2048 leaves a 22-element row as
/// pure tail (vl = 32); VL 512 splits it 8+8+6.
TEST(PlannedSolvers, TrajectoryMatchesOffAcrossTheMatrix) {
  for (const auto mode : {VlaExecMode::Native, VlaExecMode::Interpret}) {
    for (const std::string precond : {"jacobi", "spai0", "mg"}) {
      for (const unsigned bits : {512u, 2048u}) {
        for (const bool use_cg : {true, false}) {
          SolveOutcome out[2];
          for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
            Problem prob(22, 14, 1, 2, 1);
            fill_operator(prob.A, 4242);
            ExecContext ctx(VectorArch(bits), nullptr, mode, fuse);
            auto M = make_preconditioner(precond, ctx, prob.A);
            DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
            randomize(b, 11);
            x.fill(ctx, 0.0);
            SolveOptions opt;
            opt.rel_tol = 1e-9;
            auto& slot = out[static_cast<int>(fuse)];
            if (use_cg) {
              CgSolver s(prob.g, prob.d, 1);
              slot.stats = s.solve(ctx, prob.A, *M, x, b, opt);
            } else {
              BicgstabSolver s(prob.g, prob.d, 1);
              slot.stats = s.solve(ctx, prob.A, *M, x, b, opt);
            }
            slot.x = x.field().gather_global();
            EXPECT_TRUE(slot.stats.converged) << precond;
          }
          const std::string label =
              std::string(use_cg ? "cg/" : "bicgstab/") + precond + "/vl" +
              std::to_string(bits) +
              (mode == VlaExecMode::Native ? "/native" : "/interpret");
          expect_same_trajectory(out[static_cast<int>(FuseMode::Off)],
                                 out[static_cast<int>(FuseMode::Plan)],
                                 label + " off/plan");
        }
      }
    }
  }
}

/// End-to-end Simulation contract: plan fields are bit-identical to off,
/// and plan beats off on every profile's per-rank clock.
TEST(PlannedSolvers, SimulationPlanPinsFieldsAndBeatsOff) {
  core::RunConfig cfg;
  cfg.nx1 = 48;
  cfg.nx2 = 24;
  cfg.ns = 2;
  cfg.steps = 2;
  cfg.compilers = {"cray", "gnu"};

  testutil::SimCapture caps[2];
  const char* modes[2] = {"off", "plan"};
  for (int i = 0; i < 2; ++i) {
    cfg.fuse = modes[i];
    core::Simulation sim(cfg);
    sim.run();
    caps[i] = testutil::capture(sim);
  }

  // Fields/trajectory: identical.
  ASSERT_EQ(caps[0].field.size(), caps[1].field.size());
  EXPECT_EQ(std::memcmp(caps[0].field.data(), caps[1].field.data(),
                        caps[0].field.size() * sizeof(double)),
            0);
  EXPECT_EQ(caps[0].time, caps[1].time);
  EXPECT_EQ(caps[0].steps, caps[1].steps);

  // And plan is strictly cheaper than off on every profile clock.
  for (std::size_t p = 0; p < caps[0].clocks.size(); ++p)
    for (std::size_t r = 0; r < caps[0].clocks[p].size(); ++r)
      EXPECT_LT(caps[1].clocks[p][r], caps[0].clocks[p][r])
          << "profile " << p << " rank " << r;
}

/// Mixed-fuse farm regression: off/plan jobs sharing one farm reproduce
/// their solo runs exactly, and a job spelled with the retired `on` runs
/// exactly the plan path.
TEST(PlannedSolvers, MixedFuseFarmBitIdenticalToSolo) {
  core::RunConfig base;
  base.problem = "gaussian-pulse";
  base.nx1 = 48;
  base.nx2 = 24;
  base.steps = 2;
  base.dt = 0.05;
  base.nprx1 = 2;
  base.compilers = {"cray"};
  base.host_threads = 1;

  std::vector<farm::FarmJob> jobs;
  for (const char* fuse : {"off", "plan", "on", "plan"}) {
    core::RunConfig cfg = base;
    cfg.fuse = fuse;
    jobs.push_back({std::string("pulse-") + fuse +
                        (jobs.size() == 3 ? "-again" : ""),
                    cfg});
  }

  std::vector<testutil::SimCapture> solo;
  for (const auto& j : jobs) {
    core::Simulation sim(j.cfg);
    sim.run();
    solo.push_back(testutil::capture(sim));
  }

  farm::FarmOptions opt;
  opt.host_threads = 2;
  std::vector<testutil::SimCapture> farmed(jobs.size());
  opt.on_job_complete = [&farmed](std::size_t i, core::Simulation& sim) {
    farmed[i] = testutil::capture(sim);
  };
  farm::FarmScheduler sched(opt);
  for (const auto& j : jobs) sched.add(j);
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  ASSERT_EQ(sum.failed, 0u);

  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed[i], jobs[i].name);
  // The `on` job equals the plan jobs exactly — no cache cross-talk in
  // either direction.
  testutil::expect_captures_identical(farmed[1], farmed[2], "plan-vs-on");
  testutil::expect_captures_identical(farmed[1], farmed[3], "plan-vs-plan");
}

/// The fuse knob is pinned in checkpoints: a plan checkpoint refuses to
/// resume under a different mode.
TEST(PlannedSolvers, FuseModePinnedAcrossRestart) {
  const std::string path = ::testing::TempDir() + "/fuse_pin.h5l";
  core::RunConfig cfg;
  cfg.nx1 = 24;
  cfg.nx2 = 12;
  cfg.steps = 2;
  cfg.fuse = "plan";
  cfg.checkpoint_path = path;
  {
    core::Simulation sim(cfg);
    sim.run();
  }
  core::RunConfig wrong = cfg;
  wrong.fuse = "off";
  core::Simulation resumed(wrong);
  EXPECT_THROW(resumed.restart(path), Error);
  core::RunConfig right = cfg;
  right.steps = 3;
  core::Simulation ok(right);
  ok.restart(path);
  std::remove(path.c_str());
}

TEST(FuseModeNames, RoundTripRetiredAliasAndError) {
  EXPECT_EQ(fuse_mode_from_name("off"), FuseMode::Off);
  EXPECT_EQ(fuse_mode_from_name("plan"), FuseMode::Plan);
  EXPECT_EQ(fuse_mode_from_name("on"), FuseMode::Plan);  // retired spelling
  EXPECT_STREQ(fuse_mode_name(FuseMode::Off), "off");
  EXPECT_STREQ(fuse_mode_name(FuseMode::Plan), "plan");
  try {
    (void)fuse_mode_from_name("auto");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("off|plan"), std::string::npos);
  }
}

}  // namespace
}  // namespace v2d::linalg
