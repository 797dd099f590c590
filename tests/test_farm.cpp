/// \file test_farm.cpp
/// \brief The farm determinism suite: batched multi-scenario execution is
/// a pure host-throughput optimization.
///
/// K heterogeneous jobs — different problems, grids, decompositions,
/// vector lengths, compiler sets, --vla-exec modes and --fuse settings —
/// run solo and farmed, and everything observable is compared exactly:
/// gathered fields, per-profile per-rank simulated clocks, and full cost
/// ledgers.  Farm scheduling (wave interleaving, residency cap, host-thread
/// count) must change *none* of it: a farm session is built exactly like
/// a solo one and shares only the host pool.  Plus: a mid-farm
/// checkpoint/restart round-trip, failure isolation, the farm's lane
/// ownership, option validation, memo-counter totals, and the job-file
/// parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "farm/job_file.hpp"
#include "sim_capture.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace v2d {
namespace {

using testutil::SimCapture;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::RunConfig pulse_config() {
  core::RunConfig cfg;
  cfg.problem = "gaussian-pulse";
  cfg.nx1 = 48;
  cfg.nx2 = 24;
  cfg.steps = 2;
  cfg.dt = 0.05;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  cfg.compilers = {"cray", "gnu"};
  cfg.host_threads = 1;
  return cfg;
}

/// The heterogeneous job set: every axis the farm must not perturb is
/// varied somewhere — problem, grid, decomposition, VL, profiles,
/// vla-exec backend, fuse mode.
std::vector<farm::FarmJob> heterogeneous_jobs() {
  std::vector<farm::FarmJob> jobs;

  jobs.push_back({"pulse-base", pulse_config()});

  core::RunConfig fused = pulse_config();
  fused.fuse = "plan";
  jobs.push_back({"pulse-fused", fused});

  core::RunConfig vl256 = pulse_config();
  vl256.vector_bits = 256;
  vl256.compilers = {"fujitsu"};
  jobs.push_back({"pulse-vl256", vl256});

  core::RunConfig hotspot;
  hotspot.problem = "hotspot-absorber";
  hotspot.nx1 = 32;
  hotspot.nx2 = 32;
  hotspot.steps = 2;
  hotspot.dt = 0.02;
  hotspot.nprx1 = 2;
  hotspot.nprx2 = 1;
  hotspot.vla_exec = "interpret";
  hotspot.host_threads = 1;
  jobs.push_back({"hotspot-interp", hotspot});

  core::RunConfig relax;
  relax.problem = "two-species-relax";
  relax.nx1 = 24;
  relax.nx2 = 24;
  relax.steps = 3;
  relax.fuse = "plan";
  relax.host_threads = 1;
  jobs.push_back({"relax-fused", relax});

  core::RunConfig sedov;
  sedov.problem = "sedov-radhydro";
  sedov.nx1 = 24;
  sedov.nx2 = 24;
  sedov.steps = 2;
  sedov.nprx1 = 1;
  sedov.nprx2 = 2;
  sedov.host_threads = 1;
  jobs.push_back({"sedov", sedov});

  return jobs;
}

SimCapture run_solo(const core::RunConfig& cfg) {
  core::Simulation sim(cfg);
  if (!cfg.restart_path.empty()) sim.restart(cfg.restart_path);
  sim.run();
  return testutil::capture(sim);
}

/// Farm the jobs and capture each completed session's exact state.
std::vector<SimCapture> run_farmed(const std::vector<farm::FarmJob>& jobs,
                                   int host_threads, int max_concurrent) {
  farm::FarmOptions opt;
  opt.host_threads = host_threads;
  opt.max_concurrent = max_concurrent;
  std::vector<SimCapture> caps(jobs.size());
  opt.on_job_complete = [&caps](std::size_t i, core::Simulation& sim) {
    caps[i] = testutil::capture(sim);
  };
  farm::FarmScheduler sched(opt);
  for (const auto& j : jobs) sched.add(j);
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  EXPECT_EQ(sum.failed, 0u);
  EXPECT_EQ(sum.jobs.size(), jobs.size());
  return caps;
}

/// The acceptance criterion: heterogeneous jobs farmed together are
/// bit-identical to running each alone — fields, ledgers, clocks — at
/// any host-thread count and residency cap.
TEST(FarmDeterminism, HeterogeneousJobsBitIdenticalToSolo) {
  const auto jobs = heterogeneous_jobs();
  std::vector<SimCapture> solo;
  solo.reserve(jobs.size());
  for (const auto& j : jobs) solo.push_back(run_solo(j.cfg));

  const auto farmed_narrow = run_farmed(jobs, /*host_threads=*/1,
                                        /*max_concurrent=*/2);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed_narrow[i],
                                        jobs[i].name + "@t1c2");

  const auto farmed_wide = run_farmed(jobs, /*host_threads=*/3,
                                      /*max_concurrent=*/0);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed_wide[i],
                                        jobs[i].name + "@t3all");
}

/// A checkpoint written mid-farm restarts — farmed again — into a state
/// bit-identical to an uninterrupted solo run with the same cadence.
TEST(FarmDeterminism, MidFarmCheckpointRestartRoundTrip) {
  const std::string mid = temp_path("farm_mid.h5l");
  const std::string ref_ck = temp_path("farm_ref.h5l");
  const std::string res_ck = temp_path("farm_res.h5l");

  // Uninterrupted solo reference: checkpoints at steps 2 and 4.
  core::RunConfig ref_cfg = pulse_config();
  ref_cfg.steps = 4;
  ref_cfg.checkpoint_path = ref_ck;
  ref_cfg.checkpoint_every = 2;
  const SimCapture ref = run_solo(ref_cfg);

  // Decoy job so both farm phases really interleave waves.
  core::RunConfig decoy;
  decoy.problem = "two-species-relax";
  decoy.nx1 = 16;
  decoy.nx2 = 16;
  decoy.steps = 3;
  decoy.host_threads = 1;

  // Farm phase 1: run the first half, checkpointing at step 2.
  core::RunConfig half = ref_cfg;
  half.steps = 2;
  half.checkpoint_path = mid;
  run_farmed({{"half", half}, {"decoy", decoy}}, 2, 0);

  // Farm phase 2: restart from the mid-farm checkpoint and finish.
  core::RunConfig rest = ref_cfg;
  rest.checkpoint_path = res_ck;
  rest.restart_path = mid;
  const auto caps = run_farmed({{"rest", rest}, {"decoy", decoy}}, 2, 0);
  testutil::expect_captures_identical(ref, caps[0], "restarted-in-farm");

  std::remove(mid.c_str());
  std::remove(ref_ck.c_str());
  std::remove(res_ck.c_str());
}

/// A failing job is retired with its error; the others finish normally.
TEST(FarmScheduling, FailedJobDoesNotSinkTheFarm) {
  core::RunConfig bad = pulse_config();
  bad.max_iterations = 1;  // cannot converge -> drive_step throws
  bad.rel_tol = 1e-14;
  core::RunConfig good = pulse_config();

  farm::FarmScheduler sched;
  sched.add({"bad", bad});
  sched.add({"good", good});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);

  ASSERT_EQ(sum.jobs.size(), 2u);
  EXPECT_EQ(sum.failed, 1u);
  EXPECT_FALSE(sum.jobs[0].error.empty());
  EXPECT_NE(sum.jobs[0].error.find("converge"), std::string::npos);
  EXPECT_TRUE(sum.jobs[1].error.empty());
  EXPECT_EQ(sum.jobs[1].steps, good.steps);
}

/// A residency cap of one runs same-shape jobs strictly one after
/// another; each session's own count memo serves hits, and the farm
/// counts every driven step.
TEST(FarmScheduling, ResidencyCapOfOneRunsEveryJob) {
  const core::RunConfig cfg = pulse_config();
  farm::FarmOptions opt;
  opt.host_threads = 1;
  opt.max_concurrent = 1;  // strictly sequential
  farm::FarmScheduler sched(opt);
  sched.add({"a", cfg});
  sched.add({"b", cfg});
  sched.add({"c", cfg});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);

  EXPECT_EQ(sum.failed, 0u);
  EXPECT_EQ(sum.scenario_steps, 3u * static_cast<unsigned>(cfg.steps));
  EXPECT_GT(sum.memo_hits, 0u);
  EXPECT_GT(sum.steps_per_sec, 0.0);
}

/// The farm's memo totals are the sum of its sessions' own counters, so at
/// any lane count they equal the totals of the same jobs run solo.
TEST(FarmScheduling, MemoTotalsInvariantUnderLaneCount) {
  core::RunConfig planned = pulse_config();
  planned.vector_bits = 256;
  planned.fuse = "plan";
  core::RunConfig relax;
  relax.problem = "two-species-relax";
  relax.nx1 = 24;
  relax.nx2 = 24;
  relax.steps = 3;
  relax.host_threads = 1;
  const std::vector<core::RunConfig> cfgs = {pulse_config(), planned, relax};

  std::uint64_t solo_hits = 0, solo_misses = 0;
  for (const auto& cfg : cfgs) {
    core::Simulation sim(cfg);
    sim.run();
    solo_hits += sim.context().vctx.memo_hits();
    solo_misses += sim.context().vctx.memo_misses();
  }
  EXPECT_GT(solo_hits, 0u);
  EXPECT_GT(solo_misses, 0u);

  for (const int lanes : {1, 3}) {
    farm::FarmOptions opt;
    opt.host_threads = lanes;
    farm::FarmScheduler sched(opt);
    sched.add({"pulse", cfgs[0]});
    sched.add({"planned", cfgs[1]});
    sched.add({"relax", cfgs[2]});
    const farm::FarmSummary sum = sched.run();
    set_host_threads(0);
    EXPECT_EQ(sum.failed, 0u);
    EXPECT_EQ(sum.memo_hits, solo_hits) << "lanes=" << lanes;
    EXPECT_EQ(sum.memo_misses, solo_misses) << "lanes=" << lanes;
  }
}

/// Every session runs on the farm's lanes, whatever host_threads its job
/// line asked for: admitting a session never resizes the host pool.
TEST(FarmScheduling, SessionsRunOnTheFarmsLanes) {
  core::RunConfig cfg = pulse_config();
  cfg.host_threads = 1;
  farm::FarmOptions opt;
  opt.host_threads = 3;
  opt.max_concurrent = 1;  // admissions happen between completions
  int completed = 0;
  opt.on_job_complete = [&completed](std::size_t, core::Simulation&) {
    EXPECT_EQ(host_threads(), 3);
    ++completed;
  };
  farm::FarmScheduler sched(opt);
  sched.add({"a", cfg});
  sched.add({"b", cfg});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  EXPECT_EQ(sum.failed, 0u);
  EXPECT_EQ(completed, 2);
}

/// A negative count, cap or budget, or a backoff under one wave, is a
/// structured error naming the option, not a silent default.
TEST(FarmScheduling, RejectsOutOfRangeOptions) {
  struct Case {
    const char* option;
    void (*set)(farm::FarmOptions&);
  };
  const std::vector<Case> cases = {
      {"--host-threads", [](farm::FarmOptions& o) { o.host_threads = -5; }},
      // Rejected in the constructor, before run() sizes the pool.
      {"--host-threads",
       [](farm::FarmOptions& o) { o.host_threads = kMaxHostThreads + 1; }},
      {"--farm-max-concurrent",
       [](farm::FarmOptions& o) { o.max_concurrent = -1; }},
      {"--farm-max-retries", [](farm::FarmOptions& o) { o.max_retries = -1; }},
      {"--farm-backoff-base",
       [](farm::FarmOptions& o) { o.backoff_base_waves = 0; }},
      {"--farm-backoff-cap",
       [](farm::FarmOptions& o) { o.backoff_cap_waves = -3; }},
      {"--farm-step-budget",
       [](farm::FarmOptions& o) { o.job_step_budget = -1; }},
      {"--farm-sim-budget",
       [](farm::FarmOptions& o) { o.job_sim_budget = -0.5; }},
      {"--farm-sim-budget",
       [](farm::FarmOptions& o) {
         o.job_sim_budget = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  for (const Case& c : cases) {
    farm::FarmOptions opt;
    c.set(opt);
    try {
      farm::FarmScheduler sched(opt);
      ADD_FAILURE() << c.option << " out of range was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.option), std::string::npos)
          << e.what();
    }
  }
  // The boundaries pass: zero counts, caps and budgets (the defaults) and
  // one-wave backoffs.
  farm::FarmOptions edge;
  edge.backoff_base_waves = 1;
  edge.backoff_cap_waves = 1;
  EXPECT_NO_THROW(farm::FarmScheduler{edge});
}

TEST(FarmScheduling, RejectsDuplicateNamesAndSharedCheckpointPaths) {
  farm::FarmScheduler sched;
  core::RunConfig cfg = pulse_config();
  cfg.checkpoint_path = temp_path("farm_dup.h5l");
  sched.add({"a", cfg});
  EXPECT_THROW(sched.add({"a", pulse_config()}), Error);
  EXPECT_THROW(sched.add({"b", cfg}), Error);  // same checkpoint path
  core::RunConfig other = pulse_config();
  other.checkpoint_path.clear();
  sched.add({"b", other});  // empty path may repeat
  sched.add({"c", other});
  EXPECT_EQ(sched.job_count(), 3u);
}

// --- job-file parsing --------------------------------------------------------

TEST(FarmJobFile, ParsesNamesAndOptions) {
  const farm::FarmJob named = farm::parse_job_line(
      "pulse-hi: --problem gaussian-pulse --steps 7 --nx1 64 --fuse on",
      "job-1");
  EXPECT_EQ(named.name, "pulse-hi");
  EXPECT_EQ(named.cfg.problem, "gaussian-pulse");
  EXPECT_EQ(named.cfg.steps, 7);
  EXPECT_EQ(named.cfg.nx1, 64);
  EXPECT_EQ(named.cfg.fuse, "on");

  const farm::FarmJob unnamed = farm::parse_job_line(
      "--problem two-species-relax --steps 2", "job-2");
  EXPECT_EQ(unnamed.name, "job-2");
  EXPECT_EQ(unnamed.cfg.problem, "two-species-relax");

  EXPECT_THROW(farm::parse_job_line("--no-such-option 3", "x"), Error);
  EXPECT_THROW(farm::parse_job_line("name-only:", "x"), Error);
  // A job line cannot ask for help, carry a stray argument or spell a
  // boolean the reader does not know.
  EXPECT_THROW(farm::parse_job_line("a: --steps 2 --help", "x"), Error);
  EXPECT_THROW(farm::parse_job_line("a: -h", "x"), Error);
  EXPECT_THROW(farm::parse_job_line("a: --steps 2 stray", "x"), Error);
  EXPECT_THROW(farm::parse_job_line("a: --ganged on", "x"), Error);
  // 4294967297 steps must not wrap to a 1-step job.
  EXPECT_THROW(
      farm::parse_job_line("a: --steps 4294967297 --nx1 32 --nx2 32", "x"),
      Error);
}

TEST(FarmJobFile, ParsesFilesWithCommentsAndRejectsDuplicates) {
  const std::string path = temp_path("farm_jobs.txt");
  {
    std::ofstream out(path);
    out << "# a job list\n"
        << "\n"
        << "one: --problem gaussian-pulse --steps 2  # trailing comment\n"
        << "--problem two-species-relax --steps 1\n";
  }
  const auto jobs = farm::parse_job_file(path);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "one");
  EXPECT_EQ(jobs[1].name, "job-2");
  EXPECT_EQ(jobs[1].cfg.problem, "two-species-relax");

  {
    std::ofstream out(path);
    out << "same: --problem gaussian-pulse\n"
        << "same: --problem gaussian-pulse\n";
  }
  try {
    farm::parse_job_file(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate job name"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

/// A job line with a value its library bound rejects stops the whole file
/// while it is read, naming the line and the option, so no job of the file
/// runs.  Each of these lines used to pass the parser and fail only when
/// its session was built, after the good job ahead of it had run.
TEST(FarmJobFile, BadValueStopsTheFileBeforeAnyJobRuns) {
  const std::string path = temp_path("farm_bad_value_jobs.txt");
  const std::string good = "--problem gaussian-pulse --steps 1 --nx1 16 --nx2 8";
  for (const std::string bad :
       {"--vector-bits 100", "--nprx1 100", "--compilers nope",
        "--precond nope", "--mg-smoother nope --precond mg"}) {
    {
      std::ofstream out(path);
      out << "good: " << good << "\n"
          << "bad: " << good << " " << bad << "\n";
    }
    try {
      (void)farm::parse_job_file(path);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path + ":2:"), std::string::npos) << what;
      EXPECT_NE(what.find(bad.substr(0, bad.find(' '))), std::string::npos)
          << what;
    }
  }
  std::remove(path.c_str());
}

TEST(FarmJobFile, EmptyOrCommentOnlyFileFailsEarly) {
  const std::string path = temp_path("farm_empty_jobs.txt");
  {
    std::ofstream out(path);
    out << "# nothing but comments\n"
        << "   \n"
        << "# and blank lines\n";
  }
  try {
    farm::parse_job_file(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("defines no jobs"),
              std::string::npos);
  }
  std::remove(path.c_str());

  farm::FarmScheduler sched;
  EXPECT_THROW(sched.run(), Error);  // no jobs queued: refuse, don't no-op
}

// --- fault injection + recovery ----------------------------------------------

std::vector<std::string> actions_of(
    const std::vector<resilience::RecoveryEvent>& events) {
  std::vector<std::string> out;
  for (const auto& ev : events) out.push_back(ev.action);
  return out;
}

/// The headline invariant of the resilience layer: a farmed job that
/// faults, backs off, and retries from its latest finalized checkpoint
/// finishes bit-identical — fields, per-profile per-rank clocks, full
/// cost ledgers — to the same job never faulted, in both --vla-exec
/// modes.  The reference solo run uses the *same* checkpoint cadence
/// (checkpoint Io is priced); retry wipes the failed attempt's partial
/// pricing because re-admission restores clocks/ledgers from the
/// checkpoint bit-exactly.
TEST(FarmResilience, RetryFromCheckpointBitIdenticalToFaultFree) {
  for (const std::string mode : {"native", "interpret"}) {
    const std::string ref_ck = temp_path("farm_rz_ref_" + mode + ".h5l");
    const std::string job_ck = temp_path("farm_rz_job_" + mode + ".h5l");

    core::RunConfig ref_cfg = pulse_config();
    ref_cfg.steps = 6;
    ref_cfg.vla_exec = mode;
    ref_cfg.checkpoint_path = ref_ck;
    ref_cfg.checkpoint_every = 2;
    const SimCapture ref = run_solo(ref_cfg);

    core::RunConfig job_cfg = ref_cfg;
    job_cfg.checkpoint_path = job_ck;

    // The decoy keeps the wave loop honest (another session is resident
    // while the faulted job backs off); its 2 steps sit below the pinned
    // fault step, so its schedule is empty.
    core::RunConfig decoy = pulse_config();
    decoy.vla_exec = mode;

    farm::FarmOptions opt;
    opt.host_threads = 2;
    opt.fault_plan = resilience::FaultPlan(11, "throw@5");
    opt.max_retries = 2;
    SimCapture faulted_cap;
    bool captured = false;
    opt.on_job_complete = [&](std::size_t i, core::Simulation& sim) {
      if (i == 0) {
        faulted_cap = testutil::capture(sim);
        captured = true;
      }
    };
    farm::FarmScheduler sched(opt);
    sched.add({"faulted", job_cfg});
    sched.add({"decoy", decoy});
    const farm::FarmSummary sum = sched.run();
    set_host_threads(0);

    EXPECT_EQ(sum.failed, 0u);
    EXPECT_EQ(sum.retries, 1u);
    EXPECT_EQ(sum.quarantined, 0u);
    const farm::JobResult& r = sum.jobs[0];
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.attempts, 2);
    EXPECT_TRUE(r.cause.empty());
    EXPECT_EQ(r.steps, 6);
    // Attempt 1 drove steps 1..5, attempt 2 re-drove 5..6 from the step-4
    // checkpoint: recovery's true cost shows up in driven_steps.
    EXPECT_EQ(r.driven_steps, 7);
    EXPECT_EQ(r.farmed_steps, 2);

    const auto actions = actions_of(r.recovery);
    ASSERT_EQ(actions.size(), 3u);
    EXPECT_EQ(actions[0], "injected-exception");
    EXPECT_EQ(actions[1], "backoff");
    EXPECT_EQ(actions[2], "retry");
    EXPECT_EQ(r.recovery[1].value, 1);  // first retry: base backoff
    EXPECT_NE(r.recovery[2].detail.find("step 4"), std::string::npos);

    ASSERT_TRUE(captured);
    testutil::expect_captures_identical(ref, faulted_cap,
                                        "retry-from-checkpoint/" + mode);

    // The decoy never saw a fault and never retried.
    EXPECT_EQ(sum.jobs[1].attempts, 1);
    EXPECT_TRUE(sum.jobs[1].recovery.empty());

    std::remove(ref_ck.c_str());
    std::remove(job_ck.c_str());
  }
}

/// Retries exhaust, backoff doubles per wave up to the cap, and the job
/// lands in quarantine with its cause and full ledger — while the rest of
/// the farm finishes normally.
TEST(FarmResilience, QuarantineAfterRetryExhaustionWithDoublingBackoff) {
  core::RunConfig doomed = pulse_config();
  doomed.steps = 5;  // no checkpoint: every retry restarts from scratch

  farm::FarmOptions opt;
  opt.host_threads = 2;
  // One pinned fault per attempt: the retry gets one step further each
  // time and trips the next one.
  opt.fault_plan =
      resilience::FaultPlan(3, "throw@1; throw@2; throw@3; throw@4");
  opt.max_retries = 3;
  farm::FarmScheduler sched(opt);
  sched.add({"doomed", doomed});
  sched.add({"bystander", pulse_config()});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);

  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.quarantined, 1u);
  // 3 from the doomed job + 2 from the bystander (see below).
  EXPECT_EQ(sum.retries, 5u);
  const farm::JobResult& r = sum.jobs[0];
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(r.cause, "quarantined: injected");
  EXPECT_NE(r.error.find("injected session-step exception"),
            std::string::npos);

  // Backoff ordering across waves: 1, 2, 4 waves before the three
  // retries, then quarantine.
  std::vector<long> backoffs;
  int quarantines = 0;
  for (const auto& ev : r.recovery) {
    if (ev.action == "backoff") backoffs.push_back(ev.value);
    if (ev.action == "quarantine") ++quarantines;
  }
  EXPECT_EQ(backoffs, (std::vector<long>{1, 2, 4}));
  EXPECT_EQ(quarantines, 1);

  // The plan schedules faults for every job: the 2-step bystander trips
  // the pinned throws at steps 1 and 2 on its first two attempts, then
  // finishes clean on the third — transient faults are survivable even
  // with no checkpoint to resume from, and quarantine of the doomed job
  // is isolation, not contagion.
  EXPECT_TRUE(sum.jobs[1].error.empty());
  EXPECT_EQ(sum.jobs[1].attempts, 3);
  EXPECT_TRUE(sum.jobs[1].cause.empty());
}

TEST(FarmResilience, BackoffIsCappedAtTheCeiling) {
  core::RunConfig doomed = pulse_config();
  doomed.steps = 6;

  farm::FarmOptions opt;
  opt.host_threads = 1;
  // One fault per attempt, five attempts deep: base 2 doubles to 4, then
  // saturates at the cap of 5 for the remaining retries.
  opt.fault_plan = resilience::FaultPlan(
      9, "throw@1; throw@2; throw@3; throw@4; throw@5");
  opt.max_retries = 4;
  opt.backoff_base_waves = 2;
  opt.backoff_cap_waves = 5;
  farm::FarmScheduler sched(opt);
  sched.add({"doomed", doomed});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);

  EXPECT_EQ(sum.failed, 1u);
  const farm::JobResult& r = sum.jobs[0];
  EXPECT_EQ(r.attempts, 5);
  std::vector<long> backoffs;
  for (const auto& ev : r.recovery)
    if (ev.action == "backoff") backoffs.push_back(ev.value);
  EXPECT_EQ(backoffs, (std::vector<long>{2, 4, 5, 5}));
}

TEST(FarmResilience, StepBudgetBecomesADeadlineFailureWithoutRetry) {
  core::RunConfig runaway = pulse_config();
  runaway.steps = 10;

  farm::FarmOptions opt;
  opt.host_threads = 1;
  opt.job_step_budget = 3;
  opt.max_retries = 5;  // retries must NOT rescue a deadline
  farm::FarmScheduler sched(opt);
  sched.add({"runaway", runaway});
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);

  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.retries, 0u);
  const farm::JobResult& r = sum.jobs[0];
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.cause, "deadline");
  EXPECT_NE(r.error.find("step budget"), std::string::npos);
}

}  // namespace
}  // namespace v2d
