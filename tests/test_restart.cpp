/// \file test_restart.cpp
/// \brief h5lite checkpoint -> restart round-trips: a restarted run must
/// be bit-identical to an uninterrupted one — fields, step count,
/// simulated time, and every profile's per-rank clocks and ledgers — in
/// both VLA execution modes; plus the checkpoint-cadence contract (no
/// duplicate priced final write).

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "core/v2d.hpp"
#include "io/h5lite.hpp"
#include "support/error.hpp"

#include "ledger_testutil.hpp"

namespace v2d {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::RunConfig base_config(const std::string& problem,
                            const std::string& vla_exec) {
  core::RunConfig cfg;
  cfg.problem = problem;
  cfg.nx1 = 32;
  cfg.nx2 = 16;
  cfg.steps = 4;
  cfg.dt = 0.02;
  cfg.nprx1 = 2;
  cfg.nprx2 = 2;
  cfg.compilers = {"cray", "gnu"};
  cfg.vla_exec = vla_exec;
  if (problem == "gaussian-pulse") cfg.kappa_absorb = 0.4;  // evolve T too
  if (problem == "sedov-radhydro") cfg.nx2 = 32;
  return cfg;
}

void expect_exec_state_equal(const core::Simulation& a,
                             const core::Simulation& b,
                             const std::string& where) {
  ASSERT_EQ(a.exec().nprofiles(), b.exec().nprofiles()) << where;
  for (std::size_t p = 0; p < a.exec().nprofiles(); ++p) {
    for (int r = 0; r < a.exec().nranks(); ++r) {
      const std::string tag =
          where + " p" + std::to_string(p) + " r" + std::to_string(r);
      EXPECT_EQ(a.exec().rank_time(p, r), b.exec().rank_time(p, r)) << tag;
      testutil::expect_ledgers_identical(a.exec().ledger(p, r),
                                         b.exec().ledger(p, r), tag);
    }
  }
}

/// Uninterrupted run vs. run-to-midpoint + restart + run-to-end, with the
/// same periodic checkpoint cadence so both runs price identical Io.
/// `edit_mid`, when set, rewrites the midpoint file before the restart.
/// Both runs use `fuse`; the resumed half uses `resume_fuse` when it is
/// given.
void round_trip(const std::string& problem, const std::string& vla_exec,
                const std::function<void(const std::string&)>& edit_mid = {},
                const std::string& fuse = "off",
                const std::string& resume_fuse = "") {
  const std::string mid = temp_path("v2d_mid_" + problem + vla_exec + ".h5l");
  const std::string full =
      temp_path("v2d_full_" + problem + vla_exec + ".h5l");
  const std::string resumed =
      temp_path("v2d_res_" + problem + vla_exec + ".h5l");

  // Uninterrupted reference: checkpoints at steps 2 and 4.
  core::RunConfig cfg = base_config(problem, vla_exec);
  cfg.fuse = fuse;
  cfg.checkpoint_path = full;
  cfg.checkpoint_every = 2;
  core::Simulation ref(cfg);
  ref.run();
  ASSERT_EQ(ref.steps_taken(), cfg.steps);

  // Interrupted run: stop after the step-2 checkpoint.
  core::RunConfig half = cfg;
  half.steps = 2;
  half.checkpoint_path = mid;
  core::Simulation first(half);
  first.run();
  ASSERT_EQ(first.steps_taken(), 2);
  if (edit_mid) edit_mid(mid);

  // Resume from the midpoint file and finish.
  core::RunConfig rest = cfg;
  if (!resume_fuse.empty()) rest.fuse = resume_fuse;
  rest.checkpoint_path = resumed;
  core::Simulation second(rest);
  second.restart(mid);
  ASSERT_EQ(second.steps_taken(), 2);
  second.run();

  const std::string where = problem + "/" + vla_exec;
  ASSERT_EQ(second.steps_taken(), ref.steps_taken()) << where;
  EXPECT_EQ(second.time(), ref.time()) << where;

  const auto fa = ref.radiation().field().gather_global();
  const auto fb = second.radiation().field().gather_global();
  ASSERT_EQ(fa.size(), fb.size()) << where;
  for (std::size_t i = 0; i < fa.size(); ++i)
    ASSERT_EQ(fa[i], fb[i]) << where << " zone " << i;

  EXPECT_EQ(second.analytic_error(), ref.analytic_error()) << where;
  expect_exec_state_equal(ref, second, where);

  std::remove(mid.c_str());
  std::remove(full.c_str());
  std::remove(resumed.c_str());
}

TEST(Restart, GaussianPulseRoundTripNative) {
  round_trip("gaussian-pulse", "native");
}
TEST(Restart, GaussianPulseRoundTripInterpret) {
  round_trip("gaussian-pulse", "interpret");
}
TEST(Restart, HotspotAbsorberRoundTripNative) {
  round_trip("hotspot-absorber", "native");
}
TEST(Restart, TwoSpeciesRelaxRoundTripNative) {
  round_trip("two-species-relax", "native");
}
TEST(Restart, SedovRadhydroRoundTripNative) {
  round_trip("sedov-radhydro", "native");
}

/// Checkpoints from builds that still had a scheduler knob carry it
/// as an extra attribute in their config group.  Restart checks only the
/// knobs the run pins today, so such a file still resumes bit-identically.
TEST(Restart, CheckpointWithRetiredSchedulerKnobStillRestarts) {
  round_trip("gaussian-pulse", "native", [](const std::string& path) {
    io::H5File f = io::H5File::load(path);
    f.root().group("config").set_attr("host_sched", std::string("graph"));
    f.save(path);
  });
}

/// Before `on` became the retired spelling of `plan`, an `on` run wrote
/// fuse = "on" into its checkpoint's config group — byte-for-byte what
/// the edit below leaves.  Resumed under --fuse on, such a file continues
/// the plan path bit-identically.
TEST(Restart, CheckpointWithRetiredFuseOnStillRestarts) {
  round_trip(
      "gaussian-pulse", "native",
      [](const std::string& path) {
        io::H5File f = io::H5File::load(path);
        f.root().group("config").set_attr("fuse", std::string("on"));
        f.save(path);
      },
      "plan", "on");
}

/// A checkpoint ledger maps its region names through the fixed region
/// table, so a name outside it is an Error naming it rather than a region
/// that enters the restored totals.
TEST(Restart, CheckpointLedgerWithUnknownRegionRejected) {
  const std::string path = temp_path("v2d_bogus_region.h5l");
  core::RunConfig cfg = base_config("gaussian-pulse", "native");
  cfg.steps = 1;
  core::Simulation sim(cfg);
  sim.run();
  sim.checkpoint(path);
  {
    io::H5File f = io::H5File::load(path);
    io::Group& ledger =
        f.root().group("exec").group("profile-0").group("ledger-0");
    // A well-shaped copy of a real region under a name no region has.
    const io::Group& real = ledger.group("matvec");
    io::Group& bogus = ledger.create_group("bogus-region");
    bogus.write("u", std::span<const std::int64_t>(real.dataset("u").i64),
                {real.dataset("u").i64.size()});
    bogus.write("f", std::span<const double>(real.dataset("f").f64),
                {real.dataset("f").f64.size()});
    f.save(path);
  }
  core::Simulation resumed(cfg);
  try {
    resumed.restart(path);
    ADD_FAILURE() << "a ledger region outside the table was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus-region"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- cadence contract --------------------------------------------------------

std::uint64_t checkpoint_calls(const core::Simulation& sim) {
  const auto led = sim.exec().merged_ledger(0);
  return led.has("checkpoint") ? led.at("checkpoint").counts.calls : 0;
}

TEST(Restart, FinalCheckpointNotDuplicatedWhenCadenceCoversLastStep) {
  // steps = 4, every 2: the periodic cadence already wrote step 4 — the
  // run must price exactly 2 checkpoint writes per rank, not 3.
  const std::string path = temp_path("v2d_cadence.h5l");
  core::RunConfig cfg = base_config("gaussian-pulse", "native");
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 2;
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_EQ(checkpoint_calls(sim),
            2u * static_cast<std::uint64_t>(cfg.nranks()));
  const io::H5File f = io::H5File::load(path);
  EXPECT_EQ(f.root().attr_i64("step"), 4);
  std::remove(path.c_str());
}

TEST(Restart, FinalCheckpointStillWrittenOffCadence) {
  // steps = 3, every 2: periodic write at step 2 plus the final at 3.
  const std::string path = temp_path("v2d_cadence_off.h5l");
  core::RunConfig cfg = base_config("gaussian-pulse", "native");
  cfg.steps = 3;
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 2;
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_EQ(checkpoint_calls(sim),
            2u * static_cast<std::uint64_t>(cfg.nranks()));
  const io::H5File f = io::H5File::load(path);
  EXPECT_EQ(f.root().attr_i64("step"), 3);
  std::remove(path.c_str());
}

TEST(Restart, ResumePastEndStillWritesTheConfiguredCheckpoint) {
  // Resuming at step == cfg.steps from file A with --checkpoint B takes
  // zero steps, but B must still be written (only a resume from B itself
  // counts as B being up to date).
  const std::string a = temp_path("v2d_resume_a.h5l");
  const std::string b = temp_path("v2d_resume_b.h5l");
  core::RunConfig cfg = base_config("gaussian-pulse", "native");
  cfg.steps = 2;
  cfg.checkpoint_path = a;
  core::Simulation first(cfg);
  first.run();

  core::RunConfig cont = cfg;
  cont.checkpoint_path = b;
  core::Simulation second(cont);
  second.restart(a);
  second.run();
  const io::H5File f = io::H5File::load(b);  // throws if never written
  EXPECT_EQ(f.root().attr_i64("step"), 2);

  // Resuming from the configured path itself writes no duplicate.
  core::Simulation third(cfg);
  third.restart(a);
  const auto before = checkpoint_calls(third);
  third.run();
  EXPECT_EQ(checkpoint_calls(third), before);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Restart, MismatchedConfigurationRejected) {
  const std::string path = temp_path("v2d_mismatch.h5l");
  core::RunConfig cfg = base_config("gaussian-pulse", "native");
  cfg.steps = 1;
  core::Simulation sim(cfg);
  sim.run();
  sim.checkpoint(path);

  core::RunConfig other = cfg;
  other.problem = "two-species-relax";
  other.kappa_absorb = 0.0;
  core::Simulation wrong_problem(other);
  EXPECT_THROW(wrong_problem.restart(path), Error);

  core::RunConfig small = cfg;
  small.nx1 = 16;
  core::Simulation wrong_mesh(small);
  EXPECT_THROW(wrong_mesh.restart(path), Error);

  // Physics/solver/pricing knobs are pinned in the checkpoint: resuming
  // under different ones is not bit-identical and must be rejected.
  for (auto mutate : {+[](core::RunConfig& c) { c.kappa_total = 12.0; },
                      +[](core::RunConfig& c) { c.dt = 0.05; },
                      +[](core::RunConfig& c) { c.preconditioner = "jacobi"; },
                      +[](core::RunConfig& c) { c.fuse = "plan"; }}) {
    core::RunConfig knob = cfg;
    mutate(knob);
    core::Simulation wrong_knob(knob);
    EXPECT_THROW(wrong_knob.restart(path), Error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace v2d
