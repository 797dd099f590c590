/// \file test_fusion_planner.cpp
/// \brief Lowering fused chains: determinism, closed forms, legality and
/// the --fuse plan differential contract.
///
/// Four layers, extending test_fusion.cpp's composite suite:
///   1. determinism — lowering a chain at run time emits the same program
///      as the compile-time lowering every composite runs;
///   2. closed forms — each elementwise composite records exactly the op
///      mix stated for it here, in the interpreter and on the native path
///      (whose recording is a dry run of the interpreter sweep);
///   3. legality — a chain one sweep cannot run is rejected: a write to a
///      slot an earlier reduction read, a reduction over an unstored
///      temporary, a stencil that is not the first node;
///   4. differential — --fuse plan is bit-identical in fields to off
///      across solvers × preconditioners × exec modes × VL tail shapes,
///      its simulated clocks beat off's, and the retired `on` spelling
///      runs exactly the plan path — solo and in a mixed-fuse farm.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/fusion/planner.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "sim_capture.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace v2d::linalg {
namespace {

using vla::Context;
using vla::VectorArch;
using vla::VlaExecMode;

// --- 1. determinism -------------------------------------------------------------

TEST(Lowering, RuntimeMatchesCompileTime) {
  // The same lowering runs at compile time (every composite) and at run
  // time (the legality tests below); both must emit the same program,
  // byte for byte (GroupProgram is all bytes, so it has no padding).
  constexpr fusion::Chain kChains[] = {
      fusion::make_daxpy2_chain(), fusion::make_p_update_chain(),
      fusion::make_hadamard_update_dot2_chain(),
      fusion::make_stencil_chain(true, false, true)};
  constexpr fusion::GroupProgram kLowered[] = {
      fusion::lower(kChains[0]), fusion::lower(kChains[1]),
      fusion::lower(kChains[2]), fusion::lower(kChains[3])};
  for (std::size_t c = 0; c < std::size(kChains); ++c) {
    const fusion::GroupProgram rt = fusion::lower(kChains[c]);
    EXPECT_EQ(std::memcmp(&kLowered[c], &rt, sizeof rt), 0) << "chain " << c;
  }
}

// --- 2. closed forms of the composites ---------------------------------------

/// Operands of one composite call: four rows (one spare element keeps
/// .data() non-null at n = 0) and two exact accumulators.
struct Operands {
  std::vector<double> row[4];
  ExactSum acc[2];
  std::span<const double> in(int k, std::size_t n) const {
    return {row[k].data(), n};
  }
  std::span<double> out(int k, std::size_t n) { return {row[k].data(), n}; }
};

/// The op mix of one elementwise composite in the strip-mined form every
/// whilelt kernel shares: per call `dups` broadcasts; per strip `loads`
/// loads, `stores` stores, `fmas` FMAs and `muls` multiplies; and, when it
/// reduces, one ptrue plus `reduces` horizontal reduces at the end.  The
/// interpreter sweep is the only definition of these kernels, so this
/// table is what pins their recorded streams from outside it.
struct CompositeMix {
  const char* name;
  void (*call)(Context&, Operands&, std::size_t n);
  std::uint64_t dups, loads, stores, fmas, muls, reduces;
};

constexpr CompositeMix kCompositeMixes[] = {
    // z ← x + a·y: the COPY disappears into the DAXPY's addend.
    {"axpy_out",
     [](Context& c, Operands& o, std::size_t n) {
       fusion::axpy_out(c, o.in(0, n), -1.3, o.in(1, n), o.out(2, n));
     },
     1, 2, 1, 1, 0, 0},
    // p ← r + b·(p − w·v): two chained FMAs, p streamed once.
    {"p_update",
     [](Context& c, Operands& o, std::size_t n) {
       fusion::p_update(c, o.in(0, n), 0.8, 0.45, o.in(1, n), o.out(2, n));
     },
     2, 3, 1, 2, 0, 0},
    // z ← m⊙r with the {z·r, r·r} gang: two zeroed accumulators, two
    // merging FMAs per strip on in-register values.
    {"hadamard_dot2",
     [](Context& c, Operands& o, std::size_t n) {
       fusion::hadamard_dot2(c, o.in(0, n), o.in(1, n), o.out(2, n),
                             o.acc[0], o.acc[1]);
     },
     2, 2, 1, 2, 1, 2},
    // The residual DAXPY rides the sweep: one more dup, load, FMA, store.
    {"hadamard_update_dot2",
     [](Context& c, Operands& o, std::size_t n) {
       fusion::hadamard_update_dot2(c, o.in(0, n), -0.6, o.in(1, n),
                                    o.out(2, n), o.out(3, n), o.acc[0],
                                    o.acc[1]);
     },
     3, 3, 2, 3, 1, 2},
};

sim::KernelCounts expected_counts(const CompositeMix& m, std::uint64_t n,
                                  unsigned vl) {
  const std::uint64_t strips = (n + vl - 1) / vl;
  sim::KernelCounts c;
  const auto op = [&c](sim::OpClass cls, std::uint64_t instr,
                       std::uint64_t lanes) {
    c.instr[static_cast<std::size_t>(cls)] += instr;
    c.lanes[static_cast<std::size_t>(cls)] += lanes;
  };
  op(sim::OpClass::Select, m.dups, m.dups);
  // Loop control per strip: a whilelt over all VL lanes, then a counter
  // update and a branch over the strip's active lanes.
  op(sim::OpClass::Predicate, strips, strips * vl);
  op(sim::OpClass::IntOp, strips, n);
  op(sim::OpClass::Branch, strips, n);
  op(sim::OpClass::LoadContig, m.loads * strips, m.loads * n);
  op(sim::OpClass::StoreContig, m.stores * strips, m.stores * n);
  op(sim::OpClass::FlopFma, m.fmas * strips, m.fmas * n);
  op(sim::OpClass::FlopMul, m.muls * strips, m.muls * n);
  if (m.reduces > 0) {
    op(sim::OpClass::Predicate, 1, vl);
    op(sim::OpClass::Reduce, m.reduces, m.reduces * vl);
  }
  c.bytes_read = 8 * m.loads * n;
  c.bytes_written = 8 * m.stores * n;
  return c;
}

TEST(CompositeOpMix, InterpreterAndNativeMatchTheClosedForms) {
  Rng rng(61);
  for (const CompositeMix& m : kCompositeMixes) {
    for (const unsigned bits : {128u, 256u, 512u, 1024u, 2048u}) {
      const unsigned vl = bits / 64;
      // The FusedKernelSweep tail shapes: empty, partial, full, multi-strip.
      for (const std::uint64_t n :
           {0u, 1u, vl - 1, vl, vl + 1, 3 * vl, 3 * vl + vl / 2, 257u}) {
        const std::string where = std::string(m.name) + "/vl" +
                                  std::to_string(vl) + "/n" +
                                  std::to_string(n);
        const sim::KernelCounts want = expected_counts(m, n, vl);
        Operands o;
        for (auto& row : o.row) {
          row.resize(n + 1);
          for (double& v : row) v = rng.uniform(-1.0, 1.0);
        }
        for (const VlaExecMode mode :
             {VlaExecMode::Interpret, VlaExecMode::Native}) {
          Context ctx(VectorArch(bits), mode);
          m.call(ctx, o, n);
          testutil::expect_counts_equal(
              ctx.take_counts(), want,
              where + "/" + vla::vla_exec_mode_name(mode));
        }
      }
    }
  }
}

// --- 3. legality --------------------------------------------------------------

void expect_rejected(const fusion::Chain& c, const std::string& why) {
  try {
    (void)fusion::lower(c);
    ADD_FAILURE() << "lowered a chain that should fail with: " << why;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

/// The dot tails read memory after the sweep, so a node that writes a
/// slot an earlier Dot read would feed the reduction post-update values.
TEST(FusionLegality, WriteAfterReadAcrossReductionIsRejected) {
  fusion::Chain c{};
  c.nslots = 3;
  c.nscal = 1;
  c.naccs = 1;
  c.live_out[1] = true;
  c.live_out[2] = true;
  // z ← m ⊙ r ; acc += Σ z·r ; r ← r + s·z  — the DAXPY writes slot 1,
  // which the Dot reads.
  fusion::detail::push(
      c, {fusion::Prim::Mul, 2, 0, 1, fusion::kNone, fusion::kNone,
          fusion::kNone});
  fusion::detail::push(
      c, {fusion::Prim::Dot, fusion::kNone, 2, 1, fusion::kNone,
          fusion::kNone, 0});
  fusion::detail::push(
      c, {fusion::Prim::Axpy, 1, 2, 1, fusion::kNone, 0, fusion::kNone});
  expect_rejected(c, "writes a slot an earlier reduction read");
}

TEST(FusionLegality, ReductionOverUnstoredTemporaryIsRejected) {
  fusion::Chain c{};
  c.nslots = 3;
  c.naccs = 1;
  // z ← m ⊙ r with z NOT live-out, then acc += Σ z·r: the exact
  // tail reads operand memory images, so a register-only z is illegal.
  fusion::detail::push(
      c, {fusion::Prim::Mul, 2, 0, 1, fusion::kNone, fusion::kNone,
          fusion::kNone});
  fusion::detail::push(
      c, {fusion::Prim::Dot, fusion::kNone, 2, 1, fusion::kNone,
          fusion::kNone, 0});
  expect_rejected(c, "reduction reads an unstored temporary");
}

/// The stencil's 10-load sweep is the backbone: it must be the first node.
TEST(FusionLegality, StencilAfterTheFirstNodeIsRejected) {
  fusion::Chain c{};
  c.nslots = 10;
  c.live_out[9] = true;
  // t ← cc ⊙ cw, then y ← five-point row over the pack at slot 0.
  fusion::detail::push(
      c, {fusion::Prim::Mul, 8, 0, 1, fusion::kNone, fusion::kNone,
          fusion::kNone});
  fusion::detail::push(
      c, {fusion::Prim::Stencil, 9, 0, fusion::kNone, fusion::kNone,
          fusion::kNone, fusion::kNone});
  expect_rejected(c, "stencil must be the chain's first node");
}

// --- shared solver scaffolding (mirrors test_fusion.cpp) ----------------------

struct Problem {
  grid::Grid2D g;
  grid::Decomposition d;
  StencilOperator A;

  Problem(int nx1, int nx2, int ns, int px1 = 1, int px2 = 1)
      : g(nx1, nx2, 0.0, 1.0, 0.0, 1.0),
        d(g, mpisim::CartTopology(px1, px2)),
        A(g, d, ns) {}
};

double zone_noise(std::uint64_t seed, int s, int i, int j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(s) * 73856093u +
                static_cast<std::uint64_t>(i) * 19349663u +
                static_cast<std::uint64_t>(j) * 83492791u));
  return r.uniform();
}

void fill_operator(StencilOperator& A, std::uint64_t seed) {
  const auto& dec = A.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      auto cc = A.cc().view(r, s), cw = A.cw().view(r, s),
           ce = A.ce().view(r, s), cs = A.cs().view(r, s),
           cn = A.cn().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const double w = 0.5 + zone_noise(seed, s, gi, gj);
          cw(li, lj) = -w;
          ce(li, lj) = -w;
          cs(li, lj) = -w;
          cn(li, lj) = -w;
          cc(li, lj) = 4.5 * w + 0.5;
        }
      }
    }
  }
  A.zero_boundary_coefficients();
}

void randomize(DistVector& v, std::uint64_t seed) {
  auto& f = v.field();
  for (int r = 0; r < f.decomp().nranks(); ++r) {
    const grid::TileExtent& e = f.decomp().extent(r);
    for (int s = 0; s < v.ns(); ++s) {
      auto view = f.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          view(li, lj) =
              2.0 * zone_noise(seed, s, e.i0 + li, e.j0 + lj) - 1.0;
    }
  }
}

struct SolveOutcome {
  SolveStats stats;
  std::vector<double> x;
};

void expect_same_trajectory(const SolveOutcome& a, const SolveOutcome& b,
                            const std::string& label) {
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
  EXPECT_EQ(a.stats.converged, b.stats.converged) << label;
  EXPECT_EQ(a.stats.global_reductions, b.stats.global_reductions) << label;
  EXPECT_EQ(a.stats.final_relative_residual, b.stats.final_relative_residual)
      << label;
  EXPECT_STREQ(a.stats.stop_reason, b.stats.stop_reason) << label;
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    ASSERT_EQ(a.x[i], b.x[i]) << label << " zone " << i;
}

// --- 4. differential: plan vs off ---------------------------------------------

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
