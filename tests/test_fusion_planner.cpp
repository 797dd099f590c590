/// \file test_fusion_planner.cpp
/// \brief The fusion planner: plan determinism, legality, DAG capture and
/// the --fuse plan differential contract.
///
/// Five layers, extending test_fusion.cpp's composite suite:
///   1. plan determinism — the built-in plan dump is byte-identical across
///      repeated planning and across host-thread counts;
///   2. closed forms — each single-group composite records exactly the op
///      mix stated for it here, in the interpreter and on the native path
///      (whose recording is a dry run of the interpreter sweep);
///   3. legality — write-after-read across a reduction cuts the group (in
///      both plan_chain and the DAG annotator), and a reduction over an
///      unstored temporary is rejected outright;
///   4. DAG capture — the first Plan-mode solver iteration of each
///      configuration is recorded once, on the driving thread only, and
///      the capture prices nothing;
///   5. differential — --fuse plan is bit-identical in fields to off
///      across solvers × preconditioners × exec modes × VL tail shapes,
///      its simulated clocks beat off's, and the retired `on` spelling
///      runs exactly the plan path — solo and in a mixed-fuse farm.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/dag_capture.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/fusion/planner.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "sim_capture.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "vla/kernel_dag.hpp"

namespace v2d::linalg {
namespace {

using vla::Context;
using vla::VectorArch;
using vla::VlaExecMode;

// --- 1. plan determinism ------------------------------------------------------

TEST(PlanDeterminism, BuiltinDumpByteIdenticalAcrossRunsAndThreads) {
  const std::string first = fusion::describe_builtin_plans();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, fusion::describe_builtin_plans());
  for (const int threads : {1, 4}) {
    set_host_threads(threads);
    EXPECT_EQ(first, fusion::describe_builtin_plans())
        << "threads=" << threads;
  }
  set_host_threads(0);
}

TEST(PlanDeterminism, RuntimeChainPlansMatchCompileTimePlans) {
  // The same planner code runs at compile time (built-in template set) and
  // at runtime (tests, DAG annotation); both must emit the same plan.
  constexpr auto ct = fusion::plan_chain(fusion::make_daxpy2_chain());
  const auto chain = fusion::make_daxpy2_chain();
  const auto rt = fusion::plan_chain(chain);
  EXPECT_EQ(fusion::dump_plan(chain, ct), fusion::dump_plan(chain, rt));
  EXPECT_EQ(ct.ngroups, 1);
  EXPECT_EQ(ct.group[0].sig, rt.group[0].sig);
}

// --- 2. closed forms of the composites ---------------------------------------

/// The op mix of one single-group composite in the strip-mined form every
/// whilelt kernel shares: per call `dups` broadcasts; per strip `loads`
/// loads, `stores` stores, `fmas` FMAs and `muls` multiplies; and, when it
/// reduces, one ptrue plus `reduces` horizontal reduces at the end.  The
/// planner's interpreter sweep is the only definition of these kernels, so
/// this table is what pins their recorded streams from outside it.
struct CompositeMix {
  fusion::Chain (*chain)();
  std::uint64_t dups, loads, stores, fmas, muls, reduces;
};

constexpr CompositeMix kCompositeMixes[] = {
    // z ← x + a·y: the COPY disappears into the DAXPY's addend.
    {fusion::make_axpy_out_chain, 1, 2, 1, 1, 0, 0},
    // p ← r + b·(p − w·v): two chained FMAs, p streamed once.
    {fusion::make_p_update_chain, 2, 3, 1, 2, 0, 0},
    // z ← m⊙r with the {z·r, r·r} gang: two zeroed accumulators, two
    // merging FMAs per strip on in-register values.
    {fusion::make_hadamard_dot2_chain, 2, 2, 1, 2, 1, 2},
    // The residual DAXPY rides the sweep: one more dup, load, FMA, store.
    {fusion::make_hadamard_update_dot2_chain, 3, 3, 2, 3, 1, 2},
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
    const fusion::Chain chain = m.chain();
    const fusion::FusionPlan plan = fusion::plan_chain(chain);
    ASSERT_EQ(plan.ngroups, 1) << chain.name;
    for (const unsigned bits : {128u, 256u, 512u, 1024u, 2048u}) {
      const unsigned vl = bits / 64;
      // The FusedKernelSweep tail shapes: empty, partial, full, multi-strip.
      for (const std::uint64_t n :
           {0u, 1u, vl - 1, vl, vl + 1, 3 * vl, 3 * vl + vl / 2, 257u}) {
        const std::string where = std::string(chain.name) + "/vl" +
                                  std::to_string(vl) + "/n" +
                                  std::to_string(n);
        const sim::KernelCounts want = expected_counts(m, n, vl);

        // Bind every slot to its own buffer (one spare element keeps
        // .data() non-null at n = 0) and record one call per backend.
        std::vector<std::vector<double>> buf(chain.nslots);
        ExactSum acc[fusion::kMaxAccs];
        fusion::Bind bind{};
        bind.n = n;
        for (std::size_t s = 0; s < chain.nslots; ++s) {
          buf[s].resize(n + 1);
          for (double& v : buf[s]) v = rng.uniform(-1.0, 1.0);
          bind.slot[s] = buf[s].data();
        }
        for (std::size_t k = 0; k < chain.nscal; ++k)
          bind.scal[k] = rng.uniform(-1.0, 1.0);
        for (std::size_t k = 0; k < chain.naccs; ++k) bind.acc[k] = &acc[k];
        for (const VlaExecMode mode :
             {VlaExecMode::Interpret, VlaExecMode::Native}) {
          Context ctx(VectorArch(bits), mode);
          fusion::run(ctx, plan, bind);
          testutil::expect_counts_equal(
              ctx.take_counts(), want,
              where + "/" + vla::vla_exec_mode_name(mode));
        }
      }
    }
  }
}

// --- 3. legality --------------------------------------------------------------

/// A node that writes a slot some Dot already in the group reads must not
/// fuse: the sweep would feed the reduction post-update values.
TEST(FusionLegality, WriteAfterReadAcrossReductionCutsTheGroup) {
  fusion::Chain c{};
  fusion::detail::set_name(c, "war");
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
  const auto p = fusion::plan_chain(c);
  ASSERT_EQ(p.ngroups, 2);
  EXPECT_EQ(p.group[0].nnodes, 2);  // Mul + Dot fuse
  EXPECT_EQ(p.group[1].first_node, 2);  // the aliasing writer starts anew
  EXPECT_EQ(p.group[1].nnodes, 1);
}

TEST(FusionLegality, ReductionOverUnstoredTemporaryIsRejected) {
  fusion::Chain c{};
  fusion::detail::set_name(c, "temp-dot");
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
  EXPECT_THROW((void)fusion::plan_chain(c), Error);
}

TEST(FusionLegality, AnnotatorAppliesTheSameCuts) {
  double a, b, x, y;
  vla::DagRecorder rec;
  rec.op("hadamard", 64, {&a, &x}, {&y});
  rec.op("dot", 64, {&y, &x}, {});
  rec.op("daxpy", 64, {&y, &x}, {&x});  // writes x, which the dot read
  rec.barrier("allreduce");
  rec.op("matvec", 64, {&x, &b}, {&y});  // stencil: only heads a group
  rec.op("daxpy", 64, {&y, &b}, {&b});
  rec.op("daxpy", 32, {&y, &a}, {&a});  // different n: cannot join
  vla::KernelDag dag = rec.take("unit");
  fusion::annotate_dag(dag);
  ASSERT_EQ(dag.nodes.size(), 7u);
  EXPECT_EQ(dag.nodes[0].group, 0);
  EXPECT_EQ(dag.nodes[0].rule, "head");
  EXPECT_EQ(dag.nodes[1].group, 0);
  EXPECT_EQ(dag.nodes[1].rule, "reduction-tail");
  EXPECT_EQ(dag.nodes[2].group, 1);
  EXPECT_EQ(dag.nodes[2].rule, "war-cut");
  EXPECT_EQ(dag.nodes[3].group, -1);
  EXPECT_EQ(dag.nodes[3].rule, "barrier");
  EXPECT_EQ(dag.nodes[4].group, 2);
  EXPECT_EQ(dag.nodes[4].rule, "stencil-head");
  EXPECT_EQ(dag.nodes[5].group, 2);
  EXPECT_EQ(dag.nodes[5].rule, "elementwise");
  EXPECT_EQ(dag.nodes[6].group, 3);
  EXPECT_EQ(dag.nodes[6].rule, "head");
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

// --- 4. DAG capture -----------------------------------------------------------

TEST(DagCapture, RecordsFirstPlanIterationOncePerConfiguration) {
  Problem prob(24, 16, 1);
  fill_operator(prob.A, 1234);
  ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                  FuseMode::Plan);
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, 99);
  x.fill(ctx, 0.0);
  CgSolver cg(prob.g, prob.d, 1);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 0u);
  ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
  ASSERT_EQ(ctx.vctx.dag_store().size(), 1u);
  const std::string key = dag_key("cg", "jacobi", 24 * 16, ctx.vctx);
  EXPECT_TRUE(ctx.vctx.dag_store().contains(key));

  // One CG iteration: matvec+dot head, twin update / precond tail, and the
  // collectives — all annotated.
  const std::string dump = ctx.vctx.dag_store().dump_all();
  EXPECT_NE(dump.find("matvec"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rule=stencil-head"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rule=reduction-tail"), std::string::npos) << dump;
  EXPECT_NE(dump.find("barrier:allreduce"), std::string::npos) << dump;

  // A second solve of the same configuration records nothing new.
  x.fill(ctx, 0.0);
  ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 1u);
  EXPECT_EQ(dump, ctx.vctx.dag_store().dump_all());

  // A different configuration gets its own entry.
  BicgstabSolver bi(prob.g, prob.d, 1);
  x.fill(ctx, 0.0);
  ASSERT_TRUE(bi.solve(ctx, prob.A, *M, x, b, {}).converged);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 2u);
}

TEST(DagCapture, OffModeNeverRecords) {
  Problem prob(24, 16, 1);
  fill_operator(prob.A, 1234);
  ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                  FuseMode::Off);
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, 99);
  x.fill(ctx, 0.0);
  CgSolver cg(prob.g, prob.d, 1);
  ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 0u);
}

/// Recording happens on the driving thread only, so the captured dump is
/// byte-identical at any host-thread count.
TEST(DagCapture, DumpInvariantUnderHostThreads) {
  std::string reference;
  for (const int threads : {1, 4}) {
    set_host_threads(threads);
    Problem prob(24, 16, 1, 2, 2);
    fill_operator(prob.A, 77);
    ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                    FuseMode::Plan);
    auto M = make_preconditioner("spai0", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 3);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
    const std::string dump = ctx.vctx.dag_store().dump_all();
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(reference, dump) << "threads=" << threads;
    }
  }
  set_host_threads(0);
}

// --- 5. differential: plan vs off ---------------------------------------------

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

/// Mixed-fuse farm regression (memo-key separation): off/plan jobs sharing
/// one farm — and its shared per-VL count caches — reproduce their solo
/// runs exactly, and a job spelled with the retired `on` runs exactly the
/// plan path.
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
