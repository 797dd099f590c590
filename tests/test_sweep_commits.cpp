/// \file test_sweep_commits.cpp
/// \brief Pins what every rank-looped tile sweep commits to the ledgers.
///
/// Each streaming op (the DistVector ops, every StencilOperator form, the
/// diagonal preconditioners and the multigrid smoother's diagonal sweeps)
/// must commit exactly one priced call per rank under its region, with
/// elements = ni·nj·ns and a working set of N tile arrays.  The tiling is
/// uneven (61×41 on 3×2: tiles of 20–21 × 20–21 zones), so a commit that
/// used another rank's extent would show.
///
/// The memory level a working set reaches is not stored in the ledger, but
/// it sets the priced per-call latency.  Each case therefore runs on a
/// machine whose L1 holds N−1 arrays of every rank's tile and whose L2
/// share holds N but not N+1, so a wrong array count moves the level and
/// the ledger's overhead cycles.  CG and the CG tail (apply_dot2 with an
/// update) run in no `v2d` problem, so nothing else checks their commits.
///
/// On the same tiling, every composite must also give the same bits under
/// both backends and both fuse modes, and record the same stream under
/// both backends in each fuse mode: natively it runs its fused body in
/// both modes, and under Off records the kernel sequence without running
/// it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ledger_testutil.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/mg/hierarchy.hpp"
#include "linalg/mg/smoother.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "mpisim/exec_model.hpp"
#include "sim/cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace v2d {
namespace {

using compiler::KernelFamily;
using linalg::DistVector;
using linalg::ExecContext;
using linalg::FuseMode;

constexpr int kNs = 2;

/// One expected commit: its family, region and working-set array count.
struct Commit {
  KernelFamily family;
  std::string region;
  int arrays;
};

struct Tiling {
  grid::Grid2D g{61, 41, 0.0, 1.0, 0.0, 1.0};
  grid::Decomposition dec{g, mpisim::CartTopology(3, 2)};

  std::uint64_t tile_elements(int r) const {
    const grid::TileExtent& e = dec.extent(r);
    return static_cast<std::uint64_t>(e.ni) * e.nj * kNs;
  }
  std::uint64_t tile_bytes(int r) const {
    return tile_elements(r) * sizeof(double);
  }

  /// A machine on which `arrays` tile arrays of every rank sit in L2, one
  /// fewer in L1 and one more in HBM.  All ranks share one CMG, so every
  /// rank gets the same L2 share.
  sim::MachineSpec machine(int arrays) const {
    std::uint64_t tmax = 0;
    for (int r = 0; r < dec.nranks(); ++r) tmax = std::max(tmax, tile_bytes(r));
    sim::MachineSpec m = sim::MachineSpec::a64fx();
    m.cmgs_per_node = 1;
    m.l1.capacity_bytes = static_cast<std::uint64_t>(arrays - 1) * tmax;
    m.l2.capacity_bytes =
        static_cast<std::uint64_t>(arrays) * tmax * dec.nranks();
    return m;
  }
};

/// Run `op` under every exec mode and fuse mode on a fresh priced context
/// and check each rank's ledger against `expected(fuse)`, commit by
/// commit, on a machine tuned to `arrays` (the sweep under test).
void expect_commits(
    const Tiling& t, const std::string& what, int arrays,
    const std::function<std::vector<Commit>(FuseMode)>& expected,
    const std::function<void(ExecContext&)>& op) {
  for (const vla::VlaExecMode mode :
       {vla::VlaExecMode::Interpret, vla::VlaExecMode::Native}) {
    for (const FuseMode fuse : {FuseMode::Off, FuseMode::Plan}) {
      const std::string tag = what + " [" + vla::vla_exec_mode_name(mode) +
                              ", " + linalg::fuse_mode_name(fuse) + "]";
      mpisim::ExecModel em(t.machine(arrays), {compiler::cray_2103()},
                           t.dec.nranks());
      ExecContext ctx(vla::VectorArch(512), &em, mode, fuse);
      op(ctx);

      std::map<std::string, std::vector<Commit>, std::less<>> by_region;
      for (const Commit& c : expected(fuse)) by_region[c.region].push_back(c);
      const compiler::CodegenProfile& prof = em.profile(0);
      for (int r = 0; r < t.dec.nranks(); ++r) {
        const auto sharers =
            static_cast<std::uint32_t>(em.placement().ranks_on_cmg(r));
        // The machine separates arrays−1, arrays and arrays+1 on this rank.
        const std::uint64_t tb = t.tile_bytes(r);
        const sim::MachineSpec& m = em.cost_model().machine();
        auto level = [&](int n) {
          return sim::classify_working_set(n * tb, m, sharers);
        };
        if (arrays > 1) {
          ASSERT_EQ(level(arrays - 1), sim::MemLevel::L1);
        }
        ASSERT_EQ(level(arrays), sim::MemLevel::L2);
        ASSERT_EQ(level(arrays + 1), sim::MemLevel::HBM);

        const sim::CostLedger& led = em.ledger(0, r);
        for (const auto& [region, cost] : led.regions()) {
          if (cost.counts.calls > 0) {
            EXPECT_TRUE(by_region.count(region))
                << tag << ": unexpected commit to " << region;
          }
        }
        for (const auto& [region, commits] : by_region) {
          const std::string where =
              tag + " rank " + std::to_string(r) + " " + region;
          ASSERT_TRUE(led.has(region)) << where;
          const sim::RegionCost& rc = led.at(region);
          EXPECT_EQ(rc.counts.calls, commits.size()) << where;
          EXPECT_EQ(rc.counts.elements, commits.size() * t.tile_elements(r))
              << where;
          // Per-call overhead = loop overhead of the family + latency of
          // the level the working set reaches, summed in commit order.
          double overhead = 0.0;
          for (const Commit& c : commits) {
            sim::KernelCounts one;
            one.calls = 1;
            overhead += em.cost_model()
                            .price(one, prof.mode(), prof.factors(c.family),
                                   static_cast<std::uint64_t>(c.arrays) * tb,
                                   sharers)
                            .overhead_cycles;
          }
          EXPECT_EQ(rc.overhead_cycles, overhead) << where;
        }
      }
    }
  }
}

/// Same commits under both fuse modes.
std::function<std::vector<Commit>(FuseMode)> always(std::vector<Commit> c) {
  return [c = std::move(c)](FuseMode) { return c; };
}

/// `off` under FuseMode::Off, `plan` under FuseMode::Plan.
std::function<std::vector<Commit>(FuseMode)> by_fuse(std::vector<Commit> off,
                                                     std::vector<Commit> plan) {
  return [off = std::move(off), plan = std::move(plan)](FuseMode f) {
    return f == FuseMode::Plan ? plan : off;
  };
}

void fill_vectors(std::initializer_list<DistVector*> vs) {
  double v = 0.5;
  for (DistVector* x : vs) x->field().fill(v += 0.25);
}

TEST(SweepCommits, DistVectorOps) {
  const Tiling t;
  DistVector x(t.g, t.dec, kNs), y(t.g, t.dec, kNs), z(t.g, t.dec, kNs),
      w(t.g, t.dec, kNs);
  fill_vectors({&x, &y, &z, &w});
  const auto D = KernelFamily::Daxpy, M = KernelFamily::VecMisc;

  expect_commits(t, "daxpy", 2, always({{D, "daxpy", 2}}),
                 [&](ExecContext& c) { y.daxpy(c, 0.5, x); });
  expect_commits(t, "dscal", 1, always({{KernelFamily::Dscal, "dscal", 1}}),
                 [&](ExecContext& c) { y.dscal(c, 1.0, 0.5); });
  expect_commits(t, "ddaxpy", 3, always({{KernelFamily::Ddaxpy, "ddaxpy", 3}}),
                 [&](ExecContext& c) { z.ddaxpy(c, 0.5, x, 0.25, y); });
  expect_commits(t, "xpby", 2, always({{M, "xpby", 2}}),
                 [&](ExecContext& c) { y.xpby(c, x, 0.5); });
  expect_commits(t, "copy_from", 2, always({{M, "copy", 2}}),
                 [&](ExecContext& c) { y.copy_from(c, x); });
  expect_commits(t, "fill", 1, always({{M, "fill", 1}}),
                 [&](ExecContext& c) { y.fill(c, 0.5); });
  expect_commits(t, "assign_sub", 3, always({{M, "sub", 3}}),
                 [&](ExecContext& c) { z.assign_sub(c, x, y); });

  expect_commits(
      t, "daxpy2", 4,
      by_fuse({{D, "daxpy", 2}, {D, "daxpy", 2}}, {{D, "daxpy2", 4}}),
      [&](ExecContext& c) { DistVector::daxpy2(c, x, 0.5, y, z, -0.5, w); });
  expect_commits(t, "assign_axpy", 3,
                 by_fuse({{M, "copy", 2}, {D, "daxpy", 2}}, {{M, "axpy", 3}}),
                 [&](ExecContext& c) { z.assign_axpy(c, x, 0.5, y); });
  expect_commits(t, "p_update", 3,
                 by_fuse({{D, "daxpy", 2}, {M, "xpby", 2}},
                         {{M, "p-update", 3}}),
                 [&](ExecContext& c) { z.p_update(c, x, 0.5, 0.25, y); });
}

linalg::StencilOperator make_operator(const Tiling& t, bool coupled) {
  linalg::StencilOperator A(t.g, t.dec, kNs);
  A.cc().fill(4.5);
  A.cw().fill(-1.0);
  A.ce().fill(-1.0);
  A.cs().fill(-1.0);
  A.cn().fill(-1.0);
  A.zero_boundary_coefficients();
  if (coupled) {
    A.enable_coupling();
    A.csp().fill(-0.25);
  }
  return A;
}

TEST(SweepCommits, StencilOperatorForms) {
  const Tiling t;
  DistVector x(t.g, t.dec, kNs), y(t.g, t.dec, kNs), b(t.g, t.dec, kNs),
      w(t.g, t.dec, kNs);
  fill_vectors({&x, &y, &b, &w});
  const auto Mv = KernelFamily::Matvec, P = KernelFamily::Precond;
  const Commit dprod{KernelFamily::Dprod, "dprod", 2};
  const Commit sub{KernelFamily::VecMisc, "sub", 3};

  for (const bool coupled : {false, true}) {
    const linalg::StencilOperator A = make_operator(t, coupled);
    const int s = 7 + (coupled ? 1 : 0);
    const std::string c = coupled ? " coupled" : " uncoupled";

    expect_commits(t, "apply" + c, s, always({{Mv, "matvec", s}}),
                   [&](ExecContext& ctx) { A.apply(ctx, x, y); });
    expect_commits(t, "apply_as" + c, s, always({{P, "precond", s}}),
                   [&](ExecContext& ctx) {
                     A.apply_as(ctx, x, y, P, sim::Region::Precond);
                   });
    // p·Ap: the dot's w is x, so the fused sweep streams nothing extra.
    expect_commits(t, "apply_dot" + c, s,
                   by_fuse({{Mv, "matvec", s}, dprod}, {{Mv, "matvec-dot", s}}),
                   [&](ExecContext& ctx) { (void)A.apply_dot(ctx, x, y); });
    expect_commits(t, "apply_dot(w)" + c, s + 1,
                   by_fuse({{Mv, "matvec", s}, dprod},
                           {{Mv, "matvec-dot", s + 1}}),
                   [&](ExecContext& ctx) { (void)A.apply_dot(ctx, x, y, &w); });
    expect_commits(t, "apply_residual" + c, s + 1,
                   by_fuse({{Mv, "matvec", s}, sub},
                           {{Mv, "matvec-residual", s + 1}}),
                   [&](ExecContext& ctx) { A.apply_residual(ctx, x, b, y); });
    expect_commits(t, "apply_residual_as" + c, s + 1,
                   by_fuse({{P, "mg-smooth", s}, sub},
                           {{P, "mg-smooth", s + 1}}),
                   [&](ExecContext& ctx) {
                     A.apply_residual_as(ctx, x, b, y, P, sim::Region::MgSmooth);
                   });
  }
}

TEST(SweepCommits, DiagonalPreconditioners) {
  const Tiling t;
  const linalg::StencilOperator A = make_operator(t, false);
  DistVector x(t.g, t.dec, kNs), y(t.g, t.dec, kNs), q(t.g, t.dec, kNs);
  fill_vectors({&x, &y, &q});
  const auto P = KernelFamily::Precond;

  expect_commits(t, "jacobi build", 2,
                 always({{KernelFamily::PrecondBuild, "precond-build", 2}}),
                 [&](ExecContext& c) { linalg::JacobiPrecond M(c, A); });

  ExecContext unpriced;
  for (const std::string kind : {"jacobi", "spai0"}) {
    const auto M = linalg::make_preconditioner(kind, unpriced, A);
    expect_commits(t, kind + " apply", 3, always({{P, "precond", 3}}),
                   [&](ExecContext& c) { M->apply(c, x, y); });
    // Off has no fused form: apply_dot2 declines and commits nothing.
    double out[2];
    expect_commits(t, kind + " apply_dot2", 3,
                   by_fuse({}, {{P, "precond-dot", 3}}),
                   [&](ExecContext& c) {
                     EXPECT_EQ(M->apply_dot2(c, x, y, out), c.fused());
                   });
    expect_commits(t, kind + " apply_dot2(update)", 4,
                   by_fuse({}, {{P, "precond-dot", 4}}),
                   [&](ExecContext& c) {
                     EXPECT_EQ(M->apply_dot2(c, x, y, out, -0.5, &q),
                               c.fused());
                   });
  }
}

TEST(SweepCommits, MultigridDiagonalSweeps) {
  const Tiling t;
  const linalg::StencilOperator A = make_operator(t, false);
  linalg::mg::MgLevel lvl(t.g, t.dec, A, /*with_solution=*/false);
  lvl.dinv.fill(0.25);
  DistVector x(t.g, t.dec, kNs), b(t.g, t.dec, kNs);
  fill_vectors({&x, &b, &lvl.r});
  const linalg::mg::WeightedJacobiSmoother jacobi(0.8);
  const auto P = KernelFamily::Precond;
  const Commit scale{P, "mg-smooth", 3};

  // A zero guess makes the one step a pure diag_scale sweep.
  expect_commits(t, "diag_scale", 3, always({scale}), [&](ExecContext& c) {
    jacobi.smooth(c, lvl, x, b, 1, /*zero_guess=*/true);
  });
  // Otherwise the step is the residual, then the diag_correct sweep.
  expect_commits(t, "diag_correct", 3,
                 by_fuse({{P, "mg-smooth", 7},
                          {KernelFamily::VecMisc, "sub", 3},
                          {P, "mg-smooth", 3}},
                         {{P, "mg-smooth", 8}, {P, "mg-smooth", 3}}),
                 [&](ExecContext& c) {
                   jacobi.smooth(c, lvl, x, b, 1, /*zero_guess=*/false);
                 });
}

/// Fill each field with seeded values that vary zone by zone.
void randomize(std::initializer_list<grid::DistField*> fs, std::uint64_t seed) {
  Rng rng(seed);
  for (grid::DistField* f : fs) {
    for (int r = 0; r < f->nranks(); ++r) {
      const grid::TileExtent& e = f->decomp().extent(r);
      for (int s = 0; s < f->ns(); ++s) {
        grid::TileView v = f->view(r, s);
        for (int lj = 0; lj < e.nj; ++lj)
          for (int li = 0; li < e.ni; ++li) v(li, lj) = rng.uniform(-1.0, 1.0);
      }
    }
  }
}

/// The operands of one composite run: five vectors and an operator, all
/// filled from the same seeds on every run.
struct CompositeOperands {
  DistVector x, y, z, w, b;
  linalg::StencilOperator A;

  CompositeOperands(const Tiling& t, bool coupled)
      : x(t.g, t.dec, kNs),
        y(t.g, t.dec, kNs),
        z(t.g, t.dec, kNs),
        w(t.g, t.dec, kNs),
        b(t.g, t.dec, kNs),
        A(make_operator(t, coupled)) {
    randomize({&x.field(), &y.field(), &z.field(), &w.field(), &b.field()}, 5);
    // Diagonally dominant, zone-varying coefficients.
    randomize({&A.cw(), &A.ce(), &A.cs(), &A.cn()}, 6);
    A.cc().fill(4.5);
    A.zero_boundary_coefficients();
    if (coupled) randomize({&A.csp()}, 7);
  }
};

/// What one composite run leaves: every vector's values and the returned
/// dots, plus each rank's ledger.
struct CompositeRun {
  std::vector<std::vector<double>> vectors;
  std::vector<double> dots;
  std::vector<sim::CostLedger> ledgers;
};

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << where;
}

/// Run `op` from the same inputs under each backend and fuse mode.  All
/// four runs must leave the same bits, and within each fuse mode the two
/// backends must record the same ledgers.
void expect_composite_agrees(
    const Tiling& t, bool coupled, const std::string& what,
    const std::function<std::vector<double>(ExecContext&,
                                            CompositeOperands&)>& op) {
  std::vector<CompositeRun> runs;
  std::vector<std::string> tags;
  for (const FuseMode fuse : {FuseMode::Off, FuseMode::Plan}) {
    for (const vla::VlaExecMode mode :
         {vla::VlaExecMode::Interpret, vla::VlaExecMode::Native}) {
      tags.push_back(what + (coupled ? " coupled" : "") + " [" +
                     vla::vla_exec_mode_name(mode) + ", " +
                     linalg::fuse_mode_name(fuse) + "]");
      mpisim::ExecModel em(sim::MachineSpec::a64fx(), {compiler::cray_2103()},
                           t.dec.nranks());
      ExecContext ctx(vla::VectorArch(512), &em, mode, fuse);
      CompositeOperands o(t, coupled);
      CompositeRun run;
      run.dots = op(ctx, o);
      for (const DistVector* v : {&o.x, &o.y, &o.z, &o.w, &o.b})
        run.vectors.push_back(v->field().gather_global());
      for (int r = 0; r < t.dec.nranks(); ++r)
        run.ledgers.push_back(em.ledger(0, r));
      runs.push_back(std::move(run));
    }
  }
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const std::string where = tags[k] + " vs " + tags[0];
    ASSERT_EQ(runs[k].vectors.size(), runs[0].vectors.size()) << where;
    for (std::size_t i = 0; i < runs[0].vectors.size(); ++i)
      expect_same_bits(runs[k].vectors[i], runs[0].vectors[i],
                       where + " vector " + std::to_string(i));
    expect_same_bits(runs[k].dots, runs[0].dots, where + " dots");
  }
  for (std::size_t k = 0; k < runs.size(); k += 2) {
    for (int r = 0; r < t.dec.nranks(); ++r) {
      testutil::expect_ledgers_identical(
          runs[k].ledgers[static_cast<std::size_t>(r)],
          runs[k + 1].ledgers[static_cast<std::size_t>(r)],
          tags[k + 1] + " rank " + std::to_string(r));
    }
  }
}

TEST(SweepCommits, CompositesAgreeAcrossBackendsAndFuseModes) {
  const Tiling t;
  using Ops = CompositeOperands;
  expect_composite_agrees(t, false, "daxpy2", [](ExecContext& c, Ops& o) {
    DistVector::daxpy2(c, o.x, 0.5, o.y, o.z, -0.75, o.w);
    return std::vector<double>{};
  });
  expect_composite_agrees(t, false, "assign_axpy", [](ExecContext& c, Ops& o) {
    o.z.assign_axpy(c, o.x, -0.3, o.y);
    return std::vector<double>{};
  });
  expect_composite_agrees(t, false, "p_update", [](ExecContext& c, Ops& o) {
    o.z.p_update(c, o.x, 0.7, 0.45, o.y);
    return std::vector<double>{};
  });
  for (const bool coupled : {false, true}) {
    expect_composite_agrees(t, coupled, "apply_dot", [](ExecContext& c, Ops& o) {
      return std::vector<double>{o.A.apply_dot(c, o.x, o.y)};
    });
    expect_composite_agrees(t, coupled, "apply_dot(w)",
                            [](ExecContext& c, Ops& o) {
                              return std::vector<double>{
                                  o.A.apply_dot(c, o.x, o.y, &o.w)};
                            });
    expect_composite_agrees(t, coupled, "apply_residual",
                            [](ExecContext& c, Ops& o) {
                              o.A.apply_residual(c, o.x, o.b, o.y);
                              return std::vector<double>{};
                            });
    expect_composite_agrees(
        t, coupled, "apply_residual_as", [](ExecContext& c, Ops& o) {
          o.A.apply_residual_as(c, o.x, o.b, o.y, KernelFamily::Precond,
                                sim::Region::MgSmooth);
          return std::vector<double>{};
        });
  }
}

// Operands must share the tiling, not just the rank and zone counts: a
// 2×1 and a 1×2 tiling of one grid agree on both, and walking one with the
// other's extents reads past its tiles.  A copied decomposition is the
// same tiling.
TEST(SweepRows, RejectsOperandsOnAnotherTiling) {
  const grid::Grid2D g(6, 4, 0.0, 1.0, 0.0, 1.0);
  const grid::Decomposition d21(g, mpisim::CartTopology(2, 1));
  const grid::Decomposition d12(g, mpisim::CartTopology(1, 2));
  const grid::Decomposition d21_copy = d21;
  DistVector x(g, d21, 1), y(g, d12, 1), z(g, d21_copy, 1);
  ExecContext ctx;
  EXPECT_THROW(y.daxpy(ctx, 1.0, x), Error);
  EXPECT_THROW((void)DistVector::dot(ctx, x, y), Error);
  x.fill(ctx, 1.0);
  z.fill(ctx, 0.0);
  z.daxpy(ctx, 2.0, x);
  EXPECT_EQ(DistVector::dot(ctx, x, z), 2.0 * g.zones());
}

}  // namespace
}  // namespace v2d
