/// \file test_mg.cpp
/// \brief Tests for the geometric multigrid subsystem: banded LU, grid
/// hierarchy, transfer operators, Galerkin coarsening, V-cycle
/// convergence and the preconditioner factory integration.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "linalg/banded.hpp"
#include "linalg/cg.hpp"
#include "linalg/mg/hierarchy.hpp"
#include "linalg/mg/mg_precond.hpp"
#include "linalg/mg/transfer.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "support/rng.hpp"

namespace v2d::linalg {
namespace {

struct Problem {
  grid::Grid2D g;
  grid::Decomposition d;
  StencilOperator A;

  Problem(int nx1, int nx2, int ns, int px1 = 1, int px2 = 1)
      : g(nx1, nx2, 0.0, 1.0, 0.0, 1.0),
        d(g, mpisim::CartTopology(px1, px2)),
        A(g, d, ns) {}
};

/// Zone-indexed pseudo-random value, identical for every tiling.
double zone_noise(std::uint64_t seed, int s, int i, int j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(s) * 73856093u +
                static_cast<std::uint64_t>(i) * 19349663u +
                static_cast<std::uint64_t>(j) * 83492791u));
  return r.uniform();
}

/// Poisson-like SPD five-point operator with (optionally) variable
/// coefficients; boundary-facing entries folded (zeroed).
void fill_poisson(StencilOperator& A, double jitter = 0.0,
                  std::uint64_t seed = 7, double shift = 0.05) {
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
          // Symmetric variable coefficients: face weights from the lower
          // zone of each face, so w and its mirror agree for every pair.
          auto face = [&](int fi, int fj, int axis) {
            return 1.0 + jitter * zone_noise(seed + axis, s, fi, fj);
          };
          const double ww = face(gi - 1, gj, 0), we = face(gi, gj, 0);
          const double ws = face(gi, gj - 1, 1), wn = face(gi, gj, 1);
          cw(li, lj) = -ww;
          ce(li, lj) = -we;
          cs(li, lj) = -ws;
          cn(li, lj) = -wn;
          cc(li, lj) = ww + we + ws + wn + shift;
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

// --- BandedLU ----------------------------------------------------------------

TEST(BandedLU, SolvesAgainstMultiply) {
  BandedMatrix m(12, {0, -1, 1, -4, 4});
  Rng rng(11);
  for (std::int64_t row = 0; row < 12; ++row) {
    for (const auto off : m.offsets()) {
      const std::int64_t col = row + off;
      if (col < 0 || col >= 12) continue;
      m.at(row, off) = off == 0 ? 6.0 + rng.uniform() : -rng.uniform();
    }
  }
  std::vector<double> x_ref(12), b(12);
  for (auto& v : x_ref) v = 2.0 * rng.uniform() - 1.0;
  m.multiply(x_ref, b);

  BandedLU lu(m);
  EXPECT_EQ(lu.lower_bandwidth(), 4);
  EXPECT_EQ(lu.upper_bandwidth(), 4);
  lu.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(b[i], x_ref[i], 1e-11) << "row " << i;
}

TEST(BandedLU, RejectsZeroPivot) {
  BandedMatrix m(3, {0, 1});
  m.at(0, 0) = 0.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(2, 0) = 1.0;
  EXPECT_THROW(BandedLU lu(m), Error);
}

// --- hierarchy ----------------------------------------------------------------

TEST(MgHierarchy, CoarsensToConfiguredSize) {
  Problem prob(64, 64, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgOptions opt;
  opt.coarse_size = 8;
  mg::MgHierarchy h(ctx, prob.A, opt);
  // 64 -> 32 -> 16 -> 8.
  ASSERT_EQ(h.nlevels(), 4);
  EXPECT_EQ(h.level(3).grid->nx1(), 8);
  EXPECT_EQ(h.level(3).grid->nx2(), 8);
  EXPECT_GE(h.level(0).lambda_max, 1.0);
}

TEST(MgHierarchy, StopsAtOddTileBoundaries) {
  // 24/3 = 8 zones per tile in x1: 24 -> 12 (tiles 4) -> 6 (tiles 2)
  // -> 3 (tiles 1).  At 3 the tile boundaries are odd, so coarsening
  // stops even though coarse_size would allow one more level.
  Problem prob(24, 24, 1, 3, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgOptions opt;
  opt.coarse_size = 1;
  mg::MgHierarchy h(ctx, prob.A, opt);
  ASSERT_EQ(h.nlevels(), 4);
  EXPECT_EQ(h.level(3).grid->nx1(), 3);
}

TEST(MgHierarchy, RejectsUncoarsenableLargeGrids) {
  // A 3-way split of 200 zones puts a tile boundary on an odd index, so
  // no coarsening is possible at all; with a large fine grid the "direct
  // solve of everything" fallback must be refused loudly.
  Problem prob(200, 100, 1, 3, 2);
  fill_poisson(prob.A);
  ExecContext ctx;
  try {
    mg::MgHierarchy h(ctx, prob.A, {});
    FAIL() << "expected v2d::Error";
  } catch (const Error& e) {
    // The grid is even, so the message blames the tiling and names the
    // options that move it.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stalled at 200x100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile boundary"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--nprx1/--nprx2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("even"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--mg-max-direct-zones"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("odd extent"), std::string::npos) << msg;
  }
  // The same decomposition is fine when the caller raises the budget.
  mg::MgOptions opt;
  opt.max_direct_zones = 200 * 100;
  mg::MgHierarchy h2(ctx, prob.A, opt);
  EXPECT_EQ(h2.nlevels(), 1);
}

/// The stall message names the cause and the options that move it.  On a
/// 1×1 tiling 200×100 halves to 100×50 and 50×25, where the odd 25 stops
/// coarsening; there is no tile boundary to blame.
TEST(MgHierarchy, StallOnAnOddGridNamesTheGrid) {
  Problem prob(200, 100, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgOptions opt;
  opt.max_direct_zones = 1000;
  try {
    mg::MgHierarchy h(ctx, prob.A, opt);
    FAIL() << "expected v2d::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stalled at 50x25"), std::string::npos) << msg;
    EXPECT_NE(msg.find("odd extent"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--mg-max-direct-zones 1000"), std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("tile boundary"), std::string::npos) << msg;
  }
}

/// The level cap and the coarse size name their own options.
TEST(MgHierarchy, StallAtACapNamesItsOption) {
  Problem prob(64, 64, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgOptions levels;
  levels.max_levels = 2;
  levels.max_direct_zones = 100;
  mg::MgOptions coarse;
  coarse.coarse_size = 16;
  coarse.max_direct_zones = 100;
  for (const auto& [opt, name] :
       {std::pair{levels, "--mg-levels 2"},
        std::pair{coarse, "--mg-coarse-size 16"}}) {
    try {
      mg::MgHierarchy h(ctx, prob.A, opt);
      FAIL() << "expected v2d::Error for " << name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(MgHierarchy, CoarseTilesAreParentAligned) {
  Problem prob(32, 16, 2, 2, 2);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgHierarchy h(ctx, prob.A, {});
  for (int l = 1; l < h.nlevels(); ++l) {
    const auto& fd = *h.level(l - 1).decomp;
    const auto& cd = *h.level(l).decomp;
    for (int r = 0; r < fd.nranks(); ++r) {
      EXPECT_EQ(cd.extent(r).i0 * 2, fd.extent(r).i0);
      EXPECT_EQ(cd.extent(r).j0 * 2, fd.extent(r).j0);
      EXPECT_EQ(cd.extent(r).ni * 2, fd.extent(r).ni);
      EXPECT_EQ(cd.extent(r).nj * 2, fd.extent(r).nj);
    }
  }
}

/// Galerkin coarse operators of a symmetric fine operator stay symmetric:
/// each west/east and south/north pair mirrors across the interface.
TEST(MgHierarchy, GalerkinCoarseOperatorIsSymmetric) {
  Problem prob(32, 32, 1);
  fill_poisson(prob.A, /*jitter=*/0.5);
  ExecContext ctx;
  mg::MgHierarchy h(ctx, prob.A, {});
  ASSERT_GE(h.nlevels(), 2);
  for (int l = 1; l < h.nlevels(); ++l) {
    const BandedMatrix M = h.level(l).op->assemble();
    const std::int64_t n = M.size();
    for (const auto off : M.offsets()) {
      if (off <= 0) continue;
      for (std::int64_t row = 0; row + off < n; ++row) {
        EXPECT_NEAR(M.get(row, off), M.get(row + off, -off), 1e-13)
            << "level " << l << " row " << row << " offset " << off;
      }
    }
  }
}

/// The Galerkin coarse operator must reproduce R·A·P exactly (with the
/// piecewise-constant transfer pair used for coarsening): acting on
/// constants, both sides reduce to the same row sums.
TEST(MgHierarchy, GalerkinPreservesRowSumsOfConstants) {
  Problem prob(16, 16, 1);
  fill_poisson(prob.A, 0.3);
  ExecContext ctx;
  mg::MgOptions opt;
  opt.coarse_size = 8;
  mg::MgHierarchy h(ctx, prob.A, opt);
  ASSERT_GE(h.nlevels(), 2);
  const mg::MgLevel& lc = h.level(1);

  // A_c · 1 on the coarse grid…
  DistVector ones_c(*lc.grid, *lc.decomp, 1), ac1(*lc.grid, *lc.decomp, 1);
  ones_c.fill(ctx, 1.0);
  lc.op->apply(ctx, ones_c, ac1);
  // …must equal (1/4)·Pᵀ A_f P · 1 = (1/4)·(2×2 sums of A_f · 1).
  DistVector ones_f(prob.g, prob.d, 1), af1(prob.g, prob.d, 1);
  ones_f.fill(ctx, 1.0);
  prob.A.apply(ctx, ones_f, af1);
  const auto coarse = ac1.field().gather_global();
  const auto fine = af1.field().gather_global();
  const int cn = lc.grid->nx1();
  for (int cj = 0; cj < lc.grid->nx2(); ++cj) {
    for (int ci = 0; ci < cn; ++ci) {
      const auto f = [&](int i, int j) {
        return fine[static_cast<std::size_t>(j * prob.g.nx1() + i)];
      };
      const double want = 0.25 * (f(2 * ci, 2 * cj) + f(2 * ci + 1, 2 * cj) +
                                  f(2 * ci, 2 * cj + 1) +
                                  f(2 * ci + 1, 2 * cj + 1));
      EXPECT_NEAR(coarse[static_cast<std::size_t>(cj * cn + ci)], want, 1e-12);
    }
  }
}

// --- transfers -----------------------------------------------------------------

/// Restriction is the exact scaled transpose of prolongation:
/// ⟨R x, y⟩_coarse = (1/4)·⟨x, P y⟩_fine for every x, y.
TEST(MgTransfer, RestrictionIsScaledTransposeOfProlongation) {
  for (const auto& [px1, px2] : {std::pair{1, 1}, std::pair{2, 2},
                                std::pair{4, 1}}) {
    Problem prob(32, 16, 2, px1, px2);
    fill_poisson(prob.A);
    ExecContext ctx;
    mg::MgHierarchy h(ctx, prob.A, {});
    ASSERT_GE(h.nlevels(), 2);
    const mg::MgLevel& lc = h.level(1);

    DistVector xf(prob.g, prob.d, 2), rxf(*lc.grid, *lc.decomp, 2);
    DistVector yc(*lc.grid, *lc.decomp, 2), pyc(prob.g, prob.d, 2);
    randomize(xf, 101);
    randomize(yc, 202);

    mg::restrict_full_weighting(ctx, xf, rxf);
    pyc.fill(ctx, 0.0);
    mg::prolong_bilinear_add(ctx, yc, pyc);

    const double lhs = DistVector::dot(ctx, rxf, yc);
    const double rhs = DistVector::dot(ctx, xf, pyc);
    EXPECT_NEAR(lhs, 0.25 * rhs, 1e-12 * std::max(1.0, std::fabs(lhs)))
        << "tiling " << px1 << "x" << px2;
  }
}

/// Both transfers preserve constants away from the physical boundary
/// (interior rows sum to one), so smooth error survives the round trip.
TEST(MgTransfer, ConstantsSurviveInTheInterior) {
  Problem prob(16, 16, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  mg::MgHierarchy h(ctx, prob.A, {});
  ASSERT_GE(h.nlevels(), 2);
  const mg::MgLevel& lc = h.level(1);

  DistVector xf(prob.g, prob.d, 1), xc(*lc.grid, *lc.decomp, 1);
  xf.fill(ctx, 1.0);
  mg::restrict_full_weighting(ctx, xf, xc);
  // Interior coarse zones (two zones from the boundary) see weight one.
  const auto c = xc.field().gather_global();
  const int cn = lc.grid->nx1();
  for (int j = 1; j < lc.grid->nx2() - 1; ++j)
    for (int i = 1; i < cn - 1; ++i)
      EXPECT_NEAR(c[static_cast<std::size_t>(j * cn + i)], 1.0, 1e-13);

  DistVector yc(*lc.grid, *lc.decomp, 1), yf(prob.g, prob.d, 1);
  yc.fill(ctx, 1.0);
  yf.fill(ctx, 0.0);
  mg::prolong_bilinear_add(ctx, yc, yf);
  const auto f = yf.field().gather_global();
  for (int j = 2; j < prob.g.nx2() - 2; ++j)
    for (int i = 2; i < prob.g.nx1() - 2; ++i)
      EXPECT_NEAR(f[static_cast<std::size_t>(j * prob.g.nx1() + i)], 1.0,
                  1e-13);
}

/// The transfers must be tiling-independent: the same global fields in and
/// out for every decomposition (this exercises the corner-filled ghost
/// exchange the bilinear prolongation depends on).
TEST(MgTransfer, TilingIndependent) {
  std::vector<double> ref_r, ref_p;
  for (const auto& [px1, px2] : {std::pair{1, 1}, std::pair{2, 2},
                                std::pair{4, 2}, std::pair{1, 4}}) {
    Problem prob(32, 32, 1, px1, px2);
    fill_poisson(prob.A);
    ExecContext ctx;
    mg::MgHierarchy h(ctx, prob.A, {});
    ASSERT_GE(h.nlevels(), 2);
    const mg::MgLevel& lc = h.level(1);

    DistVector xf(prob.g, prob.d, 1), xc(*lc.grid, *lc.decomp, 1);
    DistVector yc(*lc.grid, *lc.decomp, 1), yf(prob.g, prob.d, 1);
    randomize(xf, 303);
    randomize(yc, 404);
    mg::restrict_full_weighting(ctx, xf, xc);
    yf.fill(ctx, 0.0);
    mg::prolong_bilinear_add(ctx, yc, yf);

    const auto r = xc.field().gather_global();
    const auto p = yf.field().gather_global();
    if (ref_r.empty()) {
      ref_r = r;
      ref_p = p;
      continue;
    }
    for (std::size_t k = 0; k < r.size(); ++k)
      EXPECT_NEAR(r[k], ref_r[k], 1e-14) << "restrict, tiling " << px1 << "x"
                                         << px2;
    for (std::size_t k = 0; k < p.size(); ++k)
      EXPECT_NEAR(p[k], ref_p[k], 1e-14) << "prolong, tiling " << px1 << "x"
                                         << px2;
  }
}

// --- V-cycle convergence --------------------------------------------------------

double vcycle_contraction(Problem& prob, const mg::MgOptions& opt,
                          int cycles) {
  ExecContext ctx;
  mg::MgPrecond M(ctx, prob.A, opt);
  DistVector x(prob.g, prob.d, prob.A.ns()), b(prob.g, prob.d, prob.A.ns());
  DistVector r(prob.g, prob.d, prob.A.ns()), e(prob.g, prob.d, prob.A.ns());
  randomize(b, 505);
  x.fill(ctx, 0.0);
  r.copy_from(ctx, b);
  const double r0 = DistVector::norm2(ctx, r);
  double rk = r0;
  for (int k = 0; k < cycles; ++k) {
    M.apply(ctx, r, e);      // e ≈ A⁻¹ r
    x.daxpy(ctx, 1.0, e);    // Richardson update
    prob.A.apply(ctx, x, r);
    r.assign_sub(ctx, b, r);
    const double rn = DistVector::norm2(ctx, r);
    EXPECT_LT(rn, rk) << "cycle " << k << " did not reduce the residual";
    rk = rn;
  }
  return std::pow(rk / r0, 1.0 / cycles);
}

TEST(MgVcycle, TwoGridContractsPoissonResidual) {
  // Two-grid: one coarse level, exact coarse solve.
  Problem prob(32, 32, 1);
  fill_poisson(prob.A, 0.0, 7, /*shift=*/0.0);
  mg::MgOptions opt;
  opt.max_levels = 2;
  const double rate = vcycle_contraction(prob, opt, 4);
  // The piecewise-constant Galerkin coarse operator is deliberately on
  // the stiff side (safe under-correction, exact mass term): the rate is
  // ~0.3 rather than the ~0.1 of an exact-Galerkin two-grid cycle.
  EXPECT_LT(rate, 0.35) << "two-grid rate " << rate;
}

TEST(MgVcycle, DeepVcycleMatchesTwoGridBehaviour) {
  Problem prob(64, 64, 1);
  fill_poisson(prob.A, 0.0, 7, /*shift=*/0.0);
  mg::MgOptions opt;
  opt.coarse_size = 4;
  const double rate = vcycle_contraction(prob, opt, 4);
  EXPECT_LT(rate, 0.55) << "V-cycle rate " << rate;
}

TEST(MgVcycle, ChebyshevSmootherConverges) {
  Problem prob(32, 32, 1);
  fill_poisson(prob.A, 0.0, 7, /*shift=*/0.0);
  mg::MgOptions opt;
  opt.smoother = "chebyshev";
  const double rate = vcycle_contraction(prob, opt, 4);
  EXPECT_LT(rate, 0.5) << "Chebyshev V-cycle rate " << rate;
}

TEST(MgVcycle, VariableCoefficientsAndTwoSpecies) {
  Problem prob(32, 32, 2, 2, 2);
  fill_poisson(prob.A, /*jitter=*/0.8);
  const double rate = vcycle_contraction(prob, {}, 4);
  EXPECT_LT(rate, 0.35) << "variable-coefficient rate " << rate;
}

/// The V-cycle must produce the identical trajectory for every tiling —
/// the invariant the whole execution-pricing methodology rests on.
TEST(MgVcycle, TilingIndependentApplication) {
  std::vector<double> ref;
  for (const auto& [px1, px2] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 1}}) {
    Problem prob(32, 32, 1, px1, px2);
    fill_poisson(prob.A, 0.4);
    ExecContext ctx;
    mg::MgPrecond M(ctx, prob.A, {});
    DistVector x(prob.g, prob.d, 1), y(prob.g, prob.d, 1);
    randomize(x, 606);
    M.apply(ctx, x, y);
    const auto out = y.field().gather_global();
    if (ref.empty()) {
      ref = out;
      continue;
    }
    for (std::size_t k = 0; k < out.size(); ++k)
      EXPECT_NEAR(out[k], ref[k], 1e-12)
          << "tiling " << px1 << "x" << px2 << " unknown " << k;
  }
}

/// The preconditioner must be a fixed linear operator: applying it twice
/// to the same vector gives identical results, even when a zero pre- or
/// post-smoothing count leaves a level's correction entirely to the
/// coarse grid (regression: skipped zero_guess initialization leaked the
/// previous application's state).
TEST(MgVcycle, ApplicationIsStateless) {
  Problem prob(32, 32, 1);
  fill_poisson(prob.A, 0.4);
  for (const auto& [pre, post] :
       {std::pair{2, 2}, std::pair{0, 2}, std::pair{2, 0}}) {
    ExecContext ctx;
    mg::MgOptions opt;
    opt.nu_pre = pre;
    opt.nu_post = post;
    mg::MgPrecond M(ctx, prob.A, opt);
    DistVector x(prob.g, prob.d, 1), y1(prob.g, prob.d, 1),
        y2(prob.g, prob.d, 1);
    randomize(x, 909);
    M.apply(ctx, x, y1);
    M.apply(ctx, x, y2);
    const auto a = y1.field().gather_global();
    const auto b = y2.field().gather_global();
    for (std::size_t k = 0; k < a.size(); ++k)
      EXPECT_DOUBLE_EQ(a[k], b[k])
          << "nu=(" << pre << "," << post << ") unknown " << k;
  }
}

// --- preconditioner integration ---------------------------------------------------

TEST(MgPrecond, FactoryBuildsMg) {
  Problem prob(16, 16, 1);
  fill_poisson(prob.A);
  ExecContext ctx;
  const auto M = make_preconditioner("mg", ctx, prob.A);
  EXPECT_EQ(M->name(), "mg");
}

TEST(MgPrecond, CgConvergesFasterThanSpai0) {
  const int n = 64;
  Problem pa(n, n, 1), pb(n, n, 1);
  fill_poisson(pa.A, 0.3, 7, 0.0);
  fill_poisson(pb.A, 0.3, 7, 0.0);
  SolveOptions opt;
  opt.rel_tol = 1e-8;

  ExecContext ctx;
  DistVector xa(pa.g, pa.d, 1), ba(pa.g, pa.d, 1);
  randomize(ba, 707);
  xa.fill(ctx, 0.0);
  auto Mmg = make_preconditioner("mg", ctx, pa.A);
  CgSolver sa(pa.g, pa.d, 1);
  const SolveStats mg_stats = sa.solve(ctx, pa.A, *Mmg, xa, ba, opt);

  DistVector xb(pb.g, pb.d, 1), bb(pb.g, pb.d, 1);
  randomize(bb, 707);
  xb.fill(ctx, 0.0);
  auto Mspai = make_preconditioner("spai0", ctx, pb.A);
  CgSolver sb(pb.g, pb.d, 1);
  const SolveStats spai_stats = sb.solve(ctx, pb.A, *Mspai, xb, bb, opt);

  EXPECT_TRUE(mg_stats.converged) << mg_stats.stop_reason;
  EXPECT_TRUE(spai_stats.converged) << spai_stats.stop_reason;
  EXPECT_LT(mg_stats.iterations, spai_stats.iterations / 3)
      << "mg " << mg_stats.iterations << " vs spai0 "
      << spai_stats.iterations;
}

TEST(Cg, ReportsIndefiniteOperator) {
  // −Laplacian is negative definite: CG must stop with the distinct
  // indefinite-operator reason, not the generic breakdown.
  Problem prob(12, 12, 1);
  fill_poisson(prob.A);
  for (grid::DistField* f : {&prob.A.cc(), &prob.A.cw(), &prob.A.ce(),
                             &prob.A.cs(), &prob.A.cn()}) {
    for (int r = 0; r < prob.d.nranks(); ++r) {
      const grid::TileExtent& e = prob.d.extent(r);
      auto v = f->view(r, 0);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li) v(li, lj) = -v(li, lj);
    }
  }
  ExecContext ctx;
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, 808);
  x.fill(ctx, 0.0);
  IdentityPrecond M;
  CgSolver solver(prob.g, prob.d, 1);
  const SolveStats stats = solver.solve(ctx, prob.A, M, x, b);
  EXPECT_FALSE(stats.converged);
  EXPECT_STREQ(stats.stop_reason, "indefinite operator");
}

}  // namespace
}  // namespace v2d::linalg
