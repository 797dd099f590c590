/// \file test_linalg_solvers.cpp
/// \brief Tests for the stencil operator, banded matrix, preconditioners,
/// BiCGSTAB (classic & ganged) and CG.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
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

/// Zone-indexed pseudo-random value: identical for every tiling, so tests
/// that compare decompositions see the same global problem.
double zone_noise(std::uint64_t seed, int s, int i, int j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(s) * 73856093u +
                static_cast<std::uint64_t>(i) * 19349663u +
                static_cast<std::uint64_t>(j) * 83492791u));
  return r.uniform();
}

/// Diffusion-like diagonally dominant coefficients (nonsymmetric when
/// `skew` is nonzero).
void fill_operator(StencilOperator& A, Rng& seed_rng, double skew = 0.0) {
  const std::uint64_t seed = seed_rng.next_u64();
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
          cw(li, lj) = -w * (1.0 + skew * zone_noise(seed + 1, s, gi, gj));
          ce(li, lj) = -w;
          cs(li, lj) = -w * (1.0 - skew * zone_noise(seed + 2, s, gi, gj));
          cn(li, lj) = -w;
          cc(li, lj) = 4.5 * w + 0.5;
        }
      }
    }
  }
  A.zero_boundary_coefficients();
}

void randomize(DistVector& v, Rng& seed_rng) {
  const std::uint64_t seed = seed_rng.next_u64();
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

// --- banded matrix ---------------------------------------------------------

TEST(Banded, EntriesAndMultiply) {
  BandedMatrix m(5, {0, -1, 1});
  for (std::int64_t i = 0; i < 5; ++i) m.at(i, 0) = 2.0;
  for (std::int64_t i = 1; i < 5; ++i) m.at(i, -1) = -1.0;
  for (std::int64_t i = 0; i < 4; ++i) m.at(i, 1) = -1.0;
  std::vector<double> x = {1, 2, 3, 4, 5}, y(5);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2);          // tridiagonal row 0
  EXPECT_DOUBLE_EQ(y[2], -2 + 6 - 4);
  EXPECT_DOUBLE_EQ(y[4], -4 + 10);
  EXPECT_EQ(m.nnz(), 13);
}

TEST(Banded, OutOfBandRejected) {
  BandedMatrix m(10, {0, 2});
  EXPECT_THROW(m.at(0, 1), Error);
  EXPECT_THROW(m.at(9, 2), Error);  // column out of range
  EXPECT_DOUBLE_EQ(m.get(9, 2), 0.0);  // get() is forgiving
}

TEST(Banded, RenderShowsBands) {
  BandedMatrix m(4, {0, 1});
  for (std::int64_t i = 0; i < 4; ++i) m.at(i, 0) = 1.0;
  m.at(0, 1) = 1.0;
  const std::string s = m.render_block(4, 4);
  EXPECT_EQ(s.substr(0, 4), "**..");
}

TEST(Banded, PbmHeader) {
  BandedMatrix m(4, {0});
  m.at(0, 0) = 1.0;
  std::ostringstream os;
  m.write_pbm(os, 4, 4);
  EXPECT_EQ(os.str().substr(0, 8), "P1\n4 4\n1");
}

// --- stencil vs banded (the matrix-free equivalence the paper relies on) ----

class StencilVsBanded
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StencilVsBanded, MatrixFreeEqualsAssembled) {
  const auto [px1, px2] = GetParam();
  Problem prob(20, 12, 2, px1, px2);
  Rng rng(17);
  fill_operator(prob.A, rng, 0.3);
  DistVector x(prob.g, prob.d, 2), y(prob.g, prob.d, 2);
  randomize(x, rng);

  ExecContext ctx;
  prob.A.apply(ctx, x, y);
  const auto y_free = y.field().gather_global();

  const BandedMatrix M = prob.A.assemble();
  const auto x_flat = x.field().gather_global();
  std::vector<double> y_mat(x_flat.size());
  M.multiply(x_flat, y_mat);

  ASSERT_EQ(y_free.size(), y_mat.size());
  for (std::size_t k = 0; k < y_free.size(); ++k)
    EXPECT_NEAR(y_free[k], y_mat[k], 1e-13) << "unknown " << k;
}

INSTANTIATE_TEST_SUITE_P(Tilings, StencilVsBanded,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{4, 1},
                                           std::tuple{1, 4}, std::tuple{2, 3},
                                           std::tuple{5, 2}));

TEST(StencilOp, BandOffsetsMatchFig1) {
  Problem prob(200, 100, 2);
  Rng rng(1);
  fill_operator(prob.A, rng);
  const BandedMatrix M = prob.A.assemble();
  EXPECT_EQ(M.size(), 40000);
  EXPECT_EQ(M.offsets(), (std::vector<std::int64_t>{-200, -1, 0, 1, 200}));
}

TEST(StencilOp, CouplingAddsOuterBands) {
  Problem prob(10, 6, 2);
  prob.A.enable_coupling();
  Rng rng(2);
  fill_operator(prob.A, rng);
  prob.A.csp().fill(-0.25);
  const BandedMatrix M = prob.A.assemble();
  EXPECT_EQ(M.offsets(),
            (std::vector<std::int64_t>{-60, -10, -1, 0, 1, 10, 60}));
  // Coupled matrix-free product still matches assembly.
  DistVector x(prob.g, prob.d, 2), y(prob.g, prob.d, 2);
  randomize(x, rng);
  ExecContext ctx;
  prob.A.apply(ctx, x, y);
  const auto x_flat = x.field().gather_global();
  std::vector<double> y_mat(x_flat.size());
  M.multiply(x_flat, y_mat);
  const auto y_free = y.field().gather_global();
  for (std::size_t k = 0; k < y_free.size(); ++k)
    EXPECT_NEAR(y_free[k], y_mat[k], 1e-13);
}

// --- preconditioners ----------------------------------------------------------

double residual_reduction(Preconditioner& M, Problem& prob, Rng& rng) {
  // One Richardson step with M: how much does ‖I − MA‖ shrink a vector?
  DistVector x(prob.g, prob.d, prob.A.ns()), ax(prob.g, prob.d, prob.A.ns()),
      max(prob.g, prob.d, prob.A.ns());
  randomize(x, rng);
  ExecContext ctx;
  prob.A.apply(ctx, x, ax);
  M.apply(ctx, ax, max);  // M·A·x should approximate x
  max.daxpy(ctx, -1.0, x);
  return DistVector::norm2(ctx, max) / DistVector::norm2(ctx, x);
}

TEST(Precond, QualityOrdering) {
  Problem prob(16, 16, 1);
  Rng rng(23);
  fill_operator(prob.A, rng);
  ExecContext ctx;
  IdentityPrecond ident;
  JacobiPrecond jacobi(ctx, prob.A);
  Spai0Precond spai0(ctx, prob.A);
  SpaiPrecond spai1(ctx, prob.A);
  const double e_ident = residual_reduction(ident, prob, rng);
  const double e_jacobi = residual_reduction(jacobi, prob, rng);
  const double e_spai0 = residual_reduction(spai0, prob, rng);
  const double e_spai1 = residual_reduction(spai1, prob, rng);
  // Any real preconditioner beats identity; SPAI(1) beats SPAI(0).
  EXPECT_LT(e_jacobi, e_ident);
  EXPECT_LT(e_spai0, e_ident);
  EXPECT_LT(e_spai1, e_spai0);
}

TEST(Precond, FactoryNames) {
  Problem prob(8, 8, 1);
  Rng rng(3);
  fill_operator(prob.A, rng);
  ExecContext ctx;
  EXPECT_EQ(make_preconditioner("identity", ctx, prob.A)->name(), "identity");
  EXPECT_EQ(make_preconditioner("jacobi", ctx, prob.A)->name(), "jacobi");
  EXPECT_EQ(make_preconditioner("spai0", ctx, prob.A)->name(), "spai0");
  EXPECT_EQ(make_preconditioner("spai", ctx, prob.A)->name(), "spai");
  EXPECT_EQ(make_preconditioner("mg", ctx, prob.A)->name(), "mg");
  EXPECT_THROW(make_preconditioner("ilu", ctx, prob.A), Error);
}

TEST(Precond, FactoryUnknownNameListsCatalogue) {
  Problem prob(8, 8, 1);
  Rng rng(3);
  fill_operator(prob.A, rng);
  ExecContext ctx;
  try {
    make_preconditioner("ssor", ctx, prob.A);
    FAIL() << "expected v2d::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ssor"), std::string::npos);
    EXPECT_NE(msg.find("mg"), std::string::npos) << msg;
  }
}

TEST(Precond, Spai0ColumnsMatchClosedForm) {
  // SPAI(0) column k minimizes ‖A·m_k·e_k − e_k‖₂ over scalars, whose
  // closed form is m_k = a_kk / Σ_i a_ik² (column norm from the assembled
  // matrix).  The built diagonal must match it zone for zone.
  Problem prob(10, 9, 1, 2, 1);
  Rng rng(71);
  fill_operator(prob.A, rng, /*skew=*/0.3);
  ExecContext ctx;
  Spai0Precond spai0(ctx, prob.A);
  const BandedMatrix A = prob.A.assemble();
  const std::int64_t n = A.size();
  const auto m = spai0.diagonal().gather_global();
  for (std::int64_t k = 0; k < n; ++k) {
    double col_norm2 = 0.0;
    for (const auto off : A.offsets()) {
      const std::int64_t row = k - off;  // rows whose band `off` hits col k
      if (row < 0 || row >= n) continue;
      const double a = A.get(row, off);
      col_norm2 += a * a;
    }
    const double expected = A.get(k, 0) / col_norm2;
    EXPECT_NEAR(m[static_cast<std::size_t>(k)], expected, 1e-13)
        << "column " << k;
  }
}

TEST(Precond, SpaiColumnsReduceFrobenius) {
  // ‖A·M − I‖ with SPAI(1) must beat Jacobi on the same operator.
  Problem prob(12, 10, 1);
  Rng rng(29);
  fill_operator(prob.A, rng);
  ExecContext ctx;
  SpaiPrecond spai(ctx, prob.A);
  JacobiPrecond jacobi(ctx, prob.A);
  const BandedMatrix A = prob.A.assemble();
  const BandedMatrix M = spai.stencil().assemble();
  const std::int64_t n = A.size();
  double frob_spai = 0.0, frob_jacobi = 0.0;
  std::vector<double> col(n), acol(n);
  for (std::int64_t k = 0; k < n; ++k) {
    // SPAI column.
    std::fill(col.begin(), col.end(), 0.0);
    for (const auto off : M.offsets()) {
      const std::int64_t row = k - off;
      if (row >= 0 && row < n) col[row] = M.get(row, off);
    }
    A.multiply(col, acol);
    acol[k] -= 1.0;
    for (double v : acol) frob_spai += v * v;
    // Jacobi column: e_k / a_kk.
    std::fill(col.begin(), col.end(), 0.0);
    col[k] = 1.0 / A.get(k, 0);
    A.multiply(col, acol);
    acol[k] -= 1.0;
    for (double v : acol) frob_jacobi += v * v;
  }
  EXPECT_LT(frob_spai, frob_jacobi);
}

// --- solvers ---------------------------------------------------------------------

struct SolverFixtureBase {
  static SolveStats run_bicgstab(Problem& prob, bool ganged,
                                 const std::string& precond, Rng& rng,
                                 std::vector<double>* solution = nullptr) {
    DistVector x(prob.g, prob.d, prob.A.ns()), b(prob.g, prob.d, prob.A.ns());
    randomize(b, rng);
    ExecContext ctx;
    x.fill(ctx, 0.0);
    auto M = make_preconditioner(precond, ctx, prob.A);
    BicgstabSolver solver(prob.g, prob.d, prob.A.ns());
    SolveOptions opt;
    opt.ganged = ganged;
    opt.rel_tol = 1e-10;
    const SolveStats stats = solver.solve(ctx, prob.A, *M, x, b, opt);
    if (solution) *solution = x.field().gather_global();
    // Verify against the assembled matrix: ‖Ax − b‖/‖b‖ small.
    const BandedMatrix A = prob.A.assemble();
    const auto xf = x.field().gather_global();
    const auto bf = b.field().gather_global();
    std::vector<double> ax(xf.size());
    A.multiply(xf, ax);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      num += (ax[i] - bf[i]) * (ax[i] - bf[i]);
      den += bf[i] * bf[i];
    }
    EXPECT_LT(std::sqrt(num / den), 1e-8);
    return stats;
  }
};

class BicgstabSweep : public ::testing::TestWithParam<std::tuple<bool, const char*>>,
                      public SolverFixtureBase {};

TEST_P(BicgstabSweep, SolvesNonsymmetricSystem) {
  const auto [ganged, precond] = GetParam();
  Problem prob(18, 14, 2);
  Rng rng(31);
  fill_operator(prob.A, rng, /*skew=*/0.4);
  const SolveStats stats = run_bicgstab(prob, ganged, precond, rng);
  EXPECT_TRUE(stats.converged) << stats.stop_reason;
  EXPECT_GT(stats.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BicgstabSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values("identity", "jacobi", "spai0",
                                         "spai")));

TEST(Bicgstab, GangedUsesFewerReductions) {
  Rng rng(37);
  Problem p1(16, 12, 1), p2(16, 12, 1);
  Rng rng1(41), rng2(41);
  fill_operator(p1.A, rng1, 0.2);
  fill_operator(p2.A, rng2, 0.2);
  const SolveStats classic =
      SolverFixtureBase::run_bicgstab(p1, false, "spai0", rng);
  Rng rng_b(37);
  const SolveStats ganged =
      SolverFixtureBase::run_bicgstab(p2, true, "spai0", rng_b);
  ASSERT_GT(classic.iterations, 0);
  ASSERT_GT(ganged.iterations, 0);
  const double classic_per_iter =
      static_cast<double>(classic.global_reductions) / classic.iterations;
  const double ganged_per_iter =
      static_cast<double>(ganged.global_reductions) / ganged.iterations;
  EXPECT_NEAR(classic_per_iter, 5.0, 1.0);
  EXPECT_NEAR(ganged_per_iter, 3.0, 1.0);
  EXPECT_LT(ganged_per_iter, classic_per_iter);
}

TEST(Bicgstab, PreconditioningReducesIterations) {
  Rng rng_a(43), rng_b(43);
  Problem pa(20, 16, 1), pb(20, 16, 1);
  Rng fa(47), fb(47);
  fill_operator(pa.A, fa);
  fill_operator(pb.A, fb);
  const SolveStats none = SolverFixtureBase::run_bicgstab(pa, true, "identity", rng_a);
  const SolveStats spai = SolverFixtureBase::run_bicgstab(pb, true, "spai", rng_b);
  EXPECT_LT(spai.iterations, none.iterations);
}

TEST(Bicgstab, ZeroRhsShortCircuits) {
  Problem prob(8, 8, 1);
  Rng rng(5);
  fill_operator(prob.A, rng);
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  ExecContext ctx;
  randomize(x, rng);
  b.fill(ctx, 0.0);
  auto M = make_preconditioner("spai0", ctx, prob.A);
  BicgstabSolver solver(prob.g, prob.d, 1);
  const SolveStats stats = solver.solve(ctx, prob.A, *M, x, b);
  EXPECT_TRUE(stats.converged);
  EXPECT_STREQ(stats.stop_reason, "zero rhs");
  for (double v : x.field().gather_global()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Bicgstab, WarmStartConvergesFaster) {
  Rng rng(53);
  Problem prob(16, 12, 1);
  fill_operator(prob.A, rng);
  DistVector b(prob.g, prob.d, 1), x_cold(prob.g, prob.d, 1),
      x_warm(prob.g, prob.d, 1);
  randomize(b, rng);
  ExecContext ctx;
  x_cold.fill(ctx, 0.0);
  auto M = make_preconditioner("spai0", ctx, prob.A);
  BicgstabSolver solver(prob.g, prob.d, 1);
  const SolveStats cold = solver.solve(ctx, prob.A, *M, x_cold, b);
  x_warm.copy_from(ctx, x_cold);  // exact solution as the initial guess
  const SolveStats warm = solver.solve(ctx, prob.A, *M, x_warm, b);
  EXPECT_TRUE(cold.converged);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
}

/// One NaN or +Inf in the initial guess contaminates every reduction: each
/// solver must stop at once, unconverged, rather than read a NaN residual
/// as converged (ganged BiCGSTAB's clamp once turned NaN into 0) or spin to
/// max iterations.
class NonFiniteReduction
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(NonFiniteReduction, StopsTheSolveUnconverged) {
  const auto [solver, special] = GetParam();
  Problem prob(8, 8, 1);
  Rng rng(61);
  fill_operator(prob.A, rng);
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  ExecContext ctx;
  b.fill(ctx, 1.0);
  x.fill(ctx, 0.0);
  x.field().view(0, 0)(3, 4) = special;
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  SolveStats stats;
  if (solver == "cg") {
    CgSolver cg(prob.g, prob.d, 1);
    stats = cg.solve(ctx, prob.A, *M, x, b);
  } else {
    SolveOptions opt;
    opt.ganged = solver == "bicgstab-ganged";
    BicgstabSolver bicgstab(prob.g, prob.d, 1);
    stats = bicgstab.solve(ctx, prob.A, *M, x, b, opt);
  }
  EXPECT_FALSE(stats.converged);
  EXPECT_STREQ(stats.stop_reason, "non-finite reduction");
  EXPECT_LE(stats.iterations, 1);
  EXPECT_TRUE(std::isnan(stats.final_relative_residual));
}

INSTANTIATE_TEST_SUITE_P(
    EverySolverAndSpecialValue, NonFiniteReduction,
    ::testing::Combine(
        ::testing::Values(std::string("cg"), std::string("bicgstab-classic"),
                          std::string("bicgstab-ganged")),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity())));

TEST(Cg, SolvesSymmetricSystem) {
  Problem prob(20, 14, 1);
  Rng rng(59);
  fill_operator(prob.A, rng, /*skew=*/0.0);  // symmetric
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, rng);
  ExecContext ctx;
  x.fill(ctx, 0.0);
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  CgSolver solver(prob.g, prob.d, 1);
  SolveOptions opt;
  opt.rel_tol = 1e-10;
  const SolveStats stats = solver.solve(ctx, prob.A, *M, x, b, opt);
  EXPECT_TRUE(stats.converged) << stats.stop_reason;
  const BandedMatrix A = prob.A.assemble();
  const auto xf = x.field().gather_global();
  const auto bf = b.field().gather_global();
  std::vector<double> ax(xf.size());
  A.multiply(xf, ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    num += (ax[i] - bf[i]) * (ax[i] - bf[i]);
    den += bf[i] * bf[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-8);
}

TEST(Solvers, TrajectoryIsTilingIndependent) {
  // The exact reductions make iteration counts identical for every
  // NPRX1×NPRX2 (the property Table I depends on).
  int iters_ref = -1;
  for (const auto& [px1, px2] :
       {std::pair{1, 1}, std::pair{4, 1}, std::pair{2, 2}, std::pair{1, 4}}) {
    Problem prob(16, 16, 2, px1, px2);
    Rng rng(61);
    fill_operator(prob.A, rng, 0.25);
    Rng rng_b(67);
    const SolveStats stats =
        SolverFixtureBase::run_bicgstab(prob, true, "spai0", rng_b);
    if (iters_ref < 0) iters_ref = stats.iterations;
    EXPECT_EQ(stats.iterations, iters_ref)
        << "tiling " << px1 << "x" << px2;
  }
}

TEST(SolverWorkspaceTest, LazySlotsAndSharingAcrossSolvers) {
  Problem prob(20, 14, 1);
  Rng rng(61);
  fill_operator(prob.A, rng, /*skew=*/0.0);  // symmetric: valid for CG too
  SolverWorkspace ws(prob.g, prob.d, 1);
  EXPECT_EQ(ws.allocated(), 0u);  // nothing materialized before a solve

  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, rng);
  ExecContext ctx;
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  SolveOptions opt;
  opt.rel_tol = 1e-10;

  CgSolver cg(ws);
  x.fill(ctx, 0.0);
  EXPECT_TRUE(cg.solve(ctx, prob.A, *M, x, b, opt).converged);
  const std::size_t after_cg = ws.allocated();
  EXPECT_EQ(after_cg, 4u);  // CG draws exactly slots 0..3

  // A BiCGSTAB solve on the same shape reuses those four buffers and only
  // adds its own extras; a second solve allocates nothing new.
  BicgstabSolver bi(ws);
  x.fill(ctx, 0.0);
  EXPECT_TRUE(bi.solve(ctx, prob.A, *M, x, b, opt).converged);
  EXPECT_EQ(ws.allocated(), 8u);
  x.fill(ctx, 0.0);
  EXPECT_TRUE(bi.solve(ctx, prob.A, *M, x, b, opt).converged);
  EXPECT_EQ(ws.allocated(), 8u);
}

}  // namespace
}  // namespace v2d::linalg
