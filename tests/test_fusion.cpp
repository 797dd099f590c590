/// \file test_fusion.cpp
/// \brief Fused-kernel execution layer: composite kernels, solver wiring
/// and the FuseMode contract.
///
/// Three layers of pins, mirroring test_vla_fastpath.cpp (which pins each
/// composite's recorded op mix):
///   1. every composite kernel (fusion::) is bit-identical between the
///      interpreter and native backends, with identical KernelCounts,
///      across all architectural VLs and tail shapes;
///   2. every composite reproduces its unfused kernel chain bit-for-bit
///      (same per-element association order, same exact reductions);
///   3. a CG/BiCGSTAB solve with --fuse plan matches --fuse off exactly —
///      same iterates, same reduction count, bit-identical solution —
///      across preconditioners, exec modes, tilings and host thread counts
///      (test_fusion_planner.cpp extends this to VL tail shapes, whole
///      simulations, farms and restarts).
/// Plus the BiCGSTAB edge paths (zero rhs, exact breakdown, indefinite
/// operator) and the SolveStats stop-reason contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/v2d.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "perfmon/perf_stat.hpp"
#include "solver_problem.hpp"
#include "support/exact_sum.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace v2d::linalg {
namespace {

using testutil::expect_same_trajectory;
using testutil::fill_operator;
using testutil::Problem;
using testutil::randomize;
using testutil::SolveOutcome;
using testutil::zone_noise;
using vla::Context;
using vla::VectorArch;
using vla::VlaExecMode;

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_counts_equal(const sim::KernelCounts& interp,
                         const sim::KernelCounts& fast) {
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    const auto c = static_cast<sim::OpClass>(i);
    EXPECT_EQ(interp.instr[i], fast.instr[i])
        << "instr mismatch for " << sim::op_class_name(c);
    EXPECT_EQ(interp.lanes[i], fast.lanes[i])
        << "lanes mismatch for " << sim::op_class_name(c);
  }
  EXPECT_EQ(interp.bytes_read, fast.bytes_read);
  EXPECT_EQ(interp.bytes_written, fast.bytes_written);
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

// --- 1. interpreter vs native equivalence of the composites ------------------

class FusedKernelSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {
protected:
  unsigned bits() const { return std::get<0>(GetParam()); }
  std::size_t n() const {
    const std::size_t vl = bits() / 64;
    switch (std::get<1>(GetParam())) {
      case 0: return 0;
      case 1: return 1;
      case 2: return vl - 1;
      case 3: return vl;
      case 4: return vl + 1;
      case 5: return 3 * vl;
      case 6: return 3 * vl + vl / 2;
      default: return 257;
    }
  }
  Tile row() const { return Tile::row(n()); }
  Context interp_ctx() const {
    return Context(VectorArch(bits()), VlaExecMode::Interpret);
  }
  Context native_ctx() const {
    return Context(VectorArch(bits()), VlaExecMode::Native);
  }
};

TEST_P(FusedKernelSweep, Daxpy2) {
  Rng rng(31);
  const auto p = random_vec(n(), rng), q = random_vec(n(), rng);
  auto xi = random_vec(n(), rng), xn = xi;
  auto ri = random_vec(n(), rng), rn = ri;
  Context ci = interp_ctx(), cx = native_ctx();
  fusion::daxpy2(ci, 0.7, p.data(), xi.data(), -0.7, q.data(), ri.data(),
                 row());
  fusion::daxpy2(cx, 0.7, p.data(), xn.data(), -0.7, q.data(), rn.data(),
                 row());
  expect_bits_equal(xi, xn);
  expect_bits_equal(ri, rn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FusedKernelSweep, AxpyOut) {
  Rng rng(32);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  std::vector<double> zi(n()), zn(n());
  Context ci = interp_ctx(), cx = native_ctx();
  fusion::axpy_out(ci, x.data(), -1.3, y.data(), zi.data(), row());
  fusion::axpy_out(cx, x.data(), -1.3, y.data(), zn.data(), row());
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FusedKernelSweep, PUpdate) {
  Rng rng(33);
  const auto r = random_vec(n(), rng), v = random_vec(n(), rng);
  auto pi = random_vec(n(), rng), pn = pi;
  Context ci = interp_ctx(), cx = native_ctx();
  fusion::p_update(ci, r.data(), 0.8, 0.45, v.data(), pi.data(), row());
  fusion::p_update(cx, r.data(), 0.8, 0.45, v.data(), pn.data(), row());
  expect_bits_equal(pi, pn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FusedKernelSweep, HadamardDot2) {
  Rng rng(34);
  const auto m = random_vec(n(), rng), r = random_vec(n(), rng);
  std::vector<double> zi(n()), zn(n());
  Context ci = interp_ctx(), cx = native_ctx();
  ExactSum rzi, rri, rzn, rrn;
  fusion::hadamard_dot2(ci, m.data(), r.data(), zi.data(), rzi, rri, row());
  fusion::hadamard_dot2(cx, m.data(), r.data(), zn.data(), rzn, rrn, row());
  expect_bits_equal(zi, zn);
  EXPECT_EQ(rzi.value(), rzn.value());
  EXPECT_EQ(rri.value(), rrn.value());
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FusedKernelSweep, HadamardUpdateDot2) {
  Rng rng(38);
  const auto m = random_vec(n(), rng), q = random_vec(n(), rng);
  auto ri = random_vec(n(), rng), rn = ri;
  std::vector<double> zi(n()), zn(n());
  Context ci = interp_ctx(), cx = native_ctx();
  ExactSum rzi, rri, rzn, rrn;
  fusion::hadamard_update_dot2(ci, m.data(), -0.6, q.data(), ri.data(),
                               zi.data(), rzi, rri, row());
  fusion::hadamard_update_dot2(cx, m.data(), -0.6, q.data(), rn.data(),
                               zn.data(), rzn, rrn, row());
  expect_bits_equal(ri, rn);
  expect_bits_equal(zi, zn);
  EXPECT_EQ(rzi.value(), rzn.value());
  EXPECT_EQ(rri.value(), rrn.value());
  expect_counts_equal(ci.take_counts(), cx.take_counts());

  // And the composite == DAXPY ; HADAMARD ; exact {z·r, r·r}.
  Context plain = native_ctx();
  auto rr2 = ri;
  rr2 = random_vec(n(), rng);
  auto r_ref = rr2, r_fused = rr2;
  std::vector<double> z_ref(n()), z_fused(n());
  ExactSum rz_f, rr_f;
  fusion::hadamard_update_dot2(cx, m.data(), -0.6, q.data(), r_fused.data(),
                               z_fused.data(), rz_f, rr_f, row());
  daxpy(plain, -0.6, q.data(), r_ref.data(), row());
  hadamard(plain, m.data(), r_ref.data(), z_ref.data(), row());
  expect_bits_equal(r_fused, r_ref);
  expect_bits_equal(z_fused, z_ref);
  ExactSum rz_ref, rr_ref;
  for (std::size_t i = 0; i < n(); ++i) {
    rz_ref.add(z_ref[i] * r_ref[i]);
    rr_ref.add(r_ref[i] * r_ref[i]);
  }
  EXPECT_EQ(rz_f.value(), rz_ref.value());
  EXPECT_EQ(rr_f.value(), rr_ref.value());
  (void)cx.take_counts();
  (void)plain.take_counts();
}

/// Shared operands for the stencil composites; xc has a ghost each side.
/// Buffers are padded by one element so .data() stays non-null at n = 0
/// (tile rows are never empty in production, but the kernels' empty-loop
/// behaviour is still pinned); each call runs over Tile::row(n).
struct StencilOperands {
  std::size_t n;
  std::vector<double> cc, cw, ce, cs, cn, csp, xc, xs, xn, xo, b, w;

  StencilOperands(std::size_t n_, Rng& rng)
      : n(n_),
        cc(random_vec(n + 1, rng)),
        cw(random_vec(n + 1, rng)),
        ce(random_vec(n + 1, rng)),
        cs(random_vec(n + 1, rng)),
        cn(random_vec(n + 1, rng)),
        csp(random_vec(n + 1, rng)),
        xc(random_vec(n + 2, rng)),
        xs(random_vec(n + 1, rng)),
        xn(random_vec(n + 1, rng)),
        xo(random_vec(n + 1, rng)),
        b(random_vec(n + 1, rng)),
        w(random_vec(n + 1, rng)) {}
};

TEST_P(FusedKernelSweep, StencilDotSelfAndOther) {
  Rng rng(35);
  StencilOperands op(n(), rng);
  for (const bool coupled : {false, true}) {
    for (const bool self : {true, false}) {
      std::vector<double> yi(n()), yn(n());
      Context ci = interp_ctx(), cx = native_ctx();
      ExactSum di, dn;
      const double* csp = coupled ? op.csp.data() : nullptr;
      const double* xo = coupled ? op.xo.data() : nullptr;
      const double* wi = self ? op.xc.data() + 1 : op.w.data();
      fusion::stencil_rows_fused(ci, op.cc.data(), op.cw.data(), op.ce.data(),
                                 op.cs.data(), op.cn.data(), op.xc.data() + 1,
                                 op.xs.data(), op.xn.data(), csp, xo, nullptr,
                                 wi, &di, yi.data(), row());
      fusion::stencil_rows_fused(cx, op.cc.data(), op.cw.data(), op.ce.data(),
                                 op.cs.data(), op.cn.data(), op.xc.data() + 1,
                                 op.xs.data(), op.xn.data(), csp, xo, nullptr,
                                 wi, &dn, yn.data(), row());
      expect_bits_equal(yi, yn);
      EXPECT_EQ(di.value(), dn.value());
      expect_counts_equal(ci.take_counts(), cx.take_counts());
    }
  }
}

TEST_P(FusedKernelSweep, StencilSub) {
  Rng rng(36);
  StencilOperands op(n(), rng);
  for (const bool coupled : {false, true}) {
    std::vector<double> ri(n()), rn(n());
    Context ci = interp_ctx(), cx = native_ctx();
    const double* csp = coupled ? op.csp.data() : nullptr;
    const double* xo = coupled ? op.xo.data() : nullptr;
    fusion::stencil_rows_fused(ci, op.cc.data(), op.cw.data(), op.ce.data(),
                               op.cs.data(), op.cn.data(), op.xc.data() + 1,
                               op.xs.data(), op.xn.data(), csp, xo,
                               op.b.data(), nullptr, nullptr, ri.data(), row());
    fusion::stencil_rows_fused(cx, op.cc.data(), op.cw.data(), op.ce.data(),
                               op.cs.data(), op.cn.data(), op.xc.data() + 1,
                               op.xs.data(), op.xn.data(), csp, xo,
                               op.b.data(), nullptr, nullptr, rn.data(), row());
    expect_bits_equal(ri, rn);
    expect_counts_equal(ci.take_counts(), cx.take_counts());
  }
}

/// Every composite must reproduce its unfused kernel chain bit-for-bit —
/// this is what licenses --fuse plan to claim "numerically pinned".
TEST_P(FusedKernelSweep, CompositesMatchUnfusedChains) {
  Rng rng(37);
  StencilOperands op(n(), rng);
  Context fused = native_ctx(), plain = native_ctx();
  const double *cc = op.cc.data(), *cw = op.cw.data(), *ce = op.ce.data(),
               *cs = op.cs.data(), *cn = op.cn.data(), *b = op.b.data(),
               *w = op.w.data();
  const Tile t = row();

  // DAXPY₂ == DAXPY ; DAXPY.
  {
    std::vector<double> xf(b, b + n()), xr = xf;
    std::vector<double> rf(w, w + n()), rr = rf;
    fusion::daxpy2(fused, 0.9, cc, xf.data(), -0.9, cw, rf.data(), t);
    daxpy(plain, 0.9, cc, xr.data(), t);
    daxpy(plain, -0.9, cw, rr.data(), t);
    expect_bits_equal(xf, xr);
    expect_bits_equal(rf, rr);
  }
  // AxpyOut == COPY ; DAXPY.
  {
    std::vector<double> zf(n()), zr(n());
    fusion::axpy_out(fused, cc, -0.4, cw, zf.data(), t);
    copy(plain, cc, zr.data(), t);
    daxpy(plain, -0.4, cw, zr.data(), t);
    expect_bits_equal(zf, zr);
  }
  // PUpdate == DAXPY ; XPBY.
  {
    std::vector<double> pf(cs, cs + n()), pr = pf;
    fusion::p_update(fused, cc, 1.7, 0.3, cw, pf.data(), t);
    daxpy(plain, -0.3, cw, pr.data(), t);
    xpby(plain, cc, 1.7, pr.data(), t);
    expect_bits_equal(pf, pr);
  }
  // HadamardDot2 == HADAMARD ; exact {z·r, r·r}.
  {
    std::vector<double> zf(n()), zr(n());
    ExactSum rz, rr2;
    fusion::hadamard_dot2(fused, cc, cw, zf.data(), rz, rr2, t);
    hadamard(plain, cc, cw, zr.data(), t);
    expect_bits_equal(zf, zr);
    ExactSum rz_ref, rr_ref;
    for (std::size_t i = 0; i < n(); ++i) {
      rz_ref.add(cw[i] * zr[i]);
      rr_ref.add(cw[i] * cw[i]);
    }
    EXPECT_EQ(rz.value(), rz_ref.value());
    EXPECT_EQ(rr2.value(), rr_ref.value());
  }
  // Fused residual == STENCIL ; SUB  (uncoupled and coupled).
  for (const bool coupled : {false, true}) {
    std::vector<double> rf(n()), qr(n()), rr3(n());
    fusion::stencil_rows_fused(fused, cc, cw, ce, cs, cn, op.xc.data() + 1,
                               op.xs.data(), op.xn.data(),
                               coupled ? op.csp.data() : nullptr,
                               coupled ? op.xo.data() : nullptr, b, nullptr,
                               nullptr, rf.data(), t);
    stencil_rows(plain, cc, cw, ce, cs, cn, op.xc.data() + 1, op.xs.data(),
                 op.xn.data(), qr.data(), t);
    if (coupled)
      coupling_rows(plain, op.csp.data(), op.xo.data(), qr.data(), t);
    sub(plain, b, qr.data(), rr3.data(), t);
    expect_bits_equal(rf, rr3);
  }
  // Fused MATVEC+DPROD == STENCIL ; exact w·y.
  {
    std::vector<double> yf(n()), yr(n());
    ExactSum df;
    fusion::stencil_rows_fused(fused, cc, cw, ce, cs, cn, op.xc.data() + 1,
                               op.xs.data(), op.xn.data(), nullptr, nullptr,
                               nullptr, w, &df, yf.data(), t);
    stencil_rows(plain, cc, cw, ce, cs, cn, op.xc.data() + 1, op.xs.data(),
                 op.xn.data(), yr.data(), t);
    expect_bits_equal(yf, yr);
    ExactSum dr;
    for (std::size_t i = 0; i < n(); ++i) dr.add(w[i] * yr[i]);
    EXPECT_EQ(df.value(), dr.value());
  }
  (void)fused.take_counts();
  (void)plain.take_counts();
}

INSTANTIATE_TEST_SUITE_P(
    AllVlsAndTails, FusedKernelSweep,
    ::testing::Combine(::testing::Values(128u, 256u, 512u, 1024u, 2048u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{5},
                                         std::size_t{6}, std::size_t{7})));

// --- 2. solver-level fuse plan/off identity ----------------------------------

void fill_coupling(StencilOperator& A, std::uint64_t seed) {
  A.enable_coupling();
  const auto& dec = A.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      auto sp = A.csp().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          sp(li, lj) = -0.1 * zone_noise(seed, s, e.i0 + li, e.j0 + lj);
    }
  }
}

ExecContext make_ctx(VlaExecMode mode, FuseMode fuse) {
  return ExecContext(VectorArch(512), nullptr, mode, fuse);
}

TEST(FusedSolvers, CgMatchesUnfusedAcrossPrecondsModesAndTilings) {
  for (const auto mode : {VlaExecMode::Native, VlaExecMode::Interpret}) {
    for (const std::string precond : {"jacobi", "spai0", "spai", "mg"}) {
      for (const int px : {1, 2}) {
        SolveOutcome out[2];
        for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
          Problem prob(24, 16, 1, px, 1);
          fill_operator(prob.A, 1234);
          ExecContext ctx = make_ctx(mode, fuse);
          auto M = make_preconditioner(precond, ctx, prob.A);
          DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
          randomize(b, 99);
          x.fill(ctx, 0.0);
          CgSolver cg(prob.g, prob.d, 1);
          SolveOptions opt;
          opt.rel_tol = 1e-9;
          auto& slot = out[fuse == FuseMode::Plan ? 1 : 0];
          slot.stats = cg.solve(ctx, prob.A, *M, x, b, opt);
          slot.x = x.field().gather_global();
          EXPECT_TRUE(slot.stats.converged) << precond;
        }
        expect_same_trajectory(out[0], out[1],
                               "cg/" + precond + "/px" + std::to_string(px) +
                                   (mode == VlaExecMode::Native
                                        ? "/native"
                                        : "/interpret"));
      }
    }
  }
}

TEST(FusedSolvers, BicgstabMatchesUnfusedWithCoupling) {
  for (const auto mode : {VlaExecMode::Native, VlaExecMode::Interpret}) {
    for (const bool ganged : {true, false}) {
      for (const int px : {1, 2}) {
        SolveOutcome out[2];
        for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
          Problem prob(24, 16, 2, px, px == 2 ? 2 : 1);
          fill_operator(prob.A, 777, 0.3);
          fill_coupling(prob.A, 778);
          ExecContext ctx = make_ctx(mode, fuse);
          auto M = make_preconditioner("spai0", ctx, prob.A);
          DistVector x(prob.g, prob.d, 2), b(prob.g, prob.d, 2);
          randomize(b, 55);
          x.fill(ctx, 0.0);
          BicgstabSolver solver(prob.g, prob.d, 2);
          SolveOptions opt;
          opt.rel_tol = 1e-9;
          opt.ganged = ganged;
          auto& slot = out[fuse == FuseMode::Plan ? 1 : 0];
          slot.stats = solver.solve(ctx, prob.A, *M, x, b, opt);
          slot.x = x.field().gather_global();
          EXPECT_TRUE(slot.stats.converged);
        }
        expect_same_trajectory(
            out[0], out[1],
            std::string("bicgstab/") + (ganged ? "ganged" : "classic") +
                "/px" + std::to_string(px));
      }
    }
  }
}

/// Fused results are also independent of the host-thread count (per-rank
/// exact partials, like dot_ganged).
TEST(FusedSolvers, FusedTrajectoryInvariantUnderHostThreads) {
  std::vector<double> reference;
  for (const int threads : {1, 4}) {
    set_host_threads(threads);
    Problem prob(32, 16, 2, 2, 2);
    fill_operator(prob.A, 4321, 0.2);
    fill_coupling(prob.A, 4322);
    ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Plan);
    auto M = make_preconditioner("spai0", ctx, prob.A);
    DistVector x(prob.g, prob.d, 2), b(prob.g, prob.d, 2);
    randomize(b, 5);
    x.fill(ctx, 0.0);
    BicgstabSolver solver(prob.g, prob.d, 2);
    const auto stats = solver.solve(ctx, prob.A, *M, x, b, {});
    EXPECT_TRUE(stats.converged);
    const auto field = x.field().gather_global();
    if (reference.empty()) {
      reference = field;
    } else {
      ASSERT_EQ(field.size(), reference.size());
      for (std::size_t i = 0; i < field.size(); ++i)
        ASSERT_EQ(field[i], reference[i]) << "threads=" << threads;
    }
  }
  set_host_threads(0);
}

// --- 3. BiCGSTAB edge paths & the stop-reason contract ------------------------

TEST(BicgstabEdgePaths, ZeroRhsAllVariants) {
  for (const bool ganged : {true, false}) {
    for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
      Problem prob(16, 8, 1);
      fill_operator(prob.A, 11);
      ExecContext ctx = make_ctx(VlaExecMode::Native, fuse);
      auto M = make_preconditioner("spai0", ctx, prob.A);
      DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
      randomize(x, 3);  // non-zero guess must still collapse to x = 0
      b.fill(ctx, 0.0);
      BicgstabSolver solver(prob.g, prob.d, 1);
      SolveOptions opt;
      opt.ganged = ganged;
      const auto stats = solver.solve(ctx, prob.A, *M, x, b, opt);
      EXPECT_TRUE(stats.converged);
      EXPECT_STREQ(stats.stop_reason, "zero rhs");
      EXPECT_TRUE(stats.stop_reason_set());
      for (const double v : x.field().gather_global()) EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(BicgstabEdgePaths, ExactBreakdownFromConvergedGuess) {
  // Starting from the exact solution makes r0 = 0, so ρ0 = r̂ᵀr0 = 0: the
  // exact-breakdown path, reported as such rather than div-by-zero NaNs.
  for (const bool ganged : {true, false}) {
    for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
      Problem prob(16, 8, 1);
      fill_operator(prob.A, 21);
      ExecContext ctx = make_ctx(VlaExecMode::Native, fuse);
      auto M = make_preconditioner("jacobi", ctx, prob.A);
      DistVector xstar(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
      randomize(xstar, 7);
      prob.A.apply(ctx, xstar, b);  // b = A·x*, then solve from x = x*
      BicgstabSolver solver(prob.g, prob.d, 1);
      SolveOptions opt;
      opt.ganged = ganged;
      const auto stats = solver.solve(ctx, prob.A, *M, xstar, b, opt);
      EXPECT_STREQ(stats.stop_reason, "rho breakdown");
      EXPECT_TRUE(stats.stop_reason_set());
      EXPECT_EQ(stats.iterations, 1);
    }
  }
}

TEST(BicgstabEdgePaths, IndefiniteOperatorTerminatesWithReason) {
  // Mixed-sign diagonal: BiCGSTAB may converge, stagnate or break down,
  // but it must terminate with a definitive reason and finite numbers.
  for (const bool ganged : {true, false}) {
    for (const auto fuse : {FuseMode::Off, FuseMode::Plan}) {
      Problem prob(16, 8, 1);
      fill_operator(prob.A, 31);
      for (int lj = 0; lj < 8; ++lj)
        for (int li = 0; li < 8; ++li) {
          auto cc = prob.A.cc().view(0, 0);
          cc(li, lj) = -cc(li, lj);
        }
      ExecContext ctx = make_ctx(VlaExecMode::Native, fuse);
      auto M = make_preconditioner("identity", ctx, prob.A);
      DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
      randomize(b, 13);
      x.fill(ctx, 0.0);
      BicgstabSolver solver(prob.g, prob.d, 1);
      SolveOptions opt;
      opt.ganged = ganged;
      opt.max_iterations = 50;
      const auto stats = solver.solve(ctx, prob.A, *M, x, b, opt);
      EXPECT_TRUE(stats.stop_reason_set())
          << (ganged ? "ganged" : "classic");
      EXPECT_TRUE(std::isfinite(stats.final_relative_residual));
    }
  }
}

/// The CG analogue paths, pinning the satellite contract: stop_reason is
/// never null/empty after any solve() exit.
TEST(StopReason, NeverEmptyAcrossCgExitPaths) {
  // Tolerance reached.
  {
    Problem prob(16, 8, 1);
    fill_operator(prob.A, 41);
    ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Off);
    auto M = make_preconditioner("jacobi", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 17);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    const auto stats = cg.solve(ctx, prob.A, *M, x, b, {});
    EXPECT_STREQ(stats.stop_reason, "tolerance reached");
    EXPECT_TRUE(stats.stop_reason_set());
  }
  // Max iterations.
  {
    Problem prob(16, 8, 1);
    fill_operator(prob.A, 42);
    ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Off);
    auto M = make_preconditioner("identity", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 19);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    SolveOptions opt;
    opt.max_iterations = 1;
    opt.rel_tol = 1e-15;
    const auto stats = cg.solve(ctx, prob.A, *M, x, b, opt);
    EXPECT_STREQ(stats.stop_reason, "max iterations");
    EXPECT_TRUE(stats.stop_reason_set());
  }
  // Zero rhs.
  {
    Problem prob(16, 8, 1);
    fill_operator(prob.A, 43);
    ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Off);
    auto M = make_preconditioner("jacobi", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(x, 23);
    b.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    const auto stats = cg.solve(ctx, prob.A, *M, x, b, {});
    EXPECT_STREQ(stats.stop_reason, "zero rhs");
    EXPECT_TRUE(stats.stop_reason_set());
  }
  // Indefinite operator.
  {
    Problem prob(16, 8, 1);
    fill_operator(prob.A, 44);
    auto cc = prob.A.cc().view(0, 0);
    for (int lj = 0; lj < 8; ++lj)
      for (int li = 0; li < 16; ++li) cc(li, lj) = -cc(li, lj);
    ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Off);
    auto M = make_preconditioner("identity", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 29);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    const auto stats = cg.solve(ctx, prob.A, *M, x, b, {});
    EXPECT_STREQ(stats.stop_reason, "indefinite operator");
    EXPECT_TRUE(stats.stop_reason_set());
  }
}

// --- 4. memo-cache observability (perfmon satellite) --------------------------

TEST(MemoCache, CountersTrackHitsAndMisses) {
  Context ctx(VectorArch(512), VlaExecMode::Native);
  EXPECT_EQ(ctx.memo_hits(), 0u);
  EXPECT_EQ(ctx.memo_misses(), 0u);
  std::vector<double> x(100, 1.0), y(100, 2.0);
  const Tile row = Tile::row(100);
  daxpy(ctx, 2.0, x.data(), y.data(), row);
  EXPECT_EQ(ctx.memo_misses(), 1u);
  EXPECT_EQ(ctx.memo_hits(), 0u);
  for (int i = 0; i < 5; ++i) daxpy(ctx, 2.0, x.data(), y.data(), row);
  EXPECT_EQ(ctx.memo_misses(), 1u);
  EXPECT_EQ(ctx.memo_hits(), 5u);
  // Forks share the fork family's counters; a fork's hits become visible
  // when it flushes its recording.
  Context child = ctx.fork();
  daxpy(child, 2.0, x.data(), y.data(), row);
  (void)ctx.take_counts();
  (void)child.take_counts();
  EXPECT_EQ(ctx.memo_hits(), 6u);

  const auto before = perfmon::MemoCacheStats::of(ctx);
  daxpy(ctx, 2.0, x.data(), y.data(), row);
  (void)ctx.take_counts();
  const auto delta = perfmon::MemoCacheStats::of(ctx).since(before);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 0u);

  const auto stats = perfmon::MemoCacheStats::of(ctx);
  EXPECT_EQ(stats.probes(), stats.hits + stats.misses);
  EXPECT_GT(stats.hit_rate(), 0.5);
  const std::string line = perfmon::format_memo_cache(stats);
  EXPECT_NE(line.find("memo cache:"), std::string::npos);
  EXPECT_NE(line.find("hit rate"), std::string::npos);
}

TEST(MemoCache, InterpretModeNeverProbes) {
  Context ctx(VectorArch(512), VlaExecMode::Interpret);
  std::vector<double> x(64, 1.0), y(64, 2.0);
  daxpy(ctx, 2.0, x.data(), y.data(), Tile::row(64));
  (void)ctx.take_counts();
  EXPECT_EQ(ctx.memo_hits() + ctx.memo_misses(), 0u);
}

// --- 5. exact reductions: the needle tiling test -----------------------------

/// A 64×32 inner product whose small products hide two cancelling pairs,
/// ±2^200 and ±2^100.  A compensated or plain sum rounds the small products
/// differently depending on where the tiling puts the needles; the exact
/// sum gives one double whatever the tiling, path or host-thread count.
struct Needles {
  static constexpr int kNx1 = 64, kNx2 = 32;
  std::vector<double> x, y;

  explicit Needles(std::uint64_t seed) {
    Rng rng(seed);
    x = random_vec(kNx1 * kNx2, rng);
    y = random_vec(kNx1 * kNx2, rng);
    std::vector<std::size_t> at;
    while (at.size() < 4) {
      const auto k = static_cast<std::size_t>(rng.below(x.size()));
      if (std::find(at.begin(), at.end(), k) == at.end()) at.push_back(k);
    }
    const double big[4] = {0x1p100, 0x1p100, 0x1p50, 0x1p50};
    const double sign[4] = {1.0, -1.0, 1.0, -1.0};
    for (int k = 0; k < 4; ++k) {
      x[at[k]] = big[k];
      y[at[k]] = sign[k] * big[k];
    }
  }

  /// The exact sum of the products in global order.
  double expected() const {
    ExactSum s;
    for (std::size_t i = 0; i < x.size(); ++i) s.add(x[i] * y[i]);
    return s.value();
  }
};

constexpr std::pair<int, int> kNeedleTilings[] = {
    {1, 1}, {2, 2}, {4, 4}, {5, 4}, {16, 1}};

TEST(ExactReductions, NeedleDotGangedIsTilingAndThreadIndependent) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const Needles nd(500 + trial);
    const double want = nd.expected();
    for (const int threads : {1, 4}) {
      set_host_threads(threads);
      for (const auto& [px1, px2] : kNeedleTilings) {
        Problem prob(Needles::kNx1, Needles::kNx2, 1, px1, px2);
        DistVector x(prob.g, prob.d, 1), y(prob.g, prob.d, 1);
        x.field().scatter_global(nd.x);
        y.field().scatter_global(nd.y);
        ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Off);
        const DistVector::DotPair pairs[] = {{&x, &y}, {&y, &x}};
        const auto got = DistVector::dot_ganged(ctx, pairs);
        EXPECT_EQ(got[0], want) << "trial " << trial << " tiling " << px1
                                << "x" << px2 << " threads " << threads;
        EXPECT_EQ(got[1], want);
      }
    }
  }
  set_host_threads(0);
}

TEST(ExactReductions, NeedleFusedApplyDotIsTilingAndThreadIndependent) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const Needles nd(600 + trial);
    const double want = nd.expected();
    for (const int threads : {1, 4}) {
      set_host_threads(threads);
      for (const auto& [px1, px2] : kNeedleTilings) {
        // The identity stencil: y = A·x = x, so apply_dot(x, y, w) = w·x.
        Problem prob(Needles::kNx1, Needles::kNx2, 1, px1, px2);
        prob.A.cc().fill(1.0);
        DistVector x(prob.g, prob.d, 1), y(prob.g, prob.d, 1),
            w(prob.g, prob.d, 1);
        x.field().scatter_global(nd.x);
        w.field().scatter_global(nd.y);
        ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Plan);
        EXPECT_EQ(prob.A.apply_dot(ctx, x, y, &w), want)
            << "trial " << trial << " tiling " << px1 << "x" << px2
            << " threads " << threads;
      }
    }
  }
  set_host_threads(0);
}

TEST(ExactReductions, NeedleFusedApplyDot2IsTilingAndThreadIndependent) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    // y = m ⊙ x with m = ±1, so x·y = Σ m·x² holds the cancelling needles.
    Needles nd(700 + trial);
    std::vector<double> m(nd.x.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = nd.y[i] < 0.0 ? -1.0 : 1.0;
      nd.y[i] = m[i] * nd.x[i];
    }
    const double want = nd.expected();
    ExactSum xx;
    for (const double v : nd.x) xx.add(v * v);
    for (const int threads : {1, 4}) {
      set_host_threads(threads);
      for (const auto& [px1, px2] : kNeedleTilings) {
        Problem prob(Needles::kNx1, Needles::kNx2, 1, px1, px2);
        prob.A.cc().scatter_global(m);  // Jacobi's diagonal inverse is m
        ExecContext ctx = make_ctx(VlaExecMode::Native, FuseMode::Plan);
        JacobiPrecond M(ctx, prob.A);
        DistVector x(prob.g, prob.d, 1), y(prob.g, prob.d, 1);
        x.field().scatter_global(nd.x);
        double out[2];
        ASSERT_TRUE(M.apply_dot2(ctx, x, y, out));
        EXPECT_EQ(out[0], want) << "trial " << trial << " tiling " << px1
                                << "x" << px2 << " threads " << threads;
        EXPECT_EQ(out[1], xx.value());
      }
    }
  }
  set_host_threads(0);
}

}  // namespace
}  // namespace v2d::linalg
