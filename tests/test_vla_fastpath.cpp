/// \file test_vla_fastpath.cpp
/// \brief Fast-path vs interpreter equivalence suite.
///
/// The native execution engine must be indistinguishable from the
/// interpreter backend: bit-identical numerical results AND identical
/// KernelCounts recordings, for every kernel, every architectural vector
/// length, and every tail-predicate case (empty, partial, full).  These
/// tests are what licenses the analytic-recording fast path to stand in
/// for op-by-op recording everywhere.

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "core/v2d.hpp"
#include "linalg/kernel_counts.hpp"
#include "linalg/kernels.hpp"
#include "linalg/mg/mg_kernels.hpp"
#include "support/rng.hpp"

namespace v2d::linalg {
namespace {

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

/// Parameterized over (vector bits, length): all five architectural VL
/// octaves crossed with lengths hitting empty (0), sub-strip, exact-strip,
/// one-past, multi-strip, and ragged-tail predicates.
class FastPathSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {
protected:
  unsigned bits() const { return std::get<0>(GetParam()); }
  unsigned lanes() const { return bits() / 64; }
  std::size_t n() const {
    // Lengths are scaled in units of the VL so each entry keeps its
    // tail-shape meaning at every vector length.
    const std::size_t vl = lanes();
    switch (std::get<1>(GetParam())) {
      case 0: return 0;            // empty: loop never runs
      case 1: return 1;            // single partial strip
      case 2: return vl - 1;       // partial strip, all-but-one lane
      case 3: return vl;           // one full strip, no tail
      case 4: return vl + 1;       // full strip + 1-lane tail
      case 5: return 3 * vl;       // multi-strip, no tail
      case 6: return 3 * vl + vl / 2;  // multi-strip, half tail
      default: return 257;         // fixed ragged length
    }
  }

  Context interp_ctx() const {
    return Context(VectorArch(bits()), VlaExecMode::Interpret);
  }
  Context native_ctx() const {
    return Context(VectorArch(bits()), VlaExecMode::Native);
  }
};

TEST_P(FastPathSweep, Dprod) {
  Rng rng(11);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  Context ci = interp_ctx(), cn = native_ctx();
  const double a = dprod(ci, x, y);
  const double b = dprod(cn, x, y);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << "dprod not bit-identical: " << a << " vs " << b;
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Daxpy) {
  Rng rng(12);
  const auto x = random_vec(n(), rng);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cn = native_ctx();
  daxpy(ci, 1.7, x, yi);
  daxpy(cn, 1.7, x, yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Dscal) {
  Rng rng(13);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cn = native_ctx();
  dscal(ci, 0.75, 2.0, yi);
  dscal(cn, 0.75, 2.0, yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Ddaxpy) {
  Rng rng(14);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  auto zi = random_vec(n(), rng), zn = zi;
  Context ci = interp_ctx(), cn = native_ctx();
  ddaxpy(ci, 1.25, x, -0.5, y, zi);
  ddaxpy(cn, 1.25, x, -0.5, y, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Xpby) {
  Rng rng(15);
  const auto x = random_vec(n(), rng);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cn = native_ctx();
  xpby(ci, x, 0.3, yi);
  xpby(cn, x, 0.3, yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, CopyFillSubHadamard) {
  Rng rng(16);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  std::vector<double> zi(n()), zn(n());
  Context ci = interp_ctx(), cn = native_ctx();

  copy(ci, x, zi);
  copy(cn, x, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  fill(ci, -2.5, zi);
  fill(cn, -2.5, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  sub(ci, x, y, zi);
  sub(cn, x, y, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  hadamard(ci, x, y, zi);
  hadamard(cn, x, y, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, StencilRow) {
  Rng rng(17);
  const auto cc = random_vec(n(), rng), cw = random_vec(n(), rng),
             ce = random_vec(n(), rng), cs = random_vec(n(), rng),
             cn_ = random_vec(n(), rng);
  const auto xc = random_vec(n() + 2, rng), xs = random_vec(n(), rng),
             xn = random_vec(n(), rng);
  std::vector<double> yi(n()), yn(n());
  Context ci = interp_ctx(), cx = native_ctx();
  stencil_row(ci, cc, cw, ce, cs, cn_, xc.data() + 1, xs.data(), xn.data(),
              yi);
  stencil_row(cx, cc, cw, ce, cs, cn_, xc.data() + 1, xs.data(), xn.data(),
              yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, CouplingRow) {
  Rng rng(18);
  const auto csp = random_vec(n(), rng), xo = random_vec(n(), rng);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cx = native_ctx();
  coupling_row(ci, csp, xo.data(), yi);
  coupling_row(cx, csp, xo.data(), yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, DiagRows) {
  Rng rng(19);
  const auto d = random_vec(n(), rng), r = random_vec(n(), rng);
  auto xi = random_vec(n(), rng), xn = xi;
  Context ci = interp_ctx(), cx = native_ctx();
  mg::diag_correct_row(ci, 0.8, d, r, xi);
  mg::diag_correct_row(cx, 0.8, d, r, xn);
  expect_bits_equal(xi, xn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());

  std::vector<double> zi(n()), zn(n());
  mg::diag_scale_row(ci, 1.25, d, r, zi);
  mg::diag_scale_row(cx, 1.25, d, r, zn);
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, RestrictRow) {
  Rng rng(20);
  const std::size_t nc = n();
  // Fine rows are 2·nc wide with one readable ghost on each side.
  std::vector<std::vector<double>> fine;
  const double* frows[4];
  for (int dj = 0; dj < 4; ++dj) {
    fine.push_back(random_vec(2 * nc + 2, rng));
    frows[dj] = fine.back().data() + 1;
  }
  std::vector<std::int64_t> fm1(nc), f0(nc), f1(nc), f2(nc), near, far;
  for (std::size_t c = 0; c < nc; ++c) {
    fm1[c] = static_cast<std::int64_t>(2 * c) - 1;
    f0[c] = static_cast<std::int64_t>(2 * c);
    f1[c] = static_cast<std::int64_t>(2 * c) + 1;
    f2[c] = static_cast<std::int64_t>(2 * c) + 2;
  }
  const mg::TransferTables tab{fm1, f0, f1, f2, near, far};
  std::vector<double> yi(nc), yn(nc);
  Context ci = interp_ctx(), cx = native_ctx();
  mg::restrict_row(ci, frows, tab, yi);
  mg::restrict_row(cx, frows, tab, yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, ProlongRow) {
  Rng rng(21);
  const std::size_t nf = n();
  // Coarse rows are ⌈nf/2⌉ wide with one readable ghost on each side.
  const std::size_t ncw = nf / 2 + 2;
  const auto cnear = random_vec(ncw + 2, rng), cfar = random_vec(ncw + 2, rng);
  std::vector<std::int64_t> near(nf), far(nf), unused;
  for (std::size_t f = 0; f < nf; ++f) {
    const auto parent = static_cast<std::int64_t>(f / 2);
    near[f] = parent;
    far[f] = parent + ((f & 1) ? 1 : -1);
  }
  const mg::TransferTables tab{unused, unused, unused, unused, near, far};
  auto yi = random_vec(nf, rng), yn = yi;
  Context ci = interp_ctx(), cx = native_ctx();
  mg::prolong_row_add(ci, cnear.data() + 1, cfar.data() + 1, tab, yi);
  mg::prolong_row_add(cx, cnear.data() + 1, cfar.data() + 1, tab, yn);
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

INSTANTIATE_TEST_SUITE_P(
    AllVlsAndTails, FastPathSweep,
    ::testing::Combine(::testing::Values(128u, 256u, 512u, 1024u, 2048u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{5},
                                         std::size_t{6}, std::size_t{7})));

TEST(FastPathCache, RepeatedCallsAccumulateExactly) {
  Context ctx(VectorArch(512), VlaExecMode::Native);
  std::vector<double> x(100, 1.0), y(100, 2.0);
  daxpy(ctx, 2.0, x, y);
  const auto once = ctx.take_counts();
  for (int i = 0; i < 7; ++i) daxpy(ctx, 2.0, x, y);
  const auto seven = ctx.take_counts();
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    EXPECT_EQ(seven.instr[i], 7 * once.instr[i]);
    EXPECT_EQ(seven.lanes[i], 7 * once.lanes[i]);
  }
  EXPECT_EQ(seven.bytes_moved(), 7 * once.bytes_moved());
}

TEST(FastPathCache, DistinctShapesWithSameLengthDoNotCollide) {
  Context ctx(VectorArch(512), VlaExecMode::Native);
  std::vector<double> x(64, 1.0), y(64, 2.0);
  daxpy(ctx, 2.0, x, y);
  const auto after_daxpy = ctx.take_counts();
  (void)dprod(ctx, x, y);
  const auto after_dprod = ctx.take_counts();
  // DPROD has a Reduce, DAXPY a StoreContig; a key collision would leak
  // one shape's formula into the other.
  EXPECT_EQ(after_daxpy.instr[static_cast<std::size_t>(sim::OpClass::Reduce)],
            0u);
  EXPECT_EQ(after_dprod.instr[static_cast<std::size_t>(sim::OpClass::Reduce)],
            1u);
  EXPECT_EQ(
      after_dprod.instr[static_cast<std::size_t>(sim::OpClass::StoreContig)],
      0u);
}

/// Keys A A B A B B record exactly the sum of the six analytic recordings,
/// however the calls fall into runs, whether the recording is read with
/// counts() after every call or taken once at the end.
TEST(FastPathCache, RunsRecordTheSumOfEveryCall) {
  const KernelShape shapes[] = {KernelShape::Daxpy,      KernelShape::Daxpy,
                                KernelShape::StencilRow, KernelShape::Daxpy,
                                KernelShape::StencilRow, KernelShape::StencilRow};
  const auto n_of = [](KernelShape s) {
    return s == KernelShape::Daxpy ? std::uint64_t{100} : std::uint64_t{37};
  };
  sim::KernelCounts expected;
  for (const KernelShape s : shapes) expected += analytic_counts(s, n_of(s), 8);

  Context batched(VectorArch(512), VlaExecMode::Native);
  for (const KernelShape s : shapes) record_analytic(batched, s, n_of(s));
  EXPECT_EQ(batched.counts(), expected);
  EXPECT_EQ(batched.take_counts(), expected);
  EXPECT_EQ(batched.memo_misses(), 2u);
  EXPECT_EQ(batched.memo_hits(), 4u);

  Context stepwise(VectorArch(512), VlaExecMode::Native);
  sim::KernelCounts so_far;
  for (const KernelShape s : shapes) {
    record_analytic(stepwise, s, n_of(s));
    so_far += analytic_counts(s, n_of(s), 8);
    EXPECT_EQ(stepwise.counts(), so_far);
  }
  EXPECT_EQ(stepwise.take_counts(), expected);
  EXPECT_EQ(stepwise.memo_hits() + stepwise.memo_misses(), 6u);
}

/// A copy carries the recording but none of the unfolded hits; a move
/// carries both.  Every hit reaches the family and process counters once.
TEST(FastPathCache, CopiesAndMovesNeverFoldHitsTwice) {
  const std::uint64_t process0 = vla::process_memo_hits();
  Context ctx(VectorArch(512), VlaExecMode::Native);
  record_analytic(ctx, KernelShape::Daxpy, 100);  // miss
  record_analytic(ctx, KernelShape::Daxpy, 100);  // hit 1, pending in ctx
  {
    Context copy(ctx);
    EXPECT_EQ(copy.counts(), ctx.counts());
    record_analytic(copy, KernelShape::Daxpy, 100);  // hit 2, pending in copy
    Context moved(std::move(copy));                  // hit 2 moves along
    Context assigned = ctx.fork();
    record_analytic(assigned, KernelShape::Daxpy, 100);  // hit 3
    assigned = moved;  // hit 3 folds; hit 2 stays with `moved`
    record_analytic(assigned, KernelShape::Daxpy, 100);  // hit 4
    assigned = std::move(moved);  // hit 4 folds; hit 2 moves in
  }
  EXPECT_EQ(ctx.memo_hits(), 4u);
  (void)ctx.take_counts();
  EXPECT_EQ(ctx.memo_hits(), 4u);
  EXPECT_EQ(ctx.memo_misses(), 1u);
  EXPECT_EQ(vla::process_memo_hits() - process0, 4u);
}

/// N forks on N threads all miss one fresh key before any inserts it:
/// only the insertion counts a miss, the others count hits.
TEST(FastPathCache, ConcurrentMissOfOneKeyCountsOnce) {
  constexpr int kThreads = 4;
  Context proto(VectorArch(512), VlaExecMode::Native);
  std::latch all_missed(kThreads);
  const auto make = [&] {
    all_missed.arrive_and_wait();
    return analytic_counts(KernelShape::Daxpy, 1000, 8);
  };
  std::vector<sim::KernelCounts> recorded(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        Context c = proto.fork();
        c.record_memo(0x2a, make);
        recorded[t] = c.take_counts();
      });
  }
  EXPECT_EQ(proto.memo_misses(), 1u);
  EXPECT_EQ(proto.memo_hits(), kThreads - 1u);
  for (const auto& c : recorded)
    EXPECT_EQ(c, analytic_counts(KernelShape::Daxpy, 1000, 8));
}

/// End-to-end: a full radiation step prices identically and produces the
/// identical field under both backends — the recorded stream, and
/// therefore every simulated clock, cannot tell the modes apart.
TEST(FastPathEndToEnd, SimulationTrajectoryAndClocksMatch) {
  core::RunConfig cfg;
  cfg.nx1 = 32;
  cfg.nx2 = 16;
  cfg.steps = 1;
  cfg.ns = 2;
  cfg.compilers = {"gnu"};

  cfg.vla_exec = "interpret";
  core::Simulation interp(cfg);
  interp.advance();

  cfg.vla_exec = "native";
  core::Simulation fast(cfg);
  fast.advance();

  const double ei = interp.total_energy();
  const double en = fast.total_energy();
  EXPECT_EQ(std::memcmp(&ei, &en, sizeof ei), 0);
  EXPECT_DOUBLE_EQ(interp.analytic_error(), fast.analytic_error());
  // Identical recordings ⇒ identical priced wall-time, to the last cycle.
  EXPECT_EQ(interp.elapsed(0), fast.elapsed(0));
}

}  // namespace
}  // namespace v2d::linalg
