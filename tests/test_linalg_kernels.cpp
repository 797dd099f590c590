/// \file test_linalg_kernels.cpp
/// \brief Unit and property tests for the Table II kernels.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/kernels.hpp"
#include "support/rng.hpp"

namespace v2d::linalg {
namespace {

using vla::Context;
using vla::VectorArch;

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Parameterized over (vector bits, length) so tails and all VLs are hit.
class KernelSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {
protected:
  unsigned bits() const { return std::get<0>(GetParam()); }
  std::size_t n() const { return std::get<1>(GetParam()); }
};

TEST_P(KernelSweep, Dprod) {
  Context ctx((VectorArch(bits())));
  Rng rng(1);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  double want = 0.0;
  for (std::size_t i = 0; i < n(); ++i) want += x[i] * y[i];
  EXPECT_NEAR(dprod(ctx, x, y), want, 1e-12 * (n() + 1));
}

TEST_P(KernelSweep, Daxpy) {
  Context ctx((VectorArch(bits())));
  Rng rng(2);
  const auto x = random_vec(n(), rng);
  auto y = random_vec(n(), rng);
  const auto y0 = y;
  daxpy(ctx, 1.7, x.data(), y.data(), Tile::row(n()));
  for (std::size_t i = 0; i < n(); ++i)
    EXPECT_DOUBLE_EQ(y[i], 1.7 * x[i] + y0[i]);
}

TEST_P(KernelSweep, DscalIsCMinusDy) {
  Context ctx((VectorArch(bits())));
  Rng rng(3);
  auto y = random_vec(n(), rng);
  const auto y0 = y;
  dscal(ctx, 0.75, 2.0, y.data(), Tile::row(n()));
  for (std::size_t i = 0; i < n(); ++i)
    EXPECT_DOUBLE_EQ(y[i], 0.75 - 2.0 * y0[i]);
}

TEST_P(KernelSweep, Ddaxpy) {
  Context ctx((VectorArch(bits())));
  Rng rng(4);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  auto z = random_vec(n(), rng);
  const auto z0 = z;
  ddaxpy(ctx, 1.25, x.data(), -0.5, y.data(), z.data(), Tile::row(n()));
  // The kernel evaluates (x*a + z) then (y*b + t); the reference below may
  // round differently, so compare to a few ulps.
  for (std::size_t i = 0; i < n(); ++i)
    EXPECT_NEAR(z[i], 1.25 * x[i] - 0.5 * y[i] + z0[i], 1e-14);
}

TEST_P(KernelSweep, XpbyCopySubHadamardFill) {
  Context ctx((VectorArch(bits())));
  Rng rng(5);
  const Tile row = Tile::row(n());
  const auto x = random_vec(n(), rng);
  auto y = random_vec(n(), rng);
  const auto y0 = y;
  xpby(ctx, x.data(), 0.3, y.data(), row);
  for (std::size_t i = 0; i < n(); ++i)
    EXPECT_DOUBLE_EQ(y[i], x[i] + 0.3 * y0[i]);

  std::vector<double> z(n());
  copy(ctx, x.data(), z.data(), row);
  EXPECT_EQ(z, x);

  sub(ctx, x.data(), y.data(), z.data(), row);
  for (std::size_t i = 0; i < n(); ++i) EXPECT_DOUBLE_EQ(z[i], x[i] - y[i]);

  hadamard(ctx, x.data(), y.data(), z.data(), row);
  for (std::size_t i = 0; i < n(); ++i) EXPECT_DOUBLE_EQ(z[i], x[i] * y[i]);

  fill(ctx, -2.5, z.data(), row);
  for (std::size_t i = 0; i < n(); ++i) EXPECT_DOUBLE_EQ(z[i], -2.5);
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndLengths, KernelSweep,
    ::testing::Combine(::testing::Values(128u, 512u, 2048u),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64}, std::size_t{1000})));

TEST(StencilRow, MatchesReference) {
  Context ctx((VectorArch(512)));
  const std::size_t n = 50;
  Rng rng(6);
  const auto cc = random_vec(n, rng), cw = random_vec(n, rng),
             ce = random_vec(n, rng), cs = random_vec(n, rng),
             cn = random_vec(n, rng);
  // xc with one ghost on each side.
  const auto xc_buf = random_vec(n + 2, rng);
  const auto xs = random_vec(n, rng), xn = random_vec(n, rng);
  std::vector<double> y(n);
  stencil_rows(ctx, cc.data(), cw.data(), ce.data(), cs.data(), cn.data(),
               xc_buf.data() + 1, xs.data(), xn.data(), y.data(), Tile::row(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double want = cc[i] * xc_buf[i + 1] + cw[i] * xc_buf[i] +
                        ce[i] * xc_buf[i + 2] + cs[i] * xs[i] + cn[i] * xn[i];
    EXPECT_NEAR(y[i], want, 1e-14);
  }
}

TEST(CouplingRow, AddsOtherSpecies) {
  Context ctx((VectorArch(512)));
  Rng rng(7);
  const std::size_t n = 33;
  const auto csp = random_vec(n, rng), xo = random_vec(n, rng);
  auto y = random_vec(n, rng);
  const auto y0 = y;
  coupling_rows(ctx, csp.data(), xo.data(), y.data(), Tile::row(n));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(y[i], y0[i] + csp[i] * xo[i]);
}

TEST(KernelRecording, DaxpyOpMix) {
  Context ctx((VectorArch(512)));
  std::vector<double> x(64, 1.0), y(64, 2.0);
  daxpy(ctx, 2.0, x.data(), y.data(), Tile::row(64));
  const auto c = ctx.take_counts();
  const auto idx = [](sim::OpClass o) { return static_cast<std::size_t>(o); };
  EXPECT_EQ(c.lanes[idx(sim::OpClass::LoadContig)], 128u);  // x and y
  EXPECT_EQ(c.lanes[idx(sim::OpClass::StoreContig)], 64u);
  EXPECT_EQ(c.lanes[idx(sim::OpClass::FlopFma)], 64u);
  EXPECT_EQ(c.bytes_moved(), (128u + 64u) * 8);
}

TEST(KernelRecording, DprodUsesOneFinalReduce) {
  Context ctx((VectorArch(512)));
  std::vector<double> x(1000, 1.0), y(1000, 1.0);
  (void)dprod(ctx, x, y);
  const auto c = ctx.take_counts();
  // The canonical SVE dot product reduces once per call, not per strip.
  EXPECT_EQ(c.instr[static_cast<std::size_t>(sim::OpClass::Reduce)], 1u);
}

TEST(Kernels, LengthMismatchRejected) {
  Context ctx((VectorArch(512)));
  std::vector<double> a(4), b(5);
  EXPECT_THROW(dprod(ctx, a, b), Error);
}

}  // namespace
}  // namespace v2d::linalg
