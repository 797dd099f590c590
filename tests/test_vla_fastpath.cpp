/// \file test_vla_fastpath.cpp
/// \brief Fast-path vs interpreter equivalence suite.
///
/// The native execution engine must be indistinguishable from the
/// interpreter backend: bit-identical numerical results AND identical
/// KernelCounts recordings, for every kernel, every architectural vector
/// length, and every tail-predicate case (empty, partial, full).  The
/// native path records by dry-running each kernel's own interpreter body
/// once per (shape, n) and memoizing the result, so this suite pins:
///   - per kernel, results and recordings of both backends agree;
///   - per KernelShape, both recordings equal the op mix stated in the
///     table below — the only statement of those mixes outside the
///     interpreter;
///   - the dry-run contract: the body runs once per key per fork family,
///     only on a miss, and writes no operand memory;
///   - the memo's run/hit/miss accounting across copies, moves and
///     concurrent misses, and that no two KernelShapes (the fused
///     composites included) share a memo key.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/v2d.hpp"
#include "exact_sum_cases.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernel_counts.hpp"
#include "linalg/kernels.hpp"
#include "linalg/mg/mg_kernels.hpp"
#include "support/exact_sum.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

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

/// Gather tables for one transfer row of n outputs: restriction reads fine
/// points 2c−1 … 2c+2, prolongation the parent f/2 and its parity
/// neighbour.  Every index lies in [−1, 2n].
struct TransferIndex {
  explicit TransferIndex(std::size_t n)
      : fm1(n), f0(n), f1(n), f2(n), near(n), far(n) {
    for (std::size_t c = 0; c < n; ++c) {
      const auto i = static_cast<std::int64_t>(c);
      fm1[c] = 2 * i - 1;
      f0[c] = 2 * i;
      f1[c] = 2 * i + 1;
      f2[c] = 2 * i + 2;
      near[c] = i / 2;
      far[c] = i / 2 + ((i & 1) ? 1 : -1);
    }
  }
  mg::TransferTables tables() const { return {fm1, f0, f1, f2, near, far}; }

  std::vector<std::int64_t> fm1, f0, f1, f2, near, far;
};

/// Every KernelShape: the primitive kernels, then the fused composites.
constexpr std::size_t kNumShapes =
    static_cast<std::size_t>(KernelShape::StencilDotWCoupled) + 1;

/// Operands for one tile entry of any KernelShape: twelve buffers laid out
/// as ghosted tiles at row stride 2·ni + 4, the tile's row 0 starting two
/// rows and one column in, so shifted, ghost, fine-row (restriction) and
/// parity-row (prolongation) reads all stay inside; plus the two exact
/// accumulators the dot tails add into.
struct TileOperands {
  TileOperands(std::size_t ni, std::size_t nj, int seed)
      : stride(static_cast<std::ptrdiff_t>(2 * ni + 4)), idx(ni) {
    Rng rng(seed);
    // Restriction reads fine rows −1 … 2·nj of its operand.
    for (auto& b : buf) b = random_vec((2 * nj + 4) * (2 * ni + 4), rng);
    acc[0].add(0.5);
    acc[1].add(-0.25);
  }
  double* base(int k) { return buf[k].data() + 2 * stride + 1; }

  std::ptrdiff_t stride;
  std::array<std::vector<double>, 12> buf;
  ExactSum acc[2];
  TransferIndex idx;
};

void expect_operands_equal(const TileOperands& a, const TileOperands& b,
                           const char* what) {
  SCOPED_TRACE(what);
  for (std::size_t k = 0; k < a.buf.size(); ++k)
    expect_bits_equal(a.buf[k], b.buf[k]);
  for (int i = 0; i < 2; ++i) {
    const double va = a.acc[i].value(), vb = b.acc[i].value();
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof va), 0) << "dot tail " << i;
  }
}

/// The tile entry of `shape` over operand rows j0 … j0 + t.nj − 1 (t.stride
/// is the operands' stride); with t.nj = 1 this is the row call of row j0.
void call_tile(KernelShape shape, Context& ctx, TileOperands& o, Tile t,
               std::size_t j0) {
  const std::ptrdiff_t s = o.stride;
  const std::ptrdiff_t at = static_cast<std::ptrdiff_t>(j0) * s;
  const auto p = [&](int k) { return o.base(k) + at; };
  switch (shape) {
    case KernelShape::Dprod: dprod_record_only(ctx, p(0), p(1), t); break;
    case KernelShape::Daxpy: daxpy(ctx, 1.5, p(0), p(1), t); break;
    case KernelShape::Dscal: dscal(ctx, 0.5, 2.0, p(0), t); break;
    case KernelShape::Ddaxpy: ddaxpy(ctx, 1.5, p(0), -0.5, p(1), p(2), t); break;
    case KernelShape::Xpby: xpby(ctx, p(0), 0.3, p(1), t); break;
    case KernelShape::Copy: copy(ctx, p(0), p(1), t); break;
    case KernelShape::Fill: fill(ctx, -2.5, p(0), t); break;
    case KernelShape::Sub: sub(ctx, p(0), p(1), p(2), t); break;
    case KernelShape::Hadamard: hadamard(ctx, p(0), p(1), p(2), t); break;
    case KernelShape::StencilRow:
      stencil_rows(ctx, p(0), p(1), p(2), p(3), p(4), p(5), p(5) - s,
                   p(5) + s, p(8), t);
      break;
    case KernelShape::CouplingRow: coupling_rows(ctx, p(0), p(1), p(2), t); break;
    case KernelShape::DiagCorrectRow:
      mg::diag_correct_rows(ctx, 0.8, p(0), p(1), p(2), t);
      break;
    case KernelShape::DiagScaleRow:
      mg::diag_scale_rows(ctx, 1.25, p(0), p(1), p(2), t);
      break;
    case KernelShape::RestrictRow: {
      // Coarse row j reads fine rows 2j − 1 … 2j + 2 of operand 0.
      const double* f = o.base(0) + 2 * at;
      const double* const fine[4] = {f - s, f, f + s, f + 2 * s};
      mg::restrict_rows(ctx, fine, 2 * s, o.idx.tables(), p(4), t);
      break;
    }
    case KernelShape::ProlongRow: {
      // Fine row j reads coarse rows j/2 and j/2 ± 1 of operand 0.  The row
      // call of an odd row keeps its parity through a negated stride.
      const double* c = o.base(0) + static_cast<std::ptrdiff_t>(j0 / 2) * s;
      mg::prolong_rows_add(ctx, c, j0 % 2 == 1 ? -s : s, o.idx.tables(), p(2),
                           t);
      break;
    }
    case KernelShape::Daxpy2:
      fusion::daxpy2(ctx, 0.7, p(0), p(1), -0.7, p(2), p(3), t);
      break;
    case KernelShape::AxpyOut:
      fusion::axpy_out(ctx, p(0), -1.3, p(1), p(2), t);
      break;
    case KernelShape::PUpdate:
      fusion::p_update(ctx, p(0), 0.8, 0.45, p(1), p(2), t);
      break;
    case KernelShape::HadamardDot2:
      fusion::hadamard_dot2(ctx, p(0), p(1), p(2), o.acc[0], o.acc[1], t);
      break;
    case KernelShape::HadamardUpdateDot2:
      fusion::hadamard_update_dot2(ctx, p(0), -0.6, p(1), p(2), p(3),
                                   o.acc[0], o.acc[1], t);
      break;
    case KernelShape::StencilSub:
    case KernelShape::StencilSubCoupled:
    case KernelShape::StencilDot:
    case KernelShape::StencilDotW:
    case KernelShape::StencilDotCoupled:
    case KernelShape::StencilDotWCoupled: {
      const bool coupled = shape == KernelShape::StencilSubCoupled ||
                           shape == KernelShape::StencilDotCoupled ||
                           shape == KernelShape::StencilDotWCoupled;
      const bool sub = shape == KernelShape::StencilSub ||
                       shape == KernelShape::StencilSubCoupled;
      const bool self = shape == KernelShape::StencilDot ||
                        shape == KernelShape::StencilDotCoupled;
      fusion::stencil_rows_fused(
          ctx, p(0), p(1), p(2), p(3), p(4), p(5), p(5) - s, p(5) + s,
          coupled ? p(8) : nullptr, coupled ? p(9) : nullptr,
          sub ? p(10) : nullptr, sub ? nullptr : (self ? p(5) : p(10)),
          sub ? nullptr : &o.acc[0], p(11), t);
      break;
    }
  }
}

/// The row call of `shape` over n elements: call_tile on a one-row tile of
/// fresh operands.  Returns the operands as the call left them.
TileOperands call_row(KernelShape shape, Context& ctx, std::size_t n) {
  TileOperands o(n, 1, 40 + static_cast<int>(shape));
  call_tile(shape, ctx, o, Tile::row(n), 0);
  return o;
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
  Tile row() const { return Tile::row(n()); }

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
  daxpy(ci, 1.7, x.data(), yi.data(), row());
  daxpy(cn, 1.7, x.data(), yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Dscal) {
  Rng rng(13);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cn = native_ctx();
  dscal(ci, 0.75, 2.0, yi.data(), row());
  dscal(cn, 0.75, 2.0, yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Ddaxpy) {
  Rng rng(14);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  auto zi = random_vec(n(), rng), zn = zi;
  Context ci = interp_ctx(), cn = native_ctx();
  ddaxpy(ci, 1.25, x.data(), -0.5, y.data(), zi.data(), row());
  ddaxpy(cn, 1.25, x.data(), -0.5, y.data(), zn.data(), row());
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, Xpby) {
  Rng rng(15);
  const auto x = random_vec(n(), rng);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cn = native_ctx();
  xpby(ci, x.data(), 0.3, yi.data(), row());
  xpby(cn, x.data(), 0.3, yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());
}

TEST_P(FastPathSweep, CopyFillSubHadamard) {
  Rng rng(16);
  const auto x = random_vec(n(), rng), y = random_vec(n(), rng);
  std::vector<double> zi(n()), zn(n());
  Context ci = interp_ctx(), cn = native_ctx();

  copy(ci, x.data(), zi.data(), row());
  copy(cn, x.data(), zn.data(), row());
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  fill(ci, -2.5, zi.data(), row());
  fill(cn, -2.5, zn.data(), row());
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  sub(ci, x.data(), y.data(), zi.data(), row());
  sub(cn, x.data(), y.data(), zn.data(), row());
  expect_bits_equal(zi, zn);
  expect_counts_equal(ci.take_counts(), cn.take_counts());

  hadamard(ci, x.data(), y.data(), zi.data(), row());
  hadamard(cn, x.data(), y.data(), zn.data(), row());
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
  stencil_rows(ci, cc.data(), cw.data(), ce.data(), cs.data(), cn_.data(),
               xc.data() + 1, xs.data(), xn.data(), yi.data(), row());
  stencil_rows(cx, cc.data(), cw.data(), ce.data(), cs.data(), cn_.data(),
               xc.data() + 1, xs.data(), xn.data(), yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, CouplingRow) {
  Rng rng(18);
  const auto csp = random_vec(n(), rng), xo = random_vec(n(), rng);
  auto yi = random_vec(n(), rng), yn = yi;
  Context ci = interp_ctx(), cx = native_ctx();
  coupling_rows(ci, csp.data(), xo.data(), yi.data(), row());
  coupling_rows(cx, csp.data(), xo.data(), yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, DiagRows) {
  Rng rng(19);
  const auto d = random_vec(n(), rng), r = random_vec(n(), rng);
  auto xi = random_vec(n(), rng), xn = xi;
  Context ci = interp_ctx(), cx = native_ctx();
  mg::diag_correct_rows(ci, 0.8, d.data(), r.data(), xi.data(), row());
  mg::diag_correct_rows(cx, 0.8, d.data(), r.data(), xn.data(), row());
  expect_bits_equal(xi, xn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());

  std::vector<double> zi(n()), zn(n());
  mg::diag_scale_rows(ci, 1.25, d.data(), r.data(), zi.data(), row());
  mg::diag_scale_rows(cx, 1.25, d.data(), r.data(), zn.data(), row());
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
  const TransferIndex idx(nc);
  const mg::TransferTables tab = idx.tables();
  std::vector<double> yi(nc), yn(nc);
  Context ci = interp_ctx(), cx = native_ctx();
  mg::restrict_rows(ci, frows, 0, tab, yi.data(), row());
  mg::restrict_rows(cx, frows, 0, tab, yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

TEST_P(FastPathSweep, ProlongRow) {
  Rng rng(21);
  const std::size_t nf = n();
  // Coarse rows are ⌈nf/2⌉ wide with one readable ghost on each side;
  // fine row 0 reads coarse row 0 (parent) and the row below it.
  const std::size_t ncw = nf / 2 + 4;
  const auto coarse = random_vec(2 * ncw, rng);
  const double* cnear = coarse.data() + ncw + 1;
  const auto cstride = static_cast<std::ptrdiff_t>(ncw);
  const TransferIndex idx(nf);
  const mg::TransferTables tab = idx.tables();
  auto yi = random_vec(nf, rng), yn = yi;
  Context ci = interp_ctx(), cx = native_ctx();
  mg::prolong_rows_add(ci, cnear, cstride, tab, yi.data(), row());
  mg::prolong_rows_add(cx, cnear, cstride, tab, yn.data(), row());
  expect_bits_equal(yi, yn);
  expect_counts_equal(ci.take_counts(), cx.take_counts());
}

/// The op mix of one kernel or fused composite call in the strip-mined
/// form every whilelt kernel shares: per call `dups` broadcasts; per strip
/// `loads` contiguous loads, `gathers` gather loads, `stores` stores, `fmas`
/// FMAs (merging dot FMAs included), `muls` multiplies, `adds`
/// adds/subtracts and `selects` in-strip dup broadcasts (one lane each);
/// and, when it reduces, one ptrue plus `reduces` full-width horizontal
/// reduces at the end.  The interpreter is the only definition of these
/// kernels, so this table is what pins their recorded streams from outside
/// it.  Rows follow KernelShape order.
struct KernelMix {
  KernelShape shape;
  std::uint64_t dups, loads, gathers, stores, fmas, muls, adds, selects,
      reduces;
};

constexpr KernelMix kKernelMixes[] = {
    //                               dup  ld  ga  st fma mul add sel red
    {KernelShape::Dprod,               1,  2,  0,  0,  1,  0,  0,  0,  1},
    {KernelShape::Daxpy,               1,  2,  0,  1,  1,  0,  0,  0,  0},
    {KernelShape::Dscal,               2,  1,  0,  1,  1,  0,  0,  0,  0},
    {KernelShape::Ddaxpy,              2,  3,  0,  1,  2,  0,  0,  0,  0},
    {KernelShape::Xpby,                1,  2,  0,  1,  1,  0,  0,  0,  0},
    {KernelShape::Copy,                0,  1,  0,  1,  0,  0,  0,  0,  0},
    {KernelShape::Fill,                1,  0,  0,  1,  0,  0,  0,  0,  0},
    {KernelShape::Sub,                 0,  2,  0,  1,  0,  0,  1,  0,  0},
    {KernelShape::Hadamard,            0,  2,  0,  1,  0,  1,  0,  0,  0},
    // 5 coefficient + 5 solution loads, one mul, four chained FMAs.
    {KernelShape::StencilRow,          0, 10,  0,  1,  4,  1,  0,  0,  0},
    {KernelShape::CouplingRow,         0,  3,  0,  1,  1,  0,  0,  0,  0},
    {KernelShape::DiagCorrectRow,      1,  3,  0,  1,  1,  1,  0,  0,  0},
    {KernelShape::DiagScaleRow,        1,  2,  0,  1,  0,  2,  0,  0,  0},
    // Per strip a zeroed accumulator, then per fine row {4 gathers, mul,
    // 3 FMAs, dup(weight), merging FMA}.
    {KernelShape::RestrictRow,         2,  0, 16,  1, 16,  4,  0,  5,  0},
    // 4 gathers, 2 muls, the fine-row load, 4 FMAs.
    {KernelShape::ProlongRow,          2,  1,  4,  1,  4,  2,  0,  0,  0},
    // z ← x + a·p twice; z ← x + a·y with the COPY elided; p ← r + b·t
    // with t = p − w·v kept in a register.
    {KernelShape::Daxpy2,              2,  4,  0,  2,  2,  0,  0,  0,  0},
    {KernelShape::AxpyOut,             1,  2,  0,  1,  1,  0,  0,  0,  0},
    {KernelShape::PUpdate,             2,  3,  0,  1,  2,  0,  0,  0,  0},
    // z ← m ⊙ r (after r ← r + a·q) with two zeroed accumulators and two
    // merging FMAs on in-register values per strip.
    {KernelShape::HadamardDot2,        2,  2,  0,  1,  2,  1,  0,  0,  2},
    {KernelShape::HadamardUpdateDot2,  3,  3,  0,  2,  3,  1,  0,  0,  2},
    // The stencil row, then the coupling FMA (2 loads), and b − y (1 load)
    // or the dot's merging FMA (w loaded unless it is the center operand).
    {KernelShape::StencilSub,          0, 11,  0,  1,  4,  1,  1,  0,  0},
    {KernelShape::StencilSubCoupled,   0, 13,  0,  1,  5,  1,  1,  0,  0},
    {KernelShape::StencilDot,          1, 10,  0,  1,  5,  1,  0,  0,  1},
    {KernelShape::StencilDotW,         1, 11,  0,  1,  5,  1,  0,  0,  1},
    {KernelShape::StencilDotCoupled,   1, 12,  0,  1,  6,  1,  0,  0,  1},
    {KernelShape::StencilDotWCoupled,  1, 13,  0,  1,  6,  1,  0,  0,  1},
};

sim::KernelCounts expected_counts(const KernelMix& m, std::uint64_t n,
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
  op(sim::OpClass::LoadGather, m.gathers * strips, m.gathers * n);
  op(sim::OpClass::StoreContig, m.stores * strips, m.stores * n);
  op(sim::OpClass::FlopFma, m.fmas * strips, m.fmas * n);
  op(sim::OpClass::FlopMul, m.muls * strips, m.muls * n);
  op(sim::OpClass::FlopAdd, m.adds * strips, m.adds * n);
  op(sim::OpClass::Select, m.selects * strips, m.selects * strips);
  if (m.reduces > 0) {
    op(sim::OpClass::Predicate, 1, vl);
    op(sim::OpClass::Reduce, m.reduces, m.reduces * vl);
  }
  c.bytes_read = 8 * (m.loads + m.gathers) * n;
  c.bytes_written = 8 * m.stores * n;
  return c;
}

TEST_P(FastPathSweep, BothBackendsRecordTheKernelMixTable) {
  ASSERT_EQ(std::size(kKernelMixes), kNumShapes);
  for (std::size_t i = 0; i < std::size(kKernelMixes); ++i) {
    const KernelMix& m = kKernelMixes[i];
    ASSERT_EQ(m.shape, static_cast<KernelShape>(i)) << "row " << i;
    SCOPED_TRACE("shape " + std::to_string(i));
    const sim::KernelCounts want = expected_counts(m, n(), lanes());
    Context ci = interp_ctx(), cx = native_ctx();
    call_row(m.shape, ci, n());
    call_row(m.shape, cx, n());
    expect_counts_equal(want, ci.take_counts());
    expect_counts_equal(want, cx.take_counts());
  }
}

/// Every native kernel and fused composite, dot tails included, and the
/// exact block kernel give the same bits at the generic width and at AVX2
/// (support/simd.hpp).
TEST_P(FastPathSweep, WidthEquivalence) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  const simd::Width host = simd::width();
  const simd::Width widths[] = {simd::Width::Generic, simd::Width::Avx2};
  const auto at_width = [&](simd::Width w, auto&& run) {
    simd::set_width(w);
    auto result = run();
    simd::set_width(host);
    return result;
  };
  for (std::size_t i = 0; i < kNumShapes; ++i) {
    const auto shape = static_cast<KernelShape>(i);
    SCOPED_TRACE("shape " + std::to_string(i));
    const auto run = [&](simd::Width w) {
      return at_width(w, [&] {
        Context ctx = native_ctx();
        return call_row(shape, ctx, n());
      });
    };
    expect_operands_equal(run(widths[0]), run(widths[1]), "generic vs AVX2");
  }

  // DPROD's tile entry only records; its plain entry returns the sum.
  Rng drng(40);
  const auto x = random_vec(n(), drng), y = random_vec(n(), drng);
  double dot[2];
  for (int w = 0; w < 2; ++w) {
    dot[w] = at_width(widths[w], [&] {
      Context ctx = native_ctx();
      return dprod(ctx, x, y);
    });
  }
  EXPECT_EQ(std::memcmp(&dot[0], &dot[1], sizeof dot[0]), 0) << "dprod";

  // The block kernel, as one row and as 3-wide rows.  First, cancelling
  // ±2^40 products over others 26 to 66 binades below them, which all
  // three folds carry and whose lowest bits reach the result; then
  // products spanning 300 binades, which fall back to product-by-product
  // sums.
  Rng rng(77);
  for (const bool wide : {false, true}) {
    std::vector<double> x = random_vec(3 * n() + 3, rng);
    std::vector<double> y = random_vec(3 * n() + 3, rng);
    for (std::size_t k = 0; k < x.size(); ++k) {
      const int e = static_cast<int>(rng.below(wide ? 301 : 26));
      if (wide) {
        x[k] = std::ldexp(x[k], e - 150);
      } else if (k % 64 < 2) {
        x[k] = 0x1p20;
        y[k] = k % 2 == 0 ? 0x1p20 : -0x1p20;
      } else {
        x[k] = std::ldexp(1.5 + 0.5 * x[k], e / 2 - 13);
        y[k] = std::ldexp(y[k] < 0.0 ? y[k] - 1.0 : y[k] + 1.0, e - e / 2);
      }
    }
    for (const std::size_t ni : {std::size_t{3}, x.size()}) {
      double dot[2];
      for (int w = 0; w < 2; ++w) {
        dot[w] = at_width(widths[w], [&] {
          ExactSum s;
          s.add_dot_rows(x.data(), static_cast<std::ptrdiff_t>(ni), y.data(),
                         static_cast<std::ptrdiff_t>(ni), ni, x.size() / ni);
          return s.value();
        });
      }
      EXPECT_EQ(std::memcmp(&dot[0], &dot[1], sizeof dot[0]), 0)
          << (wide ? "wide" : "folded") << " ni " << ni;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVlsAndTails, FastPathSweep,
    ::testing::Combine(::testing::Values(128u, 256u, 512u, 1024u, 2048u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{5},
                                         std::size_t{6}, std::size_t{7})));

// --- tile entries --------------------------------------------------------------

/// Parameterized over (vector bits, tile shape): rows shorter than one
/// vector and rows of two vectors plus a ragged tail, each as one row and
/// as several, always at a stride wider than the row (ghost columns).
class TileEntrySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {
protected:
  std::size_t vl() const { return std::get<0>(GetParam()) / 64; }
  int shape() const { return std::get<1>(GetParam()); }
  /// Below one vector (not a multiple of it), or two vectors and 3.
  std::size_t ni() const { return shape() < 2 ? vl() - 1 : 2 * vl() + 3; }
  /// One row, or three or four.
  std::size_t nj() const {
    return shape() % 2 == 0 ? 1 : 3 + static_cast<std::size_t>(shape() / 2);
  }
  Context interp_ctx() const {
    return Context(VectorArch(std::get<0>(GetParam())), VlaExecMode::Interpret);
  }
  Context native_ctx() const {
    return Context(VectorArch(std::get<0>(GetParam())), VlaExecMode::Native);
  }
};

/// Every tile entry, in both exec modes, equals nj interpreter row calls:
/// bit-identical operands and dot tails, an identical recording, and the
/// memo probes of nj native row calls (one miss, nj − 1 hits).
TEST_P(TileEntrySweep, MatchesInterpreterRows) {
  for (std::size_t i = 0; i < kNumShapes; ++i) {
    const auto shape = static_cast<KernelShape>(i);
    SCOPED_TRACE("shape " + std::to_string(i));
    const TileOperands start(ni(), nj(), 60 + static_cast<int>(i));
    const Tile t{ni(), nj(), start.stride};
    const Tile row{ni(), 1, start.stride};

    TileOperands rows = start, native_rows = start, tile = start,
                 interp_tile = start;
    Context ci = interp_ctx(), cr = native_ctx(), cx = native_ctx(),
            ct = interp_ctx();
    for (std::size_t j = 0; j < nj(); ++j) {
      call_tile(shape, ci, rows, row, j);
      call_tile(shape, cr, native_rows, row, j);
    }
    call_tile(shape, cx, tile, t, 0);
    call_tile(shape, ct, interp_tile, t, 0);

    expect_operands_equal(rows, tile, "native tile");
    expect_operands_equal(rows, native_rows, "native rows");
    expect_operands_equal(rows, interp_tile, "interpreted tile");
    EXPECT_EQ(cx.memo_misses(), 1u);
    EXPECT_EQ(cx.memo_hits(), nj() - 1);
    EXPECT_EQ(cr.memo_misses(), cx.memo_misses());
    EXPECT_EQ(cr.memo_hits(), cx.memo_hits());
    const sim::KernelCounts want = ci.take_counts();
    EXPECT_EQ(cx.take_counts(), want);
    EXPECT_EQ(cr.take_counts(), want);
    EXPECT_EQ(ct.take_counts(), want);
  }
}

/// Every native tile body, and the fused composites' per-tile dot tails,
/// give the same bits at the generic width and at AVX2.
TEST_P(TileEntrySweep, WidthEquivalence) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  const simd::Width host = simd::width();
  for (std::size_t i = 0; i < kNumShapes; ++i) {
    const auto shape = static_cast<KernelShape>(i);
    SCOPED_TRACE("shape " + std::to_string(i));
    const TileOperands start(ni(), nj(), 60 + static_cast<int>(i));
    TileOperands got[2] = {start, start};
    const simd::Width widths[] = {simd::Width::Generic, simd::Width::Avx2};
    for (int w = 0; w < 2; ++w) {
      simd::set_width(widths[w]);
      Context ctx = native_ctx();
      call_tile(shape, ctx, got[w], Tile{ni(), nj(), start.stride}, 0);
    }
    simd::set_width(host);
    expect_operands_equal(got[0], got[1], "generic vs AVX2");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVlsAndTileShapes, TileEntrySweep,
    ::testing::Combine(::testing::Values(128u, 512u, 2048u),
                       ::testing::Values(0, 1, 2, 3)));

/// Run `value()` at the generic width and at AVX2, restoring the host's.
template <typename Value>
std::array<double, 2> at_both_widths(Value&& value) {
  const simd::Width host = simd::width();
  std::array<double, 2> out{};
  const simd::Width widths[] = {simd::Width::Generic, simd::Width::Avx2};
  for (int w = 0; w < 2; ++w) {
    simd::set_width(widths[w]);
    out[static_cast<std::size_t>(w)] = value();
  }
  simd::set_width(host);
  return out;
}

/// The one-pass exact-dot kernel gives SlowSum's bits at both widths on
/// every path: re-anchors with rollback, spills at the add cap, the third
/// fold, the product-by-product sum, zero and subnormal tiles
/// (exact_sum_cases.hpp).
TEST(ExactSumWidthEquivalence, OnePassPaths) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  for (const exact_cases::DotTile& t : exact_cases::one_pass_tiles()) {
    const std::uint64_t want = exact_cases::bits_of(t.slow());
    const auto got = at_both_widths([&] { return t.exact(); });
    EXPECT_EQ(exact_cases::bits_of(got[0]), want) << t.name << " generic";
    EXPECT_EQ(exact_cases::bits_of(got[1]), want) << t.name << " avx2";
  }
}

/// Each gang sweep gives, pair by pair, SlowSum's bits and those of
/// separate add_dot_rows calls at both widths.
TEST(ExactSumWidthEquivalence, GangPaths) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  for (const exact_cases::GangTile& g : exact_cases::gang_tiles()) {
    std::uint64_t slow[3][3];
    for (int a = 0; a < 3; ++a)
      for (int b = a; b < 3; ++b)
        slow[a][b] = slow[b][a] = exact_cases::bits_of(g.slow(a, b));
    for (const auto& pairs : exact_cases::gang_patterns()) {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const auto [a, b] = pairs[k];
        const std::uint64_t want = slow[a][b];
        const auto gang =
            at_both_widths([&] { return exact_cases::run_gang(g, pairs)[k]; });
        const auto rows = at_both_widths([&] { return g.rows(a, b); });
        for (int w = 0; w < 2; ++w) {
          const auto wi = static_cast<std::size_t>(w);
          EXPECT_EQ(exact_cases::bits_of(gang[wi]), want)
              << g.name << " pair " << k << " of " << pairs.size()
              << (w == 0 ? " generic" : " avx2");
          EXPECT_EQ(exact_cases::bits_of(rows[wi]), want)
              << g.name << " rows " << a << "·" << b
              << (w == 0 ? " generic" : " avx2");
        }
      }
    }
  }
}

/// A NaN or infinite product stays with its own pair of a gang at both
/// widths; the gang's other pairs keep their exact sums.
TEST(ExactSumWidthEquivalence, GangSpecialValues) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto nan = at_both_widths([] {
    return exact_cases::special_gang(std::numeric_limits<double>::quiet_NaN())[1];
  });
  const auto pos = at_both_widths([] { return exact_cases::special_gang(1e308)[1]; });
  const auto neg = at_both_widths([] { return exact_cases::special_gang(-kInf)[1]; });
  for (int w = 0; w < 2; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    EXPECT_TRUE(std::isnan(nan[wi]));
    EXPECT_EQ(pos[wi], kInf);
    EXPECT_EQ(neg[wi], -kInf);
  }
}

TEST(FastPathCache, RepeatedCallsAccumulateExactly) {
  Context ctx(VectorArch(512), VlaExecMode::Native);
  std::vector<double> x(100, 1.0), y(100, 2.0);
  const Tile row = Tile::row(100);
  daxpy(ctx, 2.0, x.data(), y.data(), row);
  const auto once = ctx.take_counts();
  for (int i = 0; i < 7; ++i) daxpy(ctx, 2.0, x.data(), y.data(), row);
  const auto seven = ctx.take_counts();
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    EXPECT_EQ(seven.instr[i], 7 * once.instr[i]);
    EXPECT_EQ(seven.lanes[i], 7 * once.lanes[i]);
  }
  EXPECT_EQ(seven.bytes_moved(), 7 * once.bytes_moved());
}

/// Every KernelShape, the fused composites included, keys its own memo
/// entry: one native context records each shape once at one row length,
/// misses once per shape, and each recording equals its interpreter run's.
/// Two shapes sharing a key would hand the second the first's recording.
TEST(FastPathCache, DistinctShapesWithSameLengthDoNotCollide) {
  const std::size_t n = 37;
  Context native(VectorArch(512), VlaExecMode::Native);
  for (std::size_t i = 0; i < kNumShapes; ++i) {
    const auto shape = static_cast<KernelShape>(i);
    SCOPED_TRACE("shape " + std::to_string(i));
    Context interp(VectorArch(512), VlaExecMode::Interpret);
    call_row(shape, interp, n);
    call_row(shape, native, n);
    expect_counts_equal(interp.take_counts(), native.take_counts());
  }
  EXPECT_EQ(native.memo_misses(), kNumShapes);
  EXPECT_EQ(native.memo_hits(), 0u);
}

/// Keys A A B A B B record exactly the sum of the six interpreter
/// recordings, however the calls fall into runs, whether the recording is
/// read with counts() after every call or taken once at the end.
TEST(FastPathCache, RunsRecordTheSumOfEveryCall) {
  const KernelShape shapes[] = {KernelShape::Daxpy,      KernelShape::Daxpy,
                                KernelShape::StencilRow, KernelShape::Daxpy,
                                KernelShape::StencilRow, KernelShape::StencilRow};
  const auto n_of = [](KernelShape s) {
    return s == KernelShape::Daxpy ? std::size_t{100} : std::size_t{37};
  };
  const auto interpreted = [&](KernelShape s) {
    Context ci(VectorArch(512), VlaExecMode::Interpret);
    call_row(s, ci, n_of(s));
    return ci.take_counts();
  };
  sim::KernelCounts expected;
  for (const KernelShape s : shapes) expected += interpreted(s);

  Context batched(VectorArch(512), VlaExecMode::Native);
  for (const KernelShape s : shapes) call_row(s, batched, n_of(s));
  EXPECT_EQ(batched.counts(), expected);
  EXPECT_EQ(batched.take_counts(), expected);
  EXPECT_EQ(batched.memo_misses(), 2u);
  EXPECT_EQ(batched.memo_hits(), 4u);

  Context stepwise(VectorArch(512), VlaExecMode::Native);
  sim::KernelCounts so_far;
  for (const KernelShape s : shapes) {
    call_row(s, stepwise, n_of(s));
    so_far += interpreted(s);
    EXPECT_EQ(stepwise.counts(), so_far);
  }
  EXPECT_EQ(stepwise.take_counts(), expected);
  EXPECT_EQ(stepwise.memo_hits() + stepwise.memo_misses(), 6u);
}

/// A copy carries the recording but none of the unfolded hits; a move
/// carries both.  Every hit reaches the family and process counters once.
TEST(FastPathCache, CopiesAndMovesNeverFoldHitsTwice) {
  const std::uint64_t process0 = vla::process_memo_hits();
  std::vector<double> x(100, 1.0), y(100, 2.0);
  const auto daxpy100 = [&](Context& c) {
    daxpy(c, 2.0, x.data(), y.data(), Tile::row(100));
  };
  Context ctx(VectorArch(512), VlaExecMode::Native);
  daxpy100(ctx);  // miss
  daxpy100(ctx);  // hit 1, pending in ctx
  {
    Context copy(ctx);
    EXPECT_EQ(copy.counts(), ctx.counts());
    daxpy100(copy);                   // hit 2, pending in copy
    Context moved(std::move(copy));  // hit 2 moves along
    Context assigned = ctx.fork();
    daxpy100(assigned);  // hit 3
    assigned = moved;    // hit 3 folds; hit 2 stays with `moved`
    daxpy100(assigned);  // hit 4
    assigned = std::move(moved);  // hit 4 folds; hit 2 moves in
  }
  EXPECT_EQ(ctx.memo_hits(), 4u);
  (void)ctx.take_counts();
  EXPECT_EQ(ctx.memo_hits(), 4u);
  EXPECT_EQ(ctx.memo_misses(), 1u);
  EXPECT_EQ(vla::process_memo_hits() - process0, 4u);
}

/// N forks on N threads all miss one fresh key before any inserts it, and
/// all dry-run DAXPY over the same operands at once: only the insertion
/// counts a miss, the others count hits, and every fork records the
/// interpreter's stream.
TEST(FastPathCache, ConcurrentMissOfOneKeyCountsOnce) {
  constexpr int kThreads = 4;
  std::vector<double> x(1000, 1.0), y(1000, 2.0);
  const Tile row = Tile::row(1000);
  Context ci(VectorArch(512), VlaExecMode::Interpret);
  daxpy(ci, 2.0, x.data(), y.data(), row);
  const sim::KernelCounts want = ci.take_counts();
  Context proto(VectorArch(512), VlaExecMode::Native);
  std::latch all_missed(kThreads);
  const auto body = [&](Context& dry) {
    all_missed.arrive_and_wait();
    daxpy(dry, 2.0, x.data(), y.data(), row);
  };
  std::vector<sim::KernelCounts> recorded(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        Context c = proto.fork();
        c.record_dry(0x2a, 1, body);
        recorded[t] = c.take_counts();
      });
  }
  EXPECT_EQ(proto.memo_misses(), 1u);
  EXPECT_EQ(proto.memo_hits(), kThreads - 1u);
  for (const auto& c : recorded) EXPECT_EQ(c, want);
}

// --- the dry-run contract ----------------------------------------------------

/// record_dry runs its body once per key per fork family, only on a miss,
/// in an Interpret-mode dry context at the caller's VL.
TEST(DryRun, BodyRunsOncePerKeyPerFamilyOnlyOnAMiss) {
  std::vector<double> x(50, 1.0), y(50, 2.0);
  int runs = 0;
  const auto body = [&](Context& dry) {
    ++runs;
    EXPECT_TRUE(dry.dry());
    EXPECT_EQ(dry.exec_mode(), VlaExecMode::Interpret);
    EXPECT_EQ(dry.lanes(), 4u);
    daxpy(dry, 2.0, x.data(), y.data(), Tile::row(50));
  };
  Context ctx(VectorArch(256), VlaExecMode::Native);
  EXPECT_FALSE(ctx.dry());
  ctx.record_dry(7, 1, body);
  EXPECT_EQ(runs, 1);
  ctx.record_dry(7, 1, body);  // run of the front key
  ctx.record_dry(8, 1, body);  // a second key misses
  ctx.record_dry(7, 1, body);  // back to the first: a map hit
  EXPECT_EQ(runs, 2);
  Context fork = ctx.fork();
  fork.record_dry(7, 1, body);
  fork.record_dry(8, 1, body);
  EXPECT_EQ(runs, 2);
  Context other(VectorArch(256), VlaExecMode::Native);  // a new family
  other.record_dry(7, 1, body);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(ctx.memo_misses(), 2u);
  EXPECT_EQ(other.memo_misses(), 1u);
}

/// A dry run reads and writes no operand memory: sentinel-filled outputs
/// and a fused dot's accumulators come back untouched, while the
/// recording is still the interpreter's.
TEST(DryRun, WritesNoOperandMemory) {
  constexpr std::size_t n = 37;
  constexpr double kSentinel = -7.75;
  Rng rng(90);
  // Inputs are 2n + 4 wide so the restriction's fine-row reads fit.
  const auto x = random_vec(2 * n + 4, rng), w = random_vec(2 * n + 4, rng);
  std::vector<double> out(2 * n + 4, kSentinel);
  const auto untouched = [&](const char* what) {
    for (const double v : out) ASSERT_EQ(v, kSentinel) << what;
  };
  const double *in = x.data() + 1, *in2 = w.data() + 1;
  double* y = out.data() + 1;
  const Tile row = Tile::row(n);
  const TransferIndex idx(n);
  const double* const fine[4] = {x.data() + 1, w.data() + 1, x.data() + 1,
                                 w.data() + 1};
  ExactSum rz, rr;
  rz.add(1.25);
  rz.add(1e-20);
  rr.add(-3.5);
  const ExactSum rz0 = rz, rr0 = rr;

  const auto check = [&](const char* what, auto&& kernel) {
    Context ci(VectorArch(512), VlaExecMode::Interpret);
    std::vector<double> scratch = out;  // the interpreter's own output
    kernel(ci, scratch.data() + 1);
    Context cx(VectorArch(512), VlaExecMode::Native);
    cx.record_dry(1, 1, [&](Context& dry) { kernel(dry, y); });
    untouched(what);
    EXPECT_EQ(cx.take_counts(), ci.take_counts()) << what;
  };
  check("daxpy", [&](Context& c, double* o) { daxpy(c, 1.5, in, o, row); });
  check("stencil_rows", [&](Context& c, double* o) {
    stencil_rows(c, in, in2, in, in2, in, x.data() + 1, w.data() + 1,
                 x.data() + 1, o, row);
  });
  check("restrict_rows", [&](Context& c, double* o) {
    mg::restrict_rows(c, fine, 0, idx.tables(), o, row);
  });
  check("prolong_rows_add", [&](Context& c, double* o) {
    mg::prolong_rows_add(c, x.data() + n + 3, static_cast<std::ptrdiff_t>(n + 2),
                         idx.tables(), o, row);
  });

  // One fused dot group: z ← m ⊙ r with rz += Σ z·r and rr += Σ r·r.
  Context cx(VectorArch(512), VlaExecMode::Native);
  cx.record_dry(2, 1, [&](Context& dry) {
    fusion::hadamard_dot2(dry, in, in2, y, rz, rr, row);
  });
  untouched("hadamard_dot2");
  EXPECT_EQ(rz, rz0);
  EXPECT_EQ(rr, rr0);
  Context ci(VectorArch(512), VlaExecMode::Interpret);
  std::vector<double> z(n);
  ExactSum a, b;
  fusion::hadamard_dot2(ci, in, in2, z.data(), a, b, row);
  EXPECT_EQ(cx.take_counts(), ci.take_counts());
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
