#pragma once
/// \file exact_sum_cases.hpp
/// \brief The slow reference sum and the tiles that exercise each path of
/// the exact-dot kernels (support/exact_sum.hpp), shared by the ExactSum
/// tests in test_support.cpp and the width-equivalence tests in
/// test_vla_fastpath.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/exact_sum.hpp"
#include "support/rng.hpp"

namespace v2d::exact_cases {

/// Independent slow reference: every addend is added bit by bit into a
/// 2,300-bit two's-complement integer counting units of 2^−1074, and the
/// result is rounded by reading bits.
class SlowSum {
public:
  void add(double v) {
    const auto u = std::bit_cast<std::uint64_t>(v);
    const int e = static_cast<int>((u >> 52) & 0x7ff);
    std::uint64_t m = u & ((1ull << 52) - 1);
    if (e == 0x7ff) {
      special_ = true;
      return;
    }
    if (e != 0) m |= 1ull << 52;
    std::vector<int> t(kBits, 0);
    for (int k = 0; k < 53; ++k) t[std::max(e, 1) - 1 + k] = (m >> k) & 1;
    if ((u >> 63) != 0) negate(t);
    int carry = 0;
    for (int k = 0; k < kBits; ++k) {
      const int sum = bits_[k] + t[k] + carry;
      bits_[k] = sum & 1;
      carry = sum >> 1;
    }
  }

  double value() const {
    EXPECT_FALSE(special_) << "SlowSum handles finite addends only";
    std::vector<int> mag = bits_;
    const bool neg = mag[kBits - 1] != 0;
    if (neg) negate(mag);
    int msb = kBits - 1;
    while (msb >= 0 && mag[msb] == 0) --msb;
    if (msb < 0) return 0.0;
    const int lsb = std::max(msb - 52, 0);
    std::uint64_t mant = 0;
    for (int k = msb; k >= lsb; --k) mant = 2 * mant + mag[k];
    const bool round = lsb > 0 && mag[lsb - 1] != 0;
    bool sticky = false;
    for (int k = 0; k + 1 < lsb; ++k) sticky = sticky || mag[k] != 0;
    if (round && (sticky || (mant & 1) != 0)) ++mant;
    const double r = std::ldexp(static_cast<double>(mant), lsb - 1074);
    return neg ? -r : r;
  }

private:
  static constexpr int kBits = 2300;
  static void negate(std::vector<int>& b) {
    int carry = 1;
    for (int& bit : b) {
      const int sum = (bit ^ 1) + carry;
      bit = sum & 1;
      carry = sum >> 1;
    }
  }
  std::vector<int> bits_ = std::vector<int>(kBits, 0);
  bool special_ = false;
};

inline std::uint64_t bits_of(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

/// A tile of products: x[j·stride + i] · y[j·stride + i], i < ni, j < nj.
struct DotTile {
  const char* name = "";
  std::size_t ni = 0, nj = 0;
  std::ptrdiff_t stride = 0;
  std::vector<double> x, y;

  DotTile(const char* n, std::size_t ni_, std::size_t nj_, std::size_t pad)
      : name(n), ni(ni_), nj(nj_),
        stride(static_cast<std::ptrdiff_t>(ni_ + pad)),
        x(nj_ * (ni_ + pad), 0.0), y(nj_ * (ni_ + pad), 0.0) {}

  std::size_t at(std::size_t i, std::size_t j) const {
    return j * static_cast<std::size_t>(stride) + i;
  }
  /// Set product (i, j) to a·b.
  void set(std::size_t i, std::size_t j, double a, double b) {
    x[at(i, j)] = a;
    y[at(i, j)] = b;
  }

  double slow() const {
    SlowSum s;
    for (std::size_t j = 0; j < nj; ++j)
      for (std::size_t i = 0; i < ni; ++i) s.add(x[at(i, j)] * y[at(i, j)]);
    return s.value();
  }
  double exact() const {
    ExactSum s;
    s.add_dot_rows(x.data(), stride, y.data(), stride, ni, nj);
    return s.value();
  }
};

/// A significand in [1, 2) with a random sign.
inline double signed_unit(Rng& r) {
  const double m = 1.0 + r.uniform();
  return r.below(2) != 0 ? m : -m;
}

/// The tiles that drive each path of the one-pass kernel: re-anchors,
/// rollbacks, spills at the add cap, the third fold and the
/// product-by-product sum.
inline std::vector<DotTile> one_pass_tiles() {
  Rng r(2026);
  std::vector<DotTile> out;

  // Each row's products are 2^5 times the last row's, beyond the
  // re-anchor headroom, so every row re-anchors; the earlier rows stay in
  // the sum, so a row counted twice (or dropped) shows.
  DotTile rising("rising rows", 37, 30, 3);
  for (std::size_t j = 0; j < rising.nj; ++j)
    for (std::size_t i = 0; i < rising.ni; ++i)
      rising.set(i, j, std::ldexp(1.0 + r.uniform(), 3 * static_cast<int>(j)),
                 std::ldexp(signed_unit(r), 2 * static_cast<int>(j)));
  out.push_back(rising);

  // Products near 1, then a cancelling ±2^400 pair in the last row: that
  // row re-anchors far above its other products, which only the
  // product-by-product sum can carry beside it.
  DotTile huge("huge product in the last row", 50, 12, 3);
  for (std::size_t j = 0; j < huge.nj; ++j)
    for (std::size_t i = 0; i < huge.ni; ++i)
      huge.set(i, j, signed_unit(r), std::ldexp(signed_unit(r), -7));
  huge.set(0, huge.nj - 1, 0x1p200, 0x1p200);
  huge.set(huge.ni - 1, huge.nj - 1, 0x1p200, -0x1p200);
  out.push_back(huge);

  // The same with a product beyond the fold range (binade 1020), alone in
  // its last row, so the total rounds to it.
  DotTile top("product beyond the fold range", 50, 12, 3);
  for (std::size_t j = 0; j < top.nj; ++j)
    for (std::size_t i = 0; i < top.ni; ++i)
      top.set(i, j, signed_unit(r), signed_unit(r));
  top.set(7, top.nj - 1, 0x1p510, 0x1.8p510);
  out.push_back(top);

  // Cancelling ±2^40 products anchor every row; the others lie 50 to 75
  // binades below them with full significands, so their lowest bits sit
  // 100 to 130 bits below the anchor: the third fold carries them, and the
  // cancellation brings them into the rounded result.
  DotTile third("third fold", 64, 16, 0);
  for (std::size_t j = 0; j < third.nj; ++j) {
    for (std::size_t i = 0; i < third.ni; ++i) {
      const int e = -10 - static_cast<int>(r.below(26));
      third.set(i, j, std::ldexp(1.0 + r.uniform(), e / 2),
                std::ldexp(signed_unit(r), e - e / 2));
    }
    third.set(0, j, 0x1p20, 0x1p20);
    third.set(1, j, 0x1p20, -0x1p20);
  }
  out.push_back(third);

  // As above, 95 to 115 binades below: lowest bits beyond 130 bits, so the
  // window is summed product by product.
  DotTile deep("beyond three folds", 64, 16, 0);
  for (std::size_t j = 0; j < deep.nj; ++j) {
    for (std::size_t i = 0; i < deep.ni; ++i) {
      const int e = -55 - static_cast<int>(r.below(21));
      deep.set(i, j, std::ldexp(1.0 + r.uniform(), e / 2),
               std::ldexp(signed_unit(r), e - e / 2));
    }
    deep.set(0, j, 0x1p20, 0x1p20);
    deep.set(1, j, 0x1p20, -0x1p20);
  }
  out.push_back(deep);

  // One product per row, more rows than the carry budget: every row is a
  // whole group, and the lanes spill at the add cap.
  DotTile column("one-element rows", 1, 3000, 1);
  for (std::size_t j = 0; j < column.nj; ++j)
    column.set(0, j, std::ldexp(1.0 + r.uniform(), -static_cast<int>(r.below(20))),
               signed_unit(r));
  out.push_back(column);

  // Rows longer than one segment at either width.
  DotTile wide("rows longer than a segment", 5000, 2, 3);
  for (std::size_t j = 0; j < wide.nj; ++j)
    for (std::size_t i = 0; i < wide.ni; ++i)
      wide.set(i, j, std::ldexp(1.0 + r.uniform(), -static_cast<int>(r.below(12))),
               signed_unit(r));
  out.push_back(wide);

  // All-zero rows first and between non-zero rows: the first anchor sits
  // at the bottom of the range and the first non-zero row re-anchors.
  DotTile zeros("all-zero rows", 40, 12, 1);
  for (std::size_t j = 0; j < zeros.nj; ++j) {
    if (j < 2 || j == 5 || j == 6 || j == 11) continue;
    for (std::size_t i = 0; i < zeros.ni; ++i)
      zeros.set(i, j, signed_unit(r), std::ldexp(signed_unit(r), -30));
  }
  out.push_back(zeros);

  // Products in the subnormal range only.
  DotTile sub("subnormals only", 30, 10, 2);
  for (std::size_t j = 0; j < sub.nj; ++j)
    for (std::size_t i = 0; i < sub.ni; ++i)
      sub.set(i, j, std::ldexp(signed_unit(r), -1000),
              std::ldexp(signed_unit(r), -40 - static_cast<int>((i + j) % 40)));
  out.push_back(sub);
  return out;
}

/// Three operand tiles at one row stride for gang sweeps.
struct GangTile {
  const char* name = "";
  std::size_t ni = 0, nj = 0;
  std::ptrdiff_t stride = 0;
  std::array<std::vector<double>, 3> op;

  const double* base(int d) const { return op[static_cast<std::size_t>(d)].data(); }

  /// SlowSum of Σ op[a]·op[b] over the tile.
  double slow(int a, int b) const {
    SlowSum s;
    for (std::size_t j = 0; j < nj; ++j)
      for (std::size_t i = 0; i < ni; ++i) {
        const std::size_t k = j * static_cast<std::size_t>(stride) + i;
        s.add(op[static_cast<std::size_t>(a)][k] * op[static_cast<std::size_t>(b)][k]);
      }
    return s.value();
  }
  /// The same pair through add_dot_rows alone.
  double rows(int a, int b) const {
    ExactSum s;
    s.add_dot_rows(base(a), stride, base(b), stride, ni, nj);
    return s.value();
  }
};

/// Operands whose rows rise by 2^2 to 2^5 a row and whose products span
/// up to `binades` binades within a row, so pairs re-anchor, spill, and
/// (for wide spans) take the third fold or the product-by-product sum.
inline GangTile gang_tile(const char* name, std::size_t ni, std::size_t nj,
                          int binades, std::uint64_t seed) {
  Rng r(seed);
  GangTile g;
  g.name = name;
  g.ni = ni;
  g.nj = nj;
  g.stride = static_cast<std::ptrdiff_t>(ni + 2);
  for (int d = 0; d < 3; ++d) {
    auto& v = g.op[static_cast<std::size_t>(d)];
    v.assign(nj * (ni + 2), 0.0);
    for (std::size_t j = 0; j < nj; ++j)
      for (std::size_t i = 0; i < ni; ++i)
        v[j * (ni + 2) + i] = std::ldexp(
            signed_unit(r), (d + 2) * static_cast<int>(j % 8) -
                                static_cast<int>(r.below(static_cast<std::uint64_t>(binades / 2 + 1))));
  }
  return g;
}

/// The gang tiles: short ragged rows, rows longer than a gang segment,
/// and spans past the third fold.
inline std::vector<GangTile> gang_tiles() {
  return {gang_tile("ragged rows", 37, 19, 20, 1),
          gang_tile("long rows", 1100, 3, 12, 2),
          gang_tile("wide spans", 29, 11, 150, 3)};
}

/// Gang patterns over operands {0, 1, 2}: each shape with a sweep of its
/// own, then patterns that run one pair per sweep (two pairs sharing one
/// operand, a pair twice), then more pairs than one gang holds, which take
/// two sweeps.
inline const std::vector<std::vector<std::array<int, 2>>>& gang_patterns() {
  static const std::vector<std::vector<std::array<int, 2>>> p = {
      {{0, 1}},
      {{2, 2}},
      {{1, 2}, {1, 1}},
      {{2, 0}, {0, 0}},
      {{0, 1}, {0, 0}, {1, 1}},
      {{2, 2}, {0, 1}},
      {{2, 2}, {0, 1}, {0, 0}},
      {{0, 1}, {0, 2}, {1, 2}},
      {{0, 1}, {1, 2}},
      {{0, 1}, {1, 0}, {2, 1}},
      {{0, 1}, {0, 0}, {1, 1}, {2, 2}, {0, 2}},
  };
  return p;
}

/// Run one pattern over a gang tile: the pairs' values, in order.
inline std::vector<double> run_gang(const GangTile& g,
                                    const std::vector<std::array<int, 2>>& pairs) {
  std::vector<ExactSum> acc(pairs.size());
  ExactSum::Gang gang(g.stride, g.ni, g.nj);
  for (std::size_t k = 0; k < pairs.size(); ++k)
    gang.add(g.base(pairs[k][0]), g.base(pairs[k][1]), &acc[k]);
  gang.sweep();
  std::vector<double> out;
  for (const ExactSum& a : acc) out.push_back(a.value());
  return out;
}

/// The gang {b·b, r·z, r·r} with z[5] = special at row 3: r·z turns
/// non-finite while b·b and r·r stay finite.  Returns the three values.
inline std::array<double, 3> special_gang(double special) {
  GangTile g = gang_tile("special", 23, 7, 10, 9);
  g.op[1][3 * static_cast<std::size_t>(g.stride) + 5] = 10.0;
  g.op[2][3 * static_cast<std::size_t>(g.stride) + 5] = special;
  const auto v = run_gang(g, {{0, 0}, {1, 2}, {1, 1}});
  EXPECT_EQ(bits_of(v[0]), bits_of(g.slow(0, 0)));
  EXPECT_EQ(bits_of(v[2]), bits_of(g.slow(1, 1)));
  return {v[0], v[1], v[2]};
}

}  // namespace v2d::exact_cases
