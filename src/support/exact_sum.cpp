#include "support/exact_sum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/simd.hpp"

namespace v2d {

namespace {

constexpr std::uint64_t kSignBit = 1ull << 63;
constexpr std::uint64_t kMantMask = (1ull << 52) - 1;
constexpr std::int64_t kLow32 = 0xffffffff;
constexpr std::int64_t kAbsMask = 0x7fffffffffffffff;

/// A propagated chunk holds < 2^32 and every add moves it by < 2^52, so
/// 2^11 − 1 adds keep |chunk| < 2^63.
constexpr std::int32_t kCarryBudget = (1 << 11) - 1;

// --- block kernel -----------------------------------------------------------
//
// A block is a set of whole rows (or one slice of a long row) of at most
// kBlock products.  Pass 1 finds the largest |product|; its binade E anchors
// three folds whose lane accumulators start at 1.5·2^k for
// k = E + 14, E − 26, E − 66.  A lane receives at most 2^11 adds per block,
// each under 2^(k−13), so it never leaves the binade [2^k, 2^(k+1)): every
// fold is a FastTwoSum whose high part lands on the ulp grid 2^(k−52)
// exactly and whose residue, at most half that ulp, feeds the next fold.
// A product leaves a residue after the third fold only when it has bits
// below 2^(E−118); then (or when a lane is somehow out of its binade, or a
// product is not finite) the block is summed product by product instead.

constexpr std::size_t kBlock = 2048;  ///< products per block (≤ 2^11 / lane)
constexpr int kFolds = 3;
constexpr int kFoldHead = 14;    ///< k₁ − E
constexpr int kFoldStride = 40;  ///< k_f − k_{f+1}
/// Lowest anchor whose third fold is still a normal binade (k₃ ≥ −1022).
/// Its grid is 2^−1074, so every double folds without residue.
constexpr int kMinAnchor = -1022 + 2 * kFoldStride - kFoldHead;
/// Highest anchor whose first fold is still a finite binade (k₁ ≤ 1023).
constexpr int kMaxAnchor = 1023 - kFoldHead;

/// The kernel bodies are instantiated per register width: 16 bytes for the
/// generic build (SSE2), 32 for AVX2.  Each fold keeps two registers of
/// lanes, so the generic body runs 4 lanes per fold and the AVX2 body 8.
template <int Bytes>
struct Reg {
  typedef double D __attribute__((vector_size(Bytes)));
  typedef std::int64_t I __attribute__((vector_size(Bytes)));
  static constexpr std::size_t kLanes = Bytes / sizeof(double);
};

/// One register of lanes of the three folds, plus the OR of their last
/// residues.
template <int Bytes>
struct Folds {
  typename Reg<Bytes>::D f0, f1, f2;
  typename Reg<Bytes>::I resid;
};

/// A block's three fold totals, each an exact integer count of its fold's
/// ulp (2^(k−52) with k = anchor + kFoldHead − f·kFoldStride), or
/// exact = false when the block must be summed product by product.
struct FoldTotals {
  std::int64_t units[kFolds];
  int anchor;
  bool exact;
};

template <int Bytes>
V2D_SIMD_BODY void fold(Folds<Bytes>& q, const double* px, const double* py) {
  using D = typename Reg<Bytes>::D;
  using I = typename Reg<Bytes>::I;
  D vx, vy;
  std::memcpy(&vx, px, sizeof vx);
  std::memcpy(&vy, py, sizeof vy);
  D e = vx * vy;
  D s = q.f0 + e;
  e -= s - q.f0;
  q.f0 = s;
  s = q.f1 + e;
  e -= s - q.f1;
  q.f1 = s;
  s = q.f2 + e;
  e -= s - q.f2;
  q.f2 = s;
  q.resid |= (I)e;
}

/// Pass 1: max |x_i·y_i| over the block (NaN products are ignored here and
/// caught by pass 2's residues).
template <int Bytes>
V2D_SIMD_BODY double block_max_abs_product(const double* x, std::ptrdiff_t xs,
                                           const double* y, std::ptrdiff_t ys,
                                           std::size_t ni, std::size_t nj) {
  using D = typename Reg<Bytes>::D;
  using I = typename Reg<Bytes>::I;
  constexpr std::size_t L = Reg<Bytes>::kLanes;
  I abs, zero;
  for (std::size_t l = 0; l < L; ++l) {
    abs[l] = kAbsMask;
    zero[l] = 0;
  }
  D m0 = (D)zero, m1 = (D)zero;
  double m = 0.0;
  for (std::size_t j = 0; j < nj; ++j) {
    const double* xr = x + static_cast<std::ptrdiff_t>(j) * xs;
    const double* yr = y + static_cast<std::ptrdiff_t>(j) * ys;
    std::size_t i = 0;
    for (; i + 2 * L <= ni; i += 2 * L) {
      D x0, x1, y0, y1;
      std::memcpy(&x0, xr + i, sizeof x0);
      std::memcpy(&x1, xr + i + L, sizeof x1);
      std::memcpy(&y0, yr + i, sizeof y0);
      std::memcpy(&y1, yr + i + L, sizeof y1);
      const D p0 = (D)((I)(x0 * y0) & abs);
      const D p1 = (D)((I)(x1 * y1) & abs);
      m0 = p0 > m0 ? p0 : m0;  // maxpd: a NaN p leaves m as it was
      m1 = p1 > m1 ? p1 : m1;
    }
    for (; i < ni; ++i) {
      const double p = std::fabs(xr[i] * yr[i]);
      if (p > m) m = p;
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    if (m0[l] > m) m = m0[l];
    if (m1[l] > m) m = m1[l];
  }
  return m;
}

/// One block: pass 1 anchors the folds, pass 2 folds every product into
/// the lane accumulators (zero-padded tails keep each row on the lane
/// grid), and the lanes are read back as exact fold totals.
template <int Bytes>
V2D_SIMD_BODY void fold_block(const double* x, std::ptrdiff_t xs,
                              const double* y, std::ptrdiff_t ys,
                              std::size_t ni, std::size_t nj, FoldTotals* out) {
  constexpr std::size_t L = Reg<Bytes>::kLanes;
  // mx is +0 or positive and never NaN; an infinite product lands here as
  // an anchor of 1024.
  const double mx = block_max_abs_product<Bytes>(x, xs, y, ys, ni, nj);
  out->anchor = std::max(
      static_cast<int>(std::bit_cast<std::uint64_t>(mx) >> 52) - 1023,
      kMinAnchor);
  out->exact = out->anchor <= kMaxAnchor;
  if (!out->exact) return;
  std::uint64_t binade[kFolds];
  double c[kFolds];
  for (int f = 0; f < kFolds; ++f) {
    binade[f] = static_cast<std::uint64_t>(out->anchor + kFoldHead -
                                           f * kFoldStride + 1023);
    c[f] = std::bit_cast<double>(binade[f] << 52 | 1ull << 51);
  }

  Folds<Bytes> lo;
  for (std::size_t l = 0; l < L; ++l) {
    lo.f0[l] = c[0];
    lo.f1[l] = c[1];
    lo.f2[l] = c[2];
    lo.resid[l] = 0;
  }
  Folds<Bytes> hi = lo;
  for (std::size_t j = 0; j < nj; ++j) {
    const double* xr = x + static_cast<std::ptrdiff_t>(j) * xs;
    const double* yr = y + static_cast<std::ptrdiff_t>(j) * ys;
    std::size_t i = 0;
    for (; i + 2 * L <= ni; i += 2 * L) {
      fold(lo, xr + i, yr + i);
      fold(hi, xr + i + L, yr + i + L);
    }
    if (i < ni) {
      double tx[2 * L] = {}, ty[2 * L] = {};
      for (std::size_t t = 0; i + t < ni; ++t) {
        tx[t] = xr[i + t];
        ty[t] = yr[i + t];
      }
      fold(lo, tx, ty);
      fold(hi, tx + L, ty + L);
    }
  }

  // Each lane holds 1.5·2^k plus its fold's exact total; in the binade the
  // mantissa field minus 2^51 counts that total in ulps.
  std::uint64_t resid = 0, outside = 0;
  for (int f = 0; f < kFolds; ++f) out->units[f] = 0;
  const auto take = [&](int f, double lane) {
    const auto b = std::bit_cast<std::uint64_t>(lane);
    outside |= (b >> 52) ^ binade[f];
    out->units[f] += static_cast<std::int64_t>(b & kMantMask) - (1ll << 51);
  };
  for (std::size_t l = 0; l < L; ++l) {
    take(0, lo.f0[l]);
    take(0, hi.f0[l]);
    take(1, lo.f1[l]);
    take(1, hi.f1[l]);
    take(2, lo.f2[l]);
    take(2, hi.f2[l]);
    resid |= static_cast<std::uint64_t>(lo.resid[l] | hi.resid[l]);
  }
  out->exact = (resid & ~kSignBit) == 0 && outside == 0;
}

}  // namespace

void ExactSum::add(double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  const int e = static_cast<int>((u >> 52) & 0x7ff);
  std::uint64_t m = u & kMantMask;
  if (e == 0x7ff) {
    if (m != 0)
      nan_ = true;
    else if ((u & kSignBit) != 0)
      neg_inf_ = true;
    else
      pos_inf_ = true;
    return;
  }
  int pos = 0;  // weight of m's last bit is 2^(pos − 1074)
  if (e == 0) {
    if (m == 0) return;
  } else {
    m |= 1ull << 52;
    pos = e - 1;
  }
  const int ix = pos >> 5, sh = pos & 31;
  const auto lo = static_cast<std::int64_t>((m << sh) & kLow32);
  const auto hi = static_cast<std::int64_t>(m >> (32 - sh));
  if ((u & kSignBit) != 0) {
    chunk_[ix] -= lo;
    chunk_[ix + 1] -= hi;
  } else {
    chunk_[ix] += lo;
    chunk_[ix + 1] += hi;
  }
  count_add(1);
}

void ExactSum::add(const ExactSum& o) {
  nan_ = nan_ || o.nan_;
  pos_inf_ = pos_inf_ || o.pos_inf_;
  neg_inf_ = neg_inf_ || o.neg_inf_;
  // Each of o's chunks is bounded like one of ours after o.pending_ + 1
  // adds.
  if (pending_ + o.pending_ + 1 > kCarryBudget) propagate();
  for (int c = 0; c < kChunks; ++c) chunk_[c] += o.chunk_[c];
  count_add(o.pending_ + 1);
}

void ExactSum::add_fold_totals(const std::int64_t* units, int pos) {
  // Each total moves at most three chunks by < 2^32, and the three totals
  // together still move any one chunk by < 2^52: one add for the budget.
  for (int f = 0; f < kFolds; ++f, pos -= kFoldStride) {
    if (units[f] == 0) continue;
    const std::uint64_t m = units[f] < 0
                                ? 0 - static_cast<std::uint64_t>(units[f])
                                : static_cast<std::uint64_t>(units[f]);
    const int ix = pos >> 5, sh = pos & 31;
    const auto c0 = static_cast<std::int64_t>((m << sh) & kLow32);
    const auto c1 = static_cast<std::int64_t>((m >> (32 - sh)) & kLow32);
    const auto c2 = static_cast<std::int64_t>(sh == 0 ? 0 : m >> (64 - sh));
    if (units[f] < 0) {
      chunk_[ix] -= c0;
      chunk_[ix + 1] -= c1;
      chunk_[ix + 2] -= c2;
    } else {
      chunk_[ix] += c0;
      chunk_[ix + 1] += c1;
      chunk_[ix + 2] += c2;
    }
  }
  count_add(1);
}

void ExactSum::count_add(int adds) {
  pending_ += adds;
  if (pending_ >= kCarryBudget) propagate();
}

void ExactSum::propagate() {
  for (int c = 0; c + 1 < kChunks; ++c) {
    const std::int64_t v = chunk_[c];
    chunk_[c] = v & kLow32;
    chunk_[c + 1] += v >> 32;
  }
  pending_ = 0;
}

void ExactSum::add_products(const double* x, std::ptrdiff_t x_stride,
                            const double* y, std::ptrdiff_t y_stride,
                            std::size_t ni, std::size_t nj) {
  for (std::size_t j = 0; j < nj; ++j) {
    const double* xr = x + static_cast<std::ptrdiff_t>(j) * x_stride;
    const double* yr = y + static_cast<std::ptrdiff_t>(j) * y_stride;
    for (std::size_t i = 0; i < ni; ++i) add(xr[i] * yr[i]);
  }
}

void ExactSum::add_dot_rows(const double* x, std::ptrdiff_t x_stride,
                            const double* y, std::ptrdiff_t y_stride,
                            std::size_t ni, std::size_t nj) {
  if (ni == 0 || nj == 0) return;
  const std::size_t cols_per_block = std::min(ni, kBlock);
  const std::size_t rows_per_block = std::max<std::size_t>(1, kBlock / ni);
  for (std::size_t j = 0; j < nj; j += rows_per_block) {
    const std::size_t rows = std::min(rows_per_block, nj - j);
    const double* xb = x + static_cast<std::ptrdiff_t>(j) * x_stride;
    const double* yb = y + static_cast<std::ptrdiff_t>(j) * y_stride;
    for (std::size_t i = 0; i < ni; i += cols_per_block) {
      const std::size_t cols = std::min(cols_per_block, ni - i);
      FoldTotals t{};
      simd::dispatch<&fold_block<16>, &fold_block<32>>(
          xb + i, x_stride, yb + i, y_stride, cols, rows, &t);
      if (t.exact)
        add_fold_totals(t.units, t.anchor + kFoldHead + 1022);
      else
        add_products(xb + i, x_stride, yb + i, y_stride, cols, rows);
    }
  }
}

double ExactSum::value() const {
  if (nan_ || (pos_inf_ && neg_inf_))
    return std::numeric_limits<double>::quiet_NaN();
  if (pos_inf_) return std::numeric_limits<double>::infinity();
  if (neg_inf_) return -std::numeric_limits<double>::infinity();

  ExactSum t = *this;
  t.propagate();
  // Chunks 0..65 now hold 32 value bits each; the top chunk carries the
  // sign.  Take the magnitude as 32-bit limbs (two's-complement negate).
  const bool neg = t.chunk_[kChunks - 1] < 0;
  std::uint32_t mag[kChunks + 3] = {};
  std::int64_t borrow = 0;
  for (int c = 0; c + 1 < kChunks; ++c) {
    const std::int64_t d = neg ? borrow - t.chunk_[c] : t.chunk_[c];
    mag[c] = static_cast<std::uint32_t>(d & kLow32);
    borrow = d >> 32;
  }
  const std::int64_t top =
      neg ? borrow - t.chunk_[kChunks - 1] : t.chunk_[kChunks - 1];
  mag[kChunks - 1] = static_cast<std::uint32_t>(top & kLow32);
  mag[kChunks] = static_cast<std::uint32_t>(top >> 32);

  int hi = kChunks;
  while (hi >= 0 && mag[hi] == 0) --hi;
  if (hi < 0) return 0.0;
  const int msb = 32 * hi + 31 - std::countl_zero(mag[hi]);
  // The result's last place: 53 significant bits, or the subnormal grid.
  const int lsb = std::max(msb - 52, 0);
  const int ix = lsb >> 5, sh = lsb & 31;
  std::uint64_t w =
      (mag[ix] | static_cast<std::uint64_t>(mag[ix + 1]) << 32) >> sh;
  if (sh > 0) w |= static_cast<std::uint64_t>(mag[ix + 2]) << (64 - sh);
  std::uint64_t mant = w & ((2ull << (msb - lsb)) - 1);
  if (lsb > 0) {
    const int rb = lsb - 1;  // the round bit
    const bool round = ((mag[rb >> 5] >> (rb & 31)) & 1) != 0;
    bool sticky = (mag[rb >> 5] & ((1u << (rb & 31)) - 1)) != 0;
    for (int c = 0; c < (rb >> 5) && !sticky; ++c) sticky = mag[c] != 0;
    if (round && (sticky || (mant & 1) != 0)) ++mant;
  }
  const double r = std::ldexp(static_cast<double>(mant), lsb - 1074);
  return neg ? -r : r;
}

}  // namespace v2d
