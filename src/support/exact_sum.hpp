#pragma once
/// \file exact_sum.hpp
/// \brief Exact, order-free summation of doubles (global reductions).
///
/// BiCGSTAB trajectories are exquisitely sensitive to inner-product
/// rounding, and plain summation groups terms differently under every
/// NPRX1×NPRX2 tiling, SIMD width and host-thread count — which would make
/// iteration counts (and therefore Table I timings) depend on the
/// decomposition through noise rather than through communication.
/// ExactSum removes the grouping from the result altogether: it keeps the
/// sum of its addends exactly and rounds once, in value().  For an inner
/// product the addends are the once-rounded products x_i·y_i, so any split
/// of the work over lanes, rows, ranks or threads, merged in any order,
/// gives the same double by construction.
///
/// The store is Neal's "small superaccumulator" (R. M. Neal, "Fast exact
/// summation using small and large superaccumulators", arXiv:1505.05571):
/// 67 signed 64-bit chunks, each holding 32 value bits, so chunk c weighs
/// 2^(32c − 1074) and the whole double range fits with room for carries.
/// A chunk gains under 2^52 per add, so carries are propagated at least
/// once every 2^11 adds.  Special values are kept apart from the finite
/// sum: any NaN, or infinities of both signs, give NaN; infinities of one
/// sign give that infinity; a finite sum beyond DBL_MAX rounds to ±Inf.
///
/// add_dot_rows() is the fast path for tiles of products.  Its block kernel
/// splits each product exactly into three anchored folds held in lane
/// accumulators of fixed binade (Rump-style extraction against the block's
/// largest product), checks that nothing is left over, and hands the
/// exact fold totals to the chunks; a block it cannot represent is summed
/// product by product instead.  Either way the result is the same.

#include <cstddef>
#include <cstdint>

namespace v2d {

class ExactSum {
public:
  /// Add one double exactly.
  void add(double v);

  /// Add another accumulator's sum exactly (a chunk-wise integer add).
  void add(const ExactSum& o);

  /// Add Σ x[j·x_stride + i] · y[j·y_stride + i] over i < ni, j < nj: the
  /// exact sum of the once-rounded products of one ni × nj tile.
  void add_dot_rows(const double* x, std::ptrdiff_t x_stride,
                    const double* y, std::ptrdiff_t y_stride, std::size_t ni,
                    std::size_t nj);

  /// The exact sum rounded to nearest, ties to even (+0.0 when it is zero).
  double value() const;

  bool operator==(const ExactSum&) const = default;

private:
  static constexpr int kChunks = 67;

  /// Add a block's three fold totals: units[f] · 2^(pos − 40f − 1074), with
  /// |units[f]| < 2^55 and every weight inside the chunk range.
  void add_fold_totals(const std::int64_t* units, int pos);
  void add_products(const double* x, std::ptrdiff_t x_stride, const double* y,
                    std::ptrdiff_t y_stride, std::size_t ni, std::size_t nj);
  /// Called after every add: propagates carries when the budget runs out.
  void count_add(int adds);
  void propagate();

  std::int64_t chunk_[kChunks] = {};
  std::int32_t pending_ = 0;  ///< adds since the last carry propagation
  bool nan_ = false;
  bool pos_inf_ = false;
  bool neg_inf_ = false;
};

}  // namespace v2d
