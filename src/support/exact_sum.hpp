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
/// add_dot_rows() and Gang are the fast paths for tiles of products.  One
/// sweep forms each product once and folds it into lane accumulators of
/// fixed binade, as ExBLAS keeps its expansions in registers (Collange et
/// al., Parallel Computing 2015).  The folds are
/// anchored at a binade A that bounds every product folded, |p| < 2^(A+1):
/// fold f's lanes start at 1.5·2^k_f, with k₁ = A + 10 and each further
/// fold 44 binades lower.  While a lane stays in its binade, adding a
/// product to it is a FastTwoSum whose high part lands on the binade's ulp
/// grid exactly and whose residue, at most half that ulp, feeds the next
/// fold.  Two folds thus carry every product whose lowest set bit lies
/// within 86 bits of the anchor, and a third fold 130 bits.
///
/// The fold constants come from the add cap.  A lane takes at most n = 2^8
/// adds between spills, one per group of products, so a ragged tail or a
/// one-element row counts as a whole group.  n products below 2^(A+1) move
/// a lane of the first fold by at most 2^(A+1+log2 n), half its binade once
/// k₁ − A = log2 n + 2.  n residues of at most 2^(k_f − 53) move a lane of
/// the next fold by at most half its binade once the stride is
/// 52 − log2 n.
///
/// The anchor follows the data within the one pass, as ReproBLAS re-bins
/// when its running maximum grows (Demmel and Nguyen, IEEE TC 2015).  The
/// tile's first group of products sets it, and each row's largest
/// |product|, kept in registers while the row is folded, is compared with
/// it at the row's end.  A row that exceeds the anchor is rolled back to
/// the lane state saved at its start, the earlier rows are spilled, and
/// the row is folded again at its own maximum plus two binades.  A spill
/// adds the lanes' totals to the chunks.  The totals are exact because
/// every product in the lanes met the bound it was folded under, and the
/// rolled-back row's lanes are never read.  A spill also checks that each
/// lane ended in its binade and that the last fold kept no residue.  If
/// either check fails, the rows since the previous spill are folded again
/// with a third fold, and failing that are summed product by product.  A
/// NaN or infinite product, and a row whose anchor would leave the double
/// range, go product by product too.  Every path adds the same exact
/// value, so which one ran never shows in the result.
///
/// A Gang sweeps a tile once for up to three pairs over up to three
/// distinct operands: it loads each operand once per element and keeps an
/// anchor and lanes per pair.

#include <cstddef>
#include <cstdint>

namespace v2d {

class ExactSum {
public:
  /// Inner products over one ni × nj tile whose operands share a row
  /// stride, summed in gang sweeps: each sweep reads the tile once for up
  /// to kMax pairs over up to kMax distinct operands, loading each operand
  /// once per element.  Pair k adds Σ x[j·stride + i]·y[j·stride + i] to
  /// its accumulator, as add_dot_rows would.
  class Gang {
  public:
    static constexpr int kMax = 3;

    Gang(std::ptrdiff_t stride, std::size_t ni, std::size_t nj)
        : stride_(stride), ni_(ni), nj_(nj) {}

    /// Add the pair x·y, summed into *acc.  An operand already in the gang
    /// is reused.  When the pair does not fit, the pairs held so far are
    /// swept first and the pair starts the next gang.
    void add(const double* x, const double* y, ExactSum* acc);

    /// Sweep the pairs held, if any.  Call it once after the last add.
    void sweep();

  private:
    /// Add the pair when it fits; false, changing nothing, when not.
    bool fit(const double* x, const double* y, ExactSum* acc);

    std::ptrdiff_t stride_;
    std::size_t ni_, nj_;
    const double* op_[kMax] = {};
    ExactSum* acc_[kMax] = {};
    std::uint8_t a_[kMax] = {};  ///< pair k multiplies op_[a_[k]] …
    std::uint8_t b_[kMax] = {};  ///< … by op_[b_[k]], a_[k] ≤ b_[k]
    int nops_ = 0;
    int npairs_ = 0;
  };

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
  struct Sweep;  ///< the tile kernels (exact_sum.cpp)

  static constexpr int kChunks = 67;

  /// Add the fold totals of lanes anchored at `anchor`: units[f] ulps of
  /// fold f for f < nfolds, each |units[f]| < 2^55.
  void add_fold_totals(const std::int64_t* units, int nfolds, int anchor);
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
