#include "support/exact_sum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

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

// --- tile kernel --------------------------------------------------------------
//
// A sweep walks a tile in segments: whole rows, or slices of kCap groups of
// a longer row.  Each pair keeps its own lanes, anchor and window (the
// products folded since its last spill).  See exact_sum.hpp for the scheme
// and why each path is exact.

/// Adds per lane between spills: one per group of products.
constexpr int kCapLog2 = 8;
constexpr std::size_t kCap = std::size_t{1} << kCapLog2;
/// k₁ − A: kCap adds below 2^(A+1) move a first-fold lane by at most half
/// its binade.
constexpr int kFoldHead = 10;
/// k_f − k_{f+1}: kCap residues of at most 2^(k_f − 53) move a lane of the
/// next fold by at most half its binade.
constexpr int kFoldStride = 44;
static_assert(kFoldHead >= kCapLog2 + 2 && kFoldStride <= 52 - kCapLog2,
              "the add cap bounds each lane's drift to half its binade");
constexpr int kMaxFolds = 3;
/// Registers of lanes per fold for a lone pair (a gang's pairs take one
/// each): enough independent lane chains to overlap.  A refold uses as
/// many, so it never adds more often per lane than the sweep did.
constexpr int kRegs = 4;
/// A re-anchor puts the anchor this many binades above the row's maximum.
constexpr int kHeadroom = 2;
/// Lowest anchor whose third fold is still a normal binade (k₃ ≥ −1022).
/// Its grid is 2^−1074, so every double folds without residue.
constexpr int kMinAnchor = -1022 + (kMaxFolds - 1) * kFoldStride - kFoldHead;
/// Highest anchor whose first fold is still a finite binade (k₁ ≤ 1023).
constexpr int kMaxAnchor = 1023 - kFoldHead;

/// The pairs of one sweep, as a template argument: pair k multiplies
/// operand a[k] by operand b[k] (a[k] ≤ b[k]), so each operand register is
/// loaded once per group and read by every pair that uses it.
struct Shape {
  int nops = 0;
  int npairs = 0;
  std::uint8_t a[ExactSum::Gang::kMax] = {};
  std::uint8_t b[ExactSum::Gang::kMax] = {};
  constexpr bool operator==(const Shape&) const = default;
};

constexpr Shape kSquare{1, 1, {0}, {0}};   // x·x
constexpr Shape kProduct{2, 1, {0}, {1}};  // x·y
/// The shapes with a sweep of their own: the lone dots, the solvers'
/// gangs and the three cross dots of three vectors, their operands
/// numbered in order of first use.  Any other gang runs one pair per
/// sweep.
constexpr Shape kShapes[] = {
    kSquare,
    kProduct,
    {2, 2, {0, 0}, {1, 0}},        // CG: {r·z, r·r}
    {2, 2, {0, 1}, {1, 1}},        // fused CG tails: {z·r, r·r}
    {2, 3, {0, 0, 1}, {1, 0, 1}},  // BiCGSTAB: {t·s, t·t, s·s}
    {3, 2, {0, 1}, {0, 2}},        // BiCGSTAB: {b·b, r̂·r}
    {3, 3, {0, 1, 1}, {0, 2, 1}},  // CG: {b·b, r·z, r·r}
    {3, 3, {0, 0, 1}, {1, 2, 2}},  // three vectors' cross dots
};

/// Position of `s` in kShapes, or the table's size when it has none.
constexpr std::size_t shape_index(const Shape& s) {
  std::size_t i = 0;
  while (i < std::size(kShapes) && !(kShapes[i] == s)) ++i;
  return i;
}

/// The kernel bodies are instantiated per register width: 16 bytes for the
/// generic build (SSE2), 32 for AVX2.
template <int Bytes>
struct Reg {
  typedef double D __attribute__((vector_size(Bytes)));
  typedef std::int64_t I __attribute__((vector_size(Bytes)));
  typedef std::uint64_t U __attribute__((vector_size(Bytes)));
  static constexpr std::size_t kLanes = Bytes / sizeof(double);
};

/// One pair's lane state: F folds of R registers of lanes, the largest
/// |product| folded since the segment began (per lane), and the OR of the
/// last fold's residues.  The sweeps pass it by reference, so a caller's
/// own row loop can carry it in registers.
template <int Bytes, int F, int R>
struct Lanes {
  typename Reg<Bytes>::D f[F][R];
  typename Reg<Bytes>::D mx;
  typename Reg<Bytes>::I resid;
};

/// One pair's window in a sweep: its anchor, the bound 2^(anchor + 1) its
/// products must stay below, and the products folded since its last spill
/// (row-major indices [start, …) of the tile, `groups` adds per lane).
struct Window {
  int anchor = kMinAnchor;
  double limit = 0.0;
  std::size_t start = 0;
  std::size_t groups = 0;
};

/// Biased binade of fold f's lanes at anchor a.
constexpr std::uint64_t fold_binade(int a, int f) {
  return static_cast<std::uint64_t>(a + kFoldHead - f * kFoldStride + 1023);
}

/// Binade of m ≥ 0: −1023 for zero and subnormals, 1024 for +Inf.
int binade(double m) {
  return static_cast<int>(std::bit_cast<std::uint64_t>(m) >> 52) - 1023;
}

/// The anchor for a largest |product| m ≥ 0 (clamped to the fold range).
int anchor_for(double m) {
  return std::clamp(binade(m) + kHeadroom, kMinAnchor, kMaxAnchor);
}

/// max |x_i·y_i| over i < n (a NaN product is skipped; the spill catches
/// it).
double max_abs_product(const double* x, const double* y, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i] * y[i]));
  return m;
}

/// Empty lanes at anchor a: each of fold f's lanes at 1.5·2^k_f.
template <int Bytes, int F, int R>
V2D_SIMD_BODY void reset(Lanes<Bytes, F, R>& s, int a) {
  using D = typename Reg<Bytes>::D;
  for (int f = 0; f < F; ++f) {
    const double c =
        std::bit_cast<double>(fold_binade(a, f) << 52 | 1ull << 51);
    for (int r = 0; r < R; ++r) s.f[f][r] = D{} + c;
  }
  s.mx = D{};
  s.resid = typename Reg<Bytes>::I{};
}

/// Pair K of shape S folds N registers of products, read at the operand
/// pointers q[d], into its lane registers R0 … R0 + N − 1.  Pairs that
/// share an operand read the same address, which the compiler loads once.
template <int Bytes, int F, int R, Shape S, std::size_t K, int R0, int N>
V2D_SIMD_BODY void fold_pair(Lanes<Bytes, F, R>& s, const double* const* q) {
  using D = typename Reg<Bytes>::D;
  using I = typename Reg<Bytes>::I;
  // The group's largest |product|, merged into the running maximum once.
  // maxpd keeps its second operand when the compare meets a NaN, so the
  // running maximum never holds one.  A NaN in the first register can hide
  // the group's other products from it, but the NaN also reaches the lanes
  // and sends the whole window to the product-by-product sum.
  D m;
  for (int r = 0; r < N; ++r) {
    D x, y;
    std::memcpy(&x, q[S.a[K]] + r * Reg<Bytes>::kLanes, sizeof x);
    std::memcpy(&y, q[S.b[K]] + r * Reg<Bytes>::kLanes, sizeof y);
    const D p = x * y;
    const D ap = (D)((I)p & kAbsMask);
    m = r == 0 ? ap : (ap > m ? ap : m);
    D e = p;
    for (int f = 0; f < F; ++f) {
      const D t = s.f[f][R0 + r] + e;
      e -= t - s.f[f][R0 + r];
      s.f[f][R0 + r] = t;
    }
    s.resid |= (I)e;
  }
  s.mx = m > s.mx ? m : s.mx;
}

template <int Bytes, int F, int R, Shape S, int R0, int N, std::size_t... K>
V2D_SIMD_BODY void fold_pairs(Lanes<Bytes, F, R>* s, const double* const* q,
                              std::index_sequence<K...>) {
  (fold_pair<Bytes, F, R, S, K, R0, N>(s[K], q), ...);
}

/// Every pair folds N registers of products at offset i of the row
/// pointers p[d] into its lane registers R0 … R0 + N − 1.
template <int Bytes, int F, int R, Shape S, int R0, int N>
V2D_SIMD_BODY void fold_group(Lanes<Bytes, F, R>* s, const double* const* p,
                              std::size_t i) {
  const double* q[S.nops];
  for (int d = 0; d < S.nops; ++d) q[d] = p[d] + i;
  fold_pairs<Bytes, F, R, S, R0, N>(
      s, q, std::make_index_sequence<static_cast<std::size_t>(S.npairs)>{});
}

/// A segment's last len − i < R·L products: whole registers into lane
/// registers R0, R0 + 1, …, then one zero-padded register.  Each lane
/// takes at most one of them, so the tail counts as one group.
template <int Bytes, int F, int R, Shape S, int R0>
V2D_SIMD_BODY void fold_tail(Lanes<Bytes, F, R>* s, const double* const* p,
                             std::size_t i, std::size_t len) {
  constexpr std::size_t L = Reg<Bytes>::kLanes;
  if constexpr (R0 < R) {
    if (i + L <= len) {
      fold_group<Bytes, F, R, S, R0, 1>(s, p, i);
      fold_tail<Bytes, F, R, S, R0 + 1>(s, p, i + L, len);
    } else if (i < len) {
      double pad[S.nops][L] = {};
      const double* tp[S.nops];
      for (int d = 0; d < S.nops; ++d) {
        std::copy(p[d] + i, p[d] + len, pad[d]);
        tp[d] = pad[d];
      }
      fold_group<Bytes, F, R, S, R0, 1>(s, tp, 0);
    }
  }
}

/// Fold the `len` products of each pair that start at the row pointers
/// p[d]: (len + R·L − 1) / (R·L) adds per lane.  The lanes should be
/// locals (see take), so that they stay in registers.
template <int Bytes, int F, int R, Shape S>
V2D_SIMD_BODY void fold_segment(Lanes<Bytes, F, R>* s, const double* const* p,
                                std::size_t len) {
  constexpr std::size_t G = R * Reg<Bytes>::kLanes;
  std::size_t i = 0;
  for (; i + G <= len; i += G) fold_group<Bytes, F, R, S, 0, R>(s, p, i);
  fold_tail<Bytes, F, R, S, 0>(s, p, i, len);
}

/// Copy lanes register by register: a whole-struct copy may become a
/// string move, after which the compiler no longer keeps them in
/// registers.
template <int Bytes, int F, int R>
V2D_SIMD_BODY void take(Lanes<Bytes, F, R>& to, const Lanes<Bytes, F, R>& from) {
  for (int f = 0; f < F; ++f)
    for (int r = 0; r < R; ++r) to.f[f][r] = from.f[f][r];
  to.mx = from.mx;
  to.resid = from.resid;
}

/// The largest |product| folded since the lanes' maxima were cleared.
template <int Bytes, int F, int R>
V2D_SIMD_BODY double max_product(const Lanes<Bytes, F, R>& s) {
  double out = s.mx[0];
  for (std::size_t l = 1; l < Reg<Bytes>::kLanes; ++l)
    out = std::max(out, s.mx[l]);
  return out;
}

/// Read the fold totals of lanes anchored at a: units[f] counts fold f's
/// ulp 2^(k_f − 52).  Each lane holds 1.5·2^k_f plus its share of the
/// fold's total; in the binade the mantissa field minus 2^51 counts that
/// share in ulps.  False when a lane ended outside its binade or the last
/// fold kept a residue: then the folds do not hold the exact sum.
template <int Bytes, int F, int R>
V2D_SIMD_BODY bool totals(const Lanes<Bytes, F, R>& s, int a,
                          std::int64_t* units) {
  using U = typename Reg<Bytes>::U;
  U bad = (U)s.resid & ~kSignBit;
  for (int f = 0; f < F; ++f) {
    const std::uint64_t bin = fold_binade(a, f);
    U sum{};
    for (int r = 0; r < R; ++r) {
      const U b = (U)s.f[f][r];
      bad |= (b >> 52) ^ bin;
      sum += (b & kMantMask) - (1ull << 51);
    }
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < Reg<Bytes>::kLanes; ++l) total += sum[l];
    units[f] = static_cast<std::int64_t>(total);
  }
  std::uint64_t any = 0;
  for (std::size_t l = 0; l < Reg<Bytes>::kLanes; ++l) any |= bad[l];
  return any == 0;
}

/// The row pieces (row j, columns [i, i + len)) of the row-major product
/// range [w, end) of a tile ni wide.
struct Pieces {
  std::size_t ni, w, end;
  bool next(std::size_t& j, std::size_t& i, std::size_t& len) {
    if (w >= end) return false;
    j = w / ni;
    i = w - j * ni;
    len = std::min(ni - i, end - w);
    w += len;
    return true;
  }
};

}  // namespace

/// The tile sweeps, as members so that their spills reach the chunks.
struct ExactSum::Sweep {
  /// One sweep: the distinct operands' tile bases and row strides, the
  /// pairs' accumulators in shape order, and the tile's extent.
  struct Args {
    const double* op[Gang::kMax] = {};
    std::ptrdiff_t stride[Gang::kMax] = {};
    ExactSum* acc[Gang::kMax] = {};
    std::size_t ni = 0, nj = 0;
  };

  /// One pair's products [w0, w1) of an ni-wide tile, added at `anchor`
  /// outside the sweep's lanes: by three folds when `fold` is set, and
  /// product by product when it is not or the folds cannot hold them.
  struct Redo {
    const double* x;
    std::ptrdiff_t xs;
    const double* y;
    std::ptrdiff_t ys;
    ExactSum* acc;
    std::size_t ni, w0, w1;
    int anchor;
    bool fold;
  };

  /// Fold a redo's range into fresh three-fold lanes; true with the totals
  /// in `units` when they hold its exact sum.
  template <int Bytes, Shape S>
  static V2D_SIMD_BODY bool refold(const Redo& r, std::int64_t* units) {
    Lanes<Bytes, kMaxFolds, kRegs> s;
    reset(s, r.anchor);
    std::size_t j, i, len;
    for (Pieces pc{r.ni, r.w0, r.w1}; pc.next(j, i, len);) {
      const auto row = static_cast<std::ptrdiff_t>(j);
      const double* p[2] = {r.x + row * r.xs + i, r.y + row * r.ys + i};
      fold_segment<Bytes, kMaxFolds, kRegs, S>(&s, p, len);
    }
    return totals(s, r.anchor, units);
  }

  template <int Bytes>
  static V2D_SIMD_BODY void redo(const Redo* r) {
    if (r->fold) {
      std::int64_t units[kMaxFolds];
      const bool exact = r->x == r->y && r->xs == r->ys
                             ? refold<Bytes, kSquare>(*r, units)
                             : refold<Bytes, kProduct>(*r, units);
      if (exact) {
        r->acc->add_fold_totals(units, kMaxFolds, r->anchor);
        return;
      }
    }
    std::size_t j, i, len;
    for (Pieces pc{r->ni, r->w0, r->w1}; pc.next(j, i, len);) {
      const auto row = static_cast<std::ptrdiff_t>(j);
      r->acc->add_products(r->x + row * r->xs + i, r->xs,
                           r->y + row * r->ys + i, r->ys, len, 1);
    }
  }

  /// Pair K's products [w0, w1) again, outside the sweep's lanes.
  template <Shape S, std::size_t K>
  static void redo_pair(const Args* a, int anchor, std::size_t w0,
                        std::size_t w1, bool fold) {
    const Redo r{a->op[S.a[K]], a->stride[S.a[K]], a->op[S.b[K]],
                 a->stride[S.b[K]], a->acc[K], a->ni, w0, w1, anchor, fold};
    simd::dispatch<&redo<16>, &redo<32>>(&r);
  }

  /// Start a pair's window at product `start`, with empty lanes.
  template <int Bytes, int R>
  static V2D_SIMD_BODY void open(Lanes<Bytes, 2, R>& s, Window& w, int anchor,
                                 std::size_t start) {
    reset(s, anchor);
    w.anchor = anchor;
    w.limit = std::bit_cast<double>(
        static_cast<std::uint64_t>(anchor + 1 + 1023) << 52);
    w.start = start;
    w.groups = 0;
  }

  /// Add pair K's window, which ends before product `end`, to its
  /// accumulator, and open the next one there.
  template <int Bytes, int R, Shape S, std::size_t K>
  static V2D_SIMD_BODY void spill(Lanes<Bytes, 2, R>& s, Window& w,
                                  const Args* a, std::size_t end) {
    if (w.groups > 0) {
      std::int64_t units[2];
      if (totals(s, w.anchor, units))
        a->acc[K]->add_fold_totals(units, 2, w.anchor);
      else
        redo_pair<S, K>(a, w.anchor, w.start, end, true);
    }
    open(s, w, w.anchor, end);
  }

  /// Pair K before the segment of `groups` groups at product `at`: spill
  /// when the segment would take its lanes past the cap, then copy them to
  /// the segment's register copy with its maximum cleared.
  template <int Bytes, int R, Shape S, std::size_t K>
  static V2D_SIMD_BODY void begin(Lanes<Bytes, 2, R>* row,
                                  Lanes<Bytes, 2, R>* lanes, Window* win,
                                  const Args* a, std::size_t at,
                                  std::size_t groups) {
    if (win[K].groups + groups > kCap)
      spill<Bytes, R, S, K>(lanes[K], win[K], a, at);
    take(row[K], lanes[K]);
    row[K].mx = typename Reg<Bytes>::D{};
  }

  /// Pair K after the segment: keep the register copy when its products
  /// met the bound.  Otherwise the lanes still hold the rows before it:
  /// spill them, and fold the segment again at its own maximum plus the
  /// headroom (product by product when that anchor leaves the fold range).
  template <int Bytes, int R, Shape S, std::size_t K>
  static V2D_SIMD_BODY void end(const Lanes<Bytes, 2, R>* row,
                                Lanes<Bytes, 2, R>* lanes, Window* win,
                                const Args* a, const double* const* p,
                                std::size_t at, std::size_t len,
                                std::size_t groups) {
    Window& w = win[K];
    const double m = max_product(row[K]);
    if (m < w.limit) {
      take(lanes[K], row[K]);
      w.groups += groups;
      return;
    }
    spill<Bytes, R, S, K>(lanes[K], w, a, at);
    if (binade(m) > kMaxAnchor) {
      redo_pair<S, K>(a, w.anchor, at, at + len, false);
      open(lanes[K], w, w.anchor, at + len);
      return;
    }
    open(lanes[K], w, anchor_for(m), at);
    constexpr Shape kOne = S.a[K] == S.b[K] ? kSquare : kProduct;
    const double* q[2] = {p[S.a[K]], p[S.b[K]]};
    Lanes<Bytes, 2, R> one;
    take(one, lanes[K]);
    fold_segment<Bytes, 2, R, kOne>(&one, q, len);
    take(lanes[K], one);
    w.groups = groups;
  }

  /// One tile for every pair of shape S, segment by segment.  Each segment
  /// folds into a register copy of the lanes, which replaces them only
  /// where the segment met the bound: the lanes left alone are the
  /// rollback.
  template <int Bytes, Shape S, std::size_t... K>
  static V2D_SIMD_BODY void sweep(const Args* a, std::index_sequence<K...>) {
    constexpr int R = S.npairs == 1 ? kRegs : 1;
    constexpr std::size_t G = R * Reg<Bytes>::kLanes;
    const std::size_t ni = a->ni, nj = a->nj;
    const std::size_t seg = std::min(ni, kCap * G);

    Lanes<Bytes, 2, R> lanes[S.npairs];
    Window win[S.npairs];
    (open(lanes[K], win[K],
          anchor_for(max_abs_product(a->op[S.a[K]], a->op[S.b[K]],
                                     std::min(ni, G))),
          0),
     ...);
    const double* p[S.nops];
    for (std::size_t j = 0; j < nj; ++j) {
      for (std::size_t i = 0; i < ni; i += seg) {
        const std::size_t len = std::min(seg, ni - i);
        const std::size_t groups = (len + G - 1) / G, at = j * ni + i;
        for (int d = 0; d < S.nops; ++d)
          p[d] = a->op[d] + static_cast<std::ptrdiff_t>(j) * a->stride[d] +
                 static_cast<std::ptrdiff_t>(i);
        Lanes<Bytes, 2, R> row[S.npairs];
        (begin<Bytes, R, S, K>(row, lanes, win, a, at, groups), ...);
        fold_segment<Bytes, 2, R, S>(row, p, len);
        (end<Bytes, R, S, K>(row, lanes, win, a, p, at, len, groups), ...);
      }
    }
    (spill<Bytes, R, S, K>(lanes[K], win[K], a, nj * ni), ...);
  }

  template <int Bytes, Shape S>
  static V2D_SIMD_BODY void tile(const Args* a) {
    sweep<Bytes, S>(
        a, std::make_index_sequence<static_cast<std::size_t>(S.npairs)>{});
  }

  template <std::size_t I>
  static void run_shape(const Args* a) {
    simd::dispatch<&tile<16, kShapes[I]>, &tile<32, kShapes[I]>>(a);
  }

  /// The sweep of shape kShapes[shape].
  static void run(std::size_t shape, const Args& a) {
    static constexpr auto kRun =
        []<std::size_t... I>(std::index_sequence<I...>) {
          return std::array<void (*)(const Args*), sizeof...(I)>{
              &run_shape<I>...};
        }(std::make_index_sequence<std::size(kShapes)>{});
    kRun[shape](&a);
  }
};

bool ExactSum::Gang::fit(const double* x, const double* y, ExactSum* acc) {
  if (npairs_ == kMax) return false;
  int n = nops_;
  const auto index = [&](const double* v) {
    for (int d = 0; d < n; ++d)
      if (op_[d] == v) return d;
    if (n == kMax) return -1;
    op_[n] = v;
    return n++;
  };
  const int ix = index(x), iy = index(y);
  if (ix < 0 || iy < 0) return false;
  nops_ = n;
  a_[npairs_] = static_cast<std::uint8_t>(std::min(ix, iy));
  b_[npairs_] = static_cast<std::uint8_t>(std::max(ix, iy));
  acc_[npairs_++] = acc;
  return true;
}

void ExactSum::Gang::add(const double* x, const double* y, ExactSum* acc) {
  if (fit(x, y, acc)) return;
  sweep();
  fit(x, y, acc);
}

void ExactSum::Gang::sweep() {
  if (npairs_ == 0 || ni_ == 0 || nj_ == 0) {
    npairs_ = nops_ = 0;
    return;
  }
  Shape s{nops_, npairs_};
  for (int k = 0; k < npairs_; ++k) {
    s.a[k] = a_[k];
    s.b[k] = b_[k];
  }
  const std::size_t shape = shape_index(s);
  if (shape == std::size(kShapes)) {
    for (int k = 0; k < npairs_; ++k)
      acc_[k]->add_dot_rows(op_[a_[k]], stride_, op_[b_[k]], stride_, ni_,
                            nj_);
  } else {
    Sweep::Args a;
    a.ni = ni_;
    a.nj = nj_;
    for (int d = 0; d < nops_; ++d) {
      a.op[d] = op_[d];
      a.stride[d] = stride_;
    }
    for (int k = 0; k < npairs_; ++k) a.acc[k] = acc_[k];
    Sweep::run(shape, a);
  }
  npairs_ = nops_ = 0;
}

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

void ExactSum::add_fold_totals(const std::int64_t* units, int nfolds,
                               int anchor) {
  // Fold f's ulp is 2^(k_f − 52), which weighs 2^(pos − 1074).  Each total
  // moves at most three chunks by < 2^32, and the totals together still
  // move any one chunk by < 2^52: one add for the budget.
  int pos = anchor + kFoldHead + 1022;
  for (int f = 0; f < nfolds; ++f, pos -= kFoldStride) {
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
  Sweep::Args a;
  a.ni = ni;
  a.nj = nj;
  a.acc[0] = this;
  a.op[0] = x;
  a.stride[0] = x_stride;
  if (x == y && x_stride == y_stride) {
    Sweep::run(shape_index(kSquare), a);
  } else {
    a.op[1] = y;
    a.stride[1] = y_stride;
    Sweep::run(shape_index(kProduct), a);
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
