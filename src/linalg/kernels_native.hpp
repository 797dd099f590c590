#pragma once
/// \file kernels_native.hpp
/// \brief Native raw-pointer tile bodies for the Table II kernels.
///
/// These are the VlaExecMode::Native implementations behind the tile
/// entries in kernels.cpp and mg/mg_kernels.cpp.  Each routine runs a
/// whole tile (linalg::Tile: nj rows of ni elements at a row stride) as one
/// plain loop nest, the row loop outside and the streaming element loop
/// inside, that the host compiler auto-vectorizes twice
/// (support/simd.hpp): at the baseline width and, on x86-64, at AVX2; the
/// CPU check at first use picks which one runs, once per tile.  Both
/// reproduce the interpreter backend bit-for-bit:
///
///   - elementwise kernels evaluate the same per-element expression in the
///     same association order the vla::Context ops use, and vectorizing
///     keeps it (no FMA contraction, no reassociation);
///   - dprod keeps the interpreter's strip-wise lane accumulators (VL
///     partial sums, lane l accumulating elements i ≡ l mod VL) and performs
///     the single final horizontal reduce in lane order.
///
/// No vla::Context is touched here — the fast path's recording is the
/// memoized dry run of the interpreter row (kernel_counts.hpp).  The
/// solver's inner products do not use dprod: they are exact sums
/// (support/exact_sum.hpp) whose bits no width or tiling can change.

#include <cstddef>
#include <cstdint>

#include "linalg/tile.hpp"

namespace v2d::linalg::native {

/// DPROD of one row with the interpreter's strip-wise accumulation order:
/// `vl` partial accumulators carried across strips, one horizontal reduce
/// at the end.
double dprod(const double* x, const double* y, std::size_t n, unsigned vl);

/// y ← a·x + y
void daxpy(double a, const double* x, double* y, Tile t);

/// y ← c − d·y  (computed as c + (−d)·y, matching the interpreter)
void dscal(double c, double d, double* y, Tile t);

/// z ← a·x + b·y + z  (two chained FMAs: t = a·x + z; z = b·y + t)
void ddaxpy(double a, const double* x, double b, const double* y, double* z,
            Tile t);

/// y ← x + b·y
void xpby(const double* x, double b, double* y, Tile t);

/// y ← x
void copy(const double* x, double* y, Tile t);

/// y ← a
void fill(double a, double* y, Tile t);

/// z ← x − y
void sub(const double* x, const double* y, double* z, Tile t);

/// z ← x ⊙ y
void hadamard(const double* x, const double* y, double* z, Tile t);

/// Five-point stencil rows:
///   y_i ← cc_i·xc_i + cw_i·xc_{i−1} + ce_i·xc_{i+1} + cs_i·xs_i + cn_i·xn_i
/// accumulated in exactly that order.
void stencil(const double* cc, const double* cw, const double* ce,
             const double* cs, const double* cn, const double* xc,
             const double* xs, const double* xn, double* y, Tile t);

/// y ← y + csp ⊙ xo
void coupling(const double* csp, const double* xo, double* y, Tile t);

/// x ← x + ω·(d ⊙ r)   (weighted-Jacobi correction)
void diag_correct(double omega, const double* d, const double* r, double* x,
                  Tile t);

/// z ← ω·(d ⊙ r)   (scaled diagonal application)
void diag_scale(double omega, const double* d, const double* r, double* z,
                Tile t);

/// Full-weighting restriction of `t.nj` coarse rows.  Coarse row j reads
/// the four fine rows `fine[dj] + j·fine_step` (rows 2j−1 … 2j+2, each with
/// a readable ghost on both sides) through the interpreter's gather-index
/// tables `fm1`/`f0`/`f1`/`f2` (2c−1 … 2c+2); separable weights
/// (1/4, 3/4, 3/4, 1/4)/4, summed in the interpreter's dj-major order.
void restrict_rows(const double* const fine[4], std::ptrdiff_t fine_step,
                   const std::int64_t* fm1, const std::int64_t* f0,
                   const std::int64_t* f1, const std::int64_t* f2,
                   double* coarse, Tile t);

/// Bilinear prolongation of `t.nj` fine rows, accumulated into `fine`.
/// Fine row j reads coarse rows j/2 (parent) and j/2 ± 1 (parity-adjacent:
/// + for odd j), each `coarse_stride` apart from `coarse` (row 0; ghosts
/// readable at the ends), through the interpreter's `near`/`far` gather
/// tables.
void prolong_rows_add(const double* coarse, std::ptrdiff_t coarse_stride,
                      const std::int64_t* near, const std::int64_t* far,
                      double* fine, Tile t);

}  // namespace v2d::linalg::native
