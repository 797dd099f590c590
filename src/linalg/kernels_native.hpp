#pragma once
/// \file kernels_native.hpp
/// \brief Native raw-pointer fast paths for the Table II kernels.
///
/// These are the VlaExecMode::Native implementations behind the dispatch in
/// kernels.cpp (and the multigrid row kernels behind mg/smoother.cpp and
/// mg/transfer.cpp).  Each routine is one plain strided loop body that the
/// host compiler auto-vectorizes twice (support/simd.hpp): at the baseline
/// width and, on x86-64, at AVX2; the CPU check at first use picks which
/// one runs.  Both reproduce the interpreter backend bit-for-bit:
///
///   - elementwise kernels evaluate the same per-element expression in the
///     same association order the vla::Context ops use, and vectorizing
///     keeps it (no FMA contraction, no reassociation);
///   - dprod keeps the interpreter's strip-wise lane accumulators (VL
///     partial sums, lane l accumulating elements i ≡ l mod VL) and performs
///     the single final horizontal reduce in lane order.
///
/// No vla::Context is touched here — the fast path's recording is the
/// memoized dry run of the interpreter path (kernel_counts.hpp).  The
/// solver's inner products do not use dprod: they are exact sums
/// (support/exact_sum.hpp) whose bits no width or tiling can change.

#include <cstddef>
#include <cstdint>

namespace v2d::linalg::native {

/// DPROD with the interpreter's strip-wise accumulation order: `vl` partial
/// accumulators carried across strips, one horizontal reduce at the end.
double dprod(const double* x, const double* y, std::size_t n, unsigned vl);

/// y ← a·x + y
void daxpy(double a, const double* x, double* y, std::size_t n);

/// y ← c − d·y  (computed as c + (−d)·y, matching the interpreter)
void dscal(double c, double d, double* y, std::size_t n);

/// z ← a·x + b·y + z  (two chained FMAs: t = a·x + z; z = b·y + t)
void ddaxpy(double a, const double* x, double b, const double* y, double* z,
            std::size_t n);

/// y ← x + b·y
void xpby(const double* x, double b, double* y, std::size_t n);

/// y ← x
void copy(const double* x, double* y, std::size_t n);

/// y ← a
void fill(double a, double* y, std::size_t n);

/// z ← x − y
void sub(const double* x, const double* y, double* z, std::size_t n);

/// z ← x ⊙ y
void hadamard(const double* x, const double* y, double* z, std::size_t n);

/// Five-point stencil row:
///   y_i ← cc_i·xc_i + cw_i·xc_{i−1} + ce_i·xc_{i+1} + cs_i·xs_i + cn_i·xn_i
/// accumulated in exactly that order.
void stencil_row(const double* cc, const double* cw, const double* ce,
                 const double* cs, const double* cn, const double* xc,
                 const double* xs, const double* xn, double* y, std::size_t n);

/// y ← y + csp ⊙ xo
void coupling_row(const double* csp, const double* xo, double* y,
                  std::size_t n);

/// x ← x + ω·(d ⊙ r)   (weighted-Jacobi correction row)
void diag_correct_row(double omega, const double* d, const double* r,
                      double* x, std::size_t n);

/// z ← ω·(d ⊙ r)   (scaled diagonal application row)
void diag_scale_row(double omega, const double* d, const double* r, double* z,
                    std::size_t n);

/// One coarse row of full-weighting restriction.  `fine[dj]` are the four
/// fine rows 2·cj−1 … 2·cj+2 (each with a readable ghost on both sides);
/// `fm1`/`f0`/`f1`/`f2` are the same gather-index tables the interpreter
/// uses (2c−1 … 2c+2); separable weights (1/4, 3/4, 3/4, 1/4)/4, summed in
/// the interpreter's dj-major order.
void restrict_row(const double* const fine[4], const std::int64_t* fm1,
                  const std::int64_t* f0, const std::int64_t* f1,
                  const std::int64_t* f2, double* coarse, std::size_t n);

/// One fine row of bilinear prolongation (additive).  `cnear`/`cfar` are
/// the parent and parity-adjacent coarse rows, indexed through the
/// interpreter's `near`/`far` gather tables (parent / parity-adjacent;
/// ghosts readable at the ends).
void prolong_row_add(const double* cnear, const double* cfar,
                     const std::int64_t* near, const std::int64_t* far,
                     double* fine, std::size_t n);

}  // namespace v2d::linalg::native
