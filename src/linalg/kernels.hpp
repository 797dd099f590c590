#pragma once
/// \file kernels.hpp
/// \brief The V2D sparse-linear-algebra kernels of the paper's Table II.
///
/// These are the exact routines the authors' driver program exercises:
///   MATVEC  — matrix-vector product (stencil form; see stencil_op.hpp)
///   DPROD   — dot product
///   DAXPY   — y ← a·x + y
///   DSCAL   — y ← c − d·y
///   DDAXPY  — z ← a·x + b·y + z
/// plus the small helpers the BiCGSTAB restructuring needs (XPBY, COPY).
///
/// Every kernel is written once, in kernels.cpp, as an interpreter row, a
/// native body and one tile entry.  The row runs the canonical whilelt
/// strip-mined loop through the VLA layer, whose vla::Context both computes
/// the result and records the instruction stream for pricing.  The body is
/// a V2D_SIMD_BODY loop nest over a whole tile that evaluates the row's
/// per-element expressions in the same order, run at the host's vector
/// width (support/simd.hpp).  The tile entry takes base pointers and a
/// Tile (nj rows of ni elements at a row stride; see tile.hpp): the
/// interpreter runs the row nj times, and the native path records the tile
/// once (nj × the row's memoized recording, kernel_counts.hpp) and runs
/// the body.  A row call is the tile entry with Tile::row(n).  DPROD, the
/// plain strip-wise dot, is the one entry that takes spans and returns a
/// value.  Operands must not alias except where a parameter is explicitly
/// an in/out vector.

#include <span>

#include "linalg/tile.hpp"
#include "vla/loops.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// DPROD: returns Σ x_i · y_i over one row.
double dprod(vla::Context& ctx, std::span<const double> x,
             std::span<const double> y);

/// Record the instruction stream of DPROD over every row of a tile without
/// producing a result: natively the tile's memoized recording alone, and
/// in the interpreter the row-by-row DPROD with its values discarded.
/// Used where the numerical result is produced by a separate host-side
/// accumulation (DistVector::dot_ganged's exact sum) but the priced stream
/// must still be the strip-mined DPROD.
void dprod_record_only(vla::Context& ctx, const double* x, const double* y,
                       Tile t);

/// DAXPY: y ← a·x + y.
void daxpy(vla::Context& ctx, double a, const double* x, double* y, Tile t);

/// DSCAL (V2D's flavour): y ← c − d·y.
void dscal(vla::Context& ctx, double c, double d, double* y, Tile t);

/// DDAXPY: z ← a·x + b·y + z.
void ddaxpy(vla::Context& ctx, double a, const double* x, double b,
            const double* y, double* z, Tile t);

/// XPBY: y ← x + b·y (used by the p-update in BiCGSTAB).
void xpby(vla::Context& ctx, const double* x, double b, double* y, Tile t);

/// COPY: y ← x.
void copy(vla::Context& ctx, const double* x, double* y, Tile t);

/// FILL: y ← a.
void fill(vla::Context& ctx, double a, double* y, Tile t);

/// SUB: z ← x − y.
void sub(vla::Context& ctx, const double* x, const double* y, double* z,
         Tile t);

/// Pointwise multiply: z ← x ⊙ y (Jacobi preconditioner application).
void hadamard(vla::Context& ctx, const double* x, const double* y, double* z,
              Tile t);

/// Five-point stencil MATVEC rows:
///   y_i ← cc_i·xc_i + cw_i·xc_{i-1} + ce_i·xc_{i+1} + cs_i·xs_i + cn_i·xn_i
/// Each `xc` row must have one ghost element on each side (xc[-1] and
/// xc[ni] are readable); `xs`/`xn` are the rows below/above (same
/// indexing, no shift).
void stencil_rows(vla::Context& ctx, const double* cc, const double* cw,
                  const double* ce, const double* cs, const double* cn,
                  const double* xc, const double* xs, const double* xn,
                  double* y, Tile t);

/// Species-coupling rank-one add: y ← y + csp ⊙ xo (other species' vector).
void coupling_rows(vla::Context& ctx, const double* csp, const double* xo,
                   double* y, Tile t);

}  // namespace v2d::linalg
