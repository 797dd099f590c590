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
/// Every kernel is written once against the VLA layer in the canonical
/// whilelt strip-mined form, as one interpreter row; the vla::Context both
/// computes the result and records the instruction stream for pricing.
/// Each kernel has one entry point, the tile entry: base pointers and a
/// Tile (nj rows of ni elements at a row stride; see tile.hpp).  The
/// interpreter runs it row by row.  The native path records the tile once
/// (nj × the row's memoized recording) and runs one dispatched body with
/// the row loop inside (kernels_native.hpp).  The span overloads are row
/// calls: the tile entry with nj = 1.  Operands must not alias except
/// where a parameter is explicitly an in/out vector.

#include <span>

#include "linalg/tile.hpp"
#include "support/error.hpp"
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

// --- row calls: the tile entries with nj = 1 ---------------------------------

inline void daxpy(vla::Context& ctx, double a, std::span<const double> x,
                  std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "daxpy: length mismatch");
  daxpy(ctx, a, x.data(), y.data(), Tile::row(y.size()));
}

inline void dscal(vla::Context& ctx, double c, double d, std::span<double> y) {
  dscal(ctx, c, d, y.data(), Tile::row(y.size()));
}

inline void ddaxpy(vla::Context& ctx, double a, std::span<const double> x,
                   double b, std::span<const double> y, std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "ddaxpy: length mismatch");
  ddaxpy(ctx, a, x.data(), b, y.data(), z.data(), Tile::row(z.size()));
}

inline void xpby(vla::Context& ctx, std::span<const double> x, double b,
                 std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "xpby: length mismatch");
  xpby(ctx, x.data(), b, y.data(), Tile::row(y.size()));
}

inline void copy(vla::Context& ctx, std::span<const double> x,
                 std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "copy: length mismatch");
  copy(ctx, x.data(), y.data(), Tile::row(y.size()));
}

inline void fill(vla::Context& ctx, double a, std::span<double> y) {
  fill(ctx, a, y.data(), Tile::row(y.size()));
}

inline void sub(vla::Context& ctx, std::span<const double> x,
                std::span<const double> y, std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "sub: length mismatch");
  sub(ctx, x.data(), y.data(), z.data(), Tile::row(z.size()));
}

inline void hadamard(vla::Context& ctx, std::span<const double> x,
                     std::span<const double> y, std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "hadamard: length mismatch");
  hadamard(ctx, x.data(), y.data(), z.data(), Tile::row(z.size()));
}

inline void stencil_row(vla::Context& ctx, std::span<const double> cc,
                        std::span<const double> cw, std::span<const double> ce,
                        std::span<const double> cs, std::span<const double> cn,
                        const double* xc, const double* xs, const double* xn,
                        std::span<double> y) {
  const std::size_t n = y.size();
  V2D_REQUIRE(cc.size() == n && cw.size() == n && ce.size() == n &&
                  cs.size() == n && cn.size() == n,
              "stencil_row: coefficient length mismatch");
  stencil_rows(ctx, cc.data(), cw.data(), ce.data(), cs.data(), cn.data(), xc,
               xs, xn, y.data(), Tile::row(n));
}

inline void coupling_row(vla::Context& ctx, std::span<const double> csp,
                         const double* xo, std::span<double> y) {
  V2D_REQUIRE(csp.size() == y.size(), "coupling_row: length mismatch");
  coupling_rows(ctx, csp.data(), xo, y.data(), Tile::row(y.size()));
}

}  // namespace v2d::linalg
