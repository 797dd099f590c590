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
/// whilelt strip-mined form; the vla::Context both computes the result and
/// records the instruction stream for pricing.  Spans must not alias
/// except where a parameter is explicitly an in/out vector.

#include <span>

#include "vla/loops.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// DPROD: returns Σ x_i · y_i.
double dprod(vla::Context& ctx, std::span<const double> x,
             std::span<const double> y);

/// Record the instruction stream of one DPROD(x, y) call without computing
/// it (the memoized dry run of dprod's interpreter path).  Used where the
/// numerical result is produced by a separate host-side accumulation
/// (DistVector::dot_ganged's exact sum) but the priced stream must still be
/// the strip-mined DPROD.
void dprod_record_only(vla::Context& ctx, std::span<const double> x,
                       std::span<const double> y);

/// DAXPY: y ← a·x + y.
void daxpy(vla::Context& ctx, double a, std::span<const double> x,
           std::span<double> y);

/// DSCAL (V2D's flavour): y ← c − d·y.
void dscal(vla::Context& ctx, double c, double d, std::span<double> y);

/// DDAXPY: z ← a·x + b·y + z.
void ddaxpy(vla::Context& ctx, double a, std::span<const double> x, double b,
            std::span<const double> y, std::span<double> z);

/// XPBY: y ← x + b·y (used by the p-update in BiCGSTAB).
void xpby(vla::Context& ctx, std::span<const double> x, double b,
          std::span<double> y);

/// COPY: y ← x.
void copy(vla::Context& ctx, std::span<const double> x, std::span<double> y);

/// FILL: y ← a.
void fill(vla::Context& ctx, double a, std::span<double> y);

/// SUB: z ← x − y.
void sub(vla::Context& ctx, std::span<const double> x,
         std::span<const double> y, std::span<double> z);

/// Pointwise multiply: z ← x ⊙ y (Jacobi preconditioner application).
void hadamard(vla::Context& ctx, std::span<const double> x,
              std::span<const double> y, std::span<double> z);

/// One row of the five-point stencil MATVEC:
///   y_i ← cc_i·xc_i + cw_i·xc_{i-1} + ce_i·xc_{i+1} + cs_i·xs_i + cn_i·xn_i
/// `xc` must have one ghost element on each side (xc[-1] and xc[n] are
/// readable); `xs`/`xn` are the rows below/above (same indexing, no shift).
void stencil_row(vla::Context& ctx, std::span<const double> cc,
                 std::span<const double> cw, std::span<const double> ce,
                 std::span<const double> cs, std::span<const double> cn,
                 const double* xc, const double* xs, const double* xn,
                 std::span<double> y);

/// Species-coupling rank-one add: y ← y + csp ⊙ xo (other species' vector).
void coupling_row(vla::Context& ctx, std::span<const double> csp,
                  const double* xo, std::span<double> y);

}  // namespace v2d::linalg
