#pragma once
/// \file fused_exec.hpp
/// \brief The fused composites of --fuse plan.
///
/// Each entry point below is a tile entry (linalg::Tile: base pointers,
/// nj rows of ni elements at a row stride) that runs one solver hot-loop
/// sequence as a single sweep, written like the primitive kernels
/// (fused_exec.cpp): an interpreter row, run row by row, and a native body
/// that runs every row of the tile, with the tile recorded once as nj ×
/// the memoized dry run of the interpreter row under the composite's own
/// KernelShape.  Both backends give bit-identical results, and every fused
/// dot adds the exact sum of its operands' products to the caller's
/// ExactSum — natively in one gang sweep per tile — so the composites
/// match the unfused kernel sequence bit for bit.  The span overloads are
/// row calls: the tile entry with nj = 1.
///
/// The composite operations (StencilOperator::apply_dot/apply_residual*,
/// DistVector::daxpy2/assign_axpy/p_update, the diagonal preconditioners'
/// apply_dot2) call them under FuseMode::Plan.

#include <span>

#include "linalg/tile.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::fusion {

/// CG twin update: x ← x + a·p and r ← r + b·q in one fused sweep.
void daxpy2(vla::Context& ctx, double a, const double* p, double* x, double b,
            const double* q, double* r, Tile t);

/// z ← x + a·y (the COPY is elided into the FMA addend).
void axpy_out(vla::Context& ctx, const double* x, double a, const double* y,
              double* z, Tile t);

/// BiCGSTAB p-update: p ← r + b·(p − w·v).
void p_update(vla::Context& ctx, const double* r, double b, double w,
              const double* v, double* p, Tile t);

/// z ← m ⊙ r with rz += Σ z·r and rr += Σ r·r folded into the sweep.
void hadamard_dot2(vla::Context& ctx, const double* m, const double* r,
                   double* z, ExactSum& rz, ExactSum& rr, Tile t);

/// r ← r + a·q folded into the precond+gang sweep.
void hadamard_update_dot2(vla::Context& ctx, const double* m, double a,
                          const double* q, double* r, double* z, ExactSum& rz,
                          ExactSum& rr, Tile t);

/// Fused stencil composite.  Always computes the five-point rows into `y`;
/// the optional operands select the variant:
///   csp/xo  non-null — species coupling folded into the sweep
///   bsub    non-null — residual form, y ← bsub − (A·x)
///   wdot/dot non-null — MATVEC+DPROD, *dot += Σ w_i·y_i exactly
///     (`wdot == xc` is the CG p·Ap case: the center operand is reused in
///      registers, no extra load)
/// `bsub` and `wdot` are mutually exclusive; one of them is required.
void stencil_rows_fused(vla::Context& ctx, const double* cc, const double* cw,
                        const double* ce, const double* cs, const double* cn,
                        const double* xc, const double* xs, const double* xn,
                        const double* csp, const double* xo,
                        const double* bsub, const double* wdot, ExactSum* dot,
                        double* y, Tile t);

// --- row calls: the tile entries with nj = 1 ---------------------------------

inline void daxpy2(vla::Context& ctx, double a, std::span<const double> p,
                   std::span<double> x, double b, std::span<const double> q,
                   std::span<double> r) {
  const std::size_t n = x.size();
  V2D_REQUIRE(p.size() == n && q.size() == n && r.size() == n,
              "daxpy2: length mismatch");
  daxpy2(ctx, a, p.data(), x.data(), b, q.data(), r.data(), Tile::row(n));
}

inline void axpy_out(vla::Context& ctx, std::span<const double> x, double a,
                     std::span<const double> y, std::span<double> z) {
  const std::size_t n = z.size();
  V2D_REQUIRE(x.size() == n && y.size() == n, "axpy_out: length mismatch");
  axpy_out(ctx, x.data(), a, y.data(), z.data(), Tile::row(n));
}

inline void p_update(vla::Context& ctx, std::span<const double> r, double b,
                     double w, std::span<const double> v,
                     std::span<double> p) {
  const std::size_t n = p.size();
  V2D_REQUIRE(r.size() == n && v.size() == n, "p_update: length mismatch");
  p_update(ctx, r.data(), b, w, v.data(), p.data(), Tile::row(n));
}

inline void hadamard_dot2(vla::Context& ctx, std::span<const double> m,
                          std::span<const double> r, std::span<double> z,
                          ExactSum& rz, ExactSum& rr) {
  const std::size_t n = z.size();
  V2D_REQUIRE(m.size() == n && r.size() == n,
              "hadamard_dot2: length mismatch");
  hadamard_dot2(ctx, m.data(), r.data(), z.data(), rz, rr, Tile::row(n));
}

inline void hadamard_update_dot2(vla::Context& ctx, std::span<const double> m,
                                 double a, std::span<const double> q,
                                 std::span<double> r, std::span<double> z,
                                 ExactSum& rz, ExactSum& rr) {
  const std::size_t n = z.size();
  V2D_REQUIRE(m.size() == n && q.size() == n && r.size() == n,
              "hadamard_update_dot2: length mismatch");
  hadamard_update_dot2(ctx, m.data(), a, q.data(), r.data(), z.data(), rz, rr,
                       Tile::row(n));
}

inline void stencil_row_fused(
    vla::Context& ctx, std::span<const double> cc, std::span<const double> cw,
    std::span<const double> ce, std::span<const double> cs,
    std::span<const double> cn, const double* xc, const double* xs,
    const double* xn, const double* csp, const double* xo, const double* bsub,
    const double* wdot, ExactSum* dot, std::span<double> y) {
  const std::size_t n = y.size();
  V2D_REQUIRE(cc.size() == n && cw.size() == n && ce.size() == n &&
                  cs.size() == n && cn.size() == n,
              "stencil_row_fused: coefficient length mismatch");
  stencil_rows_fused(ctx, cc.data(), cw.data(), ce.data(), cs.data(),
                     cn.data(), xc, xs, xn, csp, xo, bsub, wdot, dot, y.data(),
                     Tile::row(n));
}

}  // namespace v2d::linalg::fusion
