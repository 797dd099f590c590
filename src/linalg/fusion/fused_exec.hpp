#pragma once
/// \file fused_exec.hpp
/// \brief The fused composites: one host pass per composite in every fuse
/// mode, and what --fuse plan records.
///
/// Each entry point below is a tile entry (linalg::Tile: base pointers,
/// nj rows of ni elements at a row stride) that runs one solver hot-loop
/// sequence as a single sweep.  A composite is written like the primitive
/// kernels (kernels.hpp): an interpreter row, a V2D_SIMD_BODY native body
/// that runs every row of the tile, and the tile entry, all in
/// fused_exec.cpp, with the tile recorded once as nj × the memoized dry
/// run of the interpreter row under the composite's own KernelShape.  Both
/// backends give bit-identical results, and every fused dot adds the exact
/// sum of its operands' products to the caller's ExactSum — natively in
/// one gang sweep per tile — so the composites match the unfused kernel
/// sequence bit for bit.  A row call is the tile entry with Tile::row(n).
///
/// The composite operations (StencilOperator::apply_dot/apply_residual*,
/// DistVector::daxpy2/assign_axpy/p_update) call them through
/// sweep_composite in both fuse modes: under FuseMode::Plan as they are,
/// and natively under FuseMode::Off with the recording switched off
/// (vla::NativeWork::RunOnly), while the Table II kernels they stand for
/// record without running.  The diagonal preconditioners' apply_dot2 calls
/// the hadamard composites under FuseMode::Plan only.

#include "linalg/tile.hpp"
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

}  // namespace v2d::linalg::fusion
