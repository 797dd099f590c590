#pragma once
/// \file fused_exec.hpp
/// \brief The fused composites of --fuse plan.
///
/// Each entry point below runs one solver hot-loop chain (ir.hpp) as a
/// single sweep, lowered at compile time (planner.hpp) and run in the
/// context's exec mode: the interpreter sweep, or a native stamp picked at
/// compile time whose recording is the memoized dry run of that sweep
/// under the composite's own KernelShape (fused_exec.cpp).  Both backends
/// give bit-identical results, and every fused dot adds the exact sum of
/// its stored operands' products to the caller's ExactSum, so the
/// composites match the unfused kernel sequence bit for bit.
///
/// The composite operations (StencilOperator::apply_dot/apply_residual*,
/// DistVector::daxpy2/assign_axpy/p_update, the diagonal preconditioners'
/// apply_dot2) call them under FuseMode::Plan.

#include <span>

#include "support/exact_sum.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::fusion {

/// CG twin update: x ← x + a·p and r ← r + b·q in one fused sweep.
void daxpy2(vla::Context& ctx, double a, std::span<const double> p,
            std::span<double> x, double b, std::span<const double> q,
            std::span<double> r);

/// z ← x + a·y (the COPY is elided into the FMA addend).
void axpy_out(vla::Context& ctx, std::span<const double> x, double a,
              std::span<const double> y, std::span<double> z);

/// BiCGSTAB p-update: p ← r + b·(p − w·v).
void p_update(vla::Context& ctx, std::span<const double> r, double b, double w,
              std::span<const double> v, std::span<double> p);

/// z ← m ⊙ r with rz += Σ z·r and rr += Σ r·r folded into the sweep.
void hadamard_dot2(vla::Context& ctx, std::span<const double> m,
                   std::span<const double> r, std::span<double> z,
                   ExactSum& rz, ExactSum& rr);

/// r ← r + a·q folded into the precond+gang sweep.
void hadamard_update_dot2(vla::Context& ctx, std::span<const double> m,
                          double a, std::span<const double> q,
                          std::span<double> r, std::span<double> z,
                          ExactSum& rz, ExactSum& rr);

/// Fused stencil-row composite.  Always computes the five-point row into
/// `y`; the optional operands select the variant:
///   csp/xo  non-null — species coupling folded into the sweep
///   bsub    non-null — residual form, y ← bsub − (A·x) row
///   wdot/dot non-null — MATVEC+DPROD, *dot += Σ w_i·y_i exactly
///     (`wdot == xc` is the CG p·Ap case: the center operand is reused in
///      registers, no extra load)
/// `bsub` and `wdot` are mutually exclusive; one of them is required.
void stencil_row_fused(vla::Context& ctx, std::span<const double> cc,
                       std::span<const double> cw, std::span<const double> ce,
                       std::span<const double> cs, std::span<const double> cn,
                       const double* xc, const double* xs, const double* xn,
                       const double* csp, const double* xo, const double* bsub,
                       const double* wdot, ExactSum* dot,
                       std::span<double> y);

}  // namespace v2d::linalg::fusion
