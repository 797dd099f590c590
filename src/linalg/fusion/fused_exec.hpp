#pragma once
/// \file fused_exec.hpp
/// \brief Execute FusionPlans in all three execution representations.
///
/// A planned group runs as:
///   - Interpret: a generic multi-op sweep that walks the GroupProgram's
///     steps per strip through vla::Context ops (recording op-by-op, like
///     every other interpreted kernel);
///   - Native: a stamped-out template from a fixed set keyed by the
///     fused-op signature (GroupProgram::sig), compiled at both vector
///     widths (support/simd.hpp), with the recording made by dry-running
///     the interpreter sweep once per (group, n)
///     (vla::Context::record_dry) and memoized in the Context's count
///     cache under a signature-disjoint key space;
///   - both paths produce bit-identical results: elementwise steps evaluate
///     the same per-element expressions in the same association order, and
///     each fused dot is a post-sweep tail that adds the exact sum of its
///     stored operands' products to the caller's ExactSum — whose value no
///     order of rows, ranks or threads can change.
///
/// The convenience entry points below are the only fused composites: each
/// plans its built-in chain at compile time and binds the operands.  The
/// composite operations (StencilOperator::apply_dot/apply_residual*,
/// DistVector::daxpy2/assign_axpy/p_update, the diagonal preconditioners'
/// apply_dot2) call them under FuseMode::Plan.

#include <span>

#include "linalg/fusion/planner.hpp"
#include "support/exact_sum.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::fusion {

/// Operand binding for one plan execution: slot index → base pointer,
/// scalar index → value, accumulator index → caller's exact dot.
/// Temporary slots need no binding (they live in registers).
struct Bind {
  double* slot[kMaxSlots] = {};
  double scal[kMaxScalars] = {};
  ExactSum* acc[kMaxAccs] = {};
  std::size_t n = 0;
};

/// Execute every group of `plan` over the binding, dispatching on the
/// context's exec mode.  Native groups must have a registered stamp.
void run(vla::Context& ctx, const FusionPlan& plan, const Bind& bind);

/// The generic interpreter sweep for one group (also the reference backend
/// the stamps are differentially tested against, and the recording of the
/// native stamps).  In a dry context it records the whole sweep, reduction
/// epilogue included, but skips the dot tails.
void run_interpret(vla::Context& ctx, const GroupProgram& g, const Bind& bind);

/// The group's dot tails: acc[t.acc] += Σ slot[t.slot_a][i]·slot[t.slot_b][i]
/// for each tail t, exactly.  Both backends run them after the sweep.
void run_dot_tails(const GroupProgram& g, const Bind& bind);

// --- planner-generated composites -------------------------------------------

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
