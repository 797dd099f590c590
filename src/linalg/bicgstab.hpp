#pragma once
/// \file bicgstab.hpp
/// \brief Preconditioned BiCGSTAB with V2D's ganged-reduction restructuring.
///
/// V2D "uses a restructured version of the BiCGSTAB algorithm, which gangs
/// inner products to reduce the number of parallel global reduction
/// operations required per iteration."  Both variants are provided:
///
///   Classic — textbook van der Vorst (1992): five separate global
///   reductions per iteration (ρ, r̂ᵀv, tᵀs, tᵀt, ‖r‖²).
///
///   Ganged  — three reductions per iteration: {ρ} · {r̂ᵀv} ·
///   {tᵀs, tᵀt, sᵀs}; the residual norm is reconstructed algebraically
///   from the last gang via ‖r‖² = sᵀs − 2ω·tᵀs + ω²·tᵀt.
///
/// The solver draws its eight grid-shaped temporaries from a
/// SolverWorkspace — either a shared one passed in (so CG, BiCGSTAB and
/// repeated solver constructions on the same shape reuse the same
/// buffers) or a private one it creates lazily — so the 300-solve Table I
/// workload reuses allocations.  The operator is the matrix-free
/// StencilOperator; its dot and residual composites pick their fused or
/// kernel-per-pass lowering from the context's FuseMode.

#include <cstdint>
#include <initializer_list>
#include <memory>

#include "linalg/precond.hpp"
#include "linalg/workspace.hpp"

namespace v2d::linalg {

struct SolveOptions {
  double rel_tol = 1.0e-8;
  int max_iterations = 1000;
  bool ganged = true;  ///< use the restructured (ganged) reduction scheme
};

struct SolveStats {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  std::int64_t global_reductions = 0;  ///< allreduce count issued

  /// Why the solver stopped.  Starts as the empty "unset" sentinel; every
  /// solver exit path assigns a definitive reason, so after solve() this
  /// is never null or empty (pinned by the solver tests).  Use
  /// stop_reason_set() rather than poking the C string.
  const char* stop_reason = "";

  /// True once a solver has assigned a definitive stop reason.
  bool stop_reason_set() const {
    return stop_reason != nullptr && stop_reason[0] != '\0';
  }

  /// If any of `reductions` is NaN or infinite (a contaminated operand),
  /// stop: no breakdown test or tolerance check can be trusted on it, so
  /// the solve ends unconverged with the reason "non-finite reduction" and
  /// a NaN residual.  Returns true when the solver must return.
  bool stop_if_non_finite(std::initializer_list<double> reductions);
};

class BicgstabSolver {
public:
  /// Private workspace, allocated lazily on first solve.
  BicgstabSolver(const grid::Grid2D& g, const grid::Decomposition& d, int ns);
  /// Borrow a shared workspace (slots 0..7).  The workspace must outlive
  /// the solver; solves must not nest with another borrower's.
  explicit BicgstabSolver(SolverWorkspace& ws) : ws_(&ws) {}

  /// Solve A·x = b starting from the provided x (initial guess).
  SolveStats solve(ExecContext& ctx, const StencilOperator& A,
                   Preconditioner& M, DistVector& x, const DistVector& b,
                   const SolveOptions& opt = {});

private:
  SolveStats solve_classic(ExecContext& ctx, const StencilOperator& A,
                           Preconditioner& M, DistVector& x,
                           const DistVector& b, const SolveOptions& opt);
  SolveStats solve_ganged(ExecContext& ctx, const StencilOperator& A,
                          Preconditioner& M, DistVector& x,
                          const DistVector& b, const SolveOptions& opt);

  std::unique_ptr<SolverWorkspace> owned_;
  SolverWorkspace* ws_;
};

}  // namespace v2d::linalg
