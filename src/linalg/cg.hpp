#pragma once
/// \file cg.hpp
/// \brief Preconditioned Conjugate Gradient baseline.
///
/// The paper introduces BiCGSTAB as "an extension of the Conjugate
/// Gradient (CG) method ... to those cases where the system matrix A is
/// non-symmetric".  CG is provided as the symmetric baseline: the
/// diffusion-only test systems are symmetric, so the benches can compare
/// the two solvers on identical systems.  Like BiCGSTAB it applies the
/// matrix-free StencilOperator, and its tail composite (r-update,
/// precond apply, {r·z, r·r}) runs as one DiagonalPrecond sweep under
/// FuseMode::Plan.

#include "linalg/bicgstab.hpp"
#include "linalg/precond.hpp"

namespace v2d::linalg {

class CgSolver {
public:
  /// Private workspace, allocated lazily on first solve.
  CgSolver(const grid::Grid2D& g, const grid::Decomposition& d, int ns);
  /// Borrow a shared workspace (slots 0..3; compatible with sharing the
  /// same workspace with a BicgstabSolver, which uses slots 0..7).
  explicit CgSolver(SolverWorkspace& ws) : ws_(&ws) {}

  /// Solve A·x = b (A must be symmetric positive definite; M symmetric).
  SolveStats solve(ExecContext& ctx, const StencilOperator& A,
                   Preconditioner& M, DistVector& x, const DistVector& b,
                   const SolveOptions& opt = {});

private:
  std::unique_ptr<SolverWorkspace> owned_;
  SolverWorkspace* ws_;
};

}  // namespace v2d::linalg
