#pragma once
/// \file workspace.hpp
/// \brief Reusable scratch-vector workspace for the Krylov solvers.
///
/// Every solver iteration needs a handful of grid-shaped temporaries.
/// Allocating them per solver instance (let alone per solve) churns the
/// allocator across the paper's 300-solve workload and the MG smoother's
/// repeated sweeps, so the scratch vectors live here instead: one
/// workspace per (grid, decomposition, species) shape, slots allocated
/// lazily on first use and reused for the lifetime of the workspace.
/// CgSolver and BicgstabSolver can share one workspace — their solves
/// never nest (a preconditioner owns its own level vectors), and slot k
/// is the same buffer in both, so a CG solve followed by a BiCGSTAB solve
/// on the same shape costs zero additional allocations.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/dist_vector.hpp"

namespace v2d::linalg {

class SolverWorkspace {
public:
  SolverWorkspace(const grid::Grid2D& g, const grid::Decomposition& d, int ns);

  /// The scratch vector in `slot`, allocating it on first access.
  /// Contents persist between calls; callers must not assume zeros.
  /// Slot materialization is mutex-guarded so concurrent par_ranks tasks
  /// can safely reach for scratch; the *contents* of one slot are still a
  /// single buffer whose per-rank tiles are disjoint, matching the rank
  /// ownership of every other distributed vector.
  DistVector& vec(std::size_t slot);

  /// Number of slots materialized so far (observability for tests).
  std::size_t allocated() const;

private:
  const grid::Grid2D* g_;
  const grid::Decomposition* d_;
  int ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<DistVector>> slots_;
};

}  // namespace v2d::linalg
