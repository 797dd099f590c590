#pragma once
/// \file radstep.hpp
/// \brief The radiation timestep: three BiCGSTAB solves per step.
///
/// "Each time step requires the solution of three unique x1 × x2 × 2
/// linear systems via the BiCGSTAB algorithm."  The operator-split cycle
/// implemented here matches that count:
///
///   solve 1 (predictor) — backward-Euler diffusion with limiters lagged
///            at Eⁿ, producing E*;
///   solve 2 (corrector) — diffusion re-solved with limiters refreshed
///            from E* (rhs still at time level n), producing E**;
///   solve 3 (coupling)  — radiation–matter / species-exchange system
///            built from E**, producing E^{n+1}; the matter temperature
///            is then updated explicitly.
///
/// Every solve rebuilds the SPAI preconditioner (the coefficients change),
/// mirroring V2D's per-system preconditioning.  The driver profiles the
/// three call sites separately — the paper's TAU analysis reports each of
/// the three BiCGSTAB call sites at 31–33 % of total time.

#include <array>
#include <string>
#include <vector>

#include "linalg/bicgstab.hpp"
#include "linalg/mg/options.hpp"
#include "rad/fld.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/recovery.hpp"

namespace v2d::rad {

struct StepStats {
  std::array<linalg::SolveStats, 3> solves;
  /// Simulated seconds each solve call site took, per compiler profile
  /// (empty when the step ran unpriced).  Includes the preconditioner
  /// build and system assembly attributed to that site.
  std::array<std::vector<double>, 3> site_elapsed;

  int total_iterations() const {
    int n = 0;
    for (const auto& s : solves) n += s.iterations;
    return n;
  }
  bool all_converged() const {
    for (const auto& s : solves)
      if (!s.converged) return false;
    return true;
  }
};

class RadiationStepper {
public:
  RadiationStepper(const grid::Grid2D& g, const grid::Decomposition& d,
                   FldBuilder builder, linalg::SolveOptions solver_options = {},
                   std::string preconditioner = "spai0",
                   linalg::mg::MgOptions mg_options = {});

  FldBuilder& builder() { return builder_; }
  const linalg::SolveOptions& solver_options() const { return opt_; }

  /// Deterministic fallback chain: when a solve fails (breakdown or max
  /// iterations), re-attempt from the same initial guess with each of
  /// these preconditioners in order.  Empty (default) = fail as before —
  /// the chain never engages on a converging solve, so configuring it
  /// changes nothing until a failure actually happens.
  void set_fallbacks(std::vector<std::string> kinds) {
    fallbacks_ = std::move(kinds);
  }
  const std::vector<std::string>& fallbacks() const { return fallbacks_; }

  /// Per-step resilience context, re-armed by the driver before every
  /// advance: the fault injector consulted for scheduled breakdowns
  /// (null = none), the recovery ledger fallback events are recorded to
  /// (null = unrecorded), and the 1-based step number being computed.
  void set_resilience(resilience::FaultInjector* injector,
                      resilience::RecoveryLedger* ledger, int step) {
    injector_ = injector;
    recovery_ = ledger;
    step_ = step;
  }

  /// Advance the radiation field by dt in place.
  StepStats step(linalg::ExecContext& ctx, linalg::DistVector& e, double dt);

  /// Run one of the three solves in isolation (benches use this to pin a
  /// call site).  `which` is 0, 1 or 2.
  linalg::SolveStats solve_site(linalg::ExecContext& ctx,
                                linalg::DistVector& e, double dt, int which);

private:
  linalg::SolveStats run_solve(linalg::ExecContext& ctx,
                               linalg::StencilOperator& A,
                               linalg::DistVector& x,
                               const linalg::DistVector& b, int site);

  FldBuilder builder_;
  linalg::SolveOptions opt_;
  std::string precond_kind_;
  std::vector<std::string> fallbacks_;
  resilience::FaultInjector* injector_ = nullptr;
  resilience::RecoveryLedger* recovery_ = nullptr;
  int step_ = 0;
  linalg::mg::MgOptions mg_options_;
  linalg::StencilOperator a_diffusion_;
  linalg::StencilOperator a_coupling_;
  /// Scratch shared across all solves; declared before solver_, which
  /// borrows it.
  linalg::SolverWorkspace workspace_;
  linalg::BicgstabSolver solver_;
  linalg::DistVector rhs_, e_star_, e_old_;
};

}  // namespace v2d::rad
