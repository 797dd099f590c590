#pragma once
/// \file problem.hpp
/// \brief The workload interface behind the Simulation driver.
///
/// V2D's study priced exactly one workload — the 2-D Gaussian radiation
/// pulse — but the driver spine (grid + decomposition + multi-profile
/// pricer + profilers + checkpoints) is workload-agnostic.  A Problem
/// packages everything that *is* workload-specific:
///
///   * the domain box and aspect (make_grid),
///   * field allocation and initial conditions (initialize),
///   * the per-step physics (advance — radiation solves, hydro sweeps,
///     coupling, in whatever operator-split order the problem needs),
///   * a scenario-specific correctness number (analytic_error: analytic
///     reference where one exists, conservation violation otherwise),
///   * the conserved diagnostic (total_energy), and
///   * the checkpoint payload (write_state / read_state), so h5lite
///     restart works for any registered workload.
///
/// core::Simulation owns one Problem (looked up by RunConfig.problem in
/// the scenario catalog, registry.hpp) and delegates; everything the driver prices —
/// kernels, halo exchanges, allreduces, Io — flows through the same
/// ExecContext regardless of which problem is active.

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "io/h5lite.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"
#include "rad/radstep.hpp"

namespace v2d::scenario {

/// The driver spine a Problem builds its state on: everything is owned by
/// the Simulation and outlives the Problem's use of it.
struct ProblemSetup {
  const core::RunConfig* cfg = nullptr;
  const grid::Grid2D* grid = nullptr;
  const grid::Decomposition* dec = nullptr;
  linalg::ExecContext* ctx = nullptr;
};

class Problem {
public:
  virtual ~Problem() = default;

  /// Catalog name ("gaussian-pulse", "sedov-radhydro", ...).
  virtual const char* name() const = 0;

  /// Domain box for this problem.  Called before any field exists; the
  /// driver builds the decomposition on the returned grid.
  virtual grid::Grid2D make_grid(const core::RunConfig& cfg) const = 0;

  /// Allocate state and set initial conditions.  Setup is unpriced (the
  /// simulated machine starts its clocks at the first advance()); priced
  /// work must go through setup.ctx only from advance() onwards.
  virtual void initialize(const ProblemSetup& setup) = 0;

  /// Time step the next advance() should take.  The default is the
  /// configured dt; CFL-limited problems override (any pricing they do —
  /// e.g. the hydro dt allreduce — is part of the step's cost).
  virtual double pick_dt(linalg::ExecContext& ctx,
                         const core::RunConfig& cfg) {
    (void)ctx;
    return cfg.dt;
  }

  /// One operator-split timestep of size dt.  The returned StepStats
  /// carries the three radiation solves (every built-in problem runs the
  /// 3-solve radiation cycle; additional physics rides in the same step).
  virtual rad::StepStats advance(linalg::ExecContext& ctx, double dt) = 0;

  /// Scenario-specific correctness number at simulation time t: relative
  /// error against an analytic reference where one exists, relative
  /// conservation violation otherwise.  Smaller is better; 0 is exact.
  virtual double analytic_error(double t) const = 0;

  /// Conserved diagnostic (total energy in the problem's bookkeeping).
  virtual double total_energy() const = 0;

  /// Number of tile-shaped arrays the checkpoint payload serializes —
  /// the Io pricing of a checkpoint charges this many per-zone doubles.
  virtual int state_arrays() const = 0;

  /// Serialize the problem state into the checkpoint's "fields" group.
  virtual void write_state(io::Group& fields) const = 0;
  /// Restore the problem state from a checkpoint's "fields" group.
  virtual void read_state(const io::Group& fields) = 0;

  /// The radiation stack, for drivers/tests that reach through the
  /// Simulation (all built-in problems have one).
  virtual rad::RadiationStepper* stepper() { return nullptr; }
  virtual linalg::DistVector* radiation() { return nullptr; }
};

}  // namespace v2d::scenario
