#pragma once
/// \file v2d.hpp
/// \brief The V2D simulation driver: the paper's code under study.
///
/// Wires the workload-agnostic spine together: grid + NPRX1×NPRX2
/// decomposition, the multi-profile execution pricer, TAU-style
/// per-call-site profilers (one per compiler profile), and h5lite
/// checkpoint/restart.  Everything workload-specific — field setup,
/// per-step physics, analytic references, checkpoint payloads — lives in
/// the active scenario::Problem, looked up by RunConfig.problem in the
/// scenario catalog.  Running `steps` timesteps of the default
/// configuration (problem = "gaussian-pulse") reproduces the paper's
/// 300-linear-system workload.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"
#include "mpisim/exec_model.hpp"
#include "perfmon/profiler.hpp"
#include "rad/radstep.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/recovery.hpp"
#include "scenario/problem.hpp"
#include "sim/machine.hpp"

namespace v2d::core {

class Simulation {
public:
  /// Builds the whole runtime from scratch: sizes the host pool to
  /// cfg.host_threads, and gives the session its own vla::Context family
  /// (count memo), its own ExecModel (clocks, ledgers) and, through the
  /// problem's stepper, its own solver scratch.  A farm session is built
  /// the same way; the farm only sets every job's host_threads to its own
  /// lane count, so the resize is a no-op.
  explicit Simulation(const RunConfig& cfg,
                      sim::MachineSpec machine = sim::MachineSpec::a64fx());
  ~Simulation();

  const RunConfig& config() const { return cfg_; }
  const grid::Grid2D& grid() const { return grid_; }
  const grid::Decomposition& decomp() const { return dec_; }
  mpisim::ExecModel& exec() { return *em_; }
  const mpisim::ExecModel& exec() const { return *em_; }
  linalg::ExecContext& context() { return ctx_; }

  /// The active workload.
  scenario::Problem& problem() { return *problem_; }
  const scenario::Problem& problem() const { return *problem_; }

  /// The problem's radiation stack (every built-in problem has one).
  rad::RadiationStepper& stepper();
  linalg::DistVector& radiation();

  double time() const { return t_; }
  int steps_taken() const { return step_count_; }

  /// One timestep (the problem's operator-split cycle); updates profilers
  /// and simulated clocks.
  rad::StepStats advance();

  /// True when cfg.steps timesteps have been taken.
  bool finished() const { return step_count_ >= cfg_.steps; }

  /// One run()-loop iteration: advance, check convergence, write the
  /// cadence checkpoint if the step lands on it.  The farm drives
  /// sessions step-by-step through this so interleaved jobs keep exactly
  /// the semantics (and checkpoint pricing) of a solo run() loop.
  rad::StepStats drive_step();

  /// The final checkpoint run() writes after the last step — skipped when
  /// the periodic cadence already covered it (the duplicate would
  /// double-price the Io).  Idempotent once written.
  void finalize_checkpoints();

  /// Run until cfg.steps timesteps have been taken (continuing from a
  /// restart point, if any), writing checkpoints on the configured
  /// cadence.  `on_step` (optional) observes each step's stats.
  void run(const std::function<void(const rad::StepStats&)>& on_step = {});

  /// Simulated wall-clock under compiler profile p (the Table I number).
  double elapsed(std::size_t p) const { return em_->elapsed(p); }

  /// TAU-style profiler for compiler profile p.
  const perfmon::Profiler& profiler(std::size_t p) const {
    return profilers_.at(p);
  }

  /// Borrow a fault injector (see resilience/fault_plan.hpp): drive_step()
  /// consults it for scheduled NaN/exception/checkpoint faults and the
  /// stepper for solver breakdowns.  The injector outlives the session —
  /// the farm keeps it across retry attempts so a consumed (transient)
  /// fault stays consumed.  Null (default) = no injection.
  void set_fault_injector(resilience::FaultInjector* injector) {
    injector_ = injector;
  }

  /// This session's recovery ledger: injected faults and solver fallbacks
  /// recorded step by step.  The farm copies it out before retiring or
  /// retrying the session.
  const resilience::RecoveryLedger& recovery() const { return recovery_; }

  /// The problem's correctness number at the current time: analytic error
  /// where a reference exists, relative conservation violation otherwise.
  double analytic_error() const;

  /// The problem's conserved diagnostic (total energy).
  double total_energy() const;

  /// Write an h5lite checkpoint: the Io work is priced first, then the
  /// problem payload plus the full execution state (per-profile per-rank
  /// clocks and ledgers) is serialized, so a restarted run resumes the
  /// simulated machine exactly where the checkpoint left it.
  void checkpoint(const std::string& path);

  /// Resume from a checkpoint written by the same configuration: restores
  /// the problem state, step count, simulated time, and every profile's
  /// per-rank clocks and ledgers bit-exactly.  The restart read itself is
  /// not priced — the simulated machine persisted its state and continues
  /// as if it never stopped.  (Host-side TAU profilers restart empty;
  /// they profile the host session, not the simulated execution.)
  void restart(const std::string& path);

private:
  /// The --guard checks for the step just taken (no-op unless cfg.guard).
  void run_guards();

  RunConfig cfg_;
  std::unique_ptr<scenario::Problem> problem_;
  grid::Grid2D grid_;
  grid::Decomposition dec_;
  std::unique_ptr<mpisim::ExecModel> em_;
  linalg::ExecContext ctx_;
  std::vector<perfmon::Profiler> profilers_;
  double t_ = 0.0;
  int step_count_ = 0;
  int last_checkpoint_step_ = -1;
  resilience::FaultInjector* injector_ = nullptr;
  resilience::RecoveryLedger recovery_;
  /// Drift-sentinel baseline; invalid until the first guarded step after
  /// construction or restart (the first step has nothing to drift from).
  double guard_prev_energy_ = 0.0;
  bool guard_has_prev_ = false;
};

}  // namespace v2d::core
