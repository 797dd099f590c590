#pragma once
/// \file farm.hpp
/// \brief Batched multi-scenario pricing service ("pricing as a service").
///
/// A FarmScheduler owns a queue of jobs — heterogeneous RunConfigs:
/// different problems, grids, vector lengths, compiler profiles — and
/// drives them through one long-lived process.  Per wave it steps every
/// active session once, concurrently on the process host pool (each step
/// still runs its own par_ranks inside, which executes inline on the
/// pool's lanes), and admits queued jobs as running ones finish.
///
/// Isolation contract: a farm session is a solo session.  Each job is a
/// core::Simulation built exactly as a solo run builds it — its own
/// vla::Context family (count memo), ExecModel (clocks, ledgers), solver
/// scratch, fields and checkpoints — and jobs share only the host pool.
/// Its trajectory, recorded counts and simulated clocks are bit-identical
/// to running the job alone: the farm is purely a host-throughput device
/// (sessions step concurrently), pinned by the farm determinism suite.
/// Wave interleaving carries no numerical meaning.
///
/// A job that throws (non-convergence, injected fault, bad restart file)
/// is retried with capped exponential backoff — measured in waves —
/// resuming from its own latest finalized checkpoint when it has one,
/// until FarmOptions::max_retries is exhausted; then it is quarantined
/// with its cause and full recovery ledger in its JobResult, and the
/// remaining jobs keep running.  Recovery is deterministic: retry resumes
/// restore clocks/ledgers bit-exactly, so a job that faults and retries
/// finishes bit-identical to the same job never faulted (pinned by
/// tests/test_resilience.cpp).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/v2d.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/recovery.hpp"

namespace v2d::farm {

/// One queued run: a name (unique within the farm, used for reporting)
/// plus the full RunConfig a solo run would use.  `host_threads` inside
/// the config is ignored: FarmScheduler::add() overwrites it with
/// FarmOptions::host_threads, so every session runs on the farm's lanes.
struct FarmJob {
  std::string name;
  core::RunConfig cfg;
};

struct FarmOptions {
  /// Host pool lanes for the whole batch (0 = hardware concurrency).
  int host_threads = 0;
  /// Sessions resident at once (0 = all jobs).  Bounds peak memory: a
  /// session's fields and solver scratch are freed when it retires.
  int max_concurrent = 0;
  /// Simulated machine every job is priced on.
  sim::MachineSpec machine = sim::MachineSpec::a64fx();
  /// Observer called on the scheduler thread for each *successful* job,
  /// after its final checkpoint and just before its session is destroyed
  /// — the determinism suite and benches capture fields/ledgers/clocks
  /// here for exact comparison against solo runs.
  std::function<void(std::size_t job_index, core::Simulation&)>
      on_job_complete;

  /// Seeded fault injection (inactive by default): every job gets a
  /// deterministic schedule derived from (seed, job name).
  resilience::FaultPlan fault_plan;
  /// Failed jobs are re-admitted up to this many times (0 = the pre-retry
  /// behavior: one strike and out).  Each retry resumes from the job's
  /// latest finalized checkpoint when its config writes one, from its
  /// original restart point otherwise.
  int max_retries = 0;
  /// Exponential backoff before re-admission, measured in scheduler
  /// waves: the k-th retry waits min(base << (k-1), cap) waves.
  int backoff_base_waves = 1;
  int backoff_cap_waves = 8;
  /// Per-job budgets (0 = unlimited): farm-driven steps summed across all
  /// attempts, and simulated seconds on profile 0.  A job exceeding
  /// either is quarantined as a deadline failure — the fate of runaway
  /// retry loops and jobs that can never finish.
  long job_step_budget = 0;
  double job_sim_budget = 0.0;
};

/// Outcome of one job.  `error` is empty on success; on failure the other
/// result fields hold whatever the job had reached when it threw.
struct JobResult {
  std::string name;
  std::string problem;
  std::string error;
  int steps = 0;             ///< total steps taken (includes restart base)
  int farmed_steps = 0;      ///< steps the farm drove in the final attempt
  double sim_time = 0.0;     ///< simulated physics time reached
  double analytic_error = 0.0;
  double total_energy = 0.0;
  /// Simulated wall-clock per compiler profile: (profile name, seconds) —
  /// the Table I numbers, bit-identical to a solo run's.
  std::vector<std::pair<std::string, double>> profile_elapsed;
  /// Sessions admitted for this job (1 = finished first try).
  int attempts = 1;
  /// Farm-driven steps summed over every attempt (re-driven steps after a
  /// retry count again — the cost of recovery).
  long driven_steps = 0;
  /// Failure classification for the result table ("" on success):
  /// "guard", "solver", "io", "injected", "setup", "deadline", or
  /// "error"; prefixed with "quarantined: " once retries are exhausted.
  std::string cause;
  /// Full recovery ledger accumulated across attempts: injected faults,
  /// solver fallbacks, retries, backoffs, quarantine.
  std::vector<resilience::RecoveryEvent> recovery;
};

/// Aggregate throughput and count-memo statistics for one run().
struct FarmSummary {
  std::vector<JobResult> jobs;
  std::size_t failed = 0;
  /// Retry attempts across all jobs (admissions beyond each job's first).
  std::uint64_t retries = 0;
  /// Jobs that failed with retries exhausted (subset of `failed`).
  std::uint64_t quarantined = 0;
  /// Scheduler waves the batch took (backoff is measured in these).
  std::uint64_t waves = 0;
  double host_seconds = 0.0;
  std::uint64_t scenario_steps = 0;  ///< farm-driven steps, all jobs
  double jobs_per_sec = 0.0;
  double steps_per_sec = 0.0;
  /// Count-memo totals: the sum of every session's own Context family
  /// counters, failed attempts included, each taken as its session retires.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Always 0: nothing in src/ sets these; perfbench/perfbench.cpp reads them
  std::uint64_t price_hits = 0;
  std::uint64_t price_misses = 0;
  std::size_t workspaces_created = 0;
  std::uint64_t workspaces_reused = 0;
};

class FarmScheduler {
public:
  /// Throws v2d::Error naming the option when a count, cap or budget is
  /// negative or a backoff is below one wave.
  explicit FarmScheduler(FarmOptions opt = {});

  /// Queue a job; returns its index (JobResults come back in add order).
  /// Job names must be unique; non-empty checkpoint paths must be unique
  /// across jobs (two jobs writing one file would corrupt both).
  std::size_t add(FarmJob job);
  std::size_t job_count() const { return jobs_.size(); }

  /// Run every queued job to completion and report.  Call once.
  FarmSummary run();

private:
  FarmOptions opt_;
  std::vector<FarmJob> jobs_;
};

}  // namespace v2d::farm
