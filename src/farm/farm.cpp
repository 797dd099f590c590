#include "farm/farm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace v2d::farm {

namespace {

/// One resident session.
struct Active {
  std::size_t index = 0;  ///< position in jobs_ / FarmSummary::jobs
  std::unique_ptr<core::Simulation> sim;
  int admitted_at_step = 0;  ///< steps_taken() when admitted (restart base)
  std::string error;
};

/// Per-job state that outlives individual attempts: the consumable fault
/// schedule (a transient that fired stays fired across retries), the
/// accumulated recovery ledger, and the attempt/step counters the retry
/// policy and budgets run on.
struct JobState {
  int attempts = 0;
  long steps_driven = 0;  ///< farm-driven steps summed over all attempts
  std::unique_ptr<resilience::FaultInjector> injector;
  std::vector<resilience::RecoveryEvent> recovery;
};

/// A job waiting out its backoff.
struct Waiting {
  std::size_t index = 0;
  std::uint64_t resume_wave = 0;
};

bool file_exists(const std::string& path) {
  return !path.empty() && std::ifstream(path).good();
}

/// Failure classification for the result table's cause column.
std::string classify(const std::string& error) {
  if (error.find("numeric guard") != std::string::npos) return "guard";
  if (error.find("injected checkpoint I/O") != std::string::npos ||
      error.find("h5lite") != std::string::npos)
    return "io";
  if (error.find("injected session-step") != std::string::npos)
    return "injected";
  if (error.find("converge") != std::string::npos) return "solver";
  return "error";
}

JobResult make_result(const FarmJob& job, const Active& a,
                      const JobState& st, const std::string& cause) {
  JobResult r;
  r.name = job.name;
  r.problem = job.cfg.problem;
  r.error = a.error;
  r.cause = cause;
  r.attempts = std::max(st.attempts, 1);
  r.driven_steps = st.steps_driven;
  r.recovery = st.recovery;
  if (a.sim != nullptr) {
    const core::Simulation& sim = *a.sim;
    r.steps = sim.steps_taken();
    r.farmed_steps = sim.steps_taken() - a.admitted_at_step;
    r.sim_time = sim.time();
    if (a.error.empty()) {
      r.analytic_error = sim.analytic_error();
      r.total_energy = sim.total_energy();
    }
    for (std::size_t p = 0; p < sim.exec().nprofiles(); ++p)
      r.profile_elapsed.emplace_back(sim.exec().profile(p).name(),
                                     sim.elapsed(p));
  }
  return r;
}

}  // namespace

FarmScheduler::FarmScheduler(FarmOptions opt) : opt_(std::move(opt)) {
  auto require_at_least = [](auto value, decltype(value) least,
                             const char* field, const char* option) {
    if (value >= least) return;  // false for NaN as well
    std::ostringstream os;
    os << "farm option " << field << " (--" << option << ") must be >= "
       << least << ", got " << value;
    throw Error(os.str());
  };
  require_at_least(opt_.host_threads, 0, "host_threads", "host-threads");
  try {
    check_host_threads(opt_.host_threads);
  } catch (const Error& e) {
    throw Error(std::string("farm option host_threads (--host-threads): ") +
                e.what());
  }
  require_at_least(opt_.max_concurrent, 0, "max_concurrent",
                   "farm-max-concurrent");
  require_at_least(opt_.max_retries, 0, "max_retries", "farm-max-retries");
  require_at_least(opt_.backoff_base_waves, 1, "backoff_base_waves",
                   "farm-backoff-base");
  require_at_least(opt_.backoff_cap_waves, 1, "backoff_cap_waves",
                   "farm-backoff-cap");
  require_at_least(opt_.job_step_budget, 0L, "job_step_budget",
                   "farm-step-budget");
  require_at_least(opt_.job_sim_budget, 0.0, "job_sim_budget",
                   "farm-sim-budget");
}

std::size_t FarmScheduler::add(FarmJob job) {
  V2D_REQUIRE(!job.name.empty(), "farm job needs a name");
  for (const auto& j : jobs_) {
    V2D_REQUIRE(j.name != job.name,
                "duplicate farm job name '" + job.name + "'");
    V2D_REQUIRE(job.cfg.checkpoint_path.empty() ||
                    j.cfg.checkpoint_path != job.cfg.checkpoint_path,
                "farm jobs '" + j.name + "' and '" + job.name +
                    "' share checkpoint path '" + job.cfg.checkpoint_path +
                    "'");
  }
  // Every session runs on the farm's lanes: its constructor's resize of
  // the host pool then finds the pool already at this size.
  job.cfg.host_threads = opt_.host_threads;
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

FarmSummary FarmScheduler::run() {
  V2D_REQUIRE(!jobs_.empty(),
              "farm has no jobs to run (empty or comment-only job file?)");
  FarmSummary out;
  out.jobs.resize(jobs_.size());

  // The farm sizes the host pool once for the batch; every job carries
  // the same host_threads (see add()), so admission never resizes it.
  set_host_threads(opt_.host_threads);

  const std::size_t cap = opt_.max_concurrent > 0
                              ? static_cast<std::size_t>(opt_.max_concurrent)
                              : std::max<std::size_t>(jobs_.size(), 1);

  std::vector<JobState> state(jobs_.size());
  if (opt_.fault_plan.active()) {
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      state[i].injector = std::make_unique<resilience::FaultInjector>(
          opt_.fault_plan.schedule(jobs_[i].name, 0, jobs_[i].cfg.steps));
  }

  // Construction and restart run on the scheduler thread — setup is
  // unpriced and cheap relative to stepping, and it keeps registry/IO
  // access serial.  A retry resumes from the job's own latest finalized
  // checkpoint when one exists (atomic writes guarantee any file on the
  // real path is complete); an unreadable checkpoint demotes the retry to
  // the job's original starting point rather than killing it.
  auto admit = [&](std::size_t idx) {
    Active a;
    a.index = idx;
    const FarmJob& job = jobs_[idx];
    JobState& st = state[idx];
    ++st.attempts;
    const bool is_retry = st.attempts > 1;
    try {
      a.sim = std::make_unique<core::Simulation>(job.cfg, opt_.machine);
      a.sim->set_fault_injector(st.injector.get());
      std::string resume = job.cfg.restart_path;
      if (is_retry && file_exists(job.cfg.checkpoint_path)) {
        try {
          a.sim->restart(job.cfg.checkpoint_path);
          st.recovery.push_back(
              {a.sim->steps_taken(), "retry",
               "attempt " + std::to_string(st.attempts) + " resuming from '" +
                   job.cfg.checkpoint_path + "' at step " +
                   std::to_string(a.sim->steps_taken()),
               st.attempts});
          resume.clear();
        } catch (const std::exception& e) {
          // Rebuild: a failed restart may have half-restored the session.
          st.recovery.push_back({0, "retry",
                                 "checkpoint '" + job.cfg.checkpoint_path +
                                     "' unreadable (" + e.what() +
                                     "); attempt " +
                                     std::to_string(st.attempts) +
                                     " restarting from scratch",
                                 st.attempts});
          a.sim = std::make_unique<core::Simulation>(job.cfg, opt_.machine);
          a.sim->set_fault_injector(st.injector.get());
        }
      } else if (is_retry) {
        st.recovery.push_back({0, "retry",
                               "attempt " + std::to_string(st.attempts) +
                                   " restarting from scratch (no finalized "
                                   "checkpoint)",
                               st.attempts});
      }
      if (!resume.empty()) a.sim->restart(resume);
      a.admitted_at_step = a.sim->steps_taken();
    } catch (const std::exception& e) {
      a.error = e.what();
    }
    return a;
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Active> active;
  std::vector<Waiting> waiting;
  std::size_t next = 0;
  std::uint64_t wave = 0;
  while (!active.empty() || next < jobs_.size() || !waiting.empty()) {
    // Re-admit backed-off jobs whose wave has come (in job order, for a
    // deterministic admission sequence), then fresh jobs, up to the cap.
    std::vector<std::size_t> due;
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (it->resume_wave <= wave) {
        due.push_back(it->index);
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(due.begin(), due.end());
    for (const std::size_t idx : due) active.push_back(admit(idx));
    while (active.size() < cap && next < jobs_.size()) {
      active.push_back(admit(next));
      ++next;
    }

    // One wave: every resident session takes one step, concurrently on
    // the host pool.  Each step's own par_ranks executes inline inside
    // its wave task, so cross-session and intra-step parallelism share
    // the same lanes without oversubscription.
    parallel_for(static_cast<int>(active.size()), [&](int i) {
      Active& a = active[static_cast<std::size_t>(i)];
      if (!a.error.empty() || a.sim->finished()) return;
      try {
        a.sim->drive_step();
      } catch (const std::exception& e) {
        a.error = e.what();
      }
    });

    // Retire finished sessions, quarantine or back off failed ones.
    for (auto it = active.begin(); it != active.end();) {
      JobState& st = state[it->index];
      bool failed = !it->error.empty();
      std::string cause = failed ? classify(it->error) : "";

      // Budgets: a job still running past its step or sim-clock budget
      // becomes a deadline failure (no retry — more attempts only burn
      // more budget).
      if (!failed && it->sim != nullptr && !it->sim->finished()) {
        const long driven =
            st.steps_driven + (it->sim->steps_taken() - it->admitted_at_step);
        if (opt_.job_step_budget > 0 && driven >= opt_.job_step_budget) {
          it->error = "job step budget (" +
                      std::to_string(opt_.job_step_budget) +
                      " driven steps) exhausted at step " +
                      std::to_string(it->sim->steps_taken());
          failed = true;
          cause = "deadline";
        } else if (opt_.job_sim_budget > 0.0 &&
                   it->sim->elapsed(0) > opt_.job_sim_budget) {
          it->error = "job simulated-time budget exceeded at step " +
                      std::to_string(it->sim->steps_taken());
          failed = true;
          cause = "deadline";
        }
      }

      if (!failed && !it->sim->finished()) {
        ++it;
        continue;
      }

      // The final checkpoint is part of the job: a write failure here
      // (injected or real) fails the attempt and goes through the same
      // retry path as a mid-run failure.
      if (!failed && it->sim != nullptr) {
        try {
          it->sim->finalize_checkpoints();
        } catch (const std::exception& e) {
          it->error = e.what();
          failed = true;
          cause = classify(it->error);
        }
      }

      // Fold the attempt's session-level recovery events and step count
      // into the job's persistent state, and its count-memo counters (its
      // own family, as in a solo run) into the summary, before the session
      // goes away.
      if (it->sim != nullptr) {
        const auto& session_events = it->sim->recovery().events;
        st.recovery.insert(st.recovery.end(), session_events.begin(),
                           session_events.end());
        st.steps_driven += it->sim->steps_taken() - it->admitted_at_step;
        out.memo_hits += it->sim->context().vctx.memo_hits();
        out.memo_misses += it->sim->context().vctx.memo_misses();
      }

      if (failed && cause != "deadline" && st.attempts <= opt_.max_retries) {
        // Back off, then retry: the k-th retry waits min(base << (k-1),
        // cap) waves.  The failed session is destroyed now; re-admission
        // constructs a fresh one from the latest finalized checkpoint.
        const int k = st.attempts;
        const long base = opt_.backoff_base_waves;
        const int shift = std::min(k - 1, 30);
        const long backoff =
            std::min(base << shift, static_cast<long>(opt_.backoff_cap_waves));
        st.recovery.push_back(
            {it->sim != nullptr ? it->sim->steps_taken() : 0, "backoff",
             "attempt " + std::to_string(k) + " failed (" + cause + ": " +
                 it->error + "); backing off " + std::to_string(backoff) +
                 " wave(s)",
             backoff});
        waiting.push_back({it->index, wave + static_cast<std::uint64_t>(
                                                 backoff)});
        ++out.retries;
        it = active.erase(it);
        continue;
      }

      if (failed && st.attempts > opt_.max_retries && opt_.max_retries > 0) {
        cause = "quarantined: " + cause;
        st.recovery.push_back({0, "quarantine",
                               "retries exhausted after " +
                                   std::to_string(st.attempts) +
                                   " attempt(s): " + it->error,
                               st.attempts});
        ++out.quarantined;
      }

      out.jobs[it->index] = make_result(jobs_[it->index], *it, st, cause);
      if (it->error.empty() && opt_.on_job_complete)
        opt_.on_job_complete(it->index, *it->sim);
      it = active.erase(it);
    }
    ++wave;
  }
  out.waves = wave;

  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& r : out.jobs) {
    if (!r.error.empty()) ++out.failed;
    out.scenario_steps +=
        static_cast<std::uint64_t>(std::max(r.driven_steps, 0L));
  }
  // Throughput rates only when the timer resolved — a sub-microsecond
  // batch (trivial jobs on a coarse clock) must not divide by ~0 and
  // report absurd rates.
  if (out.host_seconds > 1e-9) {
    out.jobs_per_sec =
        static_cast<double>(jobs_.size() - out.failed) / out.host_seconds;
    out.steps_per_sec =
        static_cast<double>(out.scenario_steps) / out.host_seconds;
  }
  return out;
}

}  // namespace v2d::farm
