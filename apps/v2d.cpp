/// \file v2d.cpp
/// \brief The unified V2D driver: any registered scenario, one binary.
///
/// Replaces the per-example wiring: every workload in the scenario catalog
/// runs through the same priced driver spine with the same knobs.
///
///   ./v2d --list-problems
///   ./v2d --problem gaussian-pulse --steps 20
///   ./v2d --problem sedov-radhydro --nx1 48 --nx2 48 --steps 15
///   ./v2d --problem hotspot-absorber --steps 10 --checkpoint run.h5l --checkpoint-every 5
///   ./v2d --problem hotspot-absorber --steps 20 --restart run.h5l
///   ./v2d --farm jobs.txt --host-threads 8
///
/// `--list-problems` prints one "name<TAB>description" line per catalog
/// entry (machine-friendly: CI iterates `v2d --list-problems | cut -f1`).
///
/// `--farm jobs.txt` runs a whole job list through one process (see
/// farm/job_file.hpp for the format): every line is a full v2d command
/// line, each job runs as its own session and all of them share the host
/// pool, and the run ends with a per-job table plus aggregate throughput.
/// Exit status is nonzero when any job failed.

#include <cstddef>
#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "farm/job_file.hpp"
#include "perfmon/perf_stat.hpp"
#include "resilience/fault_plan.hpp"
#include "scenario/registry.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "vla/vla.hpp"

namespace {

int run_farm(const std::string& job_path, const v2d::Options& opt) {
  using namespace v2d;
  farm::FarmOptions fopt;
  fopt.host_threads = opt.get_int<int>("host-threads");
  fopt.max_concurrent = opt.get_int<int>("farm-max-concurrent");
  fopt.fault_plan = resilience::FaultPlan(
      opt.get_int<std::uint64_t>("fault-seed"), opt.get("fault-spec"));
  fopt.max_retries = opt.get_int<int>("farm-max-retries");
  fopt.backoff_base_waves = opt.get_int<int>("farm-backoff-base");
  fopt.backoff_cap_waves = opt.get_int<int>("farm-backoff-cap");
  fopt.job_step_budget = opt.get_int("farm-step-budget");
  fopt.job_sim_budget = opt.get_double("farm-sim-budget");
  farm::FarmScheduler sched(fopt);
  for (auto& job : farm::parse_job_file(job_path))
    sched.add(std::move(job));

  std::cout << "v2d farm: " << sched.job_count() << " job(s) from "
            << job_path << "\n";
  if (fopt.fault_plan.active())
    std::cout << "fault injection: seed " << fopt.fault_plan.seed()
              << ", spec '" << opt.get("fault-spec") << "', max retries "
              << fopt.max_retries << "\n";
  const farm::FarmSummary sum = sched.run();

  TableWriter table("\nFarm jobs");
  table.set_columns({"job", "problem", "steps", "sim time", "check",
                     "t_sim (s)", "attempts", "status", "cause"});
  for (const auto& r : sum.jobs) {
    const std::string t0 =
        r.profile_elapsed.empty()
            ? std::string("-")
            : TableWriter::num(r.profile_elapsed.front().second, 3);
    table.add_row({r.name, r.problem, std::to_string(r.steps),
                   TableWriter::num(r.sim_time, 3),
                   r.error.empty() ? TableWriter::num(r.analytic_error, 3)
                                   : "-",
                   t0, std::to_string(r.attempts),
                   r.error.empty() ? "ok" : "FAILED",
                   r.cause.empty() ? "-" : r.cause});
  }
  std::cout << table.str();
  for (const auto& r : sum.jobs)
    if (!r.error.empty())
      std::cout << "job " << r.name << " failed: " << r.error << '\n';

  // Per-job recovery ledgers: every injected fault, fallback, retry,
  // backoff and quarantine, in step order.
  for (const auto& r : sum.jobs) {
    if (r.recovery.empty()) continue;
    std::cout << "recovery[" << r.name << "]:\n";
    for (const auto& ev : r.recovery)
      std::cout << "  " << resilience::format_event(ev) << '\n';
  }

  // Aggregate throughput.  The memo line is the *process-wide* total
  // (every session's fork family).
  const perfmon::MemoCacheStats memo{vla::process_memo_hits(),
                                     vla::process_memo_misses()};
  std::cout << "\nfarm summary:\n"
            << "  jobs:      " << (sum.jobs.size() - sum.failed) << " ok, "
            << sum.failed << " failed in "
            << TableWriter::num(sum.host_seconds, 3) << " s ("
            << TableWriter::num(sum.jobs_per_sec, 2) << " jobs/s)\n"
            << "  recovery:  " << sum.retries << " retries, "
            << sum.quarantined << " quarantined, " << sum.waves
            << " waves\n"
            << "  steps:     " << sum.scenario_steps << " scenario-steps ("
            << TableWriter::num(sum.steps_per_sec, 1) << " steps/s)\n"
            << "  " << perfmon::format_memo_cache(memo) << '\n';
  return sum.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace v2d;
  Options opt;
  core::RunConfig::register_options(opt);
  opt.add_flag("list-problems", "print the scenario catalog and exit");
  opt.add("farm", "", "run a job list through the farm (one v2d command "
                      "line per job; see src/farm/job_file.hpp)");
  opt.add("farm-max-concurrent", "0",
          "max resident farm sessions (0 = all jobs)");
  opt.add("fault-seed", "0",
          "deterministic fault-injection seed (0 = injection off); the "
          "same seed always produces the same fault schedule");
  opt.add("fault-spec", "throw",
          "fault clauses, comma-separated: kind | kind:count | kind@step "
          "with kind breakdown|nan|io|throw (see src/resilience/)");
  opt.add("farm-max-retries", "0",
          "retry a failed farm job this many times, resuming from its "
          "latest finalized checkpoint (0 = no retry)");
  opt.add("farm-backoff-base", "1",
          "waves the first retry waits; doubles per retry");
  opt.add("farm-backoff-cap", "8", "backoff ceiling in waves");
  opt.add("farm-step-budget", "0",
          "per-job driven-step budget across attempts (0 = unlimited); "
          "exceeding it is a deadline failure");
  opt.add("farm-sim-budget", "0",
          "per-job simulated-seconds budget on profile 0 (0 = unlimited)");
  try {
    if (!opt.parse_command_line(argc, argv, "v2d")) return 0;
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("v2d");
    return 1;
  }

  if (opt.get_bool("list-problems")) {
    for (const scenario::Scenario& s : scenario::catalog())
      std::cout << s.name << '\t' << s.description << '\n';
    return 0;
  }

  if (!opt.get("farm").empty()) {
    try {
      return run_farm(opt.get("farm"), opt);
    } catch (const std::exception& e) {
      std::cerr << "v2d farm: " << e.what() << '\n';
      return 1;
    }
  }

  try {
    const core::RunConfig cfg = core::RunConfig::from_options(opt);
    core::Simulation sim(cfg);
    // Solo fault injection: same deterministic schedule a farm would
    // derive for a job named after the problem.  Without --farm there is
    // no retry policy — a fault surfaces as a structured error (or a
    // guard trip when --guard on), which is the point of the demo.
    const resilience::FaultPlan plan(opt.get_int<std::uint64_t>("fault-seed"),
                                     opt.get("fault-spec"));
    resilience::FaultInjector injector(
        plan.schedule(cfg.problem, 0, cfg.steps));
    if (plan.active()) sim.set_fault_injector(&injector);
    if (!cfg.restart_path.empty()) sim.restart(cfg.restart_path);

    std::cout << "v2d: problem = " << cfg.problem << " ("
              << scenario::lookup(cfg.problem).description << ")\n"
              << "     " << cfg.nx1 << "x" << cfg.nx2 << "x" << cfg.ns
              << " unknowns, " << cfg.nranks() << " simulated rank(s) ("
              << cfg.nprx1 << "x" << cfg.nprx2 << ")";
    if (sim.steps_taken() > 0)
      std::cout << ", restarted at step " << sim.steps_taken();
    std::cout << "\n\n";

    const int total = cfg.steps;
    const int stride = std::max(1, (total - sim.steps_taken()) / 10);
    sim.run([&](const rad::StepStats& stats) {
      const int n = sim.steps_taken();
      if (n % stride == 0 || n == total) {
        std::cout << "step " << n << ": t = " << sim.time()
                  << ", iterations = " << stats.total_iterations()
                  << ", total energy = " << sim.total_energy() << '\n';
      }
    });

    std::cout << "\nscenario check (analytic error / conservation drift): "
              << sim.analytic_error() << '\n';
    if (!cfg.checkpoint_path.empty())
      std::cout << "checkpoint written to " << cfg.checkpoint_path << '\n';
    if (!sim.recovery().empty()) {
      std::cout << "recovery ledger:\n";
      for (const auto& ev : sim.recovery().events)
        std::cout << "  " << resilience::format_event(ev) << '\n';
    }

    TableWriter table("\nSimulated execution (per compiler profile)");
    table.set_columns({"profile", "time (s)", "flops", "bytes moved"});
    for (std::size_t p = 0; p < sim.exec().nprofiles(); ++p) {
      const auto led = sim.exec().merged_ledger(p);
      const double elapsed = sim.elapsed(p);
      table.add_row({sim.exec().profile(p).name(),
                     TableWriter::num(elapsed, 3),
                     elapsed > 0.0
                         ? units::rate(static_cast<double>(led.total_flops()) /
                                           elapsed,
                                       "flop")
                         : "-",
                     units::bytes(static_cast<double>(led.total_bytes()))});
    }
    std::cout << table.str();
    std::cout << "\nTAU-style call-site profile ("
              << sim.exec().profile(0).name() << "):\n"
              << sim.profiler(0).report();
  } catch (const std::exception& e) {
    // v2d::Error and anything else escaping a run (bad_alloc on an
    // oversized grid, length_error) end the same way: a message, exit 1.
    std::cerr << "v2d: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
