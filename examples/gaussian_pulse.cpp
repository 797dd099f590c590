/// \file gaussian_pulse.cpp
/// \brief The paper's radiation test problem, end to end.
///
/// Runs the diffusing Gaussian pulse on the full 200×100×2 configuration
/// (or any override), validates against the analytic free-space solution,
/// reports energy conservation, writes an h5lite checkpoint, and prints
/// the perf-stat record and TAU profile a study session on Ookami would
/// have produced.
///
///   ./gaussian_pulse [--steps 20] [--nprx1 5 --nprx2 4]
///                    [--checkpoint pulse.h5l] [--compilers cray,gnu]

#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "perfmon/perf_stat.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  core::RunConfig::register_options(opt);
  try {
    if (!opt.parse_command_line(argc, argv, "gaussian_pulse")) return 0;
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("gaussian_pulse");
    return 1;
  }
  core::RunConfig cfg = core::RunConfig::from_options(opt);
  if (!opt.was_set("steps")) cfg.steps = 20;
  if (!opt.was_set("limiter")) cfg.limiter = rad::LimiterKind::None;

  core::Simulation sim(cfg);
  const double e0 = sim.total_energy();
  std::cout << "Gaussian radiation pulse: " << cfg.nx1 << "x" << cfg.nx2
            << "x" << cfg.ns << " unknowns, " << cfg.nranks()
            << " simulated rank(s) (" << cfg.nprx1 << "x" << cfg.nprx2
            << "), dt = " << cfg.dt << "\n\n";

  for (int s = 0; s < cfg.steps; ++s) {
    const auto stats = sim.advance();
    if (!stats.all_converged()) {
      std::cerr << "solver failed at step " << sim.steps_taken() << '\n';
      return 1;
    }
    if (sim.steps_taken() % 5 == 0 || s + 1 == cfg.steps) {
      std::cout << "step " << sim.steps_taken() << ": t = " << sim.time()
                << ", iterations = " << stats.total_iterations()
                << ", energy drift = "
                << (sim.total_energy() - e0) / e0 << '\n';
    }
  }

  std::cout << "\nrelative L2 error vs analytic solution: "
            << sim.analytic_error()
            << (cfg.limiter == rad::LimiterKind::None
                    ? "  (unlimited diffusion: exact solution applies)"
                    : "  (limited diffusion: analytic profile approximate)")
            << '\n';

  if (!cfg.checkpoint_path.empty()) {
    sim.checkpoint(cfg.checkpoint_path);
    std::cout << "checkpoint written to " << cfg.checkpoint_path << '\n';
  }

  TableWriter table("\nSimulated execution (per compiler profile)");
  table.set_columns({"profile", "time (s)", "flops", "bytes moved"});
  for (std::size_t p = 0; p < sim.exec().nprofiles(); ++p) {
    const auto led = sim.exec().merged_ledger(p);
    table.add_row({sim.exec().profile(p).name(),
                   TableWriter::num(sim.elapsed(p), 3),
                   units::rate(static_cast<double>(led.total_flops()) /
                                   sim.elapsed(p),
                               "flop"),
                   units::bytes(static_cast<double>(led.total_bytes()))});
  }
  std::cout << table.str();

  perfmon::PerfStatResult ps;
  ps.command = "v2d --problem gaussian-pulse";
  ps.duration_seconds = sim.elapsed(0);
  ps.cpu_cycles =
      static_cast<std::uint64_t>(sim.exec().merged_ledger(0).total_cycles());
  std::cout << '\n' << perfmon::format_perf_stat(ps);
  std::cout << "TAU-style call-site profile ("
            << sim.exec().profile(0).name() << "):\n"
            << sim.profiler(0).report();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "gaussian_pulse: " << e.what() << '\n';
  return 1;
}
