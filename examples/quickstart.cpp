/// \file quickstart.cpp
/// \brief Smallest complete use of the v2dsve public API.
///
/// Solves one V2D radiation system on a small grid under two simulated
/// compiler configurations and prints what the study would measure: the
/// simulated times, the solver statistics, and where the time went.
///
///   ./quickstart [--nx1 64 --nx2 32 --steps 5 ...]
///
/// Try `--precond mg` to swap the SPAI preconditioner for the geometric
/// multigrid V-cycle (tune with --mg-smoother, --mg-nu-pre, ...).

#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  core::RunConfig::register_options(opt);
  try {
    if (!opt.parse_command_line(argc, argv, "quickstart")) return 0;
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("quickstart");
    return 1;
  }

  core::RunConfig cfg = core::RunConfig::from_options(opt);
  // Quickstart defaults: a small fast problem unless the user overrides.
  if (!opt.was_set("nx1")) cfg.nx1 = 64;
  if (!opt.was_set("nx2")) cfg.nx2 = 32;
  if (!opt.was_set("steps")) cfg.steps = 5;
  if (!opt.was_set("compilers")) cfg.compilers = {"cray", "cray-noopt"};

  core::Simulation sim(cfg);
  std::cout << "v2dsve quickstart: " << cfg.nx1 << "x" << cfg.nx2 << "x"
            << cfg.ns << " unknowns, " << cfg.steps << " steps, "
            << cfg.nranks() << " simulated rank(s)\n\n";

  for (int s = 0; s < cfg.steps; ++s) {
    const auto stats = sim.advance();
    std::cout << "step " << sim.steps_taken() << ": iterations per solve =";
    for (const auto& sv : stats.solves) std::cout << ' ' << sv.iterations;
    std::cout << (stats.all_converged() ? "  (converged)" : "  (FAILED)")
              << '\n';
  }

  std::cout << "\ntotal radiation energy: " << sim.total_energy() << '\n';

  TableWriter table("\nSimulated time by compiler profile");
  table.set_columns({"profile", "SVE", "time (s)"});
  for (std::size_t p = 0; p < sim.exec().nprofiles(); ++p) {
    const auto& prof = sim.exec().profile(p);
    table.add_row({prof.name(),
                   prof.mode() == sim::ExecMode::SVE ? "yes" : "no",
                   TableWriter::num(sim.elapsed(p), 3)});
  }
  std::cout << table.str();

  std::cout << "\nTAU-style profile (" << sim.exec().profile(0).name()
            << "):\n"
            << sim.profiler(0).report();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << '\n';
  return 1;
}
