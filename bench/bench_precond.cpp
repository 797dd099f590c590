/// \file bench_precond.cpp
/// \brief Ablation B: preconditioner choice (SPAI profiles vs baselines).
///
/// Compares identity / Jacobi / SPAI(0) / SPAI(1) on the paper's test
/// problem: BiCGSTAB iterations per solve, preconditioner build+apply
/// share, and total simulated time under the Cray profile.  This is the
/// trade the 2004 Swesty–Smolarski–Saylor paper studies: stronger
/// approximate inverses cost more per application than they save in
/// iterations on well-conditioned diffusion systems.
///
///   ./bench_precond [--steps 2] [--tsv]

#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  opt.add("steps", "2", "time steps per configuration");
  opt.add_flag("tsv", "emit tab-separated values");
  int steps = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_precond")) return 0;
    steps = opt.get_int<int>("steps");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_precond");
    return 1;
  }

  TableWriter table("Ablation B — preconditioner choice (Cray profile)");
  table.set_columns({"preconditioner", "iters/solve", "precond (s)",
                     "matvec (s)", "total (s)"});

  for (const char* kind : {"identity", "jacobi", "spai0", "spai"}) {
    core::RunConfig cfg;
    cfg.steps = steps;
    cfg.preconditioner = kind;
    cfg.max_iterations = 5000;
    cfg.compilers = {"cray"};
    core::Simulation sim(cfg);
    int iterations = 0;
    for (int s = 0; s < steps; ++s) {
      iterations += sim.advance().total_iterations();
    }
    const auto led = sim.exec().merged_ledger(0);
    const double freq = sim.exec().cost_model().machine().freq_hz;
    auto region_s = [&](const char* r) {
      return led.has(r) ? led.at(r).total_cycles / freq : 0.0;
    };
    table.add_row(
        {kind, TableWriter::num(iterations / (3.0 * steps), 1),
         TableWriter::num(region_s("precond") + region_s("precond-build"), 4),
         TableWriter::num(region_s("matvec"), 4),
         TableWriter::num(sim.elapsed(0), 4)});
    std::cerr << "  finished " << kind << "\n";
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_precond: " << e.what() << '\n';
  return 1;
}
