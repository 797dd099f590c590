/// \file bench_ganged.cpp
/// \brief Ablation A: classic vs ganged BiCGSTAB reductions.
///
/// V2D's restructured BiCGSTAB gangs inner products into shared
/// allreduces (3 per iteration instead of 5).  This bench quantifies what
/// that buys at each processor count: allreduce counts, communication
/// seconds and total simulated time, on the paper's test problem.
///
///   ./bench_ganged [--steps 2] [--tsv]

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
    if (!opt.parse_command_line(argc, argv, "bench_ganged")) return 0;
    steps = opt.get_int<int>("steps");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_ganged");
    return 1;
  }

  TableWriter table(
      "Ablation A — ganged vs classic BiCGSTAB reductions (Cray profile)");
  table.set_columns({"Np", "scheme", "allreduces", "comm (s)", "total (s)",
                     "speedup"});

  for (const int np : {1, 4, 10, 20, 40, 50, 100}) {
    double classic_total = 0.0;
    for (const bool ganged : {false, true}) {
      core::RunConfig cfg;
      cfg.steps = steps;
      // Keep the paper problem; topology: widest x1 split that divides 200.
      cfg.nprx1 = np;
      cfg.nprx2 = 1;
      cfg.ganged = ganged;
      cfg.compilers = {"cray"};
      core::Simulation sim(cfg);
      sim.run();
      const auto led = sim.exec().merged_ledger(0);
      // Single-rank jobs record no allreduce ledger entry (the collective
      // is free and message-less there).
      const sim::RegionCost ar = led.has("mpi_allreduce")
                                     ? led.at("mpi_allreduce")
                                     : sim::RegionCost{};
      const double total = sim.elapsed(0);
      if (!ganged) classic_total = total;
      table.add_row(
          {TableWriter::integer(np), ganged ? "ganged" : "classic",
           TableWriter::integer(static_cast<long>(ar.comm_messages /
                                                  std::max(1, np))),
           TableWriter::num(ar.comm_seconds / std::max(1, np), 4),
           TableWriter::num(total, 4),
           ganged ? TableWriter::num(classic_total / total, 3) : ""});
    }
    std::cerr << "  finished Np=" << np << "\n";
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());
  std::cout << "\nGanging cuts the per-iteration reduction count from 5 to 3;"
               "\nthe benefit grows with Np as latency dominates.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ganged: " << e.what() << '\n';
  return 1;
}
