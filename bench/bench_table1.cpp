/// \file bench_table1.cpp
/// \brief Reproduces Table I: whole-code times by compiler × topology.
///
/// Runs the paper's radiation test problem (Gaussian pulse, 200×100×2
/// unknowns, 3 BiCGSTAB solves per step) once per (Np, NX1, NX2) topology;
/// every run is priced simultaneously under GNU 11.1, Fujitsu 4.5,
/// Cray 21.03 (-O3 +SVE) and Cray (no-opt), exactly the four columns of
/// Table I.  The no-opt column is left blank beyond 25 processors, as in
/// the paper.
///
/// The default runs 10 of the paper's 100 steps and scales the reported
/// times to 100 (steps are statistically homogeneous); pass --steps 100
/// for the full-length run.
///
///   ./bench_table1 [--steps 100] [--rows all|quick] [--paper] [--tsv]

#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "perfmon/perf_stat.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

struct TopoRow {
  int np, nx1, nx2;
  bool has_noopt;  ///< the paper stops the no-opt column after 25 procs
  double paper_gnu, paper_fujitsu, paper_cray, paper_noopt;  // seconds
};

// The 12 rows of Table I with the paper's measurements (for side-by-side
// printing; −1 = no value published).
constexpr TopoRow kRows[] = {
    {1, 1, 1, true, 363.91, 252.31, 181.26, 262.57},
    {10, 10, 1, true, 43.85, 31.76, 24.20, 32.35},
    {20, 20, 1, true, 26.80, 19.79, 16.78, 20.66},
    {20, 10, 2, true, 25.74, 19.66, 15.73, 19.93},
    {20, 5, 4, true, 25.42, 18.85, 15.39, 19.79},
    {25, 25, 1, false, 24.62, 17.24, 15.65, -1},
    {40, 40, 1, false, 25.30, 13.97, 19.12, -1},
    {40, 20, 2, false, 22.88, 12.96, 17.37, -1},
    {40, 10, 4, false, 21.91, 13.04, 17.16, -1},
    {50, 50, 1, false, 30.10, 13.05, 25.56, -1},
    {50, 25, 2, false, 29.26, 12.09, 24.07, -1},
    {50, 10, 5, false, 27.55, 11.40, 23.51, -1},
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  opt.add("steps", "10", "time steps to run (scaled to 100 in the output)");
  opt.add("rows", "all", "'all' = 12 paper rows, 'quick' = 4 rows");
  opt.add("nx1", "200", "zones in x1");
  opt.add("nx2", "100", "zones in x2");
  opt.add_flag("tsv", "emit tab-separated values instead of a table");
  opt.add_flag("paper", "include the paper's measured values in the output");
  int steps = 0, nx1 = 0, nx2 = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_table1")) return 0;
    steps = opt.get_int<int>("steps");
    nx1 = opt.get_int<int>("nx1");
    nx2 = opt.get_int<int>("nx2");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_table1");
    return 1;
  }
  const bool quick = opt.get("rows") == "quick";
  const double scale = 100.0 / steps;

  std::cout << "Table I reproduction: Gaussian pulse, "
            << nx1 << "x" << nx2
            << "x2 unknowns, " << steps << " steps (times scaled to 100), "
            << "3 solves/step.\n\n";

  TableWriter table("TABLE I — TIMES BY COMPILER (simulated seconds)");
  std::vector<std::string> cols = {"Np",   "NX1",     "NX2",  "GNU",
                                   "Fujitsu", "Cray(opt)", "Cray(no-opt)"};
  if (opt.get_bool("paper")) {
    cols.insert(cols.end(),
                {"paper:GNU", "paper:Fujitsu", "paper:Cray", "paper:no-opt"});
  }
  table.set_columns(cols);

  for (const TopoRow& row : kRows) {
    if (quick && row.np != 1 && row.np != 20 && row.np != 50) continue;
    core::RunConfig cfg;
    cfg.nx1 = nx1;
    cfg.nx2 = nx2;
    cfg.steps = steps;
    cfg.nprx1 = row.nx1;
    cfg.nprx2 = row.nx2;
    cfg.compilers = {"gnu", "fujitsu", "cray", "cray-noopt"};
    core::Simulation sim(cfg);
    sim.run();

    std::vector<std::string> cells = {
        TableWriter::integer(row.np), TableWriter::integer(row.nx1),
        TableWriter::integer(row.nx2),
        TableWriter::num(sim.elapsed(0) * scale, 2),
        TableWriter::num(sim.elapsed(1) * scale, 2),
        TableWriter::num(sim.elapsed(2) * scale, 2),
        row.has_noopt ? TableWriter::num(sim.elapsed(3) * scale, 2)
                      : std::string{}};
    if (opt.get_bool("paper")) {
      auto paper_cell = [](double v) {
        return v < 0 ? std::string{} : TableWriter::num(v, 2);
      };
      cells.push_back(paper_cell(row.paper_gnu));
      cells.push_back(paper_cell(row.paper_fujitsu));
      cells.push_back(paper_cell(row.paper_cray));
      cells.push_back(paper_cell(row.paper_noopt));
    }
    table.add_row(cells);
    std::cerr << "  finished Np=" << row.np << " (" << row.nx1 << "x"
              << row.nx2 << ")\n";
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());

  // A perf-stat style record for the flagship configuration, as collected
  // in the study ("perf stat -e duration_time -e cpu-cycles ./v2d").
  std::cout << "\n";
  {
    core::RunConfig cfg;
    cfg.steps = 1;
    cfg.compilers = {"cray"};
    core::Simulation sim(cfg);
    sim.run();
    perfmon::PerfStatResult ps;
    ps.command = "v2d --problem gaussian-pulse --nprx1 1 --nprx2 1 (1 step)";
    ps.duration_seconds = sim.elapsed(0);
    ps.cpu_cycles = static_cast<std::uint64_t>(
        sim.exec().merged_ledger(0).total_cycles());
    std::cout << perfmon::format_perf_stat(ps);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table1: " << e.what() << '\n';
  return 1;
}
