/// \file bench_breakdown.cpp
/// \brief Reproduces the §II-E timing-analysis claims.
///
/// The paper reports, for the Cray -O3+SVE executable:
///  * 1 processor: ~141 s of 181 s in the matrix-vector multiplications,
///    ~14 s in preconditioning (ratios 0.78 and 0.077 of total);
///  * Arm MAP: each of the three BiCGSTAB call sites ≈ 31–33 % of total;
///  * 20 processors (5×4): ~7.5 s of 15 s in matvec at maximum per
///    processor (~0.5), preconditioning ~0.8 s (~0.05), with a significant
///    fraction in MPI calls.
///
/// This bench runs both configurations, prints the region breakdown from
/// the per-rank ledgers and the TAU-style call-site profile, and shows the
/// paper's fractions alongside.
///
///   ./bench_breakdown [--steps 20]

#include <exception>
#include <iostream>

#include "core/v2d.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace v2d;

void report(const std::string& title, core::Simulation& sim,
            double paper_matvec_frac, double paper_precond_frac) {
  const std::size_t p = 0;  // single profile: Cray
  const double total = sim.elapsed(p);

  // Max-per-rank region times, as Arm MAP / PAPI would report them.
  double matvec_max = 0.0, precond_max = 0.0, mpi_max = 0.0;
  const double freq = sim.exec().cost_model().machine().freq_hz;
  for (int r = 0; r < sim.exec().nranks(); ++r) {
    const auto& led = sim.exec().ledger(p, r);
    auto cyc = [&](const char* region) {
      return led.has(region) ? led.at(region).total_cycles / freq : 0.0;
    };
    auto comm = [&](const char* region) {
      return led.has(region) ? led.at(region).comm_seconds : 0.0;
    };
    matvec_max = std::max(matvec_max, cyc("matvec"));
    precond_max = std::max(precond_max, cyc("precond") + cyc("precond-build"));
    mpi_max = std::max(mpi_max, comm("mpi_allreduce") + comm("mpi_halo"));
  }

  std::cout << title << "\n  total simulated time: "
            << TableWriter::num(total, 3) << " s\n";
  TableWriter t;
  t.set_columns({"component", "max/rank (s)", "fraction", "paper fraction"});
  auto frac = [&](double v) { return TableWriter::num(v / total, 3); };
  t.add_row({"matvec", TableWriter::num(matvec_max, 3), frac(matvec_max),
             TableWriter::num(paper_matvec_frac, 3)});
  t.add_row({"preconditioning", TableWriter::num(precond_max, 3),
             frac(precond_max), TableWriter::num(paper_precond_frac, 3)});
  t.add_row({"MPI (halo+allreduce)", TableWriter::num(mpi_max, 3),
             frac(mpi_max), std::string{}});
  std::cout << t.str();

  std::cout << "\n  TAU/ParaProf call-site view (paper: each BiCGSTAB call "
               "site 31-33% of total):\n";
  std::cout << sim.profiler(p).report() << '\n';
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("steps", "20", "time steps per configuration");
  int steps = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_breakdown")) return 0;
    steps = opt.get_int<int>("steps");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_breakdown");
    return 1;
  }

  {
    core::RunConfig cfg;
    cfg.steps = steps;
    cfg.compilers = {"cray"};
    core::Simulation sim(cfg);
    sim.run();
    // Paper: 141/181 matvec, 14/181 preconditioning.
    report("=== 1 processor (1x1) ===", sim, 141.0 / 181.0, 14.0 / 181.0);
  }
  {
    core::RunConfig cfg;
    cfg.steps = steps;
    cfg.nprx1 = 5;
    cfg.nprx2 = 4;
    cfg.compilers = {"cray"};
    core::Simulation sim(cfg);
    sim.run();
    // Paper: ~7.5/15 matvec max per rank, ~0.8/15 preconditioning.
    report("=== 20 processors (5x4) ===", sim, 7.5 / 15.0, 0.8 / 15.0);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_breakdown: " << e.what() << '\n';
  return 1;
}
