/// \file bench_compilers.cpp
/// \brief Ablation D: the full compiler axis on the kernel driver.
///
/// Table II only publishes the Cray compiler; the paper's future work asks
/// how the other compilers (and Clang) fare on the same kernels.  This
/// bench runs the Table II driver under every profile with SVE on and off.
///
///   ./bench_compilers [--reps 2000] [--tsv]

#include <exception>
#include <iostream>

#include "compiler/profile.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/stencil_op.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  opt.add("reps", "2000", "repetitions of each routine");
  opt.add_flag("tsv", "emit tab-separated values");
  long reps = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_compilers")) return 0;
    reps = opt.get_int("reps");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_compilers");
    return 1;
  }

  // All vendor profiles plus their no-SVE variants, priced simultaneously.
  std::vector<compiler::CodegenProfile> profiles;
  for (const char* name : {"gnu", "fujitsu", "cray", "clang"}) {
    profiles.push_back(compiler::find_profile(name));
    profiles.push_back(compiler::find_profile(name).without_sve());
  }

  grid::Grid2D g(25, 20, 0.0, 1.0, 0.0, 1.0);
  grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
  mpisim::ExecModel em(sim::MachineSpec::a64fx(), profiles, 1);
  linalg::ExecContext ctx(vla::VectorArch(512), &em,
                          vla::VlaExecMode::Native);

  linalg::DistVector x(g, dec, 2), y(g, dec, 2), z(g, dec, 2);
  x.fill(ctx, 1.25);
  y.fill(ctx, 0.75);
  z.fill(ctx, 0.5);
  linalg::StencilOperator A(g, dec, 2);
  A.cc().fill(4.0);
  A.cw().fill(-1.0);
  A.ce().fill(-1.0);
  A.cs().fill(-1.0);
  A.cn().fill(-1.0);
  A.zero_boundary_coefficients();
  A.set_evaluation_overhead(linalg::kMatvecEvalDoublesRead,
                            linalg::kMatvecEvalFlops);

  for (long r = 0; r < reps; ++r) {
    A.apply(ctx, x, y);
    (void)linalg::DistVector::dot(ctx, x, y);
    y.daxpy(ctx, 1.0000001, x);
    y.dscal(ctx, 0.75, 1.0000001);
    z.ddaxpy(ctx, 1.0000001, x, 0.999999, y);
  }

  TableWriter table(
      "Ablation D — Table II driver under every compiler profile");
  table.set_columns({"compiler", "MATVEC", "DPROD", "DAXPY", "DSCAL",
                     "DDAXPY", "SVE/no-SVE (MATVEC)"});
  const double freq = em.cost_model().machine().freq_hz;
  for (std::size_t p = 0; p < profiles.size(); p += 2) {
    const auto sve = em.merged_ledger(p);
    const auto no_sve = em.merged_ledger(p + 1);
    auto ms = [&](const sim::CostLedger& l, const char* r) {
      return l.at(r).total_cycles / freq * 1e3;
    };
    table.add_row({profiles[p].name(), TableWriter::num(ms(sve, "matvec"), 2),
                   TableWriter::num(ms(sve, "dprod"), 2),
                   TableWriter::num(ms(sve, "daxpy"), 2),
                   TableWriter::num(ms(sve, "dscal"), 2),
                   TableWriter::num(ms(sve, "ddaxpy"), 2),
                   TableWriter::num(ms(sve, "matvec") / ms(no_sve, "matvec"),
                                    2)});
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());
  std::cout << "\n(Times in ms of simulated A64FX execution; last column is "
               "the per-compiler SVE benefit on MATVEC.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_compilers: " << e.what() << '\n';
  return 1;
}
