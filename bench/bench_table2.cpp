/// \file bench_table2.cpp
/// \brief Reproduces Table II: linear-algebra routine times, SVE vs no-SVE.
///
/// "We wrote a simple single-processor driver program that exercised the
/// actual V2D routines that are utilized in the BiCGSTAB solver ...  We
/// used a linear system with 1000 equations and repeated operations
/// 100,000 times."  This bench does exactly that: a 25×20×2 grid gives the
/// 1000-unknown system; MATVEC, DPROD, DAXPY, DSCAL and DDAXPY run `reps`
/// times under the Cray profile with and without SVE, timed through the
/// PAPI-style counter interface.  The paper's ratio band is 0.16–0.31.
///
///   ./bench_table2 [--reps 100000] [--compiler cray] [--tsv]

#include <exception>
#include <iostream>

#include "compiler/profile.hpp"
#include "core/v2d.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "perfmon/papi.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace v2d;

/// Fill a vector with a reproducible smooth-ish random field.
void randomize(linalg::DistVector& v, Rng& rng) {
  auto& f = v.field();
  const auto& dec = f.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < v.ns(); ++s) {
      grid::TileView view = f.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          view(li, lj) = 0.5 + rng.uniform();
    }
  }
}

/// Diffusion-like SPD coefficients for the MATVEC.
void fill_coefficients(linalg::StencilOperator& A, Rng& rng) {
  const auto& dec = A.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      grid::TileView cc = A.cc().view(r, s);
      grid::TileView cw = A.cw().view(r, s);
      grid::TileView ce = A.ce().view(r, s);
      grid::TileView cs = A.cs().view(r, s);
      grid::TileView cn = A.cn().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const double w = 0.5 + 0.5 * rng.uniform();
          cw(li, lj) = -w;
          ce(li, lj) = -w;
          cs(li, lj) = -w;
          cn(li, lj) = -w;
          cc(li, lj) = 4.0 * w + 1.0;
        }
      }
    }
  }
  A.zero_boundary_coefficients();
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("reps", "100000", "repetitions of each routine (paper: 100000)");
  opt.add("nx1", "25", "zones in x1 (25×20×2 = the paper's 1000 equations)");
  opt.add("nx2", "20", "zones in x2");
  opt.add("compiler", "cray", "base compiler profile");
  opt.add("vector-bits", "512", "SVE vector length");
  opt.add_flag("tsv", "emit tab-separated values instead of a table");
  long reps = 0;
  int nx1 = 0, nx2 = 0;
  unsigned vector_bits = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_table2")) return 0;
    reps = opt.get_int("reps");
    nx1 = opt.get_int<int>("nx1");
    nx2 = opt.get_int<int>("nx2");
    vector_bits = opt.get_int<unsigned>("vector-bits");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_table2");
    return 1;
  }

  const auto base = compiler::find_profile(opt.get("compiler"));
  std::vector<compiler::CodegenProfile> profiles = {base.without_sve(), base};
  constexpr std::size_t kNoSve = 0, kSve = 1;

  grid::Grid2D g(nx1, nx2, 0.0, 1.0, 0.0, 1.0);
  grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
  mpisim::ExecModel em(sim::MachineSpec::a64fx(), profiles, 1);
  linalg::ExecContext ctx(vla::VectorArch(vector_bits), &em,
                          vla::VlaExecMode::Native);

  Rng rng(20220727);  // the paper's arXiv date
  linalg::DistVector x(g, dec, 2), y(g, dec, 2), z(g, dec, 2);
  randomize(x, rng);
  randomize(y, rng);
  randomize(z, rng);
  linalg::StencilOperator A(g, dec, 2);
  fill_coefficients(A, rng);
  // "The actual V2D routines": the driver's MATVEC is the matrix-free
  // operator with on-the-fly coefficient evaluation.
  A.set_evaluation_overhead(linalg::kMatvecEvalDoublesRead,
                            linalg::kMatvecEvalFlops);

  std::cout << "Table II driver: " << g.zones() * 2 << " equations, " << reps
            << " repetitions, profiles '" << profiles[kSve].name()
            << "' vs '" << profiles[kNoSve].name() << "'\n";

  perfmon::EventSet events;
  events.start(em.merged_ledger(kSve));
  for (long i = 0; i < reps; ++i) A.apply(ctx, x, y);
  {
    const auto counters = events.stop(em.merged_ledger(kSve));
    std::cout << "(PAPI " << perfmon::event_name(perfmon::Event::TotalCycles)
              << " for MATVEC under SVE: "
              << counters[static_cast<std::size_t>(
                     perfmon::Event::TotalCycles)]
              << " cycles)\n\n";
  }
  for (long i = 0; i < reps; ++i) (void)linalg::DistVector::dot(ctx, x, y);
  for (long i = 0; i < reps; ++i) y.daxpy(ctx, 1.0009, x);
  for (long i = 0; i < reps; ++i) y.dscal(ctx, 0.75, 1.0003);
  for (long i = 0; i < reps; ++i) z.ddaxpy(ctx, 1.0002, x, 0.9991, y);

  const char* regions[] = {"matvec", "dprod", "daxpy", "dscal", "ddaxpy"};
  const char* labels[] = {"MATVEC", "DPROD", "DAXPY", "DSCAL", "DDAXPY"};

  TableWriter table("TABLE II — LINEAR ALGEBRA ROUTINES TIMES (simulated)");
  table.set_columns({"Routine", "No-SVE (s)", "SVE (s)", "SVE/No-SVE"});
  const auto no_sve = em.merged_ledger(kNoSve);
  const auto sve = em.merged_ledger(kSve);
  const double freq = em.cost_model().machine().freq_hz;
  for (int k = 0; k < 5; ++k) {
    const double t0 = no_sve.at(regions[k]).total_cycles / freq;
    const double t1 = sve.at(regions[k]).total_cycles / freq;
    table.add_row({labels[k], TableWriter::num(t0, 3), TableWriter::num(t1, 3),
                   TableWriter::num(t1 / t0, 2)});
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());
  std::cout << "\nPaper (Cray, A64FX): ratios 0.16 / 0.18 / 0.26 / 0.31 / "
               "0.22 for MATVEC / DPROD / DAXPY / DSCAL / DDAXPY.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table2: " << e.what() << '\n';
  return 1;
}
