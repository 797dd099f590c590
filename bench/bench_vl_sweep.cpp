/// \file bench_vl_sweep.cpp
/// \brief Ablation C: vector-length-agnostic sweep, 128–2048 bits.
///
/// The A64FX implements 512-bit SVE, but SVE's VLA property (paper §I-B)
/// means the same binary runs at any architectural vector length.  This
/// bench executes the Table II kernel driver at every legal VL and prices
/// it on an A64FX-like machine whose vector width matches, showing where
/// each kernel stops being compute-bound and longer vectors stop paying.
///
///   ./bench_vl_sweep [--reps 2000] [--tsv]

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
    if (!opt.parse_command_line(argc, argv, "bench_vl_sweep")) return 0;
    reps = opt.get_int("reps");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_vl_sweep");
    return 1;
  }

  TableWriter table(
      "Ablation C — kernel time vs SVE vector length (Cray profile, N=1000)");
  table.set_columns({"VL (bits)", "MATVEC (ms)", "DPROD (ms)", "DAXPY (ms)",
                     "speedup vs 128"});

  double matvec128 = 0.0;
  for (const unsigned bits : {128u, 256u, 512u, 1024u, 2048u}) {
    grid::Grid2D g(25, 20, 0.0, 1.0, 0.0, 1.0);
    grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
    sim::MachineSpec machine = sim::MachineSpec::a64fx();
    machine.sve_bits = bits;  // hypothetical silicon at this VL
    mpisim::ExecModel em(machine, {compiler::cray_2103()}, 1);
    linalg::ExecContext ctx(vla::VectorArch(bits), &em,
                            vla::VlaExecMode::Native);

    linalg::DistVector x(g, dec, 2), y(g, dec, 2);
    x.fill(ctx, 1.25);
    y.fill(ctx, 0.75);
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
    }
    const auto led = em.merged_ledger(0);
    const double freq = machine.freq_hz;
    const double matvec = led.at("matvec").total_cycles / freq * 1e3;
    const double dprod = led.at("dprod").total_cycles / freq * 1e3;
    const double daxpy = led.at("daxpy").total_cycles / freq * 1e3;
    if (bits == 128u) matvec128 = matvec;
    table.add_row({TableWriter::integer(bits), TableWriter::num(matvec, 2),
                   TableWriter::num(dprod, 2), TableWriter::num(daxpy, 2),
                   TableWriter::num(matvec128 / matvec, 2)});
  }
  std::cout << (opt.get_bool("tsv") ? table.tsv() : table.str());
  std::cout << "\nGains saturate once the kernels hit the L1 bandwidth "
               "ceiling — wider vectors cannot move more bytes.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_vl_sweep: " << e.what() << '\n';
  return 1;
}
