/// \file sve_explorer.cpp
/// \brief Interactive-ish playground for the SVE cost model.
///
/// Pick a kernel, a vector length, a compiler and a working-set size and
/// see exactly how the machine model prices it: recorded instruction mix,
/// port pressure, compute-vs-memory rooflines and the resulting SVE /
/// no-SVE ratio.  Useful for understanding *why* Table II looks the way
/// it does.
///
///   ./sve_explorer --kernel matvec --bits 512 --compiler cray --n 1000

#include <exception>
#include <iostream>

#include "compiler/profile.hpp"
#include "linalg/kernels.hpp"
#include "linalg/stencil_op.hpp"
#include "sim/cost_model.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace v2d;

sim::KernelCounts record_kernel(const std::string& kernel, unsigned bits,
                                std::size_t n) {
  vla::Context ctx{vla::VectorArch(bits)};
  Rng rng(1);
  std::vector<double> x(n), y(n), z(n);
  const linalg::Tile row = linalg::Tile::row(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.5, 1.5);
    y[i] = rng.uniform(0.5, 1.5);
    z[i] = rng.uniform(0.5, 1.5);
  }
  if (kernel == "dprod") {
    (void)linalg::dprod(ctx, x, y);
  } else if (kernel == "daxpy") {
    linalg::daxpy(ctx, 1.5, x.data(), y.data(), row);
  } else if (kernel == "dscal") {
    linalg::dscal(ctx, 0.75, 1.5, y.data(), row);
  } else if (kernel == "ddaxpy") {
    linalg::ddaxpy(ctx, 1.5, x.data(), 0.5, y.data(), z.data(), row);
  } else if (kernel == "matvec") {
    // One stencil row per n elements plus the V2D evaluation overhead.
    std::vector<double> xg(n + 2, 1.0);
    linalg::stencil_rows(ctx, x.data(), y.data(), z.data(), x.data(), y.data(),
                         xg.data() + 1, x.data(), y.data(), z.data(), row);
    ctx.record_external(sim::OpClass::LoadContig,
                        n * linalg::kMatvecEvalDoublesRead,
                        n * linalg::kMatvecEvalDoublesRead * 8, 0);
    ctx.record_external(sim::OpClass::FlopFma,
                        n * linalg::kMatvecEvalFlops / 2, 0, 0);
  } else {
    throw Error("unknown kernel '" + kernel +
                "' (matvec|dprod|daxpy|dscal|ddaxpy)");
  }
  return ctx.take_counts();
}

compiler::KernelFamily family_of(const std::string& kernel) {
  using compiler::KernelFamily;
  if (kernel == "matvec") return KernelFamily::Matvec;
  if (kernel == "dprod") return KernelFamily::Dprod;
  if (kernel == "daxpy") return KernelFamily::Daxpy;
  if (kernel == "dscal") return KernelFamily::Dscal;
  return KernelFamily::Ddaxpy;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("kernel", "matvec", "matvec|dprod|daxpy|dscal|ddaxpy");
  opt.add("bits", "512", "SVE vector length (128..2048)");
  opt.add("compiler", "cray", "gnu|fujitsu|cray|cray-noopt|clang");
  opt.add("n", "1000", "elements per kernel call");
  opt.add("ws", "0", "working-set bytes (0 = derive from n)");
  opt.add("sharers", "1", "ranks sharing the CMG");
  unsigned bits = 0;
  std::size_t n = 0;
  std::uint64_t ws = 0;
  std::uint32_t sharers = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "sve_explorer")) return 0;
    bits = opt.get_int<unsigned>("bits");
    n = opt.get_int<std::size_t>("n");
    ws = opt.get_int<std::uint64_t>("ws");
    sharers = opt.get_int<std::uint32_t>("sharers");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("sve_explorer");
    return 1;
  }

  const std::string kernel = opt.get("kernel");
  const auto profile = compiler::find_profile(opt.get("compiler"));
  const auto counts = record_kernel(kernel, bits, n);
  if (ws == 0) ws = 7 * n * sizeof(double);

  std::cout << "kernel " << kernel << " at VL " << bits << " bits, n = " << n
            << ", profile '" << profile.name() << "', working set " << ws
            << " B\n\nRecorded instruction mix:\n";
  TableWriter mix;
  mix.set_columns({"op class", "vector instrs", "scalar-equivalent ops"});
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    if (counts.instr[i] == 0) continue;
    mix.add_row({sim::op_class_name(static_cast<sim::OpClass>(i)),
                 TableWriter::integer(static_cast<long>(counts.instr[i])),
                 TableWriter::integer(static_cast<long>(counts.lanes[i]))});
  }
  std::cout << mix.str();
  std::cout << "bytes: " << counts.bytes_read << " read, "
            << counts.bytes_written << " written; flops: " << counts.flops()
            << "\n\n";

  const sim::CostModel cm(sim::MachineSpec::a64fx());
  const auto family = family_of(kernel);
  const auto sve = cm.price(counts, sim::ExecMode::SVE,
                            profile.factors(family), ws, sharers);
  const auto scalar = cm.price(counts, sim::ExecMode::Scalar,
                               profile.factors(family), ws, sharers);

  TableWriter cost("Pricing (cycles)");
  cost.set_columns({"mode", "compute", "memory", "overhead", "total",
                    "bound by", "level"});
  for (const auto* row : {&sve, &scalar}) {
    cost.add_row({row == &sve ? "SVE" : "no-SVE",
                  TableWriter::num(row->compute_cycles, 1),
                  TableWriter::num(row->memory_cycles, 1),
                  TableWriter::num(row->overhead_cycles, 1),
                  TableWriter::num(row->total_cycles(), 1),
                  row->memory_bound() ? "memory" : "compute",
                  sim::mem_level_name(row->level)});
  }
  std::cout << cost.str();
  std::cout << "\nSVE/no-SVE ratio: "
            << TableWriter::num(sve.total_cycles() / scalar.total_cycles(), 3)
            << "   (paper's Table II band: 0.16-0.31 at N=1000, Cray)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "sve_explorer: " << e.what() << '\n';
  return 1;
}
