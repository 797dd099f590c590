/// \file bench_fig1.cpp
/// \brief Reproduces Fig. 1: the sparsity pattern of the V2D matrix.
///
/// Assembles the 40,000×40,000 operator of the 200×100×2 test problem
/// (never done inside V2D itself — the paper renders it only to explain
/// the structure) and emits the upper-left 400×400 block as a PBM image
/// plus a coarse ASCII preview.  With dictionary ordering the bands sit at
/// 0, ±1 and ±x1 = ±200, with the species-coupling bands at ±x1·x2 far
/// outside the plotted block — exactly the five-band picture of Fig. 1.
///
///   ./bench_fig1 [--nx1 200 --nx2 100] [--block 400] [--out fig1.pbm]

#include <exception>
#include <fstream>
#include <iostream>

#include "core/v2d.hpp"
#include "linalg/stencil_op.hpp"
#include "rad/fld.hpp"
#include "rad/gaussian.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) try {
  using namespace v2d;
  Options opt;
  opt.add("nx1", "200", "zones in x1");
  opt.add("nx2", "100", "zones in x2");
  opt.add("block", "400", "rendered block size (paper: 400)");
  opt.add("out", "fig1.pbm", "output PBM path");
  opt.add_flag("coupled", "include the species-coupling bands");
  int nx1 = 0, nx2 = 0;
  long block = 0;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_fig1")) return 0;
    nx1 = opt.get_int<int>("nx1");
    nx2 = opt.get_int<int>("nx2");
    block = opt.get_int("block");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_fig1");
    return 1;
  }

  grid::Grid2D g(nx1, nx2, -1.0, 1.0, -0.5, 0.5);
  grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
  linalg::StencilOperator A(g, dec, 2);
  if (opt.get_bool("coupled")) A.enable_coupling();

  // Fill with the actual FLD diffusion coefficients of the test problem so
  // the pattern is the real matrix, not a synthetic one.
  rad::OpacitySet opac(2);
  for (int s = 0; s < 2; ++s)
    opac.scattering(s) = rad::OpacityLaw::constant(10.0);
  rad::FldConfig cfg;
  cfg.include_absorption = false;
  rad::FldBuilder builder(g, dec, 2, opac, cfg);
  linalg::ExecContext ctx;  // unpriced
  ctx.vctx.set_exec_mode(vla::VlaExecMode::Native);  // numerics-only: fast path
  linalg::DistVector e(g, dec, 2), rhs(g, dec, 2);
  rad::GaussianPulse pulse;
  pulse.d_coeff = 1.0 / 30.0;
  pulse.fill(e, 0.0);
  if (opt.get_bool("coupled")) {
    builder.config().exchange_kappa = 0.05;
    builder.build_coupling(ctx, e, e, 0.03, A, rhs);
  } else {
    builder.build_diffusion(ctx, e, e, 0.03, A, rhs);
  }

  const linalg::BandedMatrix M = A.assemble();
  std::cout << "Matrix: " << M.size() << " x " << M.size() << " ("
            << nx1 << "*" << nx2 << "*2), " << M.nnz()
            << " non-zeros, bands at offsets:";
  for (auto off : M.offsets()) std::cout << ' ' << off;
  std::cout << "\n\n";

  const std::string path = opt.get("out");
  std::ofstream os(path, std::ios::binary);
  M.write_pbm(os, block, block);
  std::cout << "Wrote the upper-left " << block << "x" << block
            << " block to " << path << " (Fig. 1).\n\n";

  // Coarse ASCII preview: 80x40 downsample of the same block.
  std::cout << "ASCII preview (" << block << "-wide block, downsampled):\n";
  const std::string full = M.render_block(block, block);
  const long stride_r = block / 40, stride_c = block / 80;
  for (long r = 0; r < block; r += stride_r) {
    std::string line;
    for (long c = 0; c < block; c += stride_c) {
      bool nz = false;
      for (long rr = r; rr < std::min(block, r + stride_r) && !nz; ++rr)
        for (long cc = c; cc < std::min(block, c + stride_c) && !nz; ++cc)
          nz = full[static_cast<std::size_t>(rr * (block + 1) + cc)] == '*';
      line.push_back(nz ? '*' : ' ');
    }
    std::cout << line << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig1: " << e.what() << '\n';
  return 1;
}
