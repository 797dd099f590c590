/// \file test_integration.cpp
/// \brief Cross-module integration tests asserting the paper's headline
/// shapes on reduced problem sizes.

#include <gtest/gtest.h>

#include <sstream>

#include "core/v2d.hpp"
#include <map>

#include "linalg/kernels.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "rad/fld.hpp"
#include "rad/gaussian.hpp"
#include "support/rng.hpp"

namespace v2d {
namespace {

/// Run the Table II driver shape on a small system and return the
/// per-routine SVE/no-SVE ratios.
std::map<std::string, double> kernel_ratios(int reps) {
  using namespace linalg;
  const grid::Grid2D g(25, 20, 0, 1, 0, 1);
  const grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
  const auto base = compiler::cray_2103();
  mpisim::ExecModel em(sim::MachineSpec::a64fx(),
                       {base.without_sve(), base}, 1);
  ExecContext ctx(vla::VectorArch(512), &em);

  DistVector x(g, dec, 2), y(g, dec, 2), z(g, dec, 2);
  Rng rng(9);
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 25; ++i)
      for (int s = 0; s < 2; ++s) x.field().gset(s, i, j, 0.5 + rng.uniform());
  y.copy_from(ctx, x);
  z.copy_from(ctx, x);
  StencilOperator A(g, dec, 2);
  A.cc().fill(4.0);
  A.cw().fill(-1.0);
  A.ce().fill(-1.0);
  A.cs().fill(-1.0);
  A.cn().fill(-1.0);
  A.zero_boundary_coefficients();
  A.set_evaluation_overhead(kMatvecEvalDoublesRead, kMatvecEvalFlops);

  for (int r = 0; r < reps; ++r) {
    A.apply(ctx, x, y);
    (void)DistVector::dot(ctx, x, y);
    y.daxpy(ctx, 1.0001, x);
    y.dscal(ctx, 0.5, 1.0001);
    z.ddaxpy(ctx, 1.0001, x, 0.999, y);
  }
  const auto no_sve = em.merged_ledger(0);
  const auto sve = em.merged_ledger(1);
  std::map<std::string, double> ratios;
  for (const char* region : {"matvec", "dprod", "daxpy", "dscal", "ddaxpy"}) {
    ratios[region] = sve.at(region).total_cycles / no_sve.at(region).total_cycles;
  }
  return ratios;
}

TEST(PaperShapes, TableTwoRatiosInBand) {
  // Paper band: 0.16–0.31 across the five routines (Cray, A64FX).
  const auto ratios = kernel_ratios(50);
  for (const auto& [region, ratio] : ratios) {
    EXPECT_GT(ratio, 0.10) << region;
    EXPECT_LT(ratio, 0.40) << region;
  }
  // Orderings the paper reports: MATVEC speeds up most, DSCAL least.
  EXPECT_LT(ratios.at("matvec"), ratios.at("dscal"));
  EXPECT_LT(ratios.at("dprod"), ratios.at("daxpy"));
}

TEST(PaperShapes, WholeCodeSpeedupSmallerThanKernelSpeedup) {
  // The paper's principal conclusion: the full multi-physics code gains
  // far less from SVE than the isolated kernels do.
  core::RunConfig cfg;
  cfg.nx1 = 50;
  cfg.nx2 = 25;
  cfg.steps = 2;
  cfg.compilers = {"cray", "cray-noopt"};
  core::Simulation sim(cfg);
  sim.run();
  const double whole_code_ratio = sim.elapsed(0) / sim.elapsed(1);
  const auto kernels = kernel_ratios(20);
  // Whole code: paper sees 181/263 ≈ 0.69; kernels 0.16–0.31.
  EXPECT_GT(whole_code_ratio, 0.5);
  EXPECT_LT(whole_code_ratio, 0.95);
  for (const auto& [region, ratio] : kernels)
    EXPECT_LT(ratio, whole_code_ratio) << region;
}

TEST(PaperShapes, MatvecDominatesSingleProcessor) {
  // Paper §II-E: ~141 s of 181 s in matvec at one processor, ~14 s in
  // preconditioning.
  core::RunConfig cfg;
  cfg.nx1 = 100;
  cfg.nx2 = 50;
  cfg.steps = 2;
  cfg.compilers = {"cray"};
  core::Simulation sim(cfg);
  sim.run();
  const auto led = sim.exec().merged_ledger(0);
  const double freq = sim.exec().cost_model().machine().freq_hz;
  const double total = sim.elapsed(0);
  const double matvec = led.at("matvec").total_cycles / freq;
  const double precond = (led.at("precond").total_cycles +
                          led.at("precond-build").total_cycles) /
                         freq;
  EXPECT_GT(matvec / total, 0.5);
  EXPECT_LT(precond / total, 0.15);
  EXPECT_GT(matvec, 4.0 * precond);
}

TEST(PaperShapes, Fig1FiveBandsAtX1Spacing) {
  // "On either side of the diagonal are two adjacent diagonals with two
  // outlying diagonals spaced farther from the diagonal. The x1 parameter
  // indicates the distance of the two outlying diagonals."
  using namespace linalg;
  const grid::Grid2D g(200, 100, -1, 1, -0.5, 0.5);
  const grid::Decomposition dec(g, mpisim::CartTopology(1, 1));
  rad::OpacitySet opac(2);
  for (int s = 0; s < 2; ++s)
    opac.scattering(s) = rad::OpacityLaw::constant(10.0);
  rad::FldConfig fcfg;
  fcfg.include_absorption = false;
  rad::FldBuilder builder(g, dec, 2, opac, fcfg);
  StencilOperator A(g, dec, 2);
  DistVector e(g, dec, 2), rhs(g, dec, 2);
  rad::GaussianPulse pulse;
  pulse.fill(e, 0.0);
  linalg::ExecContext ctx;
  builder.build_diffusion(ctx, e, e, 0.03, A, rhs);
  const BandedMatrix M = A.assemble();
  EXPECT_EQ(M.size(), 40000);
  EXPECT_EQ(M.offsets(), (std::vector<std::int64_t>{-200, -1, 0, 1, 200}));
  // Every interior row carries all five bands with nonzero values.
  const std::int64_t row = g.linear_index(0, 100, 50);
  for (const auto off : {std::int64_t{-200}, std::int64_t{-1}, std::int64_t{0},
                         std::int64_t{1}, std::int64_t{200}}) {
    EXPECT_NE(M.get(row, off), 0.0) << "offset " << off;
  }
  // The rendered block shows the adjacent and outlying diagonals.
  const std::string block = M.render_block(400, 400);
  auto at = [&](std::int64_t r, std::int64_t c) {
    return block[static_cast<std::size_t>(r * 401 + c)];
  };
  EXPECT_EQ(at(250, 250), '*');  // main diagonal
  EXPECT_EQ(at(250, 249), '*');  // adjacent
  EXPECT_EQ(at(250, 251), '*');
  EXPECT_EQ(at(250, 50), '*');   // outlying at distance x1 = 200
  EXPECT_EQ(at(150, 350), '*');
  EXPECT_EQ(at(250, 150), '.');  // in between: structurally zero
}

TEST(PaperShapes, CompactTopologyBeatsStripAtTwenty) {
  // Table I, Np = 20: (5,4) < (10,2) < (20,1) for every compiler.
  double prev = 0.0;
  for (const auto& [px1, px2] :
       {std::pair{5, 4}, std::pair{10, 2}, std::pair{20, 1}}) {
    core::RunConfig cfg;
    cfg.nx1 = 200;
    cfg.nx2 = 100;
    cfg.steps = 1;
    cfg.nprx1 = px1;
    cfg.nprx2 = px2;
    cfg.compilers = {"cray"};
    core::Simulation sim(cfg);
    sim.run();
    if (prev > 0.0) {
      EXPECT_GT(sim.elapsed(0), prev) << px1 << "x" << px2;
    }
    prev = sim.elapsed(0);
  }
}

TEST(PaperShapes, VlaSweepLongerVectorsFasterComputeBound) {
  // The A64FX runs 512-bit SVE, but VLA code must scale with the vector
  // length: price the same daxpy at 128..2048 bits.
  using namespace linalg;
  const sim::CostModel cm(sim::MachineSpec::a64fx());
  const sim::CodegenFactors f;
  double prev = 1e300;
  for (unsigned bits : {128u, 256u, 512u, 1024u, 2048u}) {
    vla::Context ctx{vla::VectorArch(bits)};
    std::vector<double> x(4096, 1.0), y(4096, 2.0);
    linalg::daxpy(ctx, 1.5, x.data(), y.data(), linalg::Tile::row(4096));
    const auto counts = ctx.take_counts();
    const double cycles =
        cm.compute_cycles(counts, sim::ExecMode::SVE, f);
    EXPECT_LT(cycles, prev) << bits;
    prev = cycles;
  }
}

}  // namespace
}  // namespace v2d
