#pragma once
/// \file solver_problem.hpp
/// \brief Seeded distributed stencil problems and the fused-vs-unfused
/// trajectory comparison shared by the fused-solver suites (test_fusion
/// and test_fusion_planner).
///
/// Every value is a pure function of (seed, species, global zone), so a
/// problem is the same under any tiling and in either suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/stencil_op.hpp"
#include "mpisim/topology.hpp"
#include "support/rng.hpp"

namespace v2d::testutil {

struct Problem {
  grid::Grid2D g;
  grid::Decomposition d;
  linalg::StencilOperator A;

  Problem(int nx1, int nx2, int ns, int px1 = 1, int px2 = 1)
      : g(nx1, nx2, 0.0, 1.0, 0.0, 1.0),
        d(g, mpisim::CartTopology(px1, px2)),
        A(g, d, ns) {}
};

inline double zone_noise(std::uint64_t seed, int s, int i, int j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(s) * 73856093u +
                static_cast<std::uint64_t>(i) * 19349663u +
                static_cast<std::uint64_t>(j) * 83492791u));
  return r.uniform();
}

/// A diagonally dominant five-point operator; `skew` makes it
/// nonsymmetric by scaling the west and south weights off the east and
/// north ones.
inline void fill_operator(linalg::StencilOperator& A, std::uint64_t seed,
                          double skew = 0.0) {
  const auto& dec = A.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      auto cc = A.cc().view(r, s), cw = A.cw().view(r, s),
           ce = A.ce().view(r, s), cs = A.cs().view(r, s),
           cn = A.cn().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const double w = 0.5 + zone_noise(seed, s, gi, gj);
          cw(li, lj) = -w * (1.0 + skew * zone_noise(seed + 1, s, gi, gj));
          ce(li, lj) = -w;
          cs(li, lj) = -w * (1.0 - skew * zone_noise(seed + 2, s, gi, gj));
          cn(li, lj) = -w;
          cc(li, lj) = 4.5 * w + 0.5;
        }
      }
    }
  }
  A.zero_boundary_coefficients();
}

inline void randomize(linalg::DistVector& v, std::uint64_t seed) {
  auto& f = v.field();
  for (int r = 0; r < f.decomp().nranks(); ++r) {
    const grid::TileExtent& e = f.decomp().extent(r);
    for (int s = 0; s < v.ns(); ++s) {
      auto view = f.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          view(li, lj) =
              2.0 * zone_noise(seed, s, e.i0 + li, e.j0 + lj) - 1.0;
    }
  }
}

struct SolveOutcome {
  linalg::SolveStats stats;
  std::vector<double> x;
};

/// Fused and unfused solves must agree on everything observable from the
/// algorithm: iterates, reduction count, residual, stop reason, solution
/// bits — per solver, preconditioner, exec mode and tiling.
inline void expect_same_trajectory(const SolveOutcome& off,
                                   const SolveOutcome& on,
                                   const std::string& label) {
  EXPECT_EQ(off.stats.iterations, on.stats.iterations) << label;
  EXPECT_EQ(off.stats.converged, on.stats.converged) << label;
  EXPECT_EQ(off.stats.global_reductions, on.stats.global_reductions) << label;
  EXPECT_EQ(off.stats.final_relative_residual,
            on.stats.final_relative_residual)
      << label;
  EXPECT_STREQ(off.stats.stop_reason, on.stats.stop_reason) << label;
  ASSERT_EQ(off.x.size(), on.x.size());
  for (std::size_t i = 0; i < off.x.size(); ++i)
    ASSERT_EQ(off.x[i], on.x[i]) << label << " zone " << i;
}

}  // namespace v2d::testutil
