/// \file test_grid.cpp
/// \brief Unit tests for grid geometry, decomposition and distributed fields.

#include <gtest/gtest.h>

#include "grid/decomp.hpp"
#include "grid/dist_field.hpp"
#include "grid/grid2d.hpp"

namespace v2d::grid {
namespace {

// --- grid2d ------------------------------------------------------------------

TEST(Grid2D, CartesianGeometry) {
  const Grid2D g(200, 100, -1.0, 1.0, -0.5, 0.5);
  EXPECT_DOUBLE_EQ(g.dx1(), 0.01);
  EXPECT_DOUBLE_EQ(g.dx2(), 0.01);
  EXPECT_DOUBLE_EQ(g.x1c(0), -0.995);
  EXPECT_DOUBLE_EQ(g.x1f(200), 1.0);
  EXPECT_DOUBLE_EQ(g.volume(5, 7), 1e-4);
  EXPECT_DOUBLE_EQ(g.area1(3, 9), 0.01);
}

TEST(Grid2D, CylindricalGeometry) {
  const Grid2D g(10, 10, 0.0, 1.0, 0.0, 1.0, Coord::Cylindrical);
  // Volume grows linearly with radius.
  EXPECT_GT(g.volume(9, 0), g.volume(0, 0));
  EXPECT_NEAR(g.volume(4, 0) / g.volume(0, 0), g.x1c(4) / g.x1c(0), 1e-12);
  // Face at r=0 has zero area (axis).
  EXPECT_DOUBLE_EQ(g.area1(0, 0), 0.0);
  EXPECT_THROW(Grid2D(4, 4, -1.0, 1.0, 0.0, 1.0, Coord::Cylindrical), Error);
}

TEST(Grid2D, LinearIndexDictionaryOrder) {
  const Grid2D g(200, 100, 0, 1, 0, 1);
  EXPECT_EQ(g.linear_index(0, 0, 0), 0);
  EXPECT_EQ(g.linear_index(0, 1, 0), 1);       // x1 fastest
  EXPECT_EQ(g.linear_index(0, 0, 1), 200);     // then x2
  EXPECT_EQ(g.linear_index(1, 0, 0), 20000);   // then species
  EXPECT_EQ(g.linear_index(1, 199, 99), 39999);
  EXPECT_THROW(g.linear_index(0, 200, 0), Error);
}

TEST(Grid2D, InvalidShapesRejected) {
  EXPECT_THROW(Grid2D(0, 10, 0, 1, 0, 1), Error);
  EXPECT_THROW(Grid2D(10, 10, 1, 0, 0, 1), Error);
}

// --- decomposition -------------------------------------------------------------

TEST(DecompTest, EvenSplit) {
  const Grid2D g(200, 100, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(5, 4));
  for (int r = 0; r < d.nranks(); ++r) {
    EXPECT_EQ(d.extent(r).ni, 40);
    EXPECT_EQ(d.extent(r).nj, 25);
  }
  EXPECT_EQ(d.max_tile_zones(), 1000);
}

TEST(DecompTest, UnevenSplitCoversEverything) {
  const Grid2D g(10, 7, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(3, 2));
  // Every zone owned by exactly one rank.
  std::vector<int> owners(70, -1);
  for (int r = 0; r < d.nranks(); ++r) {
    const TileExtent& e = d.extent(r);
    for (int j = e.j0; j < e.j0 + e.nj; ++j) {
      for (int i = e.i0; i < e.i0 + e.ni; ++i) {
        EXPECT_EQ(owners[i + 10 * j], -1);
        owners[i + 10 * j] = r;
      }
    }
  }
  for (int o : owners) EXPECT_NE(o, -1);
  // owner() agrees with the extents.
  EXPECT_EQ(d.owner(0, 0), 0);
  EXPECT_EQ(d.owner(9, 6), d.nranks() - 1);
}

TEST(DecompTest, TooManyTilesRejected) {
  const Grid2D g(4, 4, 0, 1, 0, 1);
  EXPECT_THROW(Decomposition(g, mpisim::CartTopology(5, 1)), Error);
}

// --- dist field ------------------------------------------------------------------

TEST(DistFieldTest, GlobalAccessRoundTrip) {
  const Grid2D g(16, 8, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(4, 2));
  DistField f(g, d, 2, 1);
  int v = 0;
  for (int s = 0; s < 2; ++s)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 16; ++i) f.gset(s, i, j, v++);
  v = 0;
  for (int s = 0; s < 2; ++s)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(f.gget(s, i, j), v++);
}

TEST(DistFieldTest, GhostExchangeMatchesNeighbours) {
  const Grid2D g(12, 12, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(3, 3));
  DistField f(g, d, 1, 1);
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 12; ++i) f.gset(0, i, j, 100.0 * i + j);
  const auto transfers = f.exchange_ghosts();
  // Middle tile (rank 4) sees all four neighbours in its ghosts.
  const TileExtent& e = d.extent(4);
  TileView v = f.view(4, 0);
  for (int lj = 0; lj < e.nj; ++lj) {
    EXPECT_DOUBLE_EQ(v(-1, lj), 100.0 * (e.i0 - 1) + (e.j0 + lj));
    EXPECT_DOUBLE_EQ(v(e.ni, lj), 100.0 * (e.i0 + e.ni) + (e.j0 + lj));
  }
  for (int li = 0; li < e.ni; ++li) {
    EXPECT_DOUBLE_EQ(v(li, -1), 100.0 * (e.i0 + li) + (e.j0 - 1));
    EXPECT_DOUBLE_EQ(v(li, e.nj), 100.0 * (e.i0 + li) + (e.j0 + e.nj));
  }
  // 2 directed transfers per interior edge: 3x3 grid has 12 edges.
  EXPECT_EQ(transfers.size(), 24u);
}

TEST(DistFieldTest, FullExchangeFillsCornerGhosts) {
  const Grid2D g(12, 12, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(3, 3));
  DistField f(g, d, 1, 1);
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 12; ++i) f.gset(0, i, j, 100.0 * i + j);
  const auto transfers = f.exchange_ghosts_full();
  // Middle tile (rank 4): all four corner ghosts hold the diagonal
  // neighbours' values, delivered through the two-phase face exchange.
  const TileExtent& e = d.extent(4);
  TileView v = f.view(4, 0);
  EXPECT_DOUBLE_EQ(v(-1, -1), 100.0 * (e.i0 - 1) + (e.j0 - 1));
  EXPECT_DOUBLE_EQ(v(e.ni, -1), 100.0 * (e.i0 + e.ni) + (e.j0 - 1));
  EXPECT_DOUBLE_EQ(v(-1, e.nj), 100.0 * (e.i0 - 1) + (e.j0 + e.nj));
  EXPECT_DOUBLE_EQ(v(e.ni, e.nj), 100.0 * (e.i0 + e.ni) + (e.j0 + e.nj));
  // Same message count as the plain exchange; corners ride along.
  EXPECT_EQ(transfers.size(), 24u);
  // Domain-corner ghosts are the BC's job.
  f.apply_bc(BcKind::Dirichlet0);
  EXPECT_DOUBLE_EQ(f.view(0, 0)(-1, -1), 0.0);
  TileView v8 = f.view(8, 0);
  const TileExtent& e8 = d.extent(8);
  EXPECT_DOUBLE_EQ(v8(e8.ni, e8.nj), 0.0);
}

TEST(DistFieldTest, FullExchangeCornerTransferStructure) {
  // exchange_ghosts_full delivers corner values with NO diagonal messages:
  // the transfer list must hold exactly the face transfers of the plain
  // exchange — x1 columns first (phase 1), then x2 rows widened by the
  // ghost padding so the corners ride along (phase 2).
  const Grid2D g(12, 12, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(3, 3));
  DistField f(g, d, 1, 1);
  const auto transfers = f.exchange_ghosts_full();
  // 3x3 tiles: 6 vertical interfaces -> 12 directed x1 transfers, 6
  // horizontal interfaces -> 12 directed x2 transfers.
  ASSERT_EQ(transfers.size(), 24u);
  std::size_t n_strided = 0, n_contig = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const auto& t = transfers[i];
    const TileExtent& e = d.extent(t.dst);
    if (t.strided) {
      // Phase-1 column: interior rows only, and phase 1 precedes phase 2.
      EXPECT_LT(i, 12u);
      EXPECT_EQ(t.bytes, static_cast<std::uint64_t>(e.nj) * sizeof(double));
      ++n_strided;
    } else {
      // Phase-2 row over the padded width ni + 2*ng.
      EXPECT_GE(i, 12u);
      EXPECT_EQ(t.bytes,
                static_cast<std::uint64_t>(e.ni + 2) * sizeof(double));
      ++n_contig;
    }
  }
  EXPECT_EQ(n_strided, 12u);
  EXPECT_EQ(n_contig, 12u);
}

TEST(DistFieldTest, StridedFlagOnX1Halos) {
  const Grid2D g(8, 8, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(2, 2));
  DistField f(g, d, 1, 1);
  for (const auto& t : f.exchange_ghosts()) {
    const int src_px1 = d.topology().px1_of(t.src);
    const int dst_px1 = d.topology().px1_of(t.dst);
    EXPECT_EQ(t.strided, src_px1 != dst_px1)
        << "transfer " << t.src << "->" << t.dst;
  }
}

TEST(DistFieldTest, BoundaryConditions) {
  const Grid2D g(4, 4, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(1, 1));
  DistField f(g, d, 1, 1);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) f.gset(0, i, j, 10.0 + i + 4 * j);
  TileView v = f.view(0, 0);

  f.apply_bc(BcKind::Dirichlet0);
  EXPECT_DOUBLE_EQ(v(-1, 0), 0.0);
  EXPECT_DOUBLE_EQ(v(4, 3), 0.0);

  f.apply_bc(BcKind::Neumann0);
  EXPECT_DOUBLE_EQ(v(-1, 2), v(0, 2));
  EXPECT_DOUBLE_EQ(v(2, 4), v(2, 3));

  f.apply_bc(BcKind::Periodic);
  EXPECT_DOUBLE_EQ(v(-1, 1), v(3, 1));
  EXPECT_DOUBLE_EQ(v(1, -1), v(1, 3));
}

TEST(DistFieldTest, GatherGlobalDictionaryOrder) {
  const Grid2D g(6, 4, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(3, 2));
  DistField f(g, d, 2, 1);
  for (int s = 0; s < 2; ++s)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 6; ++i)
        f.gset(s, i, j, static_cast<double>(g.linear_index(s, i, j)));
  const auto flat = f.gather_global();
  ASSERT_EQ(flat.size(), 48u);
  for (std::size_t k = 0; k < flat.size(); ++k)
    EXPECT_DOUBLE_EQ(flat[k], static_cast<double>(k));
}

TEST(DistFieldTest, TileBytesIncludesGhosts) {
  const Grid2D g(8, 8, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(1, 1));
  const DistField f(g, d, 2, 1);
  EXPECT_EQ(f.tile_bytes(0), 2u * 10 * 10 * sizeof(double));
}

TEST(DistFieldTest, FillSetsEverything) {
  const Grid2D g(4, 4, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(2, 1));
  DistField f(g, d, 1, 1);
  f.fill(7.5);
  EXPECT_DOUBLE_EQ(f.gget(0, 3, 3), 7.5);
  EXPECT_DOUBLE_EQ(f.view(0, 0)(-1, -1), 7.5);  // ghosts too
}

/// Property: ghost exchange over any tiling reproduces the same global
/// neighbourhood values.
class TilingSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TilingSweep, GhostsAlwaysMatchGlobalField) {
  const auto [px1, px2] = GetParam();
  const Grid2D g(24, 18, 0, 1, 0, 1);
  const Decomposition d(g, mpisim::CartTopology(px1, px2));
  DistField f(g, d, 2, 1);
  for (int s = 0; s < 2; ++s)
    for (int j = 0; j < 18; ++j)
      for (int i = 0; i < 24; ++i)
        f.gset(s, i, j, s * 1000.0 + i + 24.0 * j);
  f.exchange_ghosts();
  for (int r = 0; r < d.nranks(); ++r) {
    const TileExtent& e = d.extent(r);
    for (int s = 0; s < 2; ++s) {
      const TileView v = f.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        if (e.i0 > 0) {
          EXPECT_DOUBLE_EQ(v(-1, lj),
                           s * 1000.0 + (e.i0 - 1) + 24.0 * (e.j0 + lj));
        }
        if (e.i0 + e.ni < 24) {
          EXPECT_DOUBLE_EQ(v(e.ni, lj),
                           s * 1000.0 + (e.i0 + e.ni) + 24.0 * (e.j0 + lj));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, TilingSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 2},
                      std::pair{4, 3}, std::pair{6, 2}, std::pair{3, 6},
                      std::pair{24, 1}, std::pair{1, 18}, std::pair{5, 4}));

}  // namespace
}  // namespace v2d::grid
