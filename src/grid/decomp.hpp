#pragma once
/// \file decomp.hpp
/// \brief Cartesian 2-D tile decomposition of a global grid.
///
/// V2D decomposes the domain into NPRX1 × NPRX2 tiles controlled by
/// run-time parameters; rank r owns tile (r % NPRX1, r / NPRX1).  Uneven
/// divisions are supported block-wise (the first `remainder` tiles in a
/// direction get one extra zone), although every Table I configuration
/// divides evenly.

#include <string>
#include <vector>

#include "grid/grid2d.hpp"
#include "mpisim/topology.hpp"

namespace v2d::grid {

/// Global zone range owned by one tile.
struct TileExtent {
  int i0 = 0;  ///< first global zone index in x1
  int j0 = 0;  ///< first global zone index in x2
  int ni = 0;  ///< zones in x1
  int nj = 0;  ///< zones in x2

  bool contains(int gi, int gj) const {
    return gi >= i0 && gi < i0 + ni && gj >= j0 && gj < j0 + nj;
  }
};

class Decomposition {
public:
  Decomposition(const Grid2D& grid, mpisim::CartTopology topo)
      : topo_(topo), nx1_(grid.nx1()), nx2_(grid.nx2()) {
    require_fits(grid.nx1(), topo.nprx1());
    require_fits(grid.nx2(), topo.nprx2());
    extents_.reserve(static_cast<std::size_t>(topo.size()));
    for (int r = 0; r < topo.size(); ++r) {
      const int px1 = topo.px1_of(r), px2 = topo.px2_of(r);
      TileExtent e;
      split(nx1_, topo.nprx1(), px1, e.i0, e.ni);
      split(nx2_, topo.nprx2(), px2, e.j0, e.nj);
      extents_.push_back(e);
    }
  }

  /// Explicit-extent decomposition: the caller supplies one tile per rank.
  /// Used by the multigrid hierarchy, whose coarse tiles must stay aligned
  /// with the parents of the fine tiles (the default `split` would shift
  /// tile boundaries on uneven coarse grids).  The extents must tile the
  /// grid exactly.
  Decomposition(const Grid2D& grid, mpisim::CartTopology topo,
                std::vector<TileExtent> extents)
      : topo_(topo),
        nx1_(grid.nx1()),
        nx2_(grid.nx2()),
        extents_(std::move(extents)) {
    V2D_REQUIRE(static_cast<int>(extents_.size()) == topo.size(),
                "need exactly one tile extent per rank");
    std::int64_t zones = 0;
    for (const auto& e : extents_) {
      V2D_REQUIRE(e.ni >= 1 && e.nj >= 1, "tile extents must be >= 1");
      V2D_REQUIRE(e.i0 >= 0 && e.j0 >= 0 && e.i0 + e.ni <= nx1_ &&
                      e.j0 + e.nj <= nx2_,
                  "tile extent out of grid range");
      zones += static_cast<std::int64_t>(e.ni) * e.nj;
    }
    V2D_REQUIRE(zones == grid.zones(), "tile extents must tile the grid");
  }

  /// Throws unless `tiles` tiles fit in a direction of `zones` zones (every
  /// tile owns at least one zone).
  static void require_fits(int zones, int tiles) {
    V2D_REQUIRE(tiles <= zones, "more tiles than zones in a direction (" +
                                    std::to_string(tiles) + " tiles, " +
                                    std::to_string(zones) + " zones)");
  }

  const mpisim::CartTopology& topology() const { return topo_; }
  int nranks() const { return topo_.size(); }
  const TileExtent& extent(int rank) const {
    return extents_.at(static_cast<std::size_t>(rank));
  }

  /// Rank owning global zone (gi, gj).
  int owner(int gi, int gj) const {
    V2D_REQUIRE(gi >= 0 && gi < nx1_ && gj >= 0 && gj < nx2_,
                "global zone out of range");
    for (int r = 0; r < nranks(); ++r)
      if (extents_[static_cast<std::size_t>(r)].contains(gi, gj)) return r;
    V2D_FAIL("no owner found (corrupt decomposition)");
  }

  /// Largest tile volume (load-balance metric).
  std::int64_t max_tile_zones() const {
    std::int64_t m = 0;
    for (const auto& e : extents_) {
      const auto z = static_cast<std::int64_t>(e.ni) * e.nj;
      if (z > m) m = z;
    }
    return m;
  }

private:
  static void split(int n, int parts, int index, int& start, int& count) {
    const int base = n / parts;
    const int extra = n % parts;
    count = base + (index < extra ? 1 : 0);
    start = index * base + (index < extra ? index : extra);
  }

  mpisim::CartTopology topo_;
  int nx1_;
  int nx2_;
  std::vector<TileExtent> extents_;
};

}  // namespace v2d::grid
