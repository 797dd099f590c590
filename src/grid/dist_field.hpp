#pragma once
/// \file dist_field.hpp
/// \brief Distributed grid-shaped field: the storage behind V2D's vectors.
///
/// V2D never stores its sparse matrix; Krylov vectors are "Fortran arrays
/// defined with the same spatial shape as the 2D grid".  DistField is that
/// object: for each rank, an (ns × nx2_local × nx1_local) tile padded with
/// `ng` ghost zones, stored species-major with x1 fastest so the stencil
/// kernels stream contiguously.
///
/// Ghost filling is split in two: exchange_ghosts() copies tile-interface
/// strips between neighbouring tiles and returns the Transfer list so the
/// caller can price the communication; apply_bc() fills the physical
/// domain-boundary ghosts.

#include <cstdint>
#include <span>
#include <vector>

#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "mpisim/exec_model.hpp"

namespace v2d::grid {

/// Physical boundary condition applied at the global domain edge.
enum class BcKind : std::uint8_t {
  Dirichlet0,  ///< ghost = 0 (absorbing)
  Neumann0,    ///< ghost = adjacent interior (zero-flux / reflecting)
  Periodic,    ///< ghost = wrap-around interior
};

/// Lightweight view of one species' tile including ghosts; (li, lj) are
/// tile-local zone indices, ghosts at -1 and ni/nj when ng = 1.
struct TileView {
  double* base = nullptr;  ///< address of (li=0, lj=0)
  int ni = 0;
  int nj = 0;
  int ng = 0;
  std::ptrdiff_t row_stride = 0;  ///< elements from (li,lj) to (li,lj+1)

  double& operator()(int li, int lj) {
    return base[li + row_stride * lj];
  }
  double operator()(int li, int lj) const {
    return base[li + row_stride * lj];
  }
  /// Pointer to the start (li = 0) of row lj — kernels stream from here.
  double* row(int lj) { return base + row_stride * lj; }
  const double* row(int lj) const { return base + row_stride * lj; }
};

class DistField {
public:
  DistField(const Grid2D& grid, const Decomposition& dec, int ns, int ng = 1);

  int ns() const { return ns_; }
  int ng() const { return ng_; }
  const Grid2D& grid() const { return *grid_; }
  const Decomposition& decomp() const { return *dec_; }
  int nranks() const { return dec_->nranks(); }

  TileView view(int rank, int s);
  const TileView view(int rank, int s) const;

  /// Global-index accessors (setup, gather, tests; not used by kernels).
  double gget(int s, int gi, int gj) const;
  void gset(int s, int gi, int gj, double v);

  void fill(double v);

  /// Bytes of one rank's tile payload including ghosts (working-set input).
  std::uint64_t tile_bytes(int rank) const;

  /// Copy interface strips between adjacent tiles (all species) and return
  /// the implied point-to-point transfers for pricing.  Pass the result to
  /// ExecModel::exchange().
  std::vector<mpisim::Transfer> exchange_ghosts();

  /// Ghost exchange that also fills the diagonal (corner) ghosts, via the
  /// standard two-phase trick: first all x1-direction columns, then the
  /// x2-direction rows *including* the already-filled ghost columns, so
  /// corner values arrive through the face neighbours without any diagonal
  /// messages.  Needed by operators whose stencil reaches diagonally — the
  /// multigrid bilinear prolongation — while the five-point kernels keep
  /// using the cheaper exchange_ghosts().  Domain-boundary corners are
  /// left to apply_bc().
  std::vector<mpisim::Transfer> exchange_ghosts_full();

  /// Fill physical-boundary ghosts.
  void apply_bc(BcKind bc);

  /// Gather the whole field (no ghosts) into a dense global array in
  /// dictionary order — used by checkpoints and validation.
  std::vector<double> gather_global() const;

  /// Inverse of gather_global(): distribute a dense global array
  /// (dictionary order, no ghosts) into the per-rank tiles.  Ghosts are
  /// left untouched — callers refill them through the usual exchange/BC
  /// path.  Used by checkpoint restart.
  void scatter_global(std::span<const double> data);

private:
  double* tile_origin(int rank, int s);
  const double* tile_origin(int rank, int s) const;
  std::ptrdiff_t stride(int rank) const;

  /// One rank's share of apply_bc(), restricted to the x1 (West/East) or
  /// x2 (South/North) domain edges.
  void apply_bc_dir(BcKind bc, int rank, bool x1_dirs);

  /// Copy `rank`'s ghost strip facing `dir` from neighbour `nb`, covering
  /// transverse local indices [lo, hi), all species and ghost layers;
  /// returns the bytes copied (the transfer payload).
  std::uint64_t copy_halo_strip(int rank, int nb, mpisim::Dir dir, int lo,
                                int hi);

  const Grid2D* grid_;
  const Decomposition* dec_;
  int ns_;
  int ng_;
  std::vector<std::vector<double>> data_;  // one buffer per rank
};

}  // namespace v2d::grid
