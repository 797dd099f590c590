#pragma once
/// \file mg_kernels.hpp
/// \brief Multigrid tile kernels with interpreter and native paths.
///
/// The smoother's diagonal sweeps and the inter-grid transfers are hot
/// enough inside a V-cycle to be written like the Table II kernels
/// (kernels.hpp): each is an interpreter row, a native body and one tile
/// entry in mg_kernels.cpp.  In VlaExecMode::Interpret the entry runs the
/// predicated whilelt row through the vla::Context row by row; in
/// VlaExecMode::Native it records the tile once (nj × the row's memoized
/// dry run, kernel_counts.hpp) and runs the V2D_SIMD_BODY body with the
/// row loop inside.  A row call is the tile entry with Tile::row(n).

#include <cstdint>
#include <span>

#include "linalg/tile.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::mg {

/// x ← x + ω·(d ⊙ r) over a tile (the weighted-Jacobi correction).
void diag_correct_rows(vla::Context& ctx, double omega, const double* d,
                       const double* r, double* x, Tile t);

/// z ← ω·(d ⊙ r) over a tile (scaled diagonal application).
void diag_scale_rows(vla::Context& ctx, double omega, const double* d,
                     const double* r, double* z, Tile t);

/// Tile-local gather-index tables shared by every row of one transfer call.
/// Negative entries and one-past-the-end read the exchanged ghost column.
struct TransferTables {
  std::span<const std::int64_t> fm1, f0, f1, f2;  ///< restriction: 2c−1 … 2c+2
  std::span<const std::int64_t> near, far;  ///< prolongation: parent / parity
};

/// Full-weighting restriction of the coarse tile `t`.  Coarse row j reads
/// the four fine rows `fine[dj] + j·fine_step` (rows 2j−1 … 2j+2 of the
/// fine tile); separable weights (1/4, 3/4, 3/4, 1/4)/4.
void restrict_rows(vla::Context& ctx, const double* const fine[4],
                   std::ptrdiff_t fine_step, const TransferTables& tab,
                   double* coarse, Tile t);

/// Bilinear prolongation of the coarse tile starting at `coarse` (row 0,
/// rows `coarse_stride` apart, ghosts readable), added into the fine tile
/// `t`: fine row j reads the parent coarse row j/2 and its parity-adjacent
/// row j/2 ± 1.
void prolong_rows_add(vla::Context& ctx, const double* coarse,
                      std::ptrdiff_t coarse_stride, const TransferTables& tab,
                      double* fine, Tile t);

}  // namespace v2d::linalg::mg
