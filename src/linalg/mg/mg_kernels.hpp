#pragma once
/// \file mg_kernels.hpp
/// \brief Multigrid tile kernels with interpreter and native paths.
///
/// The smoother's diagonal sweeps and the inter-grid transfers are hot
/// enough inside a V-cycle to need the same dual-mode treatment as the
/// Table II kernels: each is one tile entry (linalg::Tile) that in
/// VlaExecMode::Interpret runs its predicated whilelt row through the
/// vla::Context row by row, and in VlaExecMode::Native records the tile
/// once (nj × the row's memoized dry run, kernel_counts.hpp) and runs one
/// raw-pointer body with the row loop inside (kernels_native.hpp).

#include <cstdint>
#include <span>

#include "linalg/tile.hpp"
#include "support/error.hpp"
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

// --- row calls: the tile entries with nj = 1 ---------------------------------

inline void diag_correct_row(vla::Context& ctx, double omega,
                             std::span<const double> d,
                             std::span<const double> r, std::span<double> x) {
  V2D_REQUIRE(d.size() == x.size() && r.size() == x.size(),
              "diag_correct_row: length mismatch");
  diag_correct_rows(ctx, omega, d.data(), r.data(), x.data(),
                    Tile::row(x.size()));
}

inline void diag_scale_row(vla::Context& ctx, double omega,
                           std::span<const double> d,
                           std::span<const double> r, std::span<double> z) {
  V2D_REQUIRE(d.size() == z.size() && r.size() == z.size(),
              "diag_scale_row: length mismatch");
  diag_scale_rows(ctx, omega, d.data(), r.data(), z.data(),
                  Tile::row(z.size()));
}

}  // namespace v2d::linalg::mg
