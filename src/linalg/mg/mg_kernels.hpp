#pragma once
/// \file mg_kernels.hpp
/// \brief Row-level multigrid kernels with interpreter and native paths.
///
/// The smoother's diagonal sweeps and the inter-grid transfer rows are hot
/// enough inside a V-cycle to need the same dual-mode treatment as the
/// Table II kernels: in VlaExecMode::Interpret they run as predicated
/// whilelt strips through the vla::Context; in VlaExecMode::Native they run
/// as raw-pointer loops (kernels_native.hpp) and their recording is a
/// memoized dry run of the interpreter path (kernel_counts.hpp).

#include <cstdint>
#include <span>

#include "vla/vla.hpp"

namespace v2d::linalg::mg {

/// x ← x + ω·(d ⊙ r) over one tile row (the weighted-Jacobi correction).
void diag_correct_row(vla::Context& ctx, double omega,
                      std::span<const double> d, std::span<const double> r,
                      std::span<double> x);

/// z ← ω·(d ⊙ r) over one tile row (scaled diagonal application).
void diag_scale_row(vla::Context& ctx, double omega, std::span<const double> d,
                    std::span<const double> r, std::span<double> z);

/// Tile-local gather-index tables shared by every row of one transfer call.
/// Negative entries and one-past-the-end read the exchanged ghost column.
struct TransferTables {
  std::span<const std::int64_t> fm1, f0, f1, f2;  ///< restriction: 2c−1 … 2c+2
  std::span<const std::int64_t> near, far;  ///< prolongation: parent / parity
};

/// One coarse row of full-weighting restriction.  `fine[dj]` are the four
/// fine rows 2·cj−1 … 2·cj+2; separable weights (1/4, 3/4, 3/4, 1/4)/4.
void restrict_row(vla::Context& ctx, const double* const fine[4],
                  const TransferTables& tab, std::span<double> coarse);

/// One fine row of bilinear prolongation, accumulated into `fine`.
/// `cnear`/`cfar` are the parent and parity-adjacent coarse rows.
void prolong_row_add(vla::Context& ctx, const double* cnear,
                     const double* cfar, const TransferTables& tab,
                     std::span<double> fine);

}  // namespace v2d::linalg::mg
