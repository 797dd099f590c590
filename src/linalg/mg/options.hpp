#pragma once
/// \file options.hpp
/// \brief Multigrid preconditioner knobs (a plain options struct).
///
/// Kept free of linalg/grid includes so configuration layers
/// (core/config, rad/radstep) can carry MgOptions by value without
/// pulling in the solver stack; the machinery lives in hierarchy.hpp.

#include <cstdint>
#include <string>

namespace v2d::linalg::mg {

struct MgOptions {
  int coarse_size = 8;    ///< stop when min(nx1, nx2) <= coarse_size
  int max_levels = 12;    ///< hard cap on hierarchy depth
  int nu_pre = 2;         ///< pre-smoothing steps per V-cycle level
  int nu_post = 2;        ///< post-smoothing steps per V-cycle level
  std::string smoother = "jacobi";  ///< "jacobi" | "chebyshev"
  double jacobi_omega = 0.8;        ///< weighted-Jacobi damping
  double cheb_boost = 4.0;  ///< smooth [lambda_max/boost, lambda_max]
  /// Guard against degenerate hierarchies: if coarsening stalls (odd tile
  /// boundaries) while the coarsest level still exceeds this zone count,
  /// construction throws instead of silently factoring a huge banded
  /// system on every preconditioner build.
  std::int64_t max_direct_zones = 16384;
};

/// Throw a v2d::Error naming the out-of-range knob by its option
/// (`--mg-levels`, `--mg-omega`, ...).  The one statement of these bounds:
/// MgHierarchy and RunConfig::from_options both call it.
void check_options(const MgOptions& opt);

}  // namespace v2d::linalg::mg
