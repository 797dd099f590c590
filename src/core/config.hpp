#pragma once
/// \file config.hpp
/// \brief Run-time configuration of a V2D simulation (the paper's knobs).

#include <string>
#include <vector>

#include "linalg/mg/options.hpp"
#include "rad/limiter.hpp"
#include "support/options.hpp"

namespace v2d::core {

struct RunConfig {
  // --- problem (a scenario catalog name; see src/scenario/registry.hpp) ---
  std::string problem = "gaussian-pulse";
  int nx1 = 200;  ///< paper's x1
  int nx2 = 100;  ///< paper's x2
  int ns = 2;     ///< radiation species
  int steps = 100;
  double dt = 0.03;
  double kappa_total = 10.0;   ///< transport opacity (uniform)
  double kappa_absorb = 0.0;   ///< absorption opacity (0 = pure diffusion)
  double exchange_kappa = 0.05;  ///< species exchange in the coupling solve
  rad::LimiterKind limiter = rad::LimiterKind::LevermorePomraning;

  // --- decomposition (the paper's NPRX1 / NPRX2) ---
  int nprx1 = 1;
  int nprx2 = 1;

  // --- solver ---
  double rel_tol = 1.0e-8;
  int max_iterations = 1000;
  bool ganged = true;
  std::string preconditioner = "spai0";
  /// Deterministic solver fallback chain: when a solve breaks down or hits
  /// max iterations, re-attempt from the same initial guess with each of
  /// these preconditioners in order (recorded in the recovery ledger).
  /// Empty (default) = fail as before.  Pinned in checkpoints: the chain
  /// shapes the priced trajectory when it engages.
  std::vector<std::string> solver_fallbacks;

  // --- multigrid preconditioner (used when preconditioner == "mg") ---
  int mg_coarse_size = 8;
  int mg_levels = 12;
  int mg_nu_pre = 2;
  int mg_nu_post = 2;
  std::string mg_smoother = "jacobi";
  double mg_omega = 0.8;
  double mg_cheb_boost = 4.0;
  long mg_max_direct_zones = 16384;

  // --- simulated platform ---
  std::vector<std::string> compilers = {"cray"};  ///< profile short names
  unsigned vector_bits = 512;
  /// Host threads for rank-parallel execution (0 = hardware concurrency).
  /// Purely a host wall-clock knob: results, recordings and simulated
  /// clocks are bit-identical at any value.  Applied to the process-wide
  /// pool when a Simulation is constructed.
  int host_threads = 0;
  /// VLA execution backend: "native" (raw-pointer fast path + memoized
  /// recording) or "interpret" (op-by-op reference).  Results and recorded
  /// counts are identical; native is the default because it is the one you
  /// want for anything larger than a unit test.
  std::string vla_exec = "native";
  /// Fused-kernel execution: "off" (default) keeps the kernel-per-pass
  /// Table II sequence bit-identically — results, counts, ledgers and
  /// clocks.  "plan" runs the solver composites (MATVEC+DPROD, DAXPY₂,
  /// precond+ganged-dot, fused residual, ...) each as one fused sweep
  /// (src/linalg/fusion/).  Both modes produce identical numerics;
  /// plan moves fewer bytes, so simulated cycles drop.
  /// "on", the retired spelling of "plan", is accepted and kept as typed
  /// (checkpoints pin the spelling, so old "on" checkpoints resume under
  /// "on").
  std::string fuse = "off";

  // --- numeric guards (host-only; see src/resilience/guards.hpp) ---
  /// Validate every step's results: finite scan of the radiation field
  /// plus a finiteness check on the conserved total.  Unpriced — enabling
  /// it moves no simulated cycles — so it is not pinned in checkpoints.
  bool guard = false;
  /// Conservation-drift tolerance per step (relative); 0 disables the
  /// drift sentinel (finite checks still run when guard is on).
  double guard_drift = 0.0;

  // --- output ---
  std::string checkpoint_path;  ///< empty = no checkpoint
  int checkpoint_every = 0;     ///< steps between checkpoints (0 = end only)
  std::string restart_path;     ///< resume from this checkpoint (empty = fresh)

  int nranks() const { return nprx1 * nprx2; }

  /// The multigrid knobs bundled for make_preconditioner / RadiationStepper.
  linalg::mg::MgOptions mg_options() const {
    linalg::mg::MgOptions o;
    o.coarse_size = mg_coarse_size;
    o.max_levels = mg_levels;
    o.nu_pre = mg_nu_pre;
    o.nu_post = mg_nu_post;
    o.smoother = mg_smoother;
    o.jacobi_omega = mg_omega;
    o.cheb_boost = mg_cheb_boost;
    o.max_direct_zones = mg_max_direct_zones;
    return o;
  }

  /// Register every knob on an Options parser (shared by benches/examples).
  static void register_options(Options& opt);
  /// Build from parsed options.
  static RunConfig from_options(const Options& opt);
};

}  // namespace v2d::core
