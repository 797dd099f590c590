#pragma once
/// \file euler.hpp
/// \brief 2-D Eulerian hydrodynamics: dimensionally split HLL solver.
///
/// Conserved variables (ρ, ρu₁, ρu₂, E_gas) live in one 4-component
/// DistField, so the hydro state is domain-decomposed exactly like the
/// radiation vectors.  Each step does an x1 sweep then an x2 sweep of
/// piecewise-constant Godunov updates with the HLL approximate Riemann
/// solver, Davis wavespeed bounds, and zero-gradient (outflow) or
/// reflecting boundaries.  Work is charged to the Hydro kernel family.

#include <cstdint>

#include "grid/dist_field.hpp"
#include "hydro/eos.hpp"
#include "linalg/exec_context.hpp"

namespace v2d::hydro {

/// Component indices in the conserved-state field.
enum Cons : int { kRho = 0, kMom1 = 1, kMom2 = 2, kEner = 3, kNumCons = 4 };

enum class HydroBc : std::uint8_t { Outflow, Reflecting };

class HydroState {
public:
  HydroState(const grid::Grid2D& g, const grid::Decomposition& d)
      : field_(g, d, kNumCons, 1) {}

  grid::DistField& field() { return field_; }
  const grid::DistField& field() const { return field_; }

  /// Set one zone's primitive state (ρ, u₁, u₂, p).
  void set_primitive(const GammaLawEos& eos, int gi, int gj, double rho,
                     double u1, double u2, double p);

  /// Total gas energy Σ E·V (conservation diagnostics).
  double total_energy() const;
  /// Total mass Σ ρ·V.
  double total_mass() const;

private:
  grid::DistField field_;
};

class HydroSolver {
public:
  HydroSolver(const grid::Grid2D& g, const grid::Decomposition& d,
              GammaLawEos eos, HydroBc bc = HydroBc::Outflow,
              double cfl = 0.4);

  const GammaLawEos& eos() const { return eos_; }

  /// Largest stable dt for the current state (global reduction priced as
  /// one allreduce).
  double cfl_dt(linalg::ExecContext& ctx, const HydroState& state) const;

  /// Advance by dt (dimensionally split x1 then x2 sweeps).
  void step(linalg::ExecContext& ctx, HydroState& state, double dt);

private:
  void sweep(linalg::ExecContext& ctx, HydroState& state, double dt,
             int direction);
  void fill_ghosts(linalg::ExecContext& ctx, HydroState& state);
  /// Reflecting walls: flip the wall-normal momentum in rank r's
  /// physical ghosts (own-tile reads and writes only).
  void reflect_rank(grid::DistField& f, int r) const;

  const grid::Grid2D* grid_;
  const grid::Decomposition* dec_;
  GammaLawEos eos_;
  HydroBc bc_;
  double cfl_;
};

}  // namespace v2d::hydro
