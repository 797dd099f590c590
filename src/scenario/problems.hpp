#pragma once
/// \file problems.hpp
/// \brief Factories for the built-in workload catalog.
///
/// Each factory lives in its own translation unit under src/scenario/;
/// the catalog table in registry.cpp references them all, so
/// static-library linking always pulls the whole catalog in.

#include <memory>

#include "scenario/problem.hpp"

namespace v2d::scenario {

/// The paper's workload: diffusing 2-D Gaussian radiation pulse with the
/// free-space analytic reference.  Bit-identical to the historically
/// hardwired Simulation path.
std::unique_ptr<Problem> make_gaussian_pulse();

/// Operator-split radiation hydrodynamics: Sedov-like blast in a
/// reflecting box, HLL hydro sweeps + 3-solve radiation step + explicit
/// radiation–gas exchange, all priced.  Conservation pin: gas mass.
std::unique_ptr<Problem> make_sedov_radhydro();

/// Radiation diffusion through a nonuniform absorbing blob: power-law
/// absorption opacity kappa_a(rho) over a Gaussian density bump exercises
/// the non-uniform-material branch of FldBuilder.  Analytic reference:
/// discrete backward-Euler absorption bounds on the total energy decay.
std::unique_ptr<Problem> make_hotspot_absorber();

/// Exchange-dominated two-species relaxation on uniform fields: the
/// species difference contracts by exactly 1/(1 + 2 dt c kappa_x) per
/// step, giving a closed-form discrete reference the run is checked
/// against; the species sum is conserved.
std::unique_ptr<Problem> make_two_species_relax();

}  // namespace v2d::scenario
