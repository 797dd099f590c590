#pragma once
/// \file scenario_common.hpp
/// \brief Shared construction helpers for the built-in problems.
///
/// Every catalog entry maps the same solver knobs out of RunConfig and
/// builds the same 3-solve radiation stepper around its FldBuilder; these
/// helpers keep that mapping in one place so a new SolveOptions knob (or
/// a fifth scenario) threads through exactly one site.

#include <memory>
#include <utility>

#include "rad/radstep.hpp"
#include "scenario/problem.hpp"

namespace v2d::scenario {

inline linalg::SolveOptions solve_options(const core::RunConfig& cfg) {
  linalg::SolveOptions opt;
  opt.rel_tol = cfg.rel_tol;
  opt.max_iterations = cfg.max_iterations;
  opt.ganged = cfg.ganged;
  return opt;
}

/// The radiation stepper on the setup's grid, from a prepared builder,
/// with the configured solver/preconditioner knobs.
inline std::unique_ptr<rad::RadiationStepper> make_stepper(
    const ProblemSetup& setup, rad::FldBuilder builder) {
  auto stepper = std::make_unique<rad::RadiationStepper>(
      *setup.grid, *setup.dec, std::move(builder),
      solve_options(*setup.cfg), setup.cfg->preconditioner,
      setup.cfg->mg_options());
  stepper->set_fallbacks(setup.cfg->solver_fallbacks);
  return stepper;
}

}  // namespace v2d::scenario
