#include "rad/radstep.hpp"

#include <memory>

#include "linalg/precond.hpp"
#include "support/error.hpp"

namespace v2d::rad {

using linalg::DistVector;
using linalg::ExecContext;
using linalg::SolveStats;
using linalg::StencilOperator;

RadiationStepper::RadiationStepper(const grid::Grid2D& g,
                                   const grid::Decomposition& d,
                                   FldBuilder builder,
                                   linalg::SolveOptions solver_options,
                                   std::string preconditioner,
                                   linalg::mg::MgOptions mg_options)
    : builder_(std::move(builder)),
      opt_(solver_options),
      precond_kind_(std::move(preconditioner)),
      mg_options_(std::move(mg_options)),
      a_diffusion_(g, d, builder_.ns()),
      a_coupling_(g, d, builder_.ns()),
      workspace_(g, d, builder_.ns()),
      solver_(workspace_),
      rhs_(g, d, builder_.ns()),
      e_star_(g, d, builder_.ns()),
      e_old_(g, d, builder_.ns()) {
  if (builder_.ns() == 2) a_coupling_.enable_coupling();
}

SolveStats RadiationStepper::run_solve(ExecContext& ctx, StencilOperator& A,
                                       DistVector& x, const DistVector& b,
                                       int site) {
  // Snapshot the initial guess (including ghosts) when a fallback could
  // need it.  Host-only bookkeeping, never priced: a fallback attempt must
  // start from exactly the x0 the primary saw, and the copy models the
  // recovery harness, not the simulated code.
  std::unique_ptr<grid::DistField> x0;
  if (!fallbacks_.empty()) x0 = std::make_unique<grid::DistField>(x.field());

  const std::size_t attempts = 1 + fallbacks_.size();
  SolveStats stats;
  for (std::size_t a = 0; a < attempts; ++a) {
    const std::string& kind = a == 0 ? precond_kind_ : fallbacks_[a - 1];
    if (a > 0) x.field() = *x0;
    if (a == 0 && injector_ != nullptr &&
        injector_->take_breakdown(step_, site)) {
      // Synthetic breakdown: no preconditioner built, no solve run, no
      // pricing committed — a re-attempt with the same kind prices exactly
      // what the fault-free solve would have (the bit-identity contract).
      stats = SolveStats{};
      stats.converged = false;
      stats.stop_reason = "injected breakdown";
      if (recovery_ != nullptr)
        recovery_->record(step_, "injected-breakdown",
                          "forced solver breakdown at call site " +
                              std::to_string(site),
                          site);
    } else {
      const auto precond =
          linalg::make_preconditioner(kind, ctx, A, mg_options_);
      stats = solver_.solve(ctx, A, *precond, x, b, opt_);
    }
    if (stats.converged) {
      if (a > 0 && recovery_ != nullptr)
        recovery_->record(step_, "solver-fallback",
                          "recovered call site " + std::to_string(site) +
                              " with '" + kind + "' (" +
                              std::to_string(stats.iterations) +
                              " iterations)",
                          site);
      return stats;
    }
    if (a + 1 < attempts && recovery_ != nullptr)
      recovery_->record(step_, "solver-fallback",
                        "'" + kind + "' failed at call site " +
                            std::to_string(site) + " (" + stats.stop_reason +
                            "); retrying with '" + fallbacks_[a] + "'",
                        site);
  }
  return stats;
}

StepStats RadiationStepper::step(ExecContext& ctx, DistVector& e, double dt) {
  V2D_REQUIRE(dt > 0.0, "time step must be positive");
  StepStats stats;

  auto snapshot = [&]() {
    std::vector<double> t;
    if (ctx.em != nullptr) {
      t.reserve(ctx.em->nprofiles());
      for (std::size_t p = 0; p < ctx.em->nprofiles(); ++p)
        t.push_back(ctx.em->elapsed(p));
    }
    return t;
  };
  auto record_site = [&](int site, const std::vector<double>& before) {
    if (ctx.em == nullptr) return;
    auto& out = stats.site_elapsed[static_cast<std::size_t>(site)];
    out.resize(before.size());
    for (std::size_t p = 0; p < before.size(); ++p)
      out[p] = ctx.em->elapsed(p) - before[p];
  };

  // Solve 1 — predictor: limiters and rhs both at time level n.
  auto t0 = snapshot();
  e_old_.copy_from(ctx, e);
  builder_.build_diffusion(ctx, e, e_old_, dt, a_diffusion_, rhs_);
  e_star_.copy_from(ctx, e);  // initial guess: Eⁿ
  stats.solves[0] = run_solve(ctx, a_diffusion_, e_star_, rhs_, 0);
  record_site(0, t0);

  // Solve 2 — corrector: limiters refreshed from E*, rhs still at level n.
  t0 = snapshot();
  builder_.build_diffusion(ctx, e_star_, e_old_, dt, a_diffusion_, rhs_);
  e.copy_from(ctx, e_star_);  // initial guess: E*
  stats.solves[1] = run_solve(ctx, a_diffusion_, e, rhs_, 1);
  record_site(1, t0);

  // Solve 3 — coupling (only defined for the two-species configuration;
  // otherwise repeat the corrector against the updated limiters, keeping
  // the 3-solves-per-step structure).
  t0 = snapshot();
  if (builder_.ns() == 2) {
    e_star_.copy_from(ctx, e);  // E** supplies the refreshed limiters
    builder_.build_coupling(ctx, e_star_, e_old_, dt, a_coupling_, rhs_);
    stats.solves[2] = run_solve(ctx, a_coupling_, e, rhs_, 2);
    builder_.update_temperature(ctx, e, dt);
  } else {
    e_star_.copy_from(ctx, e);
    builder_.build_diffusion(ctx, e_star_, e_old_, dt, a_diffusion_, rhs_);
    stats.solves[2] = run_solve(ctx, a_diffusion_, e, rhs_, 2);
  }
  record_site(2, t0);
  return stats;
}

SolveStats RadiationStepper::solve_site(ExecContext& ctx, DistVector& e,
                                        double dt, int which) {
  V2D_REQUIRE(which >= 0 && which < 3, "call site index must be 0..2");
  e_old_.copy_from(ctx, e);
  if (which < 2) {
    builder_.build_diffusion(ctx, e, e_old_, dt, a_diffusion_, rhs_);
    e_star_.copy_from(ctx, e);
    return run_solve(ctx, a_diffusion_, e_star_, rhs_, which);
  }
  if (builder_.ns() == 2) {
    builder_.build_coupling(ctx, e, e_old_, dt, a_coupling_, rhs_);
    e_star_.copy_from(ctx, e);
    return run_solve(ctx, a_coupling_, e_star_, rhs_, which);
  }
  builder_.build_diffusion(ctx, e, e_old_, dt, a_diffusion_, rhs_);
  e_star_.copy_from(ctx, e);
  return run_solve(ctx, a_diffusion_, e_star_, rhs_, which);
}

}  // namespace v2d::rad
