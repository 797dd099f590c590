#include "linalg/mg/smoother.hpp"

#include "linalg/mg/mg_kernels.hpp"
#include "support/error.hpp"

namespace v2d::linalg::mg {

using compiler::KernelFamily;
using sim::Region;

namespace {

/// x ← x + ω·dinv ⊙ r   (the weighted-Jacobi correction, fused).
void diag_correct(ExecContext& ctx, const grid::DistField& dinv,
                  const DistVector& r, DistVector& x, double omega) {
  sweep_tiles(ctx, KernelFamily::Precond, Region::MgSmooth,
              {&dinv, &r.field(), &x.field()},
              [omega](vla::Context& v, int, const auto& p, const Tile& t) {
                diag_correct_rows(v, omega, p[0], p[1], p[2], t);
              });
}

/// z ← ω·dinv ⊙ r   (scaled diagonal application).
void diag_scale(ExecContext& ctx, const grid::DistField& dinv,
                const DistVector& r, DistVector& z, double omega) {
  sweep_tiles(ctx, KernelFamily::Precond, Region::MgSmooth,
              {&dinv, &r.field(), &z.field()},
              [omega](vla::Context& v, int, const auto& p, const Tile& t) {
                diag_scale_rows(v, omega, p[0], p[1], p[2], t);
              });
}

/// r ← b − A·x, attributed to the smoother.  When fused the subtraction
/// rides the stencil sweep (the fused weighted-Jacobi step: the residual
/// half of every smoothing iteration becomes one pass, and the correction
/// half is already the single fused diag_correct kernel).
void residual(ExecContext& ctx, MgLevel& lvl, DistVector& x, DistVector& b,
              DistVector& r) {
  lvl.op->apply_residual_as(ctx, x, b, r, KernelFamily::Precond,
                            Region::MgSmooth);
}

}  // namespace

void WeightedJacobiSmoother::smooth(ExecContext& ctx, MgLevel& lvl,
                                    DistVector& x, DistVector& b, int steps,
                                    bool zero_guess) const {
  // The zero_guess contract holds even for zero steps: x must leave this
  // call zero-initialized or the V-cycle becomes stateful across
  // applications (fatal inside a Krylov method).
  if (zero_guess && steps < 1) {
    x.fill(ctx, 0.0);
    return;
  }
  for (int step = 0; step < steps; ++step) {
    if (step == 0 && zero_guess) {
      // x₀ = 0 makes the first step a pure diagonal sweep.
      diag_scale(ctx, lvl.dinv, b, x, omega_);
      continue;
    }
    residual(ctx, lvl, x, b, lvl.r);
    diag_correct(ctx, lvl.dinv, lvl.r, x, omega_);
  }
}

void ChebyshevSmoother::smooth(ExecContext& ctx, MgLevel& lvl, DistVector& x,
                               DistVector& b, int steps,
                               bool zero_guess) const {
  if (steps < 1) {
    // Same zero_guess contract as the Jacobi smoother.
    if (zero_guess) x.fill(ctx, 0.0);
    return;
  }
  const double lmax = lvl.lambda_max;
  const double lmin = lmax / boost_;
  const double theta = 0.5 * (lmax + lmin);
  const double delta = 0.5 * (lmax - lmin);
  const double sigma = theta / delta;
  double rho = 1.0 / sigma;

  // First step: p = D⁻¹r/θ, x += p.
  if (zero_guess) {
    diag_scale(ctx, lvl.dinv, b, lvl.p, 1.0 / theta);
    x.copy_from(ctx, lvl.p);
  } else {
    residual(ctx, lvl, x, b, lvl.r);
    diag_scale(ctx, lvl.dinv, lvl.r, lvl.p, 1.0 / theta);
    x.daxpy(ctx, 1.0, lvl.p);
  }
  // Chebyshev recurrence on the direction vector p.
  for (int step = 1; step < steps; ++step) {
    residual(ctx, lvl, x, b, lvl.r);
    diag_scale(ctx, lvl.dinv, lvl.r, lvl.z, 1.0);
    const double rho_new = 1.0 / (2.0 * sigma - rho);
    lvl.p.dscal(ctx, 0.0, -(rho_new * rho));      // p ← ρ'·ρ·p
    lvl.p.daxpy(ctx, 2.0 * rho_new / delta, lvl.z);
    x.daxpy(ctx, 1.0, lvl.p);
    rho = rho_new;
  }
}

std::unique_ptr<Smoother> make_smoother(const MgOptions& opt) {
  if (opt.smoother == "jacobi")
    return std::make_unique<WeightedJacobiSmoother>(opt.jacobi_omega);
  if (opt.smoother == "chebyshev")
    return std::make_unique<ChebyshevSmoother>(opt.cheb_boost);
  throw Error("unknown multigrid smoother '" + opt.smoother +
              "' (expected jacobi|chebyshev)");
}

}  // namespace v2d::linalg::mg
