#include "core/config.hpp"

#include <sstream>

#include "compiler/profile.hpp"
#include "grid/decomp.hpp"
#include "linalg/exec_context.hpp"
#include "linalg/precond.hpp"
#include "scenario/registry.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "vla/vla.hpp"

namespace v2d::core {

namespace {

/// An integer option with a floor: 0 for a count whose zero has a meaning
/// (a step count, a cadence, a thread count), 1 for one that must count
/// something (a grid extent, a species or tile count, an iteration cap).
int at_least(const Options& opt, const std::string& name, int lo) {
  const int v = opt.get_int<int>(name);
  if (v < lo)
    throw Error("option --" + name + " must be >= " + std::to_string(lo) +
                ", got " + std::to_string(v));
  return v;
}

/// A real option that must be > 0 (a tolerance, a time step), or >= 0
/// when `zero_ok` (an opacity, whose zero switches its process off).
double positive_real(const Options& opt, const std::string& name,
                     bool zero_ok = false) {
  const double v = opt.get_double(name);
  if (v < 0.0 || (v == 0.0 && !zero_ok)) {
    std::ostringstream os;
    os << "option --" << name << " must be " << (zero_ok ? ">= 0" : "> 0")
       << ", got " << v;
    throw Error(os.str());
  }
  return v;
}

/// Run `check`, which calls the bound of option --name's value where that
/// bound lives; an Error it throws is rethrown naming the option.
template <typename Check>
void check_option(const Options& opt, const std::string& name, Check&& check) {
  try {
    check();
  } catch (const Error& e) {
    throw Error("option --" + name + " " + opt.get(name) + ": " + e.what());
  }
}

}  // namespace

void RunConfig::register_options(Options& opt) {
  opt.add("problem", "gaussian-pulse",
          "problem name (see --list-problems)");
  opt.add("nx1", "200", "zones in x1");
  opt.add("nx2", "100", "zones in x2");
  opt.add("ns", "2", "radiation species");
  opt.add("steps", "100", "time steps");
  opt.add("dt", "0.03", "time step size");
  opt.add("kappa", "10.0", "total (transport) opacity");
  opt.add("kappa-absorb", "0.0", "absorption opacity");
  opt.add("kappa-exchange", "0.05", "species exchange opacity");
  opt.add("limiter", "lp", "flux limiter: none|lp|larsen2|wilson");
  opt.add("nprx1", "1", "tiles in x1 (NPRX1)");
  opt.add("nprx2", "1", "tiles in x2 (NPRX2)");
  opt.add("tol", "1e-8", "solver relative tolerance");
  opt.add("max-iter", "1000", "solver iteration cap");
  opt.add("ganged", "1", "use ganged reductions (0|1)");
  opt.add("precond", "spai0",
          "preconditioner: identity|jacobi|spai0|spai|mg");
  opt.add("solver-fallbacks", "",
          "comma list of fallback preconditioners tried (in order) when a "
          "solve breaks down or hits max iterations; empty = fail");
  opt.add("guard", "off",
          "per-step numeric guards: on (finite-field scan + conserved-total "
          "check, host-only and unpriced) | off");
  opt.add("guard-drift", "0",
          "conservation-drift tolerance per step (relative; 0 = drift "
          "sentinel off, finite checks still run under --guard on)");
  opt.add("mg-coarse-size", "8", "mg: stop coarsening at this grid size");
  opt.add("mg-levels", "12", "mg: maximum hierarchy depth");
  opt.add("mg-nu-pre", "2", "mg: pre-smoothing steps");
  opt.add("mg-nu-post", "2", "mg: post-smoothing steps");
  opt.add("mg-smoother", "jacobi", "mg smoother: jacobi|chebyshev");
  opt.add("mg-omega", "0.8", "mg: weighted-Jacobi damping");
  opt.add("mg-cheb-boost", "4.0",
          "mg: Chebyshev smoothing range [lambda_max/boost, lambda_max]");
  opt.add("mg-max-direct-zones", "16384",
          "mg: error out if the coarsest level exceeds this zone count");
  opt.add("compilers", "cray",
          "comma list of profiles: gnu,fujitsu,cray,cray-noopt,clang");
  opt.add("vector-bits", "512", "SVE vector length (128..2048)");
  opt.add("host-threads", "0",
          "host threads for rank-parallel execution (0 = hardware "
          "concurrency); results are identical at any value");
  opt.add("vla-exec", "native",
          "VLA execution backend: native (fast path) | interpret (reference)");
  opt.add("fuse", "off",
          "fused-kernel execution: off (reference kernel-per-pass sequence) "
          "| plan (one fused sweep per solver composite; see "
          "src/linalg/fusion/); "
          "'on' is the retired spelling of plan");
  opt.add("checkpoint", "", "h5lite checkpoint path (empty = none)");
  opt.add("checkpoint-every", "0", "steps between checkpoints (0 = end only)");
  opt.add("restart", "", "resume from this h5lite checkpoint (empty = fresh)");
}

RunConfig RunConfig::from_options(const Options& opt) {
  RunConfig c;
  c.problem = opt.get("problem");
  // Fail at config build time, not at Simulation construction: an unknown
  // problem name is a usage error, and the lookup lists the catalog in its
  // message.
  check_option(opt, "problem", [&] { (void)scenario::lookup(c.problem); });
  c.nx1 = at_least(opt, "nx1", 1);
  c.nx2 = at_least(opt, "nx2", 1);
  c.ns = at_least(opt, "ns", 1);
  c.steps = at_least(opt, "steps", 0);
  c.dt = positive_real(opt, "dt");
  c.kappa_total = positive_real(opt, "kappa", true);
  c.kappa_absorb = positive_real(opt, "kappa-absorb", true);
  c.exchange_kappa = positive_real(opt, "kappa-exchange", true);
  check_option(opt, "limiter",
               [&] { c.limiter = rad::limiter_from_name(opt.get("limiter")); });
  c.nprx1 = at_least(opt, "nprx1", 1);
  c.nprx2 = at_least(opt, "nprx2", 1);
  // Every problem builds Grid2D(nx1, nx2, …), so its tiles must fit it.
  check_option(opt, "nprx1",
               [&] { grid::Decomposition::require_fits(c.nx1, c.nprx1); });
  check_option(opt, "nprx2",
               [&] { grid::Decomposition::require_fits(c.nx2, c.nprx2); });
  c.rel_tol = positive_real(opt, "tol");
  c.max_iterations = at_least(opt, "max-iter", 1);
  c.ganged = opt.get_bool("ganged");
  c.preconditioner = opt.get("precond");
  check_option(opt, "precond", [&] {
    if (!linalg::is_preconditioner_kind(c.preconditioner))
      throw Error("unknown preconditioner");
  });
  c.solver_fallbacks.clear();
  {
    std::stringstream fb(opt.get("solver-fallbacks"));
    std::string kind;
    while (std::getline(fb, kind, ',')) {
      if (kind.empty()) continue;
      check_option(opt, "solver-fallbacks", [&] {
        if (!linalg::is_preconditioner_kind(kind))
          throw Error("unknown fallback preconditioner '" + kind + "'");
      });
      c.solver_fallbacks.push_back(kind);
    }
  }
  {
    const std::string g = opt.get("guard");
    check_option(opt, "guard", [&] {
      if (g != "on" && g != "off") throw Error("expected on|off");
    });
    c.guard = g == "on";
  }
  c.guard_drift = positive_real(opt, "guard-drift", true);
  c.mg_coarse_size = opt.get_int<int>("mg-coarse-size");
  c.mg_levels = opt.get_int<int>("mg-levels");
  c.mg_nu_pre = opt.get_int<int>("mg-nu-pre");
  c.mg_nu_post = opt.get_int<int>("mg-nu-post");
  c.mg_smoother = opt.get("mg-smoother");
  c.mg_omega = opt.get_double("mg-omega");
  c.mg_cheb_boost = opt.get_double("mg-cheb-boost");
  c.mg_max_direct_zones = opt.get_int("mg-max-direct-zones");
  linalg::mg::check_options(c.mg_options());
  c.compilers.clear();
  std::stringstream ss(opt.get("compilers"));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    check_option(opt, "compilers",
                 [&] { (void)compiler::find_profile(item); });
    c.compilers.push_back(item);
  }
  check_option(opt, "compilers", [&] {
    if (c.compilers.empty()) throw Error("need at least one compiler profile");
  });
  c.vector_bits = opt.get_int<unsigned>("vector-bits");
  check_option(opt, "vector-bits",
               [&] { (void)vla::VectorArch(c.vector_bits); });
  c.host_threads = at_least(opt, "host-threads", 0);
  check_option(opt, "host-threads",
               [&] { check_host_threads(c.host_threads); });
  c.vla_exec = opt.get("vla-exec");
  check_option(opt, "vla-exec",
               [&] { (void)vla::vla_exec_mode_from_name(c.vla_exec); });
  c.fuse = opt.get("fuse");
  check_option(opt, "fuse",
               [&] { (void)linalg::fuse_mode_from_name(c.fuse); });
  c.checkpoint_path = opt.get("checkpoint");
  c.checkpoint_every = at_least(opt, "checkpoint-every", 0);
  c.restart_path = opt.get("restart");
  return c;
}

}  // namespace v2d::core
