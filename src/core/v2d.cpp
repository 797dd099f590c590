#include "core/v2d.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "io/h5lite.hpp"
#include "resilience/guards.hpp"
#include "scenario/registry.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace v2d::core {

namespace {

std::vector<compiler::CodegenProfile> resolve_profiles(
    const std::vector<std::string>& names) {
  std::vector<compiler::CodegenProfile> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(compiler::find_profile(n));
  return out;
}

/// Serialize one rank's cost ledger: per region, one i64 dataset with the
/// recorded instruction stream + communication tallies and one f64
/// dataset with the priced cycles/seconds.  Everything round-trips
/// bit-exactly (h5lite stores the native representations).
///
/// The layout is field-by-field; the static_asserts trip when a field is
/// added to KernelCounts or RegionCost so this writer/reader pair cannot
/// silently drop it (which would break restart bit-identity unnoticed).
static_assert(sizeof(sim::KernelCounts) ==
                  (2 * sim::kNumOpClasses + 4) * sizeof(std::uint64_t),
              "KernelCounts changed shape: update the checkpoint ledger "
              "serialization in core/v2d.cpp");
static_assert(sizeof(sim::RegionCost) ==
                  sizeof(sim::KernelCounts) + 5 * sizeof(double) +
                      2 * sizeof(std::uint64_t),
              "RegionCost changed shape: update the checkpoint ledger "
              "serialization in core/v2d.cpp");

void write_ledger(io::Group& group, const sim::CostLedger& ledger) {
  for (const auto& [name, rc] : ledger.regions()) {
    io::Group& rg = group.create_group(std::string(name));
    std::vector<std::int64_t> u;
    u.reserve(2 * sim::kNumOpClasses + 6);
    for (std::size_t i = 0; i < sim::kNumOpClasses; ++i)
      u.push_back(static_cast<std::int64_t>(rc.counts.instr[i]));
    for (std::size_t i = 0; i < sim::kNumOpClasses; ++i)
      u.push_back(static_cast<std::int64_t>(rc.counts.lanes[i]));
    u.push_back(static_cast<std::int64_t>(rc.counts.bytes_read));
    u.push_back(static_cast<std::int64_t>(rc.counts.bytes_written));
    u.push_back(static_cast<std::int64_t>(rc.counts.elements));
    u.push_back(static_cast<std::int64_t>(rc.counts.calls));
    u.push_back(static_cast<std::int64_t>(rc.comm_messages));
    u.push_back(static_cast<std::int64_t>(rc.comm_bytes));
    rg.write("u", std::span<const std::int64_t>(u),
             {static_cast<std::uint64_t>(u.size())});
    const std::vector<double> f = {rc.compute_cycles, rc.memory_cycles,
                                   rc.overhead_cycles, rc.total_cycles,
                                   rc.comm_seconds};
    rg.write("f", std::span<const double>(f),
             {static_cast<std::uint64_t>(f.size())});
  }
}

sim::CostLedger read_ledger(const io::Group& group) {
  sim::CostLedger out;
  for (const auto& [name, rg] : group.groups()) {
    const io::Dataset& ud = rg->dataset("u");
    const io::Dataset& fd = rg->dataset("f");
    V2D_REQUIRE(ud.i64.size() == 2 * sim::kNumOpClasses + 6 &&
                    fd.f64.size() == 5,
                "checkpoint ledger region '" + name + "' has a bad shape");
    sim::RegionCost rc;
    std::size_t k = 0;
    for (std::size_t i = 0; i < sim::kNumOpClasses; ++i)
      rc.counts.instr[i] = static_cast<std::uint64_t>(ud.i64[k++]);
    for (std::size_t i = 0; i < sim::kNumOpClasses; ++i)
      rc.counts.lanes[i] = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.counts.bytes_read = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.counts.bytes_written = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.counts.elements = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.counts.calls = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.comm_messages = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.comm_bytes = static_cast<std::uint64_t>(ud.i64[k++]);
    rc.compute_cycles = fd.f64[0];
    rc.memory_cycles = fd.f64[1];
    rc.overhead_cycles = fd.f64[2];
    rc.total_cycles = fd.f64[3];
    rc.comm_seconds = fd.f64[4];
    // Names map through the region table; one it lacks is an Error.
    out.set_region(sim::region_from_name(name), rc);
  }
  return out;
}

/// The stop reason of the first failed solve, for the non-convergence
/// error message (the fallback chain has already given up by then).
std::string worst_stop_reason(const rad::StepStats& stats) {
  for (std::size_t site = 0; site < stats.solves.size(); ++site)
    if (!stats.solves[site].converged)
      return "site " + std::to_string(site) + ": " +
             stats.solves[site].stop_reason;
  return "converged";
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ',';
    out += s;
  }
  return out;
}

/// The knobs that shape the trajectory and its pricing.  A restart is only
/// bit-identical to an uninterrupted run when these match, so they are
/// stored in the checkpoint and checked on resume.  Run-control knobs
/// (steps, checkpoint cadence, restart path) and host-only knobs
/// (host_threads, vla_exec — both provably bit-identical across settings)
/// are deliberately not pinned.
std::vector<std::pair<std::string, std::string>> pinned_knobs(
    const RunConfig& cfg) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  return {
      {"dt", num(cfg.dt)},
      {"kappa_total", num(cfg.kappa_total)},
      {"kappa_absorb", num(cfg.kappa_absorb)},
      {"exchange_kappa", num(cfg.exchange_kappa)},
      {"limiter", std::to_string(static_cast<int>(cfg.limiter))},
      {"rel_tol", num(cfg.rel_tol)},
      {"max_iterations", std::to_string(cfg.max_iterations)},
      {"ganged", std::to_string(cfg.ganged ? 1 : 0)},
      {"preconditioner", cfg.preconditioner},
      {"mg_coarse_size", std::to_string(cfg.mg_coarse_size)},
      {"mg_levels", std::to_string(cfg.mg_levels)},
      {"mg_nu_pre", std::to_string(cfg.mg_nu_pre)},
      {"mg_nu_post", std::to_string(cfg.mg_nu_post)},
      {"mg_smoother", cfg.mg_smoother},
      {"mg_omega", num(cfg.mg_omega)},
      {"mg_cheb_boost", num(cfg.mg_cheb_boost)},
      {"mg_max_direct_zones", std::to_string(cfg.mg_max_direct_zones)},
      {"vector_bits", std::to_string(cfg.vector_bits)},
      {"fuse", cfg.fuse},
      {"solver_fallbacks", join(cfg.solver_fallbacks)},
  };
}

}  // namespace

Simulation::Simulation(const RunConfig& cfg, sim::MachineSpec machine)
    : cfg_(cfg),
      problem_(scenario::lookup(cfg.problem).make()),
      grid_(problem_->make_grid(cfg_)),
      dec_(grid_, mpisim::CartTopology(cfg.nprx1, cfg.nprx2)) {
  set_host_threads(cfg.host_threads);
  em_ = std::make_unique<mpisim::ExecModel>(
      std::move(machine), resolve_profiles(cfg.compilers), cfg.nranks());
  ctx_ = linalg::ExecContext(vla::VectorArch(cfg.vector_bits), em_.get(),
                             vla::vla_exec_mode_from_name(cfg.vla_exec),
                             linalg::fuse_mode_from_name(cfg.fuse));

  scenario::ProblemSetup setup;
  setup.cfg = &cfg_;
  setup.grid = &grid_;
  setup.dec = &dec_;
  setup.ctx = &ctx_;
  problem_->initialize(setup);

  profilers_.resize(em_->nprofiles());
}

Simulation::~Simulation() = default;

rad::RadiationStepper& Simulation::stepper() {
  rad::RadiationStepper* s = problem_->stepper();
  V2D_REQUIRE(s != nullptr, "the active problem has no radiation stepper");
  return *s;
}

linalg::DistVector& Simulation::radiation() {
  linalg::DistVector* e = problem_->radiation();
  V2D_REQUIRE(e != nullptr, "the active problem has no radiation field");
  return *e;
}

rad::StepStats Simulation::advance() {
  std::vector<double> before(em_->nprofiles());
  for (std::size_t p = 0; p < em_->nprofiles(); ++p)
    before[p] = em_->elapsed(p);

  // Re-arm the stepper's resilience context every step: the step number
  // changes, and a stale injector pointer must never outlive its owner.
  if (rad::RadiationStepper* s = problem_->stepper(); s != nullptr)
    s->set_resilience(injector_, &recovery_, step_count_ + 1);

  const double dt = problem_->pick_dt(ctx_, cfg_);
  rad::StepStats stats = problem_->advance(ctx_, dt);
  t_ += dt;
  ++step_count_;

  for (std::size_t p = 0; p < em_->nprofiles(); ++p) {
    perfmon::Profiler& prof = profilers_[p];
    prof.enter("timestep");
    for (int site = 0; site < 3; ++site) {
      prof.enter("bicgstab-site-" + std::to_string(site + 1));
      const auto& elapsed = stats.site_elapsed[static_cast<std::size_t>(site)];
      prof.exit(elapsed.empty() ? 0.0 : elapsed[p]);
    }
    prof.exit(em_->elapsed(p) - before[p]);
  }
  return stats;
}

rad::StepStats Simulation::drive_step() {
  const auto stats = advance();
  // Injected NaN contamination lands after the step's physics — exactly
  // the silent corruption the guards exist to catch.  With guards off it
  // propagates into the next step's solves, as it would in production.
  if (injector_ != nullptr &&
      injector_->take(resilience::FaultKind::NanContaminate, step_count_)) {
    if (linalg::DistVector* e = problem_->radiation(); e != nullptr) {
      e->field().gset(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
      recovery_.record(step_count_, "injected-nan",
                       "poisoned radiation field at zone (0, 0), species 0");
    }
  }
  if (injector_ != nullptr &&
      injector_->take(resilience::FaultKind::StepException, step_count_)) {
    recovery_.record(step_count_, "injected-exception",
                     "session step raised");
    throw Error("injected session-step exception at step " +
                std::to_string(step_count_));
  }
  if (cfg_.guard) run_guards();
  V2D_CHECK(stats.all_converged(),
            "solver failed to converge at step " + std::to_string(step_count_) +
                " (" + worst_stop_reason(stats) + ")");
  if (!cfg_.checkpoint_path.empty() && cfg_.checkpoint_every > 0 &&
      step_count_ % cfg_.checkpoint_every == 0) {
    checkpoint(cfg_.checkpoint_path);
  }
  return stats;
}

void Simulation::run_guards() {
  if (linalg::DistVector* e = problem_->radiation(); e != nullptr)
    resilience::check_field_finite(e->field(), "radiation_energy",
                                   step_count_);
  const double energy = problem_->total_energy();
  resilience::check_scalar_finite(energy, "total_energy", step_count_);
  if (cfg_.guard_drift > 0.0) {
    if (guard_has_prev_)
      resilience::check_drift(energy, guard_prev_energy_, cfg_.guard_drift,
                              "total_energy", step_count_);
    guard_prev_energy_ = energy;
    guard_has_prev_ = true;
  }
}

void Simulation::finalize_checkpoints() {
  // Skipped when the periodic cadence already wrote one for the last step
  // (the duplicate would double-price the Io).
  if (!cfg_.checkpoint_path.empty() && last_checkpoint_step_ != step_count_)
    checkpoint(cfg_.checkpoint_path);
}

void Simulation::run(
    const std::function<void(const rad::StepStats&)>& on_step) {
  while (!finished()) {
    const auto stats = drive_step();
    if (on_step) on_step(stats);
  }
  finalize_checkpoints();
}

double Simulation::analytic_error() const {
  return problem_->analytic_error(t_);
}

double Simulation::total_energy() const { return problem_->total_energy(); }

void Simulation::checkpoint(const std::string& path) {
  // Price the serialization first: every rank writes its slice of the
  // problem payload through the (simulated) parallel filesystem path.
  // Pricing precedes the execution-state capture below so the stored
  // clocks/ledgers already include this very write — a restarted run
  // resumes exactly where the continuing run stands.
  const auto arrays = static_cast<std::uint64_t>(problem_->state_arrays());
  for (int r = 0; r < dec_.nranks(); ++r) {
    const grid::TileExtent& ext = dec_.extent(r);
    const auto elements =
        static_cast<std::uint64_t>(ext.ni) * ext.nj * arrays;
    ctx_.commit_synthetic(r, compiler::KernelFamily::Io,
                          sim::Region::Checkpoint,
                          elements, 2, 8, 8, elements * 16);
  }

  io::H5File file;
  io::Group& root = file.root();
  root.set_attr("code", std::string("v2dsve"));
  root.set_attr("problem", std::string(problem_->name()));
  root.set_attr("time", t_);
  root.set_attr("step", static_cast<std::int64_t>(step_count_));

  io::Group& mesh = root.create_group("mesh");
  mesh.set_attr("nx1", static_cast<std::int64_t>(cfg_.nx1));
  mesh.set_attr("nx2", static_cast<std::int64_t>(cfg_.nx2));
  mesh.set_attr("ns", static_cast<std::int64_t>(cfg_.ns));
  mesh.set_attr("nprx1", static_cast<std::int64_t>(cfg_.nprx1));
  mesh.set_attr("nprx2", static_cast<std::int64_t>(cfg_.nprx2));

  io::Group& knobs = root.create_group("config");
  for (const auto& [name, value] : pinned_knobs(cfg_))
    knobs.set_attr(name, value);

  io::Group& fields = root.create_group("fields");
  problem_->write_state(fields);

  io::Group& exec = root.create_group("exec");
  exec.set_attr("nprofiles", static_cast<std::int64_t>(em_->nprofiles()));
  for (std::size_t p = 0; p < em_->nprofiles(); ++p) {
    io::Group& pg = exec.create_group("profile-" + std::to_string(p));
    pg.set_attr("name", std::string(em_->profile(p).name()));
    std::vector<double> clock;
    clock.reserve(static_cast<std::size_t>(dec_.nranks()));
    for (int r = 0; r < dec_.nranks(); ++r)
      clock.push_back(em_->rank_time(p, r));
    pg.write("clock", std::span<const double>(clock),
             {static_cast<std::uint64_t>(clock.size())});
    for (int r = 0; r < dec_.nranks(); ++r)
      write_ledger(pg.create_group("ledger-" + std::to_string(r)),
                   em_->ledger(p, r));
  }

  if (injector_ != nullptr &&
      injector_->take(resilience::FaultKind::CheckpointIo, step_count_)) {
    // Model a crash mid-write: whatever bytes made it out land in the
    // atomic writer's side file, never the real path — an existing
    // finalized checkpoint stays valid for the retry.  The Io pricing
    // above stands (the attempt did the work); the farm's restart wipes
    // it along with the rest of the failed attempt.
    const auto bytes = file.serialize();
    std::ofstream torn(path + ".tmp", std::ios::binary | std::ios::trunc);
    torn.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() / 2));
    recovery_.record(step_count_, "injected-io",
                     "checkpoint write to '" + path + "' torn mid-stream");
    throw Error("injected checkpoint I/O failure writing '" + path +
                "' at step " + std::to_string(step_count_));
  }
  file.save(path);
  // The duplicate-final-write suppression in run() only cares about the
  // configured path; a manual checkpoint elsewhere must not mask it.
  if (path == cfg_.checkpoint_path) last_checkpoint_step_ = step_count_;
}

void Simulation::restart(const std::string& path) {
  const io::H5File file = io::H5File::load(path);
  const io::Group& root = file.root();
  V2D_REQUIRE(root.attr_str("code") == "v2dsve",
              "not a v2dsve checkpoint: " + path);
  V2D_REQUIRE(root.attr_str("problem") == cfg_.problem,
              "checkpoint holds problem '" + root.attr_str("problem") +
                  "' but the run is configured for '" + cfg_.problem + "'");
  const io::Group& mesh = root.group("mesh");
  V2D_REQUIRE(mesh.attr_i64("nx1") == cfg_.nx1 &&
                  mesh.attr_i64("nx2") == cfg_.nx2 &&
                  mesh.attr_i64("ns") == cfg_.ns &&
                  mesh.attr_i64("nprx1") == cfg_.nprx1 &&
                  mesh.attr_i64("nprx2") == cfg_.nprx2,
              "checkpoint mesh does not match the configured run");
  const io::Group& knobs = root.group("config");
  for (const auto& [name, value] : pinned_knobs(cfg_)) {
    V2D_REQUIRE(knobs.has_attr(name) && knobs.attr_str(name) == value,
                "checkpoint knob '" + name + "' is " +
                    (knobs.has_attr(name) ? knobs.attr_str(name)
                                          : std::string("<missing>")) +
                    " but the run is configured with " + value +
                    "; a restart is only bit-identical under the same "
                    "physics/solver/pricing knobs");
  }

  t_ = root.attr_f64("time");
  step_count_ = static_cast<int>(root.attr_i64("step"));
  // The drift sentinel has no baseline across a restart boundary.
  guard_has_prev_ = false;
  // Resuming from the run's own configured checkpoint counts as that file
  // being up to date; resuming from any other file must not suppress the
  // configured path's final write.
  last_checkpoint_step_ = path == cfg_.checkpoint_path ? step_count_ : -1;

  problem_->read_state(root.group("fields"));

  const io::Group& exec = root.group("exec");
  V2D_REQUIRE(static_cast<std::size_t>(exec.attr_i64("nprofiles")) ==
                  em_->nprofiles(),
              "checkpoint profile count does not match the configured run");
  for (std::size_t p = 0; p < em_->nprofiles(); ++p) {
    const io::Group& pg = exec.group("profile-" + std::to_string(p));
    V2D_REQUIRE(pg.attr_str("name") == em_->profile(p).name(),
                "checkpoint profile order does not match --compilers");
    const io::Dataset& clock = pg.dataset("clock");
    V2D_REQUIRE(clock.f64.size() == static_cast<std::size_t>(dec_.nranks()),
                "checkpoint clock vector does not match the rank count");
    for (int r = 0; r < dec_.nranks(); ++r) {
      em_->restore_rank(
          p, r, clock.f64[static_cast<std::size_t>(r)],
          read_ledger(pg.group("ledger-" + std::to_string(r))));
    }
  }
}

}  // namespace v2d::core
