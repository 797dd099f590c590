/// \file perfbench.cpp
/// \brief Measures one benchmark workload of the v2d library in this process.
///
///   perfbench --workload table1-np1|table1-np20|farm-mix --seed N
///             --seconds S --trace 0|1 --work-dir DIR [--trace-out PATH]
///   perfbench --trace-selftest PATH
///
/// A workload runs as a number of identical episodes.  A table1 episode
/// builds a Simulation and drives a fixed number of steps; a farm-mix
/// episode parses a fixed job list, builds a FarmScheduler and runs it.
/// The episode count follows from --seconds and never drops below the
/// count that gives 100 step samples, so the 90th percentile always has at
/// least ten samples beyond it.  Medians over episodes make the figures
/// robust to a stall on a shared host.
///
/// With --trace 0 the episodes run untraced.  With --trace 1 untraced and
/// traced episodes alternate (the traced ones record a span around every
/// call into the library), then each layer is probed from outside by timing
/// calls into its public functions, and the spans are written as Chrome
/// trace-event JSON.  A per-layer time per step is a probe's time per call
/// times the exact per-step call count read from the run's own ledgers and
/// counters, so the benchmark keeps no second copy of the stepper.  The
/// traced farm-mix run also replays every job alone, for exact iteration
/// counts and a farm-versus-solo identity check.
///
/// The process prints one JSON object of raw samples, counters and check
/// values on its last stdout line; run.py turns it into the result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compiler/profile.hpp"
#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "farm/job_file.hpp"
#include "grid/dist_field.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "mpisim/exec_model.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "vla/vla.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace v2d;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t memo_probes() {
  return vla::process_memo_hits() + vla::process_memo_misses();
}

// ---------------------------------------------------------------------------
// JSON output

class Json {
public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + Tracer::escape(v) + "\"");
  }
  Json& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& o) { return raw(k, o.dump()); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + Tracer::escape(k) + "\":" + v;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Workload definitions

/// The four Table I compiler profiles every table1 step is priced under.
const std::vector<std::string> kTable1Profiles = {"gnu", "fujitsu", "cray",
                                                  "cray-noopt"};
/// Steps per table1 episode and the nominal episode length used to turn
/// --seconds into an episode count (measured on a 4-vCPU x86 host).
constexpr int kNp1EpisodeSteps = 20;
constexpr int kNp20EpisodeSteps = 10;
constexpr double kNp1EpisodeSeconds = 2.3;
constexpr double kNp20EpisodeSeconds = 2.35;
constexpr double kFarmEpisodeSeconds = 2.2;
/// Step samples a run must hold for a 90th percentile with ten beyond it.
constexpr int kMinStepSamples = 100;
/// Set-up samples taken before each untraced episode besides the episode's
/// own; spread over the run, their median sees the host as the episodes do.
constexpr int kExtraSetupsPerEpisode = 4;
/// farm-mix host lanes.
constexpr int kFarmLanes = 2;

core::RunConfig table1_config(int nprx1, int nprx2, int steps) {
  core::RunConfig cfg;  // gaussian-pulse 200x100x2, spai0, ganged, 1e-8, VL 512
  cfg.compilers = kTable1Profiles;
  cfg.host_threads = 1;
  cfg.nprx1 = nprx1;
  cfg.nprx2 = nprx2;
  cfg.steps = steps;
  return cfg;
}

/// The farm-mix job list in its canonical order; `dir` holds checkpoints.
/// Step counts differ so completions spread over the run.
std::vector<std::string> farm_job_lines(const std::string& dir) {
  const std::string pulse = "--problem gaussian-pulse --nx1 128 --nx2 64";
  return {
      "pulse-vl128: " + pulse + " --steps 6 --vector-bits 128",
      "pulse-vl512: " + pulse + " --steps 6",
      "pulse-vl2048: " + pulse + " --steps 5 --vector-bits 2048",
      "pulse-jacobi: " + pulse + " --steps 5 --precond jacobi",
      "pulse-mg: " + pulse + " --steps 6 --precond mg",
      "pulse-plan: " + pulse + " --steps 7 --fuse plan",
      "pulse-2x2: " + pulse + " --steps 6 --nprx1 2 --nprx2 2",
      "pulse-2prof: " + pulse + " --steps 5 --compilers gnu,fujitsu",
      "pulse-ckpt: " + pulse + " --steps 6 --checkpoint " + dir +
          "/pulse-ckpt.h5 --checkpoint-every 2",
      "hotspot: --problem hotspot-absorber --nx1 128 --nx2 64 --steps 6",
      "relax: --problem two-species-relax --nx1 128 --nx2 64 --steps 7",
      "sedov-1x1: --problem sedov-radhydro --nx1 64 --nx2 64 --steps 12",
      "sedov-2x2: --problem sedov-radhydro --nx1 64 --nx2 64 --steps 10 "
      "--nprx1 2 --nprx2 2 --compilers cray-noopt",
      "sedov-ckpt: --problem sedov-radhydro --nx1 64 --nx2 64 --steps 12 "
      "--checkpoint " + dir + "/sedov-ckpt.h5 --checkpoint-every 3",
  };
}

/// Seeded Fisher-Yates shuffle of the job order.
std::vector<std::string> shuffled(std::vector<std::string> v,
                                  std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_u64() % i]);
  return v;
}

// ---------------------------------------------------------------------------
// Exact per-step counts from a session's ledgers

struct LedgerTotals {
  double steps = 0;
  double matvec_elems = 0, dprod_elems = 0, precond_elems = 0,
         vector_elems = 0;     ///< summed over ranks
  double matvec_apps = 0;      ///< operator applications (calls per rank)
  double precond_builds = 0;   ///< per rank
  double kernel_calls = 0;     ///< ExecModel::kernel calls, all ranks
  double priced_calls = 0;     ///< ledger calls over ranks x profiles
  double comm_bytes = 0;       ///< all ranks, one profile
  double matvec_bytes = 0;     ///< computed bytes, all ranks
  sim::KernelCounts matvec_call;  ///< one rank-0 matvec call's recording

  void add(const core::Simulation& sim, int steps_taken) {
    const mpisim::ExecModel& em = sim.exec();
    const int nr = em.nranks();
    steps += steps_taken;
    for (std::size_t p = 0; p < em.nprofiles(); ++p)
      for (int r = 0; r < nr; ++r)
        for (const auto& [name, rc] : em.ledger(p, r).regions()) {
          priced_calls += static_cast<double>(rc.counts.calls);
          if (p != 0) continue;
          const auto calls = static_cast<double>(rc.counts.calls);
          const auto elems = static_cast<double>(rc.counts.elements);
          kernel_calls += calls;
          comm_bytes += static_cast<double>(rc.comm_bytes);
          if (name == "matvec") {
            matvec_elems += elems;
            matvec_apps += calls / nr;
            matvec_bytes += static_cast<double>(rc.counts.bytes_read +
                                                rc.counts.bytes_written);
            if (r == 0 && rc.counts.calls > 0) matvec_call = per_call(rc.counts);
          } else if (name == "dprod") {
            dprod_elems += elems;
          } else if (name == "precond") {
            precond_elems += elems;
          } else if (name == "precond-build") {
            precond_builds += calls / nr;
          } else if (name.rfind("physics", 0) != 0 && rc.counts.calls > 0) {
            vector_elems += elems;
          }
        }
  }

  double per_step(double v) const { return steps > 0 ? v / steps : 0.0; }

  static sim::KernelCounts per_call(const sim::KernelCounts& c) {
    sim::KernelCounts out = c;
    for (auto& v : out.instr) v /= c.calls;
    for (auto& v : out.lanes) v /= c.calls;
    out.bytes_read /= c.calls;
    out.bytes_written /= c.calls;
    out.elements /= c.calls;
    out.calls = 1;
    return out;
  }
};

// ---------------------------------------------------------------------------
// table1 episodes

struct Episode {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< the step loop, after set-up
  std::vector<double> step_ms;
  long iterations = 0;
  long solves = 0;
  long failed = 0;
  double energy_drift = 0.0;
  double analytic_error = 0.0;
  std::vector<double> sim_s;  ///< per profile
  std::uint64_t memo_probes = 0;
  std::uint64_t memo_misses = 0;
  std::string error;
};

Episode run_table1_episode(const core::RunConfig& cfg, Tracer& tr,
                           LedgerTotals* totals) {
  Episode ep;
  const std::uint64_t probes0 = memo_probes();
  const std::uint64_t misses0 = vla::process_memo_misses();
  const auto t0 = Clock::now();
  std::unique_ptr<core::Simulation> sim;
  {
    Tracer::Scope s(tr, "Simulation::Simulation", "core");
    sim = std::make_unique<core::Simulation>(cfg);
  }
  ep.setup_s = since(t0);
  const double e0 = sim->total_energy();
  const auto t1 = Clock::now();
  try {
    while (!sim->finished()) {
      ep.solves += 3;
      Tracer::Scope s(tr, "Simulation::drive_step", "core");
      const auto ts = Clock::now();
      const rad::StepStats st = sim->drive_step();
      ep.step_ms.push_back(since(ts) * 1e3);
      ep.iterations += st.total_iterations();
    }
  } catch (const std::exception& e) {
    ep.failed += 1;
    ep.error = e.what();
  }
  ep.wall_s = since(t1);
  ep.memo_probes = memo_probes() - probes0;
  ep.memo_misses = vla::process_memo_misses() - misses0;
  ep.energy_drift = std::abs(sim->total_energy() - e0) / std::abs(e0);
  ep.analytic_error = sim->analytic_error();
  for (std::size_t p = 0; p < sim->exec().nprofiles(); ++p)
    ep.sim_s.push_back(sim->elapsed(p));
  if (totals != nullptr) totals->add(*sim, sim->steps_taken());
  return ep;
}

// ---------------------------------------------------------------------------
// farm-mix episodes

struct FarmEpisode {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Per job: host ms per step, its completion time over its step count.
  std::vector<double> job_step_ms;
  farm::FarmSummary summary;
  std::uint64_t memo_probes = 0;
  std::uint64_t memo_misses = 0;
};

/// A 2-lane farm over the job list.  Every job is resident from the first
/// wave (no admission cap), so the seeded job order changes only which lane
/// steps which session, not which sessions share a wave.
std::unique_ptr<farm::FarmScheduler> make_farm(
    const std::vector<std::string>& lines, farm::FarmOptions opt) {
  opt.host_threads = kFarmLanes;
  auto farm = std::make_unique<farm::FarmScheduler>(std::move(opt));
  for (std::size_t i = 0; i < lines.size(); ++i)
    farm->add(farm::parse_job_line(lines[i], "job-" + std::to_string(i)));
  return farm;
}

FarmEpisode run_farm_episode(const std::vector<std::string>& lines,
                             Tracer& tr, LedgerTotals* totals) {
  FarmEpisode ep;
  std::vector<double> done_at(lines.size(), -1.0);
  Clock::time_point t_run;
  farm::FarmOptions opt;
  opt.on_job_complete = [&](std::size_t idx, core::Simulation& sim) {
    done_at[idx] = since(t_run);
    if (totals != nullptr) totals->add(sim, sim.steps_taken());
  };
  const auto t0 = Clock::now();
  std::unique_ptr<farm::FarmScheduler> farm;
  {
    Tracer::Scope s(tr, "FarmScheduler::add", "farm");
    farm = make_farm(lines, std::move(opt));
  }
  ep.setup_s = since(t0);
  const std::uint64_t probes0 = memo_probes();
  const std::uint64_t misses0 = vla::process_memo_misses();
  {
    Tracer::Scope s(tr, "FarmScheduler::run", "farm");
    t_run = Clock::now();
    ep.summary = farm->run();
    ep.wall_s = since(t_run);
  }
  ep.memo_probes = memo_probes() - probes0;
  ep.memo_misses = vla::process_memo_misses() - misses0;
  // A failed job has no completion time and gives no sample (the run's
  // checks fail on it).
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (done_at[i] >= 0.0)
      ep.job_step_ms.push_back(done_at[i] * 1e3 /
                               std::max(ep.summary.jobs[i].farmed_steps, 1));
  return ep;
}

// ---------------------------------------------------------------------------
// Layer probes

/// Median over `reps` batches of the seconds per call of fn(), after one
/// untimed warm-up batch; each timed batch is one span.
template <typename Fn>
double per_call_s(Tracer& tr, const std::string& name, const char* layer,
                  int reps, int calls, Fn&& fn) {
  for (int i = 0; i < calls; ++i) fn();
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope s(tr, name, layer);
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    v.push_back(since(t0) / calls);
  }
  return median(v);
}

void fill_random(linalg::DistVector& v, Rng& rng) {
  const grid::Grid2D& g = v.field().grid();
  for (int s = 0; s < v.ns(); ++s)
    for (int j = 0; j < g.nx2(); ++j)
      for (int i = 0; i < g.nx1(); ++i)
        v.field().gset(s, i, j, 0.5 + rng.uniform());
}

/// Mean ns per memo probe on a warm key when `lanes` threads probe one
/// fork family at once (median over batches).
double memo_probe_ns(Tracer& tr, unsigned bits, int lanes) {
  vla::Context proto(vla::VectorArch(bits), vla::VlaExecMode::Native);
  constexpr std::uint64_t kKey = 0x2a;
  constexpr int kProbes = 200000;
  auto make = [] {
    sim::KernelCounts c;
    c.bytes_read = 1;
    return c;
  };
  std::vector<double> v;
  for (int rep = 0; rep < 8; ++rep) {
    Tracer::Scope s(tr, "Context::memo_counts x" + std::to_string(lanes), "vla");
    std::vector<double> lane_s(static_cast<std::size_t>(lanes));
    auto body = [&](int lane) {
      vla::Context c = proto.fork();
      const auto t0 = Clock::now();
      for (int i = 0; i < kProbes; ++i) (void)c.memo_counts(kKey, make);
      lane_s[static_cast<std::size_t>(lane)] = since(t0);
    };
    {
      std::vector<std::jthread> threads;
      for (int l = 1; l < lanes; ++l) threads.emplace_back(body, l);
      body(0);
    }
    if (rep == 0) continue;  // warm-up
    v.push_back(*std::max_element(lane_s.begin(), lane_s.end()) / kProbes * 1e9);
  }
  return median(v);
}

/// A traced session of `cfg` (no checkpoints) driven one step, so its
/// coefficients and fields are realistic.
std::unique_ptr<core::Simulation> probe_session(core::RunConfig cfg, Tracer& tr) {
  cfg.steps = 1;
  cfg.host_threads = 1;
  cfg.checkpoint_path.clear();
  std::unique_ptr<core::Simulation> sim;
  {
    Tracer::Scope s(tr, "Simulation::Simulation", "core");
    sim = std::make_unique<core::Simulation>(cfg);
  }
  // advance(), unlike drive_step(), does not throw on a failed solve, so the
  // probes still run (and the run still reports) when the solver breaks.
  Tracer::Scope s(tr, "Simulation::advance", "core");
  sim->advance();
  return sim;
}

/// Probe every layer on a fresh session of `cfg`, with an unpriced context
/// so kernel probes exclude pricing, which is probed on its own.
std::map<std::string, double> run_probes(const core::RunConfig& cfg,
                                         const core::RunConfig& io_cfg,
                                         const LedgerTotals& t,
                                         double memo_probes_per_step,
                                         double fork_joins_per_step, int lanes,
                                         int sessions, Rng& rng, Tracer& tr) {
  std::map<std::string, double> m;
  const std::unique_ptr<core::Simulation> session = probe_session(cfg, tr);
  core::Simulation& sim = *session;
  const grid::Grid2D& g = sim.grid();
  const grid::Decomposition& d = sim.decomp();
  const int ns = cfg.ns;
  const double zones = static_cast<double>(g.zones()) * ns;
  linalg::ExecContext ctx(vla::VectorArch(cfg.vector_bits), nullptr,
                          vla::VlaExecMode::Native);
  linalg::DistVector x(g, d, ns), y(g, d, ns), z(g, d, ns), e_old(g, d, ns),
      rhs(g, d, ns);
  fill_random(x, rng);
  fill_random(y, rng);
  fill_random(z, rng);
  linalg::DistVector& e = sim.radiation();
  e_old.copy_from(ctx, e);
  rad::FldBuilder& fld = sim.stepper().builder();
  linalg::StencilOperator a(g, d, ns), ac(g, d, ns);
  ac.enable_coupling();
  fld.build_diffusion(ctx, e, e_old, cfg.dt, a, rhs);

  const double rad_s = per_call_s(tr, "FldBuilder assemble", "rad", 7, 4, [&] {
    fld.build_diffusion(ctx, e, e_old, cfg.dt, a, rhs);
    fld.build_diffusion(ctx, e, e_old, cfg.dt, a, rhs);
    fld.build_coupling(ctx, e, e_old, cfg.dt, ac, rhs);
    fld.update_temperature(ctx, e, cfg.dt);
  });
  fld.build_diffusion(ctx, e, e_old, cfg.dt, a, rhs);

  const double matvec_s = per_call_s(tr, "StencilOperator::apply", "linalg", 7,
                                     40, [&] { a.apply(ctx, x, y); });
  const linalg::DistVector::DotPair pairs[3] = {{&x, &y}, {&x, &z}, {&y, &z}};
  const double dot3_s =
      per_call_s(tr, "DistVector::dot_ganged x3", "linalg", 7, 40,
                 [&] { (void)linalg::DistVector::dot_ganged(ctx, pairs); });
  int flip = 0;
  const double daxpy_s = per_call_s(tr, "DistVector::daxpy", "linalg", 7, 60, [&] {
    y.daxpy(ctx, (++flip % 2 == 0) ? 1e-3 : -1e-3, x);
  });
  auto spai0 = linalg::make_preconditioner("spai0", ctx, a);
  const double precond_s = per_call_s(tr, "Spai0Precond::apply", "linalg", 7,
                                      60, [&] { spai0->apply(ctx, x, y); });
  const double build_s =
      per_call_s(tr, "make_preconditioner(spai0)", "linalg", 7, 10,
                 [&] { (void)linalg::make_preconditioner("spai0", ctx, a); });

  grid::DistField halo(g, d, 2, 1);
  halo.fill(1.0);
  double halo_bytes = 0.0;
  for (const auto& tf : halo.exchange_ghosts())
    halo_bytes += static_cast<double>(tf.bytes);
  const double halo_s = per_call_s(tr, "DistField::exchange_ghosts", "grid", 7,
                                   200, [&] { (void)halo.exchange_ghosts(); });

  std::vector<compiler::CodegenProfile> profiles;
  for (const auto& name : cfg.compilers)
    profiles.push_back(compiler::find_profile(name));
  mpisim::ExecModel em(sim::MachineSpec::a64fx(), std::move(profiles),
                       d.nranks());
  const std::uint64_t ws = x.working_set(0, 7);
  const double price_s = per_call_s(tr, "ExecModel::kernel", "mpisim", 7, 2000, [&] {
    em.kernel(0, compiler::KernelFamily::Matvec, "matvec", t.matvec_call, ws);
  });

  const double memo1_ns = memo_probe_ns(tr, cfg.vector_bits, 1);
  const double memo2_ns = memo_probe_ns(tr, cfg.vector_bits, 2);

  set_host_threads(lanes);
  const double fork_join_s = per_call_s(tr, "parallel_for (empty)", "support", 7,
                                        2000, [&] { parallel_for(sessions, [](int) {}); });

  // Checkpoint I/O on its own session: Simulation::checkpoint prices its
  // write, which must not reach the session the other probes use.
  const std::string ckpt = io_cfg.checkpoint_path;
  const std::unique_ptr<core::Simulation> io_sim = probe_session(io_cfg, tr);
  const double ckpt_s = per_call_s(tr, "Simulation::checkpoint", "io", 5, 3,
                                   [&] { io_sim->checkpoint(ckpt); });
  const double ckpt_bytes = static_cast<double>(std::filesystem::file_size(ckpt));
  const double restart_s = per_call_s(tr, "Simulation::restart", "io", 5, 3,
                                      [&] { io_sim->restart(ckpt); });
  std::filesystem::remove(ckpt);

  // Per-zone costs count one species value of one cell as a zone.
  m["linalg.matvec_ns_per_zone"] = matvec_s / zones * 1e9;
  m["linalg.dot3_ns_per_zone"] = dot3_s / zones * 1e9;
  m["linalg.daxpy_ns_per_zone"] = daxpy_s / zones * 1e9;
  m["linalg.precond_apply_ns_per_zone"] = precond_s / zones * 1e9;
  m["linalg.matvec_gbps_computed"] =
      t.matvec_apps > 0 ? t.matvec_bytes / t.matvec_apps / matvec_s / 1e9 : 0.0;
  m["linalg.precond_build_ms"] = build_s * 1e3;
  m["vla.memo_probe_ns"] = memo1_ns;
  m["vla.memo_probe_ns_2lanes"] = memo2_ns;
  m["mpisim.price_us_per_call"] = price_s * 1e6;
  m["grid.halo_us_per_exchange"] = halo_s * 1e6;
  m["grid.halo_bytes_per_exchange"] = halo_bytes;
  m["support.fork_join_us"] = fork_join_s * 1e6;
  m["rad.assemble_ms_per_step"] = rad_s * 1e3;
  m["io.checkpoint_ms"] = ckpt_s * 1e3;
  m["io.checkpoint_mb"] = ckpt_bytes / 1e6;
  m["io.restart_ms"] = restart_s * 1e3;

  // Per-step layer estimates: probe cost x exact per-step volume.  The
  // kernel probes include their memo lookups and halo copies, so linalg's
  // self time subtracts those two.
  const double dot_per_pair = dot3_s / 3.0 / zones;
  const double linalg_ms =
      (matvec_s / zones * t.per_step(t.matvec_elems) +
       dot_per_pair * t.per_step(t.dprod_elems) +
       daxpy_s / zones * t.per_step(t.vector_elems) +
       precond_s / zones * t.per_step(t.precond_elems) +
       build_s * t.per_step(t.precond_builds)) * 1e3;
  const double vla_ms = memo1_ns * 1e-6 * memo_probes_per_step;
  const double grid_ms = halo_s * 1e3 * t.per_step(t.matvec_apps);
  const double mpisim_ms = price_s * 1e3 * t.per_step(t.kernel_calls);
  m["linalg.ms_per_step"] = linalg_ms - vla_ms - grid_ms;
  m["vla.ms_per_step"] = vla_ms;
  m["grid.ms_per_step"] = grid_ms;
  m["support.ms_per_step"] = fork_join_s * 1e3 * fork_joins_per_step;
  m["mpisim.ms_per_step"] = mpisim_ms;
  m["covered_ms_per_step"] = linalg_ms + mpisim_ms + rad_s * 1e3;
  return m;
}

// ---------------------------------------------------------------------------
// Entry point

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string trace_selftest;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--trace-selftest") a.trace_selftest = v;
    else throw std::runtime_error("unknown option " + k);
  }
  return a;
}

int episode_count(double seconds, double nominal, int per_episode_samples) {
  const int by_time = static_cast<int>(std::lround(seconds / nominal));
  const int by_samples =
      (kMinStepSamples + per_episode_samples - 1) / per_episode_samples;
  return std::max({by_time, by_samples, 2});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// What every result records about how it was run.
Json run_header(const Args& a, int host_threads, int episodes) {
  Json j;
  j.str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("nproc", std::thread::hardware_concurrency())
      .num("host_threads", host_threads)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("episodes", episodes);
  return j;
}

Json sim_s_json(const std::vector<std::string>& names,
                const std::vector<double>& values) {
  Json j;
  for (std::size_t p = 0; p < names.size() && p < values.size(); ++p)
    j.num(names[p], values[p]);
  return j;
}

/// Per-layer metrics shared by both workload kinds.
void put_layers(Json& layers, const std::map<std::string, double>& probes,
                const LedgerTotals& t, double step_ms_traced,
                double untraced_wall, double traced_wall) {
  for (const auto& [k, v] : probes)
    if (k != "covered_ms_per_step") layers.num(k, v);
  layers.num("mpisim.priced_calls_per_step", t.per_step(t.priced_calls));
  layers.num("mpisim.comm_bytes_per_step", t.per_step(t.comm_bytes));
  layers.num("core.step_ms_traced", step_ms_traced);
  layers.num("trace.coverage",
             step_ms_traced > 0 ? probes.at("covered_ms_per_step") / step_ms_traced
                                : 0.0);
  layers.num("trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0);
}

int run_table1(const Args& a, int nprx1, int nprx2) {
  const bool np1 = nprx1 * nprx2 == 1;
  const int steps = np1 ? kNp1EpisodeSteps : kNp20EpisodeSteps;
  const int episodes = episode_count(
      a.seconds, np1 ? kNp1EpisodeSeconds : kNp20EpisodeSeconds, steps);
  const core::RunConfig cfg = table1_config(nprx1, nprx2, steps);
  Tracer off(false), on(a.trace);

  std::vector<Episode> untraced, traced;
  std::vector<double> setup;
  LedgerTotals totals;
  for (int i = 0; i < episodes; ++i) {
    // The traced run alternates untraced and traced episodes so drift on a
    // shared host cancels out of the overhead estimate.
    const bool trace_this = a.trace && i % 2 == 1;
    for (int k = 0; k < (trace_this ? 0 : kExtraSetupsPerEpisode); ++k) {
      const auto t0 = Clock::now();
      core::Simulation sim(cfg);
      setup.push_back(since(t0));
    }
    (trace_this ? traced : untraced)
        .push_back(run_table1_episode(cfg, trace_this ? on : off,
                                      trace_this && traced.empty() ? &totals
                                                                   : nullptr));
  }
  const double rss = peak_rss_mb();
  std::vector<double> wall, step_ms;
  for (const auto& ep : untraced) {
    setup.push_back(ep.setup_s);
    wall.push_back(ep.wall_s);
    step_ms.insert(step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
  }

  // Checks: every episode (traced or not) must repeat the first exactly.
  long attempted = 0, failed = 0;
  double drift = 0.0, err = 0.0;
  bool identical = true;
  std::string first_error;
  const Episode& ref = untraced.front();
  auto check = [&](const Episode& ep) {
    attempted += ep.solves;
    failed += ep.failed;
    drift = std::max(drift, ep.energy_drift);
    err = std::max(err, ep.analytic_error);
    identical = identical && ep.iterations == ref.iterations && ep.sim_s == ref.sim_s;
    if (first_error.empty()) first_error = ep.error;
  };
  for (const auto& ep : untraced) check(ep);
  for (const auto& ep : traced) check(ep);

  Json out = run_header(a, cfg.host_threads, episodes);
  out.num("episode_steps", steps)
      .list("setup_s", setup)
      .list("wall_s", wall)
      .list("step_ms", step_ms)
      .num("peak_rss_mb", rss)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("energy_drift", drift)
      .num("analytic_error", err)
      .boolean("episodes_identical", identical)
      .str("error", first_error)
      .num("iterations", static_cast<double>(ref.iterations))
      .obj("sim_s", sim_s_json(kTable1Profiles, ref.sim_s));

  if (a.trace) {
    Rng rng(a.seed);
    std::vector<double> twall, tstep;
    for (const auto& ep : traced) {
      twall.push_back(ep.wall_s);
      tstep.insert(tstep.end(), ep.step_ms.begin(), ep.step_ms.end());
    }
    core::RunConfig io_cfg = cfg;
    io_cfg.checkpoint_path = a.work_dir + "/probe.h5";
    const Episode& tr = traced.front();
    const double memo_per_step = static_cast<double>(tr.memo_probes) / steps;
    std::map<std::string, double> probes;
    {
      Tracer::Scope s(on, "layer probes", "perfbench");
      // At one lane every par_ranks region is an inline parallel_for.
      probes = run_probes(cfg, io_cfg, totals, memo_per_step,
                          totals.per_step(totals.kernel_calls) / cfg.nranks(),
                          1, cfg.nranks(), rng, on);
    }
    Json layers;
    layers.num("linalg.iters_per_solve",
               static_cast<double>(tr.iterations) / static_cast<double>(tr.solves))
        .num("linalg.us_per_iter", median(wall) / ref.iterations * 1e6)
        .num("vla.memo_probes_per_step", memo_per_step)
        .num("vla.memo_misses", static_cast<double>(tr.memo_misses))
        .num("mpisim.price_memo_hit_ratio", 0.0)
        .num("farm.waves", 0.0)
        .num("farm.workspace_reuse_ratio", 0.0)
        .num("core.setup_ms", tr.setup_s * 1e3);
    for (std::size_t p = 0; p < kTable1Profiles.size(); ++p)
      layers.num("mpisim.sim_s." + kTable1Profiles[p], ref.sim_s[p]);
    put_layers(layers, probes, totals, median(tstep), median(wall), median(twall));
    out.obj("layers", layers).num("trace_spans", static_cast<double>(on.spans().size()));
    if (!a.trace_out.empty() && !on.write_chrome_json(a.trace_out))
      throw std::runtime_error("cannot write " + a.trace_out);
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int run_farm_mix(const Args& a) {
  const std::vector<std::string> canonical = farm_job_lines(a.work_dir);
  const std::vector<std::string> lines = shuffled(canonical, a.seed);
  const int episodes = episode_count(a.seconds, kFarmEpisodeSeconds,
                                     static_cast<int>(lines.size()));
  Tracer off(false), on(a.trace);

  std::vector<FarmEpisode> untraced, traced;
  std::vector<double> setup;
  LedgerTotals totals;
  for (int i = 0; i < episodes; ++i) {
    const bool trace_this = a.trace && i % 2 == 1;
    for (int k = 0; k < (trace_this ? 0 : kExtraSetupsPerEpisode); ++k) {
      const auto t0 = Clock::now();
      auto farm = make_farm(lines, {});
      setup.push_back(since(t0));
    }
    (trace_this ? traced : untraced)
        .push_back(run_farm_episode(lines, trace_this ? on : off,
                                    trace_this && traced.empty() ? &totals
                                                                 : nullptr));
  }
  const double rss = peak_rss_mb();
  std::vector<double> wall, step_ms;
  for (const auto& ep : untraced) {
    setup.push_back(ep.setup_s);
    wall.push_back(ep.wall_s);
    step_ms.insert(step_ms.end(), ep.job_step_ms.begin(), ep.job_step_ms.end());
  }

  // Checks: every job ok, and every episode's per-job results repeat the
  // first episode's exactly.
  const farm::FarmSummary& ref = untraced.front().summary;
  long attempted = 0, failed = 0;
  bool identical = true;
  double max_err = 0.0;
  std::string first_error;
  auto check = [&](const FarmEpisode& ep) {
    for (std::size_t j = 0; j < ep.summary.jobs.size(); ++j) {
      const farm::JobResult& r = ep.summary.jobs[j];
      ++attempted;
      if (!r.error.empty() || !std::isfinite(r.total_energy) ||
          !std::isfinite(r.analytic_error)) {
        ++failed;
        if (first_error.empty()) first_error = r.name + ": " + r.error;
      }
      max_err = std::max(max_err, r.problem == "gaussian-pulse" ? r.analytic_error : 0.0);
      const farm::JobResult& q = ref.jobs[j];
      identical = identical && r.steps == q.steps &&
                  r.profile_elapsed == q.profile_elapsed &&
                  r.total_energy == q.total_energy;
    }
  };
  for (const auto& ep : untraced) check(ep);
  for (const auto& ep : traced) check(ep);

  std::map<std::string, double> sim_s;
  for (const auto& p : kTable1Profiles) sim_s[p] = 0.0;
  for (const auto& r : ref.jobs)
    for (const auto& [name, s] : r.profile_elapsed) {
      // profile_elapsed carries display names; map them back by lookup.
      for (const auto& p : kTable1Profiles)
        if (compiler::find_profile(p).name() == name) sim_s[p] += s;
    }
  Json sim_json;
  for (const auto& [k, v] : sim_s) sim_json.num(k, v);

  Json out = run_header(a, kFarmLanes, episodes);
  out.num("jobs", static_cast<double>(lines.size()))
      .list("setup_s", setup)
      .list("wall_s", wall)
      .list("step_ms", step_ms)
      .num("peak_rss_mb", rss)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("analytic_error", max_err)
      .boolean("episodes_identical", identical)
      .str("error", first_error)
      .obj("sim_s", sim_json);

  if (a.trace) {
    // Replay every job alone: exact iteration counts, a farm-vs-solo
    // identity check, and step times for the coverage estimate.
    long iterations = 0, solves = 0;
    bool solo_identical = true;
    std::vector<double> probe_job_steps;
    LedgerTotals probe_totals;
    const std::string probe_job = "pulse-vl512";
    core::RunConfig probe_cfg, io_cfg;
    double replay_s = 0.0, probe_memo_per_step = 0.0;
    for (const auto& line : canonical) {
      farm::FarmJob job = farm::parse_job_line(line, "solo");
      job.cfg.host_threads = 1;
      if (job.name == probe_job) probe_cfg = job.cfg;
      if (job.name == "pulse-ckpt") io_cfg = job.cfg;
      const auto t0 = Clock::now();
      const std::uint64_t probes0 = memo_probes();
      std::unique_ptr<core::Simulation> solo;
      {
        Tracer::Scope s(on, "Simulation::Simulation", "core");
        solo = std::make_unique<core::Simulation>(job.cfg);
      }
      core::Simulation& sim = *solo;
      try {
        while (!sim.finished()) {
          Tracer::Scope s(on, "Simulation::drive_step", "core");
          const auto ts = Clock::now();
          iterations += sim.drive_step().total_iterations();
          solves += 3;
          if (job.name == probe_job) probe_job_steps.push_back(since(ts) * 1e3);
        }
        Tracer::Scope s(on, "Simulation::finalize_checkpoints", "io");
        sim.finalize_checkpoints();
      } catch (const std::exception&) {
        solo_identical = false;  // the farm's checks report the failure
      }
      replay_s += since(t0);
      if (job.name == probe_job) {
        probe_totals.add(sim, sim.steps_taken());
        probe_memo_per_step =
            static_cast<double>(memo_probes() - probes0) / sim.steps_taken();
      }
      for (const auto& r : ref.jobs) {
        if (r.name != job.name) continue;
        for (std::size_t p = 0; p < r.profile_elapsed.size(); ++p)
          solo_identical = solo_identical && sim.elapsed(p) == r.profile_elapsed[p].second;
      }
    }
    out.boolean("solo_identical", solo_identical);

    Rng rng(a.seed);
    const FarmEpisode& tr = traced.front();
    const farm::FarmSummary& ts = tr.summary;
    const double farm_steps = static_cast<double>(ts.scenario_steps);
    std::map<std::string, double> probes;
    {
      Tracer::Scope s(on, "layer probes", "perfbench");
      // The farm forks and joins its lanes once per wave.
      probes = run_probes(probe_cfg, io_cfg, probe_totals, probe_memo_per_step,
                          static_cast<double>(ts.waves) / farm_steps, kFarmLanes,
                          static_cast<int>(lines.size()), rng, on);
    }
    const double lookups = static_cast<double>(ts.price_hits + ts.price_misses);
    const double acquisitions =
        static_cast<double>(ts.workspaces_created + ts.workspaces_reused);
    std::vector<double> twall;
    for (const auto& ep : traced) twall.push_back(ep.wall_s);
    Json layers;
    layers.num("linalg.iters_per_solve", static_cast<double>(iterations) / solves)
        .num("linalg.us_per_iter", replay_s / iterations * 1e6)
        .num("vla.memo_probes_per_step", static_cast<double>(tr.memo_probes) / farm_steps)
        .num("vla.memo_misses", static_cast<double>(tr.memo_misses))
        .num("mpisim.price_memo_hit_ratio",
             lookups > 0 ? static_cast<double>(ts.price_hits) / lookups : 0.0)
        .num("farm.waves", static_cast<double>(ts.waves))
        .num("farm.workspace_reuse_ratio",
             acquisitions > 0 ? static_cast<double>(ts.workspaces_reused) / acquisitions
                              : 0.0)
        .num("core.setup_ms", tr.setup_s * 1e3);
    for (const auto& [k, v] : sim_s) layers.num("mpisim.sim_s." + k, v);
    put_layers(layers, probes, totals, median(probe_job_steps), median(wall),
               median(twall));
    out.obj("layers", layers).num("trace_spans", static_cast<double>(on.spans().size()));
    if (!a.trace_out.empty() && !on.write_chrome_json(a.trace_out))
      throw std::runtime_error("cannot write " + a.trace_out);
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Writes a small trace with nested spans and awkward names, for the
/// trace writer's tests.
int trace_selftest(const std::string& path) {
  Tracer t(true);
  {
    Tracer::Scope root(t, "root \"quoted\" \\ back", "core");
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope child(t, "child\t" + std::to_string(i), "linalg");
      Tracer::Scope leaf(t, "leaf", "vla");
    }
  }
  {
    Tracer::Scope second(t, "second root", "io");
    t.end(t.begin("inner", "io"));
  }
  return t.write_chrome_json(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.trace_selftest.empty()) return trace_selftest(a.trace_selftest);
    std::filesystem::create_directories(a.work_dir);
    if (a.workload == "table1-np1") return run_table1(a, 1, 1);
    if (a.workload == "table1-np20") return run_table1(a, 5, 4);
    if (a.workload == "farm-mix") return run_farm_mix(a);
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
