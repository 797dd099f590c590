/// \file bench_farm.cpp
/// \brief Farm throughput: batched multi-scenario pricing vs a serial loop.
///
/// The farm's claim is pure throughput: running N jobs through one
/// FarmScheduler — solo sessions stepped in waves across the host pool —
/// prices more scenario-steps per second than running the same N jobs
/// back-to-back, while every job's fields and simulated clocks stay
/// bit-identical to its solo run (re-verified here on every row).
///
/// Jobs are single-rank by default: a solo 1-rank session cannot use host
/// threads at all, so the farm's cross-session wave parallelism is the
/// whole lever — the honest "many small pricing queries" service shape.
/// The >= 1.3x floor at >= 8 jobs therefore needs a host that can run
/// sessions concurrently; rows record "speedup_gate": "enforced" when
/// the host has the cores (>= 2) and "skipped" otherwise, mirroring
/// bench_rank_parallel.
///
///   ./bench_farm [--jobs 4,8,16] [--nx1 64 --nx2 32 --steps 2]
///                [--repeats 8] [--out BENCH_farm.json]
///
/// The serial and farm legs alternate and each keeps its best of
/// --repeats.  A leg lasts 10–60 ms, so with only 2 repeats one scheduling
/// hiccup decided a row; 8 give the gate a stable verdict on a 4-vCPU host.
///
/// hardware_concurrency() counts the cores a host has, not the ones it
/// gives this process now.  Before each batch size the bench therefore
/// times a fixed compute loop on 1 thread and on min(jobs, host cores)
/// threads started together, and records the ratio of their throughputs
/// as host_parallelism: near the thread count on an idle host, near 1
/// when other work holds the cores.  It is reported beside the gate, which
/// it does not change.

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace v2d;

struct Capture {
  std::vector<double> field;
  std::vector<double> clocks;  // profile 0, per rank

  bool operator==(const Capture&) const = default;
};

Capture capture(core::Simulation& sim) {
  Capture c;
  c.field = sim.radiation().field().gather_global();
  for (int r = 0; r < sim.exec().nranks(); ++r)
    c.clocks.push_back(sim.exec().rank_time(0, r));
  return c;
}

struct Result {
  int jobs = 0;
  double serial_seconds = 0.0;
  double farm_seconds = 0.0;
  double speedup = 1.0;
  double steps_per_sec_serial = 0.0;
  double steps_per_sec_farm = 0.0;
  double sim_elapsed_s = 0.0;  // job 0, profile 0 — deterministic
  bool identical = true;
  std::uint64_t memo_hits = 0;
  double host_parallelism = 1.0;  // measured before the row's legs
  std::string speedup_gate = "n/a";
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

volatile std::uint64_t g_spin_sink = 0;

/// A fixed, allocation-free compute loop: a chain of 2^23 dependent
/// multiply-adds, about 10–20 ms on one core.
void spin() {
  std::uint64_t h = 1;
  for (std::uint32_t i = 0; i < (1u << 23); ++i)
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  g_spin_sink = h;
}

/// The loop's throughput on `threads` threads started together, over its
/// throughput on one: the parallelism the host gives this process now.
double measure_host_parallelism(int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  spin();
  const double one = seconds_since(t0);
  std::latch go(1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&go] {
      go.wait();
      spin();
    });
  const auto t1 = std::chrono::steady_clock::now();
  go.count_down();
  for (std::thread& th : pool) th.join();
  const double many = seconds_since(t1);
  return threads * one / many;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                int nx1, int nx2, int steps, int host_cores) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "  {\"jobs\": %d, \"serial_seconds\": %.6f, "
        "\"farm_seconds\": %.6f, \"speedup\": %.3f, "
        "\"steps_per_sec_serial\": %.2f, \"steps_per_sec_farm\": %.2f, "
        "\"sim_elapsed_s\": %.6f, \"identical\": %s, "
        "\"memo_hits\": %llu, "
        "\"nx1\": %d, \"nx2\": %d, \"steps\": %d, \"host_cores\": %d, "
        "\"host_parallelism\": %.2f, \"speedup_gate\": \"%s\"}%s\n",
        r.jobs, r.serial_seconds, r.farm_seconds, r.speedup,
        r.steps_per_sec_serial, r.steps_per_sec_farm, r.sim_elapsed_s,
        r.identical ? "true" : "false",
        static_cast<unsigned long long>(r.memo_hits), nx1, nx2, steps,
        host_cores, r.host_parallelism, r.speedup_gate.c_str(),
        i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("jobs", "4,8,16", "comma list of batch sizes");
  opt.add("nx1", "64", "zones in x1 per job");
  opt.add("nx2", "32", "zones in x2 per job");
  opt.add("steps", "2", "time steps per job");
  opt.add("nprx1", "1", "tiles in x1 per job");
  opt.add("nprx2", "1", "tiles in x2 per job");
  opt.add("repeats", "8", "timing repetitions per batch size (best kept)");
  opt.add("out", "BENCH_farm.json", "JSON output path (empty = none)");
  core::RunConfig cfg;
  int repeats = 1;
  std::vector<int> batch_sizes;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_farm")) return 0;
    cfg.nx1 = opt.get_int<int>("nx1");
    cfg.nx2 = opt.get_int<int>("nx2");
    cfg.steps = opt.get_int<int>("steps");
    cfg.nprx1 = opt.get_int<int>("nprx1");
    cfg.nprx2 = opt.get_int<int>("nprx2");
    repeats = std::max(1, opt.get_int<int>("repeats"));
    batch_sizes = opt.get_int_list<int>("jobs");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_farm");
    return 1;
  }

  cfg.compilers = {"cray"};
  cfg.host_threads = 0;  // serial loop gets the full host too

  const int host_cores =
      static_cast<int>(std::thread::hardware_concurrency());

  std::vector<Result> results;
  for (const int njobs : batch_sizes) {
    Result r;
    r.jobs = njobs;
    r.host_parallelism =
        measure_host_parallelism(std::max(1, std::min(njobs, host_cores)));
    r.serial_seconds = 1e300;
    r.farm_seconds = 1e300;
    std::vector<Capture> solo(static_cast<std::size_t>(njobs));
    std::vector<Capture> farmed(static_cast<std::size_t>(njobs));

    for (int rep = 0; rep < repeats; ++rep) {
      // The status quo: N independent back-to-back sessions.
      {
        const auto t0 = std::chrono::steady_clock::now();
        for (int j = 0; j < njobs; ++j) {
          core::Simulation sim(cfg);
          sim.run();
          solo[static_cast<std::size_t>(j)] = capture(sim);
          r.sim_elapsed_s = sim.elapsed(0);
        }
        const double s = seconds_since(t0);
        if (s < r.serial_seconds) r.serial_seconds = s;
      }

      // The farm: same N jobs, one scheduler, sessions stepped in waves.
      {
        farm::FarmOptions fopt;
        fopt.host_threads = 0;
        fopt.on_job_complete = [&farmed](std::size_t i,
                                         core::Simulation& sim) {
          farmed[i] = capture(sim);
        };
        farm::FarmScheduler sched(fopt);
        for (int j = 0; j < njobs; ++j)
          sched.add({"job-" + std::to_string(j + 1), cfg});
        const auto t0 = std::chrono::steady_clock::now();
        const farm::FarmSummary sum = sched.run();
        const double s = seconds_since(t0);
        set_host_threads(0);
        if (sum.failed != 0) {
          std::cerr << "FAIL: " << sum.failed << " farm job(s) failed\n";
          return 1;
        }
        if (s < r.farm_seconds) {
          r.farm_seconds = s;
          r.memo_hits = sum.memo_hits;
        }
      }

      // Bit-identity of every job, every repetition: the farm must be a
      // pure throughput optimization.
      for (int j = 0; j < njobs; ++j)
        if (!(farmed[static_cast<std::size_t>(j)] ==
              solo[static_cast<std::size_t>(j)]))
          r.identical = false;
    }

    r.speedup = r.serial_seconds / r.farm_seconds;
    const double total_steps = static_cast<double>(njobs) * cfg.steps;
    r.steps_per_sec_serial = total_steps / r.serial_seconds;
    r.steps_per_sec_farm = total_steps / r.farm_seconds;
    results.push_back(r);
    std::cerr << "  jobs=" << njobs << "  serial=" << r.serial_seconds
              << " s  farm=" << r.farm_seconds << " s  speedup=" << r.speedup
              << "\n";
  }

  // The farm's floor: >= 1.3x scenario-steps/sec over the serial loop at
  // >= 8 same-shape jobs — judged only when the host can actually run
  // sessions concurrently; single-core hosts record "skipped" so the
  // never-firing case is visible in the JSON, not silent.
  bool identical_ok = true;
  bool speedup_ok = true;
  for (Result& r : results) {
    if (!r.identical) identical_ok = false;
    if (r.jobs < 8) continue;
    if (host_cores < 2) {
      r.speedup_gate = "skipped";
      continue;
    }
    r.speedup_gate = "enforced";
    if (r.speedup < 1.3) speedup_ok = false;
  }

  TableWriter table("Farm throughput vs serial job loop (" +
                    std::to_string(cfg.nx1) + "x" +
                    std::to_string(cfg.nx2) + ", " +
                    std::to_string(cfg.steps) + " step(s)/job, " +
                    std::to_string(cfg.nranks()) + " rank(s)/job)");
  table.set_columns({"jobs", "serial (s)", "farm (s)", "speedup",
                     "steps/s farm", "bit-identical", "host parallelism",
                     "gate"});
  for (const Result& r : results) {
    table.add_row({TableWriter::integer(r.jobs),
                   TableWriter::num(r.serial_seconds, 4),
                   TableWriter::num(r.farm_seconds, 4),
                   TableWriter::num(r.speedup, 2),
                   TableWriter::num(r.steps_per_sec_farm, 1),
                   r.identical ? "yes" : "NO",
                   TableWriter::num(r.host_parallelism, 2), r.speedup_gate});
  }
  table.print(std::cout);
  std::cout << "host cores: " << host_cores << "\n";

  const std::string out = opt.get("out");
  if (!out.empty()) {
    write_json(out, results, cfg.nx1, cfg.nx2, cfg.steps, host_cores);
    std::cout << "wrote " << out << "\n";
  }
  if (!identical_ok) {
    std::cerr << "FAIL: a farmed job diverged from its solo run (field or "
                 "simulated clocks differ)\n";
    return 1;
  }
  if (!speedup_ok) {
    std::cerr << "FAIL: farm under 1.3x over the serial loop at >= 8 jobs "
                 "despite >= 2 host cores\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_farm: " << e.what() << '\n';
  return 1;
}
