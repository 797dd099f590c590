/// \file bench_rank_parallel.cpp
/// \brief Host wall-time scaling of the rank-parallel execution engine.
///
/// Everything the simulator prices is unchanged by --host-threads (the
/// rank-parallel engine is bit-identical to serial by construction, and
/// this bench re-verifies that on every run): what changes is how long
/// the *host* takes to execute the simulated ranks.  This binary runs the
/// paper's radiation problem on a >= 16-rank tiling at each requested
/// host-thread count — best of --repeats timing samples so noisy shared
/// CI runners don't flake the gate — checks the simulated clocks and the
/// final field of every sample against the serial baseline, and emits
/// BENCH_rank_parallel.json with the scaling curve.
///
/// One conditional floor: >= 2x at 4 threads, judged only when the
/// machine has >= 4 hardware threads.
///
///   ./bench_rank_parallel [--nx1 256 --nx2 128 --nprx1 4 --nprx2 4]
///                         [--threads 1,2,4] [--steps 1]

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/v2d.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace v2d;

struct Result {
  int threads = 0;
  double host_seconds = 0.0;
  double speedup = 1.0;        // vs the first (serial baseline) row
  double sim_elapsed_s = 0.0;  // simulated wall clock (profile 0)
  bool identical = true;       // field + clocks match the serial baseline
  /// What happened to the >= 2x-at-4-threads floor on this row:
  /// "enforced" (conditions met, floor judged), "skipped" (a gate row,
  /// but the host lacks the cores to deliver the parallelism — visible in
  /// the JSON rather than silently passing), or "n/a" (not a gate row:
  /// < 4 threads or < 16 ranks).
  std::string speedup_gate = "n/a";
};

struct Baseline {
  std::vector<double> field;
  std::vector<double> clocks;
  bool set = false;
};

void write_json(const std::string& path, const std::vector<Result>& results,
                int ranks, int nx1, int nx2, int host_cores) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"threads\": %d, \"host_seconds\": %.6f, "
                  "\"speedup\": %.3f, \"sim_elapsed_s\": %.6f, "
                  "\"identical\": %s, \"ranks\": %d, \"nx1\": %d, "
                  "\"nx2\": %d, \"host_cores\": %d, "
                  "\"speedup_gate\": \"%s\"}%s\n",
                  r.threads, r.host_seconds, r.speedup, r.sim_elapsed_s,
                  r.identical ? "true" : "false", ranks, nx1, nx2, host_cores,
                  r.speedup_gate.c_str(), i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("nx1", "256", "zones in x1");
  opt.add("nx2", "128", "zones in x2");
  opt.add("nprx1", "4", "tiles in x1");
  opt.add("nprx2", "4", "tiles in x2 (nprx1*nprx2 simulated ranks)");
  opt.add("steps", "2", "time steps per run");
  opt.add("repeats", "3", "timing repetitions per configuration (best kept)");
  opt.add("threads", "1,2,4", "comma list of host-thread counts");
  opt.add("vla-exec", "native", "VLA backend: native | interpret");
  opt.add("out", "BENCH_rank_parallel.json", "JSON output path (empty = none)");
  core::RunConfig cfg;
  int repeats = 1;
  std::vector<int> thread_counts;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_rank_parallel")) return 0;
    cfg.nx1 = opt.get_int<int>("nx1");
    cfg.nx2 = opt.get_int<int>("nx2");
    cfg.steps = opt.get_int<int>("steps");
    cfg.nprx1 = opt.get_int<int>("nprx1");
    cfg.nprx2 = opt.get_int<int>("nprx2");
    repeats = std::max(1, opt.get_int<int>("repeats"));
    thread_counts = opt.get_int_list<int>("threads");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_rank_parallel");
    return 1;
  }
  if (thread_counts.front() != 1) {
    std::cerr << "--threads must start with 1 (the serial baseline)\n";
    return 1;
  }

  cfg.vla_exec = opt.get("vla-exec");
  cfg.compilers = {"cray"};
  const int ranks = cfg.nranks();

  const int host_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  std::vector<Result> results;
  Baseline base;
  for (const int threads : thread_counts) {
    cfg.host_threads = threads;
    // Best-of-N timing: shared CI runners are noisy, and only the best
    // sample reflects what the engine can do.  Every repetition's output
    // is still checked against the serial baseline.
    Result r;
    r.threads = threads;
    r.host_seconds = 1e300;
    std::vector<double> field;
    std::vector<double> clocks;
    for (int rep = 0; rep < repeats; ++rep) {
      core::Simulation sim(cfg);  // applies set_host_threads(...)
      const auto t0 = std::chrono::steady_clock::now();
      sim.run();
      const double host_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      r.host_seconds = std::min(r.host_seconds, host_s);
      r.sim_elapsed_s = sim.elapsed(0);
      field = sim.radiation().field().gather_global();
      clocks.clear();
      for (int rank = 0; rank < sim.exec().nranks(); ++rank)
        clocks.push_back(sim.exec().rank_time(0, rank));
      if (base.set && (field != base.field || clocks != base.clocks))
        r.identical = false;
    }
    if (!base.set) {
      base.field = field;
      base.clocks = clocks;
      base.set = true;
    } else {
      r.speedup = results.front().host_seconds / r.host_seconds;
    }
    results.push_back(r);
    std::cerr << "  threads=" << threads << "  host=" << r.host_seconds
              << " s  speedup=" << r.speedup << "\n";
  }

  TableWriter table("Rank-parallel host execution: wall-time scaling (" +
                    std::to_string(ranks) + " simulated ranks, " +
                    cfg.vla_exec + " backend)");
  table.set_columns(
      {"host threads", "host (s)", "speedup", "sim (s)", "bit-identical"});
  bool identical_ok = true;
  bool speedup_ok = true;
  for (const Result& r : results) {
    table.add_row({TableWriter::integer(r.threads),
                   TableWriter::num(r.host_seconds, 4),
                   TableWriter::num(r.speedup, 2),
                   TableWriter::num(r.sim_elapsed_s, 4),
                   r.identical ? "yes" : "NO"});
    if (!r.identical) identical_ok = false;
  }
  // The engine's raison d'etre: >= 2x at 4 threads on a >= 16-rank
  // configuration — only judged when the host can physically deliver it.
  // Each gate row records whether the floor was enforced or skipped, so a
  // cores-starved runner shows "skipped" in the JSON instead of silently
  // passing.
  for (Result& r : results) {
    if (r.threads >= 4 && ranks >= 16) {
      if (host_cores < r.threads) {
        r.speedup_gate = "skipped";
      } else {
        r.speedup_gate = "enforced";
        if (r.speedup < 2.0) speedup_ok = false;
      }
    }
  }
  table.print(std::cout);
  std::cout << "host cores: " << host_cores << "\n";

  const std::string out = opt.get("out");
  if (!out.empty()) {
    write_json(out, results, ranks, cfg.nx1, cfg.nx2, host_cores);
    std::cout << "wrote " << out << "\n";
  }
  if (!identical_ok) {
    std::cerr << "FAIL: rank-parallel run diverged from the serial "
                 "baseline (field or simulated clocks differ)\n";
    return 1;
  }
  if (!speedup_ok) {
    std::cerr << "FAIL: under 2x host speedup at 4 threads despite >= 4 "
                 "host cores\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_rank_parallel: " << e.what() << '\n';
  return 1;
}
