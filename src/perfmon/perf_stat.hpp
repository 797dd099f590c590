#pragma once
/// \file perf_stat.hpp
/// \brief `perf stat`-style report formatting.
///
/// The paper times every Table I run with
///   perf stat -e duration_time -e cpu-cycles <v2d ...>
/// This formatter renders simulated results the same way, so the bench
/// output reads like the raw measurements the authors collected.

#include <cstdint>
#include <string>

namespace v2d::perfmon {

struct PerfStatResult {
  std::string command;        ///< the (simulated) command line
  double duration_seconds = 0.0;
  std::uint64_t cpu_cycles = 0;
  std::uint64_t instructions = 0;  ///< optional; 0 = omit line
};

/// Render in the style of `perf stat` output.
std::string format_perf_stat(const PerfStatResult& r);

/// Count-memo statistics of a vla::Context fork family (the fast path's
/// recording overhead): every native-mode kernel call is one probe; misses
/// are the distinct (shape, n) recordings made, one dry run each.  Snapshot
/// with `MemoCacheStats::of(ctx.vctx)`; bench runs report it so recording
/// overhead regressions are visible next to the timing numbers.  Misses
/// are visible at once; a fork's hits become visible when that fork
/// flushes its recording (take_counts, so every commit) or is destroyed,
/// so snapshot after the forks of interest have committed or joined.
struct MemoCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t probes() const { return hits + misses; }
  double hit_rate() const {
    return probes() ? static_cast<double>(hits) / static_cast<double>(probes())
                    : 0.0;
  }

  /// Snapshot the counters of a context (its own hits included) and of
  /// every fork that has flushed.  Templated so perfmon needs no
  /// dependency on the VLA layer.
  template <typename Context>
  static MemoCacheStats of(const Context& ctx) {
    return {ctx.memo_hits(), ctx.memo_misses()};
  }

  /// Counters accrued since an earlier snapshot.
  MemoCacheStats since(const MemoCacheStats& earlier) const {
    return {hits - earlier.hits, misses - earlier.misses};
  }
};

/// One-line report: "memo cache: 12,345 hits, 17 misses (99.9% hit rate)".
std::string format_memo_cache(const MemoCacheStats& s);

}  // namespace v2d::perfmon
