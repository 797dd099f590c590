#pragma once
/// \file vla.hpp
/// \brief Vector-length-agnostic SVE-like execution layer.
///
/// This is the repo's stand-in for ACLE SVE intrinsics.  Kernels are
/// written once against vla::Context in the canonical SVE idiom —
/// `whilelt` predicated strip-mined loops — and every operation both
/// *computes* the double-precision result on the host and *records* an
/// instruction into a sim::KernelCounts.  The recorded stream is later
/// priced by sim::CostModel under any ExecMode/compiler profile, so
/// "SVE on/off" and "which compiler" are pricing decisions, not re-runs.
///
/// Supported vector lengths are the architectural SVE range, 128–2048 bits
/// in multiples of 128 (2–32 double lanes).  Predicates are prefix
/// predicates (the only kind `whilelt` produces); that covers every V2D
/// kernel, which are all strip-mined streaming loops.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/isa.hpp"
#include "support/error.hpp"

namespace v2d::vla {

/// How the VLA layer runs a kernel.
///
///   Interpret — the reference backend: every ld1/fma/st1 loops lane-by-lane
///               over a VReg and records its instruction op-by-op.
///   Native    — the fast path: kernels run as raw-pointer loops the host
///               compiler can auto-vectorize, one body per tile with the
///               row loop inside.  The recording comes from the kernel's
///               own interpreter row, run once per (kernel shape, n) in a
///               dry context that records every op but touches no memory
///               (Context::record_dry), memoized per Context family, and
///               added once per tile as nj × the row's.  The interpreter is thus the only definition of
///               what a kernel issues; results are bit-identical to it, as
///               the equivalence suite (tests/test_vla_fastpath.cpp) pins.
enum class VlaExecMode : std::uint8_t {
  Interpret,
  Native,
};

/// What a native kernel call does.  A native tile entry
/// (linalg::run_tile) records its memoized stream and runs its host body;
/// a native context can be set to do only one of the two.  RecordOnly
/// records the call without running its body, for a kernel whose result
/// another body has produced.  RunOnly runs the body and records nothing,
/// external estimates included, for a body whose recording is another
/// kernel sequence's.  The interpreter computes and records each op
/// together, so only native contexts take the split forms.
enum class NativeWork : std::uint8_t {
  RecordAndRun,
  RecordOnly,
  RunOnly,
};

inline const char* vla_exec_mode_name(VlaExecMode m) {
  return m == VlaExecMode::Native ? "native" : "interpret";
}

inline VlaExecMode vla_exec_mode_from_name(const std::string& name) {
  if (name == "native") return VlaExecMode::Native;
  if (name == "interpret") return VlaExecMode::Interpret;
  throw Error("unknown VLA exec mode '" + name +
              "' (expected interpret|native)");
}

namespace detail {
inline std::atomic<std::uint64_t>& process_hits() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
inline std::atomic<std::uint64_t>& process_misses() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
}  // namespace detail

/// Process-wide count-memo statistics, accumulated across *every*
/// Context family in the process — one per session, rank forks
/// included.  Per-family counters (Context::memo_hits / memo_misses) only
/// see their own fork family, which makes them a per-run report;
/// long-lived multi-session processes (the farm) want the process-wide
/// view, so every memo probe is counted here as well (a hit once the
/// probing context flushes its recording or is destroyed).
inline std::uint64_t process_memo_hits() {
  return detail::process_hits().load(std::memory_order_relaxed);
}
inline std::uint64_t process_memo_misses() {
  return detail::process_misses().load(std::memory_order_relaxed);
}

/// Architectural bounds for SVE vector lengths.
inline constexpr unsigned kMinVectorBits = 128;
inline constexpr unsigned kMaxVectorBits = 2048;
inline constexpr unsigned kMaxLanes = kMaxVectorBits / 64;

/// A configured vector length (the "hardware" VL the kernel runs at).
class VectorArch {
public:
  explicit VectorArch(unsigned bits = 512) : bits_(bits) {
    V2D_REQUIRE(bits >= kMinVectorBits && bits <= kMaxVectorBits &&
                    bits % kMinVectorBits == 0,
                "SVE vector length must be 128..2048 bits in steps of 128");
  }
  unsigned bits() const { return bits_; }
  unsigned lanes() const { return bits_ / 64; }

private:
  unsigned bits_;
};

/// Prefix predicate: lanes [0, active) enabled out of [0, width).
struct Predicate {
  std::uint32_t active = 0;
  std::uint32_t width = 0;

  bool any() const { return active > 0; }
  bool full() const { return active == width; }
};

/// A vector register of f64 lanes.  Only the first Context::lanes() entries
/// are meaningful.
struct VReg {
  std::array<double, kMaxLanes> lane{};

  double operator[](unsigned i) const { return lane[i]; }
  double& operator[](unsigned i) { return lane[i]; }
};

/// Execution + recording context.  One per simulated rank (cheap to
/// construct).  All operations are predicated; inactive lanes of the
/// result are zero (SVE zeroing predication).
class Context {
public:
  explicit Context(VectorArch arch = VectorArch{},
                   VlaExecMode mode = VlaExecMode::Interpret)
      : arch_(arch), mode_(mode),
        count_cache_(std::make_shared<CountCache>()) {}

  /// A copy gets the source's recording (with any pending run flushed)
  /// but none of its unfolded memo hits, so no probe is counted twice; a
  /// move takes the hits along.
  Context(const Context& o)
      : arch_(o.arch_), mode_(o.mode_), dry_(o.dry_), work_(o.work_),
        counts_(o.counts()), count_cache_(o.count_cache_) {}
  Context(Context&& o) noexcept
      : arch_(o.arch_), mode_(o.mode_), dry_(o.dry_), work_(o.work_),
        counts_(o.counts_), count_cache_(std::move(o.count_cache_)),
        front_(std::exchange(o.front_, {})),
        run_(std::exchange(o.run_, 0)), hits_(std::exchange(o.hits_, 0)) {}
  /// The overwritten context's unfolded hits go to its own family first.
  Context& operator=(Context o) noexcept {
    fold_hits();
    arch_ = o.arch_;
    mode_ = o.mode_;
    dry_ = o.dry_;
    work_ = o.work_;
    counts_ = o.counts_;
    count_cache_ = std::move(o.count_cache_);
    front_ = std::exchange(o.front_, {});
    run_ = std::exchange(o.run_, 0);
    hits_ = std::exchange(o.hits_, 0);
    return *this;
  }
  ~Context() { fold_hits(); }

  unsigned lanes() const { return arch_.lanes(); }
  const VectorArch& arch() const { return arch_; }

  /// Child context for rank-parallel host execution: same VL and exec
  /// mode, sharing this context's (read-mostly, lock-guarded)
  /// count cache, but with a private recording accumulator so concurrent
  /// rank tasks never interleave their instruction streams.  Allocation-
  /// free beyond the shared_ptr bump — fork() runs once per rank task.
  Context fork() const { return Context(arch_, mode_, count_cache_); }

  VlaExecMode exec_mode() const { return mode_; }
  void set_exec_mode(VlaExecMode m) { mode_ = m; }
  /// True when kernels should take the native raw-pointer fast path.
  bool native() const { return mode_ == VlaExecMode::Native; }
  /// True inside record_dry: memory ops record but neither read nor write.
  bool dry() const { return dry_; }
  /// Split what this native context's kernel calls do (see NativeWork).
  void set_native_work(NativeWork w) {
    V2D_REQUIRE(w == NativeWork::RecordAndRun || native(),
                "only a native context splits its kernel calls");
    work_ = w;
  }
  /// False while native kernel calls only record (NativeWork::RecordOnly).
  bool runs() const { return work_ != NativeWork::RecordOnly; }

  /// Memoized count lookup.  `key` identifies (kernel shape, n);
  /// the factory runs once per distinct key and its result is cached for
  /// the lifetime of this Context *and all its forks*.  The cache is
  /// shared across the fork family and guarded by a shared_mutex, so
  /// concurrent rank tasks are safe; returned references stay valid
  /// because unordered_map never relocates elements.
  ///
  /// Each context keeps a one-entry front (the last key and a pointer to
  /// its cached counts), so a run of same-key calls probes the shared map
  /// once and then takes no lock and writes no shared atomic.  Every call
  /// is still one logical probe: a miss when it inserted the key (the
  /// loser of a concurrent miss counts a hit), a hit otherwise.  Misses
  /// reach the family and process counters at once; hits are counted in
  /// this context and folded in when it flushes its recording
  /// (take_counts) or is destroyed.
  ///
  /// Every producer keys as (linalg::KernelShape << 56) | n: one --fuse
  /// plan session records both primitive kernels and fused composites into
  /// one memo, and each composite has a KernelShape of its own, so none
  /// reads another's counts.
  template <typename Factory>
  const sim::KernelCounts& memo_counts(std::uint64_t key, Factory&& make) {
    if (front_.counts != nullptr && front_.key == key) {
      ++hits_;
      return *front_.counts;
    }
    flush_run();
    front_ = {key, &lookup(key, make)};
    return *front_.counts;
  }

  /// Fold `times` copies of the memoized recording of `body` under `key`
  /// (one kernel row's stream, with calls == elements == 0; those fields
  /// belong to ExecContext::commit) into the recording — a native tile
  /// entry records its `nj` rows with one call.  The copies count as
  /// `times` memo probes, exactly as `times` calls of one copy would: the
  /// first probes the memo unless it repeats the previous key, and every
  /// other one lengthens the pending run.  On a miss, `body(dry)` runs
  /// once, outside the cache lock, in a dry Interpret-mode context at this
  /// VL: every op records exactly as the interpreter does, but
  /// ld1/st1/gather/scatter touch no memory, so the body may be a kernel's
  /// own interpreter path over live operands.  The body must not branch on
  /// a loaded value (loads yield zeros).  A hit runs nothing; the pending
  /// run is folded in as run × counts (exact: counts are integers) on the
  /// next key change or when the recording is read.  A RunOnly context
  /// (NativeWork) records and probes nothing.
  template <typename Body>
  void record_dry(std::uint64_t key, std::uint64_t times, Body&& body) {
    if (times == 0 || work_ == NativeWork::RunOnly) return;
    if (front_.counts != nullptr && front_.key == key) {
      run_ += times;
      return;
    }
    counts_ += memo_counts(key, [&] {
      // No memo family of its own: the interpreter path never probes one.
      Context dry(arch_, VlaExecMode::Interpret, nullptr);
      dry.dry_ = true;
      body(dry);
      return dry.take_counts();
    });
    run_ += times - 1;
  }

  /// Count-memo statistics, accumulated across this context
  /// and all its forks for the lifetime of the fork family.  A steady-state
  /// native-mode run should be almost all hits; the miss count is the
  /// number of distinct (shape, n) recordings ever made.  Hits include
  /// this context's own unfolded hits, but another fork's only once that
  /// fork has flushed (take_counts) or been destroyed.  Exposed so
  /// perfmon can report fast-path recording overhead (see
  /// perfmon::MemoCacheStats).
  std::uint64_t memo_hits() const {
    return count_cache_->hits.load(std::memory_order_relaxed) + hits_ + run_;
  }
  std::uint64_t memo_misses() const {
    return count_cache_->misses.load(std::memory_order_relaxed);
  }

  /// Fold an externally-estimated instruction stream into the recording
  /// (used for work the kernel does that is not expressed through VLA
  /// calls, e.g. V2D's on-the-fly coefficient evaluation).  `lanes` is the
  /// scalar-equivalent op count; vector instructions are derived at the
  /// configured VL.  A RunOnly context (NativeWork) records nothing.
  void record_external(sim::OpClass c, std::uint64_t scalar_ops,
                       std::uint64_t bytes_read, std::uint64_t bytes_written) {
    if (work_ == NativeWork::RunOnly) return;
    const auto i = static_cast<std::size_t>(c);
    counts_.lanes[i] += scalar_ops;
    counts_.instr[i] += (scalar_ops + lanes() - 1) / lanes();
    counts_.bytes_read += bytes_read;
    counts_.bytes_written += bytes_written;
  }

  /// Take and reset the accumulated recording; also folds this context's
  /// memo hits into the family and process counters.
  sim::KernelCounts take_counts() {
    fold_hits();
    sim::KernelCounts out = counts_;
    counts_ = sim::KernelCounts{};
    return out;
  }
  const sim::KernelCounts& counts() const {
    flush_run();
    return counts_;
  }

  // --- predicate construction -------------------------------------------
  Predicate ptrue() {
    record(sim::OpClass::Predicate, lanes());
    return Predicate{lanes(), lanes()};
  }

  /// whilelt i, n — enable lanes for indices [i, min(i+VL, n)).
  Predicate whilelt(std::uint64_t i, std::uint64_t n) {
    record(sim::OpClass::Predicate, lanes());
    const std::uint64_t remaining = i < n ? n - i : 0;
    const std::uint32_t active =
        remaining < lanes() ? static_cast<std::uint32_t>(remaining) : lanes();
    return Predicate{active, lanes()};
  }

  /// Book the per-iteration loop control (index increment + back-edge).
  /// `elems` is the number of elements this iteration advanced by, so the
  /// scalar-equivalent pricing sees one branch per element.
  void loop_iter(std::uint32_t elems) {
    record(sim::OpClass::IntOp, elems);
    record(sim::OpClass::Branch, elems);
  }

  // --- moves --------------------------------------------------------------
  VReg dup(double x) {
    record(sim::OpClass::Select, 1);
    VReg r;
    for (unsigned l = 0; l < lanes(); ++l) r[l] = x;
    return r;
  }

  // --- memory -------------------------------------------------------------
  // In a dry context (record_dry) the four memory ops below record their
  // op and bytes but read and write nothing; loads yield zeros.
  VReg ld1(const Predicate& p, const double* base) {
    check(p);
    record(sim::OpClass::LoadContig, p.active);
    counts_.bytes_read += p.active * sizeof(double);
    VReg r;
    if (dry_) return r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = base[l];
    return r;
  }

  void st1(const Predicate& p, double* base, const VReg& v) {
    check(p);
    record(sim::OpClass::StoreContig, p.active);
    counts_.bytes_written += p.active * sizeof(double);
    if (dry_) return;
    for (unsigned l = 0; l < p.active; ++l) base[l] = v[l];
  }

  /// Gather load: r[l] = base[idx[l]].
  VReg ld1_gather(const Predicate& p, const double* base,
                  std::span<const std::int64_t> idx) {
    check(p);
    V2D_REQUIRE(idx.size() >= p.active, "gather index vector too short");
    record(sim::OpClass::LoadGather, p.active);
    counts_.bytes_read += p.active * sizeof(double);
    VReg r;
    if (dry_) return r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = base[idx[l]];
    return r;
  }

  /// Scatter store: base[idx[l]] = v[l].
  void st1_scatter(const Predicate& p, double* base,
                   std::span<const std::int64_t> idx, const VReg& v) {
    check(p);
    V2D_REQUIRE(idx.size() >= p.active, "scatter index vector too short");
    record(sim::OpClass::StoreScatter, p.active);
    counts_.bytes_written += p.active * sizeof(double);
    if (dry_) return;
    for (unsigned l = 0; l < p.active; ++l) base[idx[l]] = v[l];
  }

  // --- arithmetic ----------------------------------------------------------
  VReg add(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopAdd,
                  [](double x, double y) { return x + y; });
  }
  VReg sub(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopAdd,
                  [](double x, double y) { return x - y; });
  }
  VReg mul(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopMul,
                  [](double x, double y) { return x * y; });
  }
  VReg div(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopDiv,
                  [](double x, double y) { return x / y; });
  }
  VReg vmin(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopCmp,
                  [](double x, double y) { return x < y ? x : y; });
  }
  VReg vmax(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopCmp,
                  [](double x, double y) { return x > y ? x : y; });
  }

  /// Fused multiply-add: a*b + c (SVE fmla, zeroing predication).
  VReg fma(const Predicate& p, const VReg& a, const VReg& b, const VReg& c) {
    check(p);
    record(sim::OpClass::FlopFma, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = a[l] * b[l] + c[l];
    return r;
  }

  /// Fused multiply-add with *merging* predication: inactive lanes keep
  /// c's value (SVE fmla/m).  This is what reduction accumulators need —
  /// a zeroing tail strip would wipe the lanes accumulated so far.
  VReg fma_merge(const Predicate& p, const VReg& a, const VReg& b,
                 const VReg& c) {
    check(p);
    record(sim::OpClass::FlopFma, p.active);
    VReg r = c;
    for (unsigned l = 0; l < p.active; ++l) r[l] = a[l] * b[l] + c[l];
    return r;
  }

  VReg sqrt(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::FlopSqrt, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = __builtin_sqrt(a[l]);
    return r;
  }

  VReg abs(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::FlopCmp, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l)
      r[l] = a[l] < 0.0 ? -a[l] : a[l];
    return r;
  }

  /// Lane select: p ? a : b.  With prefix predicates this implements SVE
  /// `sel` where the predicate came from a comparison collapsed to a prefix;
  /// used for boundary handling.
  VReg sel(const Predicate& p, const VReg& a, const VReg& b) {
    record(sim::OpClass::Select, p.width);
    VReg r;
    for (unsigned l = 0; l < p.width && l < lanes(); ++l)
      r[l] = l < p.active ? a[l] : b[l];
    return r;
  }

  // --- reductions -----------------------------------------------------------
  /// Horizontal sum of active lanes (SVE faddv).
  double reduce_add(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::Reduce, p.active);
    double s = 0.0;
    for (unsigned l = 0; l < p.active; ++l) s += a[l];
    return s;
  }

  double reduce_max(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::Reduce, p.active);
    double s = p.any() ? a[0] : 0.0;
    for (unsigned l = 1; l < p.active; ++l) s = a[l] > s ? a[l] : s;
    return s;
  }

private:
  void check(const Predicate& p) const {
    V2D_CHECK(p.width == lanes(), "predicate built for a different VL");
    V2D_CHECK(p.active <= p.width, "corrupt predicate");
  }

  template <typename F>
  VReg binary(const Predicate& p, const VReg& a, const VReg& b,
              sim::OpClass c, F f) {
    check(p);
    record(c, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = f(a[l], b[l]);
    return r;
  }

  void record(sim::OpClass c, std::uint64_t active) {
    counts_.record(c, active);
  }

  // Fast-path memo: (kernel shape, n) -> recorded counts.  Shared across
  // fork()ed contexts; read-mostly, guarded for rank-parallel execution.
  struct CountCache {
    std::shared_mutex mu;
    std::unordered_map<std::uint64_t, sim::KernelCounts> map;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  Context(VectorArch arch, VlaExecMode mode, std::shared_ptr<CountCache> cache)
      : arch_(arch), mode_(mode), count_cache_(std::move(cache)) {}

  // Probe the shared map for `key`, inserting make() on a miss.  Only the
  // call whose try_emplace inserts counts a miss, so the miss count is the
  // number of distinct keys at any thread count.
  template <typename Factory>
  const sim::KernelCounts& lookup(std::uint64_t key, Factory& make) {
    CountCache& cache = *count_cache_;
    {
      std::shared_lock<std::shared_mutex> lk(cache.mu);
      const auto it = cache.map.find(key);
      if (it != cache.map.end()) {
        ++hits_;
        return it->second;
      }
    }
    const sim::KernelCounts made = make();
    std::unique_lock<std::shared_mutex> lk(cache.mu);
    const auto [it, inserted] = cache.map.try_emplace(key, made);
    if (inserted) {
      cache.misses.fetch_add(1, std::memory_order_relaxed);
      detail::process_misses().fetch_add(1, std::memory_order_relaxed);
    } else {
      ++hits_;
    }
    return it->second;
  }

  // Fold the pending run of front-key calls into the recording.
  void flush_run() const {
    if (run_ == 0) return;
    counts_.add(*front_.counts, run_);
    hits_ += run_;
    run_ = 0;
  }

  void fold_hits() {
    flush_run();
    if (hits_ == 0) return;
    count_cache_->hits.fetch_add(hits_, std::memory_order_relaxed);
    detail::process_hits().fetch_add(hits_, std::memory_order_relaxed);
    hits_ = 0;
  }

  // The last memo key this context probed and its entry in the family map.
  struct Front {
    std::uint64_t key = 0;
    const sim::KernelCounts* counts = nullptr;
  };

  VectorArch arch_;
  VlaExecMode mode_ = VlaExecMode::Interpret;
  bool dry_ = false;  ///< set only by record_dry
  NativeWork work_ = NativeWork::RecordAndRun;
  // counts_, run_ and hits_ are mutable so counts() can flush the pending
  // run; a context is only ever used by one thread at a time.
  mutable sim::KernelCounts counts_;
  std::shared_ptr<CountCache> count_cache_;
  Front front_;
  mutable std::uint64_t run_ = 0;   ///< record_dry calls pending on front_
  mutable std::uint64_t hits_ = 0;  ///< memo hits not yet folded
};

}  // namespace v2d::vla
