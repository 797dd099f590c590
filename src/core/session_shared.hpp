#pragma once
/// \file session_shared.hpp
/// \brief The read-mostly runtime a farm shares across Simulation sessions.
///
/// A solo run builds its whole runtime from scratch: a fresh vla::Context
/// (empty count memo), direct pricing, private solver scratch.
/// A farm serving many jobs from one process wants the warm parts of that
/// runtime to persist and be shared:
///
///   * one vla::Context memo cache per vector length, so the
///     KernelCounts for a (kernel, n, VL) shape are recorded once per
///     process, not once per session — `context_for` hands each new
///     session a fork of the matching per-VL prototype;
///   * one PriceMemo, so identical recorded shapes price once per process
///     across all sessions (see mpisim/price_memo.hpp);
///   * one WorkspacePool, so same-shape jobs reuse solver scratch instead
///     of re-allocating it per session.
///
/// Everything here is either a cache of pure functions of its key or
/// scrubbed-on-lease scratch, so sharing is invisible to any session's
/// trajectory, recorded counts, ledgers and simulated clocks — the farm
/// determinism suite pins that.  All members are safe to use from
/// concurrently-running sessions.
///
/// VL prototypes are deliberately keyed by vector_bits: the count-memo key
/// is (shape, n) and the cached counts depend on the VL they were derived
/// at, so contexts of different VLs must never share one cache.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "linalg/workspace.hpp"
#include "mpisim/price_memo.hpp"
#include "vla/vla.hpp"

namespace v2d::core {

class SessionShared {
public:
  SessionShared() : price_memo_(std::make_shared<mpisim::PriceMemo>()) {}

  SessionShared(const SessionShared&) = delete;
  SessionShared& operator=(const SessionShared&) = delete;

  /// A vla::Context for `bits`-bit vectors in `mode`, forked from the
  /// shared per-VL prototype (created on demand) so every session at one
  /// VL shares one count memo cache.
  vla::Context context_for(unsigned bits, vla::VlaExecMode mode) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = protos_.find(bits);
    if (it == protos_.end())
      it = protos_.emplace(bits, vla::Context(vla::VectorArch(bits))).first;
    vla::Context ctx = it->second.fork();
    ctx.set_exec_mode(mode);
    return ctx;
  }

  const std::shared_ptr<mpisim::PriceMemo>& price_memo() const {
    return price_memo_;
  }
  linalg::WorkspacePool& workspace_pool() { return pool_; }

  /// Count-memo totals summed over every shared prototype family (each
  /// prototype's counters cover all sessions forked from it).
  std::pair<std::uint64_t, std::uint64_t> memo_totals() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t hits = 0, misses = 0;
    for (const auto& [bits, proto] : protos_) {
      hits += proto.memo_hits();
      misses += proto.memo_misses();
    }
    return {hits, misses};
  }

private:
  mutable std::mutex mu_;
  std::unordered_map<unsigned, vla::Context> protos_;
  std::shared_ptr<mpisim::PriceMemo> price_memo_;
  linalg::WorkspacePool pool_;
};

}  // namespace v2d::core
