#pragma once
/// \file workspace.hpp
/// \brief Reusable scratch-vector workspace for the Krylov solvers.
///
/// Every solver iteration needs a handful of grid-shaped temporaries.
/// Allocating them per solver instance (let alone per solve) churns the
/// allocator across the paper's 300-solve workload and the MG smoother's
/// repeated sweeps, so the scratch vectors live here instead: one
/// workspace per (grid, decomposition, species) shape, slots allocated
/// lazily on first use and reused for the lifetime of the workspace.
/// CgSolver and BicgstabSolver can share one workspace — their solves
/// never nest (a preconditioner owns its own level vectors), and slot k
/// is the same buffer in both, so a CG solve followed by a BiCGSTAB solve
/// on the same shape costs zero additional allocations.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/dist_vector.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

class SolverWorkspace {
public:
  SolverWorkspace(const grid::Grid2D& g, const grid::Decomposition& d, int ns);

  /// The scratch vector in `slot`, allocating it on first access.
  /// Contents persist between calls; callers must not assume zeros.
  /// Slot materialization is mutex-guarded so concurrent par_ranks tasks
  /// can safely reach for scratch; the *contents* of one slot are still a
  /// single buffer whose per-rank tiles are disjoint, matching the rank
  /// ownership of every other distributed vector.
  DistVector& vec(std::size_t slot);

  /// Number of slots materialized so far (observability for tests).
  std::size_t allocated() const;

  /// Zero-fill every materialized slot (host-side, unpriced).  A scrubbed
  /// workspace is indistinguishable from a freshly constructed one — the
  /// WorkspacePool scrubs on acquire so pooled reuse cannot leak one
  /// session's scratch contents into another's trajectory.
  void scrub();

  const grid::Grid2D& grid() const { return *g_; }
  const grid::Decomposition& decomp() const { return *d_; }
  int ns() const { return ns_; }

private:
  const grid::Grid2D* g_;
  const grid::Decomposition* d_;
  int ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<DistVector>> slots_;
};

/// Cross-session pool of SolverWorkspaces keyed by shape.
///
/// A farm session's stepper needs grid-shaped scratch for the lifetime of
/// a job; jobs churn, shapes repeat.  The pool keeps one entry per
/// distinct (grid, decomposition, ns) shape ever acquired and leases free
/// entries to new steppers, so a farm running many same-shape jobs
/// allocates each scratch slot once per *concurrent* job instead of once
/// per job.  Each entry owns canonical copies of its Grid2D and
/// Decomposition (value types), so leased workspaces never dangle into a
/// finished session's spine.
///
/// Determinism: a leased workspace is scrubbed to zeros on acquire,
/// making it bit-indistinguishable from the fresh workspace a solo run
/// would have constructed.  Thread-safe; Lease release is lock-cheap.
class WorkspacePool {
public:
  /// Move-only handle on a pooled workspace; returns it on destruction.
  /// A default-constructed Lease is empty (ws() must not be called).
  class Lease {
  public:
    Lease() = default;
    Lease(Lease&& o) noexcept : pool_(o.pool_), ws_(o.ws_) {
      o.pool_ = nullptr;
      o.ws_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        ws_ = o.ws_;
        o.pool_ = nullptr;
        o.ws_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    bool valid() const { return ws_ != nullptr; }
    SolverWorkspace& ws() const {
      V2D_REQUIRE(ws_ != nullptr, "empty workspace lease");
      return *ws_;
    }

  private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, SolverWorkspace* ws) : pool_(pool), ws_(ws) {}
    void release();

    WorkspacePool* pool_ = nullptr;
    SolverWorkspace* ws_ = nullptr;
  };

  /// Lease a workspace matching (g, d, ns): a scrubbed free entry of that
  /// shape if one exists, a freshly created entry otherwise.
  Lease acquire(const grid::Grid2D& g, const grid::Decomposition& d, int ns);

  /// Entries ever created (== high-water mark of concurrent same-shape
  /// leases, summed over shapes).
  std::size_t created() const;
  /// Acquisitions served by reusing an existing entry.
  std::uint64_t reused() const;

private:
  struct Entry {
    Entry(const grid::Grid2D& g_in, const grid::Decomposition& d_in, int ns_in)
        : g(g_in), d(d_in), ns(ns_in), ws(g, d, ns) {}
    grid::Grid2D g;          // canonical copies: leased workspaces
    grid::Decomposition d;   // never reference a session's spine
    int ns;
    SolverWorkspace ws;
    bool busy = false;
  };

  static bool shape_equal(const Entry& e, const grid::Grid2D& g,
                          const grid::Decomposition& d, int ns);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::uint64_t reused_ = 0;
};

}  // namespace v2d::linalg
