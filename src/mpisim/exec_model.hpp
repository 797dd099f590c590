#pragma once
/// \file exec_model.hpp
/// \brief Multi-profile execution pricer — the heart of the simulation.
///
/// The V2D numerics run exactly once; every instrumented kernel call and
/// communication event is priced *simultaneously* under every registered
/// compiler profile (pricing is cheap; re-running physics is not).  Each
/// profile maintains its own per-rank clock and per-rank cost ledger
/// (keyed by sim::Region ids, so pricing compares no names), so
/// after a run you can ask "what did this execution cost under Cray with
/// SVE?" and "under GNU?" from the same trajectory.
///
/// Synchronization model: an allreduce synchronizes all rank clocks to
/// their max plus the collective cost; a halo exchange synchronizes each
/// rank with its touched neighbours (one round of neighbour-max), which is
/// exact for the balanced tilings V2D uses.

#include <cstdint>
#include <string_view>
#include <vector>

#include "compiler/profile.hpp"
#include "mpisim/netcost.hpp"
#include "mpisim/placement.hpp"
#include "sim/cost_model.hpp"
#include "sim/ledger.hpp"

namespace v2d::mpisim {

/// One point-to-point transfer inside an exchange phase.
struct Transfer {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  /// True when the payload is non-contiguous in memory (x1-direction halos
  /// are grid columns): both ends pay a pack/unpack penalty.  This is what
  /// makes V2D's compact tilings beat strip tilings at equal surface.
  bool strided = false;
};

class ExecModel {
public:
  ExecModel(sim::MachineSpec machine,
            std::vector<compiler::CodegenProfile> profiles, int nranks);

  int nranks() const { return placement_.nranks(); }
  std::size_t nprofiles() const { return profiles_.size(); }
  const compiler::CodegenProfile& profile(std::size_t p) const {
    return profiles_[p];
  }
  const sim::CostModel& cost_model() const { return cost_; }
  const Placement& placement() const { return placement_; }

  /// Price a kernel call executed by `rank` into `region` of its ledgers.
  /// Thread-safe for distinct ranks: only `rank`'s clock and ledger slots
  /// are written (pricing itself is const), so rank-parallel host
  /// execution may call this concurrently from par_ranks tasks.
  void kernel(int rank, compiler::KernelFamily family, sim::Region region,
              const sim::KernelCounts& counts,
              std::uint64_t working_set_bytes);
  /// The same, with the region given by name (looked up in the region
  /// table; an unknown name is a v2d::Error).
  void kernel(int rank, compiler::KernelFamily family, std::string_view region,
              const sim::KernelCounts& counts,
              std::uint64_t working_set_bytes) {
    kernel(rank, family, sim::region_from_name(region), counts,
           working_set_bytes);
  }

  /// Price a halo-exchange phase (all transfers logically concurrent).
  /// A serial barrier point: must not run concurrently with kernel().
  void exchange(const std::vector<Transfer>& transfers, sim::Region region);

  /// Price a ganged allreduce of `bytes` payload; synchronizes all ranks.
  /// A serial barrier point: must not run concurrently with kernel().
  void allreduce(std::uint64_t bytes, sim::Region region);

  /// Simulated wall-clock of profile p = slowest rank's clock.
  double elapsed(std::size_t p) const;
  double rank_time(std::size_t p, int rank) const;

  const sim::CostLedger& ledger(std::size_t p, int rank) const;
  /// All ranks' ledgers merged (totals across the job).
  sim::CostLedger merged_ledger(std::size_t p) const;

  /// Reset clocks and ledgers (keep machine/profiles/placement).
  void reset();

  /// Overwrite one rank's clock and ledger under profile p — checkpoint
  /// restart uses this to resume the simulated machine bit-exactly where
  /// a previous run persisted it.
  void restore_rank(std::size_t p, int rank, double clock,
                    sim::CostLedger ledger);

private:
  struct PerProfile {
    NetCost net;
    std::vector<double> clock;            // seconds, one per rank
    std::vector<sim::CostLedger> ledger;  // one per rank
  };

  sim::CostModel cost_;
  std::vector<compiler::CodegenProfile> profiles_;
  Placement placement_;
  std::vector<PerProfile> state_;
};

}  // namespace v2d::mpisim
