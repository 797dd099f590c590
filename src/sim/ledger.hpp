#pragma once
/// \file ledger.hpp
/// \brief Per-region cost accounting for a simulated rank.
///
/// Every priced kernel call and every communication event lands in a
/// ledger under a region of the fixed table below ("matvec", "dprod",
/// "mpi_halo", ...).  Pricing passes the region's id, so a commit never
/// compares a name; names are needed only where a report is printed, a
/// checkpoint is written or read, or a caller looks a region up by name.
/// The perfmon layer reads ledgers to produce PAPI/TAU/perf-stat style
/// reports; the MPI simulator keeps one ledger per rank.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/isa.hpp"

namespace v2d::sim {

/// Every region a ledger can hold, in the byte order of their names, so a
/// ledger iterates (and sums its floating-point totals) in name order.
enum class Region : std::uint8_t {
  Axpy,
  Checkpoint,
  Copy,
  Daxpy,
  Daxpy2,
  Ddaxpy,
  Dprod,
  Dscal,
  Fill,
  HydroCfl,
  HydroSweep,
  Matvec,
  MatvecDot,
  MatvecResidual,
  MgBuild,
  MgCoarseFactor,
  MgCoarseGather,
  MgCoarseSolve,
  MgProlong,
  MgResidual,
  MgRestrict,
  MgSmooth,
  MpiAllreduce,
  MpiHalo,
  PUpdate,
  PhysicsAssembly,
  PhysicsCoupling,
  PhysicsRhs,
  PhysicsTemperature,
  Precond,
  PrecondBuild,
  PrecondDot,
  RadGasExchange,
  Sub,
  Xpby,
  kCount
};

inline constexpr std::size_t kNumRegions =
    static_cast<std::size_t>(Region::kCount);

/// Region names, indexed by Region.
inline constexpr std::array<std::string_view, kNumRegions> kRegionNames = {
    "axpy",
    "checkpoint",
    "copy",
    "daxpy",
    "daxpy2",
    "ddaxpy",
    "dprod",
    "dscal",
    "fill",
    "hydro-cfl",
    "hydro-sweep",
    "matvec",
    "matvec-dot",
    "matvec-residual",
    "mg-build",
    "mg-coarse-factor",
    "mg-coarse-gather",
    "mg-coarse-solve",
    "mg-prolong",
    "mg-residual",
    "mg-restrict",
    "mg-smooth",
    "mpi_allreduce",
    "mpi_halo",
    "p-update",
    "physics-assembly",
    "physics-coupling",
    "physics-rhs",
    "physics-temperature",
    "precond",
    "precond-build",
    "precond-dot",
    "rad-gas-exchange",
    "sub",
    "xpby",
};

// Strictly increasing names: byte order, and no name twice.
static_assert(std::ranges::adjacent_find(kRegionNames, std::greater_equal{}) ==
              std::end(kRegionNames));

inline std::string_view region_name(Region r) {
  return kRegionNames[static_cast<std::size_t>(r)];
}

/// The region called `name` (binary search over the sorted table), or
/// nothing when no region has that name.
inline std::optional<Region> find_region(std::string_view name) {
  const auto it = std::ranges::lower_bound(kRegionNames, name);
  if (it == kRegionNames.end() || *it != name) return std::nullopt;
  return static_cast<Region>(it - kRegionNames.begin());
}

/// The region called `name`; a name outside the table is a v2d::Error
/// naming it.
Region region_from_name(std::string_view name);

/// Accumulated cost of one region.
struct RegionCost {
  KernelCounts counts;
  double compute_cycles = 0.0;
  double memory_cycles = 0.0;
  double overhead_cycles = 0.0;
  double total_cycles = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t comm_messages = 0;
  std::uint64_t comm_bytes = 0;

  RegionCost& operator+=(const RegionCost& o);
};

class CostLedger {
public:
  /// One touched region: its name and cost.
  using Entry = std::pair<std::string_view, RegionCost>;

  /// Record a priced kernel call.
  void add_kernel(Region region, const KernelCounts& counts,
                  const CostBreakdown& cost);

  /// Record communication time (already in seconds — the network model
  /// prices messages directly).
  void add_comm(Region region, double seconds, std::uint64_t messages,
                std::uint64_t bytes);

  /// Merge another ledger into this one (region-wise).
  void merge(const CostLedger& o);

  /// Insert or overwrite one region wholesale (checkpoint-restart
  /// deserialization; normal accounting goes through add_kernel/add_comm).
  void set_region(Region region, const RegionCost& cost) {
    slot(region) = cost;
  }

  void clear();

  bool has(Region region) const {
    return index_[static_cast<std::size_t>(region)] != 0;
  }
  /// By name: false for a name outside the region table.
  bool has(std::string_view name) const;
  /// The region's cost; a region this ledger never touched (or a name
  /// outside the table) is a v2d::Error.
  const RegionCost& at(Region region) const;
  const RegionCost& at(std::string_view name) const;

  /// The touched regions in name order, keyed by name.
  const std::vector<Entry>& regions() const { return entries_; }

  double total_cycles() const;
  double total_comm_seconds() const;
  std::uint64_t total_flops() const;
  std::uint64_t total_bytes() const;

  /// Simulated wall time at frequency `freq_hz`: compute + communication.
  double total_seconds(double freq_hz) const {
    return total_cycles() / freq_hz + total_comm_seconds();
  }

  /// Region names sorted by descending total cycles (for reports).
  std::vector<std::string_view> by_cost() const;

private:
  /// The region's entry, inserted (zeroed, in name order) on first touch.
  RegionCost& slot(Region region) {
    const std::uint8_t i = index_[static_cast<std::size_t>(region)];
    return i != 0 ? entries_[i - 1].second : insert(region);
  }
  RegionCost& insert(Region region);

  /// Only touched regions are stored, so a ledger costs what it holds:
  /// entries_ in name order, and per region its 1-based position there
  /// (0 = untouched).
  std::vector<Entry> entries_;
  std::array<std::uint8_t, kNumRegions> index_{};
};

}  // namespace v2d::sim
