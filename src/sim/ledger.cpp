#include "sim/ledger.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace v2d::sim {

Region region_from_name(std::string_view name) {
  const std::optional<Region> r = find_region(name);
  if (!r) throw Error("unknown ledger region '" + std::string(name) + "'");
  return *r;
}

RegionCost& RegionCost::operator+=(const RegionCost& o) {
  counts += o.counts;
  compute_cycles += o.compute_cycles;
  memory_cycles += o.memory_cycles;
  overhead_cycles += o.overhead_cycles;
  total_cycles += o.total_cycles;
  comm_seconds += o.comm_seconds;
  comm_messages += o.comm_messages;
  comm_bytes += o.comm_bytes;
  return *this;
}

RegionCost& CostLedger::insert(Region region) {
  const auto id = static_cast<std::size_t>(region);
  // The new entry goes after every touched region that sorts before it.
  std::size_t pos = 0;
  for (std::size_t k = 0; k < id; ++k) pos += index_[k] != 0;
  for (std::size_t k = id + 1; k < kNumRegions; ++k)
    if (index_[k] != 0) ++index_[k];
  index_[id] = static_cast<std::uint8_t>(pos + 1);
  // Grow by exactly one: a ledger holds a few dozen regions at most.
  entries_.reserve(entries_.size() + 1);
  const auto it = entries_.emplace(
      entries_.begin() + static_cast<std::ptrdiff_t>(pos),
      region_name(region), RegionCost{});
  return it->second;
}

void CostLedger::add_kernel(Region region, const KernelCounts& counts,
                            const CostBreakdown& cost) {
  RegionCost& r = slot(region);
  r.counts += counts;
  r.compute_cycles += cost.compute_cycles;
  r.memory_cycles += cost.memory_cycles;
  r.overhead_cycles += cost.overhead_cycles;
  r.total_cycles += cost.total_cycles();
}

void CostLedger::add_comm(Region region, double seconds,
                          std::uint64_t messages, std::uint64_t bytes) {
  V2D_REQUIRE(seconds >= 0.0, "communication time cannot be negative");
  RegionCost& r = slot(region);
  r.comm_seconds += seconds;
  r.comm_messages += messages;
  r.comm_bytes += bytes;
}

void CostLedger::merge(const CostLedger& o) {
  for (std::size_t k = 0; k < kNumRegions; ++k)
    if (o.index_[k] != 0)
      slot(static_cast<Region>(k)) += o.entries_[o.index_[k] - 1].second;
}

void CostLedger::clear() {
  entries_.clear();
  index_.fill(0);
}

bool CostLedger::has(std::string_view name) const {
  const std::optional<Region> r = find_region(name);
  return r && has(*r);
}

const RegionCost& CostLedger::at(Region region) const {
  const std::uint8_t i = index_[static_cast<std::size_t>(region)];
  V2D_REQUIRE(i != 0, "no such ledger region: " +
                          std::string(region_name(region)));
  return entries_[i - 1].second;
}

const RegionCost& CostLedger::at(std::string_view name) const {
  return at(region_from_name(name));
}

double CostLedger::total_cycles() const {
  double t = 0.0;
  for (const auto& [_, r] : entries_) t += r.total_cycles;
  return t;
}

double CostLedger::total_comm_seconds() const {
  double t = 0.0;
  for (const auto& [_, r] : entries_) t += r.comm_seconds;
  return t;
}

std::uint64_t CostLedger::total_flops() const {
  std::uint64_t t = 0;
  for (const auto& [_, r] : entries_) t += r.counts.flops();
  return t;
}

std::uint64_t CostLedger::total_bytes() const {
  std::uint64_t t = 0;
  for (const auto& [_, r] : entries_) t += r.counts.bytes_moved();
  return t;
}

std::vector<std::string_view> CostLedger::by_cost() const {
  std::vector<const Entry*> order;
  order.reserve(entries_.size());
  for (const Entry& e : entries_) order.push_back(&e);
  const auto cost = [](const Entry* e) {
    return e->second.total_cycles + 1e9 * e->second.comm_seconds;
  };
  std::sort(order.begin(), order.end(), [&](const Entry* a, const Entry* b) {
    if (cost(a) != cost(b)) return cost(a) > cost(b);
    return a->first < b->first;
  });
  std::vector<std::string_view> names;
  names.reserve(order.size());
  for (const Entry* e : order) names.push_back(e->first);
  return names;
}

}  // namespace v2d::sim
