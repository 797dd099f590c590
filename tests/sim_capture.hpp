#pragma once
/// \file sim_capture.hpp
/// \brief Exact-state capture of a Simulation for bit-identity tests.
///
/// The engine's core contract — rank-parallel execution, fused kernels,
/// and now farm scheduling are *pure host optimizations* — is pinned by
/// comparing everything observable exactly (==, not near): gathered
/// fields, per-profile per-rank simulated clocks, and full per-region
/// cost ledgers.  This header holds the capture/compare helpers shared by
/// the suites that pin that contract (test_farm and friends).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "sim/ledger.hpp"

namespace v2d::testutil {

struct SimCapture {
  std::vector<double> field;
  double time = 0.0;
  int steps = 0;
  // Per profile, per rank.
  std::vector<std::vector<double>> clocks;
  std::vector<std::vector<sim::CostLedger>> ledgers;
};

inline SimCapture capture(core::Simulation& sim) {
  SimCapture out;
  out.field = sim.radiation().field().gather_global();
  out.time = sim.time();
  out.steps = sim.steps_taken();
  const auto& em = sim.exec();
  out.clocks.resize(em.nprofiles());
  out.ledgers.resize(em.nprofiles());
  for (std::size_t p = 0; p < em.nprofiles(); ++p) {
    for (int r = 0; r < em.nranks(); ++r) {
      out.clocks[p].push_back(em.rank_time(p, r));
      out.ledgers[p].push_back(em.ledger(p, r));
    }
  }
  return out;
}

inline void expect_counts_equal(const sim::KernelCounts& a,
                                const sim::KernelCounts& b,
                                const std::string& where) {
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    EXPECT_EQ(a.instr[i], b.instr[i]) << where << " instr[" << i << "]";
    EXPECT_EQ(a.lanes[i], b.lanes[i]) << where << " lanes[" << i << "]";
  }
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.elements, b.elements) << where;
  EXPECT_EQ(a.calls, b.calls) << where;
}

inline void expect_ledgers_equal(const sim::CostLedger& a,
                                 const sim::CostLedger& b,
                                 const std::string& where) {
  ASSERT_EQ(a.regions().size(), b.regions().size()) << where;
  auto ia = a.regions().begin();
  auto ib = b.regions().begin();
  for (; ia != a.regions().end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << where;
    const std::string at = where + "/" + std::string(ia->first);
    const sim::RegionCost& ra = ia->second;
    const sim::RegionCost& rb = ib->second;
    EXPECT_EQ(ra.compute_cycles, rb.compute_cycles) << at;
    EXPECT_EQ(ra.memory_cycles, rb.memory_cycles) << at;
    EXPECT_EQ(ra.overhead_cycles, rb.overhead_cycles) << at;
    EXPECT_EQ(ra.total_cycles, rb.total_cycles) << at;
    EXPECT_EQ(ra.comm_seconds, rb.comm_seconds) << at;
    EXPECT_EQ(ra.comm_messages, rb.comm_messages) << at;
    EXPECT_EQ(ra.comm_bytes, rb.comm_bytes) << at;
    expect_counts_equal(ra.counts, rb.counts, at);
  }
}

inline void expect_captures_identical(const SimCapture& a, const SimCapture& b,
                                      const std::string& label) {
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  ASSERT_EQ(a.field.size(), b.field.size()) << label;
  for (std::size_t i = 0; i < a.field.size(); ++i)
    ASSERT_EQ(a.field[i], b.field[i]) << label << " field zone " << i;
  ASSERT_EQ(a.clocks.size(), b.clocks.size()) << label;
  for (std::size_t p = 0; p < a.clocks.size(); ++p) {
    ASSERT_EQ(a.clocks[p].size(), b.clocks[p].size()) << label;
    for (std::size_t r = 0; r < a.clocks[p].size(); ++r) {
      EXPECT_EQ(a.clocks[p][r], b.clocks[p][r])
          << label << " profile " << p << " rank " << r;
      expect_ledgers_equal(a.ledgers[p][r], b.ledgers[p][r],
                           label + " p" + std::to_string(p) + " r" +
                               std::to_string(r));
    }
  }
}

}  // namespace v2d::testutil
