#pragma once
/// \file ledger_testutil.hpp
/// \brief Shared test helper: assert two cost ledgers are bit-identical,
/// field by field — every KernelCounts slot, every priced cycle figure,
/// every communication tally.  Used by the scenario bit-identity pin and
/// the checkpoint-restart round-trips so neither suite can silently
/// compare a subset.

#include <gtest/gtest.h>

#include <string>

#include "sim/ledger.hpp"

namespace v2d::testutil {

inline void expect_ledgers_identical(const sim::CostLedger& a,
                                     const sim::CostLedger& b,
                                     const std::string& where) {
  ASSERT_EQ(a.regions().size(), b.regions().size()) << where;
  auto ia = a.regions().begin();
  for (auto ib = b.regions().begin(); ib != b.regions().end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << where;
    const std::string tag = where + " " + std::string(ia->first);
    const sim::RegionCost& ra = ia->second;
    const sim::RegionCost& rb = ib->second;
    for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
      EXPECT_EQ(ra.counts.instr[i], rb.counts.instr[i])
          << tag << " instr[" << i << "]";
      EXPECT_EQ(ra.counts.lanes[i], rb.counts.lanes[i])
          << tag << " lanes[" << i << "]";
    }
    EXPECT_EQ(ra.counts.bytes_read, rb.counts.bytes_read) << tag;
    EXPECT_EQ(ra.counts.bytes_written, rb.counts.bytes_written) << tag;
    EXPECT_EQ(ra.counts.elements, rb.counts.elements) << tag;
    EXPECT_EQ(ra.counts.calls, rb.counts.calls) << tag;
    EXPECT_EQ(ra.compute_cycles, rb.compute_cycles) << tag;
    EXPECT_EQ(ra.memory_cycles, rb.memory_cycles) << tag;
    EXPECT_EQ(ra.overhead_cycles, rb.overhead_cycles) << tag;
    EXPECT_EQ(ra.total_cycles, rb.total_cycles) << tag;
    EXPECT_EQ(ra.comm_seconds, rb.comm_seconds) << tag;
    EXPECT_EQ(ra.comm_messages, rb.comm_messages) << tag;
    EXPECT_EQ(ra.comm_bytes, rb.comm_bytes) << tag;
  }
}

}  // namespace v2d::testutil
