/// \file test_perfmon.cpp
/// \brief Unit tests for the PAPI-like counters, TAU-style profiler and
/// perf-stat formatter.

#include <gtest/gtest.h>

#include "perfmon/papi.hpp"
#include "perfmon/perf_stat.hpp"
#include "perfmon/profiler.hpp"
#include "support/error.hpp"

namespace v2d::perfmon {
namespace {

sim::CostLedger make_ledger(double cycles, std::uint64_t fma_lanes) {
  sim::CostLedger l;
  sim::CostBreakdown cost;
  cost.compute_cycles = cycles;
  sim::KernelCounts c;
  c.record(sim::OpClass::FlopFma, 8, fma_lanes / 8);
  c.record(sim::OpClass::LoadContig, 8, 4);
  c.bytes_read = 256;
  c.bytes_written = 128;
  l.add_kernel(sim::Region::Matvec, c, cost);
  return l;
}

TEST(Papi, ReadCounters) {
  const auto v = read_counters(make_ledger(1000.0, 80));
  EXPECT_EQ(v[static_cast<std::size_t>(Event::TotalCycles)], 1000u);
  EXPECT_EQ(v[static_cast<std::size_t>(Event::FpOps)], 160u);  // FMA x2
  EXPECT_EQ(v[static_cast<std::size_t>(Event::LoadStoreInstr)], 4u);
  EXPECT_EQ(v[static_cast<std::size_t>(Event::BytesRead)], 256u);
}

TEST(Papi, EventSetDeltas) {
  sim::CostLedger l = make_ledger(1000.0, 80);
  EventSet es;
  es.start(l);
  // More work lands in the ledger.
  sim::CostBreakdown cost;
  cost.compute_cycles = 500.0;
  l.add_kernel(sim::Region::Dprod, sim::KernelCounts{}, cost);
  const auto v = es.stop(l);
  EXPECT_EQ(v[static_cast<std::size_t>(Event::TotalCycles)], 500u);
  EXPECT_EQ(v[static_cast<std::size_t>(Event::FpOps)], 0u);
}

TEST(Papi, DoubleStartRejected) {
  const sim::CostLedger l;
  EventSet es;
  es.start(l);
  EXPECT_THROW(es.start(l), Error);
}

TEST(Papi, StopWithoutStartRejected) {
  const sim::CostLedger l;
  EventSet es;
  EXPECT_THROW(es.stop(l), Error);
}

TEST(Papi, CyclesToSeconds) {
  EXPECT_DOUBLE_EQ(cycles_to_seconds(1800, 1.8e9), 1e-6);
  EXPECT_THROW(cycles_to_seconds(1, 0.0), Error);
}

TEST(Papi, EventNames) {
  EXPECT_STREQ(event_name(Event::TotalCycles), "PAPI_TOT_CYC");
  EXPECT_STREQ(event_name(Event::FpOps), "PAPI_DP_OPS");
}

TEST(ProfilerTest, CallPathTree) {
  Profiler p;
  p.enter("step");
  p.enter("solve");
  p.exit(2.0);
  p.enter("solve");
  p.exit(3.0);
  p.exit(6.0);
  const auto flat = p.flat();
  ASSERT_EQ(flat.size(), 2u);
  // Sorted by exclusive: solve (5.0) before step (1.0 exclusive).
  EXPECT_EQ(flat[0].path, "step => solve");
  EXPECT_DOUBLE_EQ(flat[0].inclusive_s, 5.0);
  EXPECT_EQ(flat[0].calls, 2u);
  EXPECT_DOUBLE_EQ(flat[1].exclusive_s, 1.0);
}

TEST(ProfilerTest, PercentagesSumToHundred) {
  Profiler p;
  p.enter("a");
  p.exit(1.0);
  p.enter("b");
  p.exit(3.0);
  const auto flat = p.flat();
  double pct = 0.0;
  for (const auto& e : flat) pct += e.exclusive_pct;
  EXPECT_NEAR(pct, 100.0, 1e-9);
}

TEST(ProfilerTest, UnbalancedExitThrows) {
  Profiler p;
  EXPECT_THROW(p.exit(1.0), Error);
}

TEST(ProfilerTest, ReportContainsHeader) {
  Profiler p;
  p.enter("matvec");
  p.exit(1.0);
  const std::string r = p.report();
  EXPECT_NE(r.find("%Time"), std::string::npos);
  EXPECT_NE(r.find("matvec"), std::string::npos);
}

TEST(ProfilerTest, ClearResets) {
  Profiler p;
  p.enter("x");
  p.exit(1.0);
  p.clear();
  EXPECT_TRUE(p.flat().empty());
  EXPECT_FALSE(p.open());
}

TEST(PerfStat, FormatsLikePerf) {
  PerfStatResult r;
  r.command = "v2d --steps 100";
  r.duration_seconds = 1.5;
  r.cpu_cycles = 2700000000ull;
  const std::string s = format_perf_stat(r);
  EXPECT_NE(s.find("Performance counter stats for 'v2d --steps 100'"),
            std::string::npos);
  EXPECT_NE(s.find("duration_time"), std::string::npos);
  EXPECT_NE(s.find("2,700,000,000"), std::string::npos);
  EXPECT_NE(s.find("1.500000000 seconds"), std::string::npos);
}

}  // namespace
}  // namespace v2d::perfmon
