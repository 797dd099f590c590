/// \file test_sim.cpp
/// \brief Unit tests for the A64FX machine model, cache model, cost model
/// and ledger.

#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "support/error.hpp"
#include "sim/cost_model.hpp"
#include "sim/ledger.hpp"
#include "sim/machine.hpp"

namespace v2d::sim {
namespace {

// --- machine -----------------------------------------------------------------

TEST(Machine, A64fxShape) {
  const MachineSpec m = MachineSpec::a64fx();
  EXPECT_EQ(m.lanes_f64(), 8u);
  EXPECT_EQ(m.cores_per_node(), 48u);
  EXPECT_EQ(m.l1.capacity_bytes, 64u * 1024);
  EXPECT_EQ(m.l2.capacity_bytes, 8u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(m.freq_hz, 1.8e9);
}

TEST(Machine, BandwidthSharingMonotone) {
  const MachineSpec m = MachineSpec::a64fx();
  for (auto level : {MemLevel::L2, MemLevel::HBM}) {
    double prev = m.bytes_per_cycle(level, 1);
    for (std::uint32_t s = 2; s <= 12; ++s) {
      const double cur = m.bytes_per_cycle(level, s);
      EXPECT_LE(cur, prev + 1e-12) << mem_level_name(level) << " s=" << s;
      prev = cur;
    }
  }
}

TEST(Machine, L1IsPrivate) {
  const MachineSpec m = MachineSpec::a64fx();
  EXPECT_DOUBLE_EQ(m.bytes_per_cycle(MemLevel::L1, 1),
                   m.bytes_per_cycle(MemLevel::L1, 12));
}

TEST(Machine, HbmSingleCoreCap) {
  const MachineSpec m = MachineSpec::a64fx();
  // One core cannot pull the whole CMG's HBM bandwidth.
  const double one = m.bytes_per_cycle(MemLevel::HBM, 1);
  const double aggregate = m.hbm_bw_per_cmg / m.freq_hz;
  EXPECT_LT(one, aggregate);
}

TEST(Machine, OpClassNamesDistinct) {
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    EXPECT_STRNE(op_class_name(static_cast<OpClass>(i)), "?");
  }
}

// --- kernel counts -------------------------------------------------------------

TEST(KernelCounts, FlopsCountsFmaTwice) {
  KernelCounts c;
  c.record(OpClass::FlopFma, 8, 2);  // 2 instr, 8 lanes each
  c.record(OpClass::FlopAdd, 8, 1);
  EXPECT_EQ(c.flops(), 2u * 16 + 8);
  EXPECT_EQ(c.total_instr(), 3u);
}

TEST(KernelCounts, Accumulate) {
  KernelCounts a, b;
  a.record(OpClass::LoadContig, 4);
  a.bytes_read = 32;
  b.record(OpClass::LoadContig, 8);
  b.bytes_read = 64;
  a += b;
  EXPECT_EQ(a.lanes[static_cast<std::size_t>(OpClass::LoadContig)], 12u);
  EXPECT_EQ(a.bytes_moved(), 96u);
}

// --- cache ----------------------------------------------------------------------

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(1024, 64, 2);
  EXPECT_FALSE(c.access(0, false));
  EXPECT_TRUE(c.access(8, false));  // same line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, LruEviction) {
  // 2-way, 64B lines, 2 sets (256 B total).
  SetAssocCache c(256, 64, 2);
  // Three lines mapping to set 0: line addresses 0, 128, 256.
  c.access(0, false);
  c.access(128, false);
  c.access(0, false);    // touch 0 so 128 is LRU
  c.access(256, false);  // evicts 128
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(128, false));  // was evicted
}

TEST(Cache, DirtyWritebackCounted) {
  SetAssocCache c(256, 64, 2);
  c.access(0, true);     // dirty
  c.access(128, false);
  c.access(256, false);  // evicts LRU (0, dirty) -> writeback
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, RangeTouchesEveryLine) {
  SetAssocCache c(4096, 64, 4);
  EXPECT_EQ(c.access_range(0, 640, false), 0u);  // 10 cold lines
  EXPECT_EQ(c.misses(), 10u);
  EXPECT_EQ(c.access_range(0, 640, false), 10u);  // all hits
}

TEST(Cache, WorkingSetBeyondCapacityThrashes) {
  SetAssocCache c(1024, 64, 2);
  // Stream 4 KiB repeatedly: hit rate must stay low.
  for (int rep = 0; rep < 4; ++rep) c.access_range(0, 4096, false);
  EXPECT_LT(c.hit_rate(), 0.1);
}

TEST(Cache, BadGeometryRejected) {
  EXPECT_THROW(SetAssocCache(1000, 60, 2), Error);  // non-pow2 line
}

TEST(CacheHierarchyTest, L2CatchesL1Misses) {
  CacheHierarchy h(MachineSpec::a64fx());
  h.access_range(0, 128 * 1024, false);  // 128 KiB: exceeds L1, fits L2
  h.access_range(0, 128 * 1024, false);
  EXPECT_GT(h.l2().hits(), 0u);
  EXPECT_EQ(h.memory_bytes(), h.l1().line_bytes() * h.l2().misses());
}

TEST(Classifier, PicksLevels) {
  const MachineSpec m = MachineSpec::a64fx();
  EXPECT_EQ(classify_working_set(16 * 1024, m, 1), MemLevel::L1);
  EXPECT_EQ(classify_working_set(1024 * 1024, m, 1), MemLevel::L2);
  EXPECT_EQ(classify_working_set(64ull * 1024 * 1024, m, 1), MemLevel::HBM);
}

TEST(Classifier, SharingShrinksL2Share) {
  const MachineSpec m = MachineSpec::a64fx();
  // 1 MiB fits an exclusive L2 but not a 12-way-shared one.
  EXPECT_EQ(classify_working_set(1024 * 1024, m, 1), MemLevel::L2);
  EXPECT_EQ(classify_working_set(1024 * 1024, m, 12), MemLevel::HBM);
}

// --- cost model -------------------------------------------------------------------

KernelCounts streaming_kernel(std::uint64_t n, unsigned lanes) {
  // daxpy-like: 2 loads, 1 fma, 1 store per element.
  KernelCounts c;
  const std::uint64_t strips = (n + lanes - 1) / lanes;
  c.record(OpClass::LoadContig, lanes, 2 * strips);
  c.record(OpClass::FlopFma, lanes, strips);
  c.record(OpClass::StoreContig, lanes, strips);
  c.record(OpClass::Branch, lanes, strips);
  c.bytes_read = 2 * n * 8;
  c.bytes_written = n * 8;
  c.elements = n;
  c.calls = 1;
  return c;
}

TEST(CostModel, SveBeatsScalarOnComputeBound) {
  const CostModel cm(MachineSpec::a64fx());
  const CodegenFactors f;
  const auto counts = streaming_kernel(4096, 8);
  const double sve = cm.compute_cycles(counts, ExecMode::SVE, f);
  const double scalar = cm.compute_cycles(counts, ExecMode::Scalar, f);
  EXPECT_LT(sve, scalar);
  EXPECT_GT(scalar / sve, 4.0);  // 8 lanes, port-limited
}

TEST(CostModel, PartialVectorizationInterpolates) {
  const CostModel cm(MachineSpec::a64fx());
  CodegenFactors full, half, none;
  half.vectorized_fraction = 0.5;
  none.vectorized_fraction = 0.0;
  const auto counts = streaming_kernel(4096, 8);
  const double t_full = cm.compute_cycles(counts, ExecMode::SVE, full);
  const double t_half = cm.compute_cycles(counts, ExecMode::SVE, half);
  const double t_none = cm.compute_cycles(counts, ExecMode::SVE, none);
  EXPECT_LT(t_full, t_half);
  EXPECT_LT(t_half, t_none);
  EXPECT_NEAR(t_half, 0.5 * (t_full + t_none), 1e-9);
}

TEST(CostModel, MemoryBoundWhenWorkingSetInHbm) {
  const CostModel cm(MachineSpec::a64fx());
  const CodegenFactors f;
  const auto counts = streaming_kernel(1 << 20, 8);
  const auto cost =
      cm.price(counts, ExecMode::SVE, f, 64ull * 1024 * 1024, 12);
  EXPECT_TRUE(cost.memory_bound());
  EXPECT_EQ(cost.level, MemLevel::HBM);
}

TEST(CostModel, FasterCacheLevelsCheaper) {
  const CostModel cm(MachineSpec::a64fx());
  const CodegenFactors f;
  const auto counts = streaming_kernel(1 << 14, 8);
  const auto l1 = cm.price(counts, ExecMode::SVE, f, 16 * 1024, 1);
  const auto l2 = cm.price(counts, ExecMode::SVE, f, 1024 * 1024, 1);
  const auto hbm = cm.price(counts, ExecMode::SVE, f, 64ull << 20, 1);
  EXPECT_LE(l1.total_cycles(), l2.total_cycles());
  EXPECT_LE(l2.total_cycles(), hbm.total_cycles());
}

TEST(CostModel, CpiScaleSlowsVectorSide) {
  const CostModel cm(MachineSpec::a64fx());
  CodegenFactors bad;
  bad.scale_all(3.0);
  const CodegenFactors good;
  const auto counts = streaming_kernel(4096, 8);
  EXPECT_GT(cm.compute_cycles(counts, ExecMode::SVE, bad),
            cm.compute_cycles(counts, ExecMode::SVE, good));
  // Scalar side is controlled by scalar_cpi_scale, not the vector scales.
  EXPECT_DOUBLE_EQ(cm.compute_cycles(counts, ExecMode::Scalar, bad),
                   cm.compute_cycles(counts, ExecMode::Scalar, good));
}

TEST(CostModel, BandwidthEfficiencyScalesMemorySide) {
  const CostModel cm(MachineSpec::a64fx());
  CodegenFactors f;
  const auto counts = streaming_kernel(1 << 18, 8);
  const auto base = cm.price(counts, ExecMode::SVE, f, 8 << 20, 1);
  f.bandwidth_efficiency = 0.5;
  const auto slow = cm.price(counts, ExecMode::SVE, f, 8 << 20, 1);
  EXPECT_NEAR(slow.memory_cycles, 2.0 * base.memory_cycles, 1e-6);
}

TEST(CostModel, SecondsUsesFrequency) {
  const CostModel cm(MachineSpec::a64fx());
  EXPECT_DOUBLE_EQ(cm.seconds(1.8e9), 1.0);
}

// --- ledger ------------------------------------------------------------------------

TEST(Ledger, AccumulatesRegions) {
  CostLedger l;
  CostBreakdown cost;
  cost.compute_cycles = 100;
  cost.memory_cycles = 50;
  cost.overhead_cycles = 10;
  KernelCounts c;
  c.record(OpClass::FlopFma, 8, 10);
  l.add_kernel(Region::Matvec, c, cost);
  l.add_kernel(Region::Matvec, c, cost);
  EXPECT_EQ(l.at("matvec").counts.flops(), 2u * 160);
  EXPECT_DOUBLE_EQ(l.at("matvec").total_cycles, 2 * 110.0);
  EXPECT_DOUBLE_EQ(l.total_cycles(), 220.0);
}

TEST(Ledger, CommBookkeeping) {
  CostLedger l;
  l.add_comm(Region::MpiHalo, 1.5e-6, 4, 4096);
  l.add_comm(Region::MpiHalo, 0.5e-6, 2, 1024);
  EXPECT_DOUBLE_EQ(l.at("mpi_halo").comm_seconds, 2.0e-6);
  EXPECT_EQ(l.at("mpi_halo").comm_messages, 6u);
  EXPECT_DOUBLE_EQ(l.total_comm_seconds(), 2.0e-6);
}

TEST(Ledger, MergeAndSort) {
  CostLedger a, b;
  CostBreakdown big, small;
  big.compute_cycles = 1000;
  small.compute_cycles = 1;
  a.add_kernel(Region::Xpby, KernelCounts{}, big);
  b.add_kernel(Region::Axpy, KernelCounts{}, small);
  a.merge(b);
  const auto order = a.by_cost();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "xpby");
}

TEST(Ledger, UnknownRegionThrows) {
  const CostLedger l;
  EXPECT_THROW(l.at("nope"), Error);
}

TEST(Ledger, TotalSecondsCombinesComputeAndComm) {
  CostLedger l;
  CostBreakdown cost;
  cost.compute_cycles = 1.8e9;  // 1 s at 1.8 GHz
  l.add_kernel(Region::Matvec, KernelCounts{}, cost);
  l.add_comm(Region::MpiAllreduce, 0.5, 1, 8);
  EXPECT_NEAR(l.total_seconds(1.8e9), 1.5, 1e-12);
}

}  // namespace
}  // namespace v2d::sim
