/// \file test_cache_validation.cpp
/// \brief Cross-validation of the O(1) working-set classifier against the
/// trace-driven cache simulator.
///
/// The cost model classifies each kernel call's working set to a memory
/// level in O(1); the SetAssocCache/CacheHierarchy model replays actual
/// access streams. These tests check the two agree on streaming patterns
/// like the V2D kernels': when the classifier says "L1", the trace-driven
/// L1 must show high steady-state hit rates, and so on down the hierarchy.

#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "sim/machine.hpp"

namespace v2d::sim {
namespace {

/// Stream `arrays` disjoint buffers of `bytes_each` through the hierarchy
/// `passes` times (after a warm-up pass) and return the steady-state L1
/// and L2 hit rates over the measured passes.
std::pair<double, double> stream(const MachineSpec& m, int arrays,
                                 std::uint64_t bytes_each, int passes) {
  CacheHierarchy h(m);
  const std::uint64_t stride = 1ull << 30;  // keep buffers far apart
  auto one_pass = [&] {
    for (int a = 0; a < arrays; ++a) {
      h.access_range(a * stride, bytes_each, /*is_write=*/a == 0);
    }
  };
  one_pass();  // warm-up (cold misses)
  const std::uint64_t l1_h0 = h.l1().hits(), l1_a0 = h.l1().accesses();
  const std::uint64_t l2_h0 = h.l2().hits(), l2_a0 = h.l2().accesses();
  for (int p = 0; p < passes; ++p) one_pass();
  const double l1_rate =
      static_cast<double>(h.l1().hits() - l1_h0) /
      static_cast<double>(h.l1().accesses() - l1_a0);
  const std::uint64_t l2_acc = h.l2().accesses() - l2_a0;
  const double l2_rate =
      l2_acc ? static_cast<double>(h.l2().hits() - l2_h0) / l2_acc : 1.0;
  return {l1_rate, l2_rate};
}

class ClassifierVsTrace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierVsTrace, AgreeOnStreamingWorkingSets) {
  const MachineSpec m = MachineSpec::a64fx();
  const std::uint64_t total = GetParam();
  const int arrays = 4;
  const std::uint64_t per_array = total / arrays;
  const MemLevel predicted = classify_working_set(total, m, 1);
  const auto [l1_rate, l2_rate] = stream(m, arrays, per_array, 3);
  switch (predicted) {
    case MemLevel::L1:
      EXPECT_GT(l1_rate, 0.9) << "classifier said L1 for " << total << " B";
      break;
    case MemLevel::L2:
      EXPECT_LT(l1_rate, 0.5) << "too big for L1 (" << total << " B)";
      EXPECT_GT(l2_rate, 0.9) << "classifier said L2 for " << total << " B";
      break;
    case MemLevel::HBM:
      EXPECT_LT(l2_rate, 0.5) << "classifier said HBM for " << total << " B";
      break;
    case MemLevel::kCount:
      FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, ClassifierVsTrace,
                         ::testing::Values(
                             // Comfortably inside each level (the
                             // classifier uses capacity boundaries; near
                             // the boundary conflict misses blur the
                             // answer, which is exactly why the cheap
                             // classifier is an approximation).
                             std::uint64_t{16} * 1024,        // L1
                             std::uint64_t{32} * 1024,        // L1
                             std::uint64_t{512} * 1024,       // L2
                             std::uint64_t{4} * 1024 * 1024,  // L2
                             std::uint64_t{32} * 1024 * 1024,   // HBM
                             std::uint64_t{128} * 1024 * 1024   // HBM
                             ));

TEST(ClassifierVsTrace, SharedL2ShrinksEffectiveCapacity) {
  // 1 MiB/rank fits an exclusive L2; with 12 ranks, the classifier demotes
  // to HBM — and the trace model agrees if we interleave 12 such streams
  // through one L2.
  const MachineSpec m = MachineSpec::a64fx();
  EXPECT_EQ(classify_working_set(1 << 20, m, 1), MemLevel::L2);
  EXPECT_EQ(classify_working_set(1 << 20, m, 12), MemLevel::HBM);

  CacheHierarchy h(m);
  const std::uint64_t stride = 1ull << 30;
  auto pass = [&] {
    for (int r = 0; r < 12; ++r) h.access_range(r * stride, 1 << 20, false);
  };
  pass();
  const std::uint64_t h0 = h.l2().hits(), a0 = h.l2().accesses();
  for (int p = 0; p < 2; ++p) pass();
  const double l2_rate = static_cast<double>(h.l2().hits() - h0) /
                         static_cast<double>(h.l2().accesses() - a0);
  EXPECT_LT(l2_rate, 0.5);  // 12 MiB of live streams thrash the 8 MiB L2
}

TEST(ClassifierVsTrace, MatvecWorkingSetsAcrossTableOneTopologies) {
  // The Table I working sets: 7 tile-shaped arrays of the 200×100×2
  // problem. P = 1 must classify L2 (2.24 MiB), P = 40 with 10 CMG
  // sharers still L2 (56 KiB each but a 0.67 MiB share), never HBM.
  const MachineSpec m = MachineSpec::a64fx();
  const std::uint64_t zones = 200 * 100 * 2;
  for (const int p : {1, 10, 20, 25, 40, 50}) {
    const std::uint64_t ws = 7 * zones / p * 8;
    const int sharers = p >= 4 ? std::min(12, (p + 3) / 4) : 1;
    const MemLevel level =
        classify_working_set(ws, m, static_cast<std::uint32_t>(sharers));
    EXPECT_NE(level, MemLevel::HBM) << "P=" << p;
    if (p == 1) {
      EXPECT_EQ(level, MemLevel::L2);
    }
  }
}

}  // namespace
}  // namespace v2d::sim
