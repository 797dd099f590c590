/// \file test_mpisim.cpp
/// \brief Unit tests for topology, placement, network cost model,
/// execution pricer and the message-queue simulator.

#include <gtest/gtest.h>

#include "compiler/profile.hpp"
#include "support/error.hpp"
#include "mpisim/exec_model.hpp"
#include "mpisim/msgqueue.hpp"
#include "mpisim/netcost.hpp"
#include "mpisim/placement.hpp"
#include "mpisim/topology.hpp"

namespace v2d::mpisim {
namespace {

// --- topology ---------------------------------------------------------------

TEST(Topology, RankCoordinateRoundTrip) {
  const CartTopology t(5, 4);
  EXPECT_EQ(t.size(), 20);
  for (int r = 0; r < t.size(); ++r) {
    EXPECT_EQ(t.rank_of(t.px1_of(r), t.px2_of(r)), r);
  }
}

TEST(Topology, NeighborsAndBoundaries) {
  const CartTopology t(3, 2);
  // Corner rank 0: no west, no south.
  EXPECT_FALSE(t.neighbor(0, Dir::West).has_value());
  EXPECT_FALSE(t.neighbor(0, Dir::South).has_value());
  EXPECT_EQ(t.neighbor(0, Dir::East).value(), 1);
  EXPECT_EQ(t.neighbor(0, Dir::North).value(), 3);
  // Interior-ish rank 1 has 3 neighbours in a 3x2 grid.
  EXPECT_EQ(t.degree(1), 3);
  EXPECT_EQ(t.degree(0), 2);
}

TEST(Topology, OppositeDirections) {
  EXPECT_EQ(opposite(Dir::West), Dir::East);
  EXPECT_EQ(opposite(Dir::North), Dir::South);
}

TEST(Topology, NeighborSymmetry) {
  const CartTopology t(4, 3);
  for (int r = 0; r < t.size(); ++r) {
    for (int d = 0; d < kNumDirs; ++d) {
      const auto dir = static_cast<Dir>(d);
      if (const auto nb = t.neighbor(r, dir)) {
        EXPECT_EQ(t.neighbor(*nb, opposite(dir)).value(), r);
      }
    }
  }
}

// --- placement --------------------------------------------------------------

TEST(PlacementTest, ScatterAcrossCmgs) {
  const Placement p(10);  // one A64FX node
  // Cyclic scatter: first four ranks land on distinct CMGs.
  EXPECT_EQ(p.cmg_of(0), 0);
  EXPECT_EQ(p.cmg_of(1), 1);
  EXPECT_EQ(p.cmg_of(2), 2);
  EXPECT_EQ(p.cmg_of(3), 3);
  EXPECT_EQ(p.cmg_of(4), 0);
  // 10 ranks over 4 CMGs: shares are 3,3,2,2.
  EXPECT_EQ(p.ranks_on_cmg(0), 3);
  EXPECT_EQ(p.ranks_on_cmg(1), 3);
  EXPECT_EQ(p.ranks_on_cmg(2), 2);
  EXPECT_EQ(p.ranks_on_cmg(3), 2);
}

TEST(PlacementTest, NodeBoundaries) {
  const Placement p(50);  // spills onto a second node at rank 48
  EXPECT_EQ(p.node_of(47), 0);
  EXPECT_EQ(p.node_of(48), 1);
  EXPECT_EQ(p.nodes_used(), 2);
  EXPECT_TRUE(p.same_node(0, 47));
  EXPECT_FALSE(p.same_node(0, 48));
  // Second node holds only 2 ranks.
  EXPECT_EQ(p.ranks_on_cmg(48), 1);
}

TEST(PlacementTest, FullNodeSharesEvenly) {
  const Placement p(48);
  for (int r = 0; r < 48; ++r) EXPECT_EQ(p.ranks_on_cmg(r), 12);
}

// --- netcost ----------------------------------------------------------------

compiler::MpiStackModel test_stack() {
  compiler::MpiStackModel s;
  s.name = "test";
  s.latency_intra_node_s = 1e-6;
  s.latency_inter_node_s = 2e-6;
  s.bandwidth_Bps = 1e9;
  s.allreduce_stage_overhead_s = 0.5e-6;
  s.per_rank_overhead_s = 0.1e-6;
  return s;
}

TEST(NetCostTest, EagerBoundaryIsInclusive) {
  // Exactly kEagerLimit bytes still prices eager; one byte more adds the
  // rendezvous handshake round-trip — intra- and inter-node.
  const Placement p(50);  // ranks 0,1 share node 0; rank 49 is on node 1
  const NetCost n(test_stack(), p);
  const double bw_byte = 1.0 / test_stack().bandwidth_Bps;
  for (const int dst : {1, 49}) {
    const bool inter = !p.same_node(0, dst);
    const double lat = inter ? test_stack().latency_inter_node_s
                             : test_stack().latency_intra_node_s;
    const double at_limit = n.pt2pt(0, dst, NetCost::kEagerLimit);
    const double over_limit = n.pt2pt(0, dst, NetCost::kEagerLimit + 1);
    EXPECT_DOUBLE_EQ(at_limit,
                     lat + static_cast<double>(NetCost::kEagerLimit) *
                               bw_byte);
    EXPECT_DOUBLE_EQ(over_limit,
                     2.0 * lat +
                         static_cast<double>(NetCost::kEagerLimit + 1) *
                             bw_byte);
  }
}

TEST(NetCostTest, AllreduceSplitsStageLatencyByStageIndex) {
  // 96 ranks over 2 nodes of 48 cores: 7 recursive-doubling stages, of
  // which the first floor(log2(48)) = 5 exchange with partners inside the
  // node (distance 1..16) and only the last 2 cross the fabric.
  const compiler::MpiStackModel s = test_stack();
  const Placement p(96);
  ASSERT_EQ(p.nodes_used(), 2);
  const NetCost n(s, p);
  const std::uint64_t bytes = 64;
  const int stages = 7;
  const int intra = 5;
  const double per_stage = static_cast<double>(bytes) / s.bandwidth_Bps +
                           s.allreduce_stage_overhead_s;
  const double progress =
      s.per_rank_overhead_s * 96.0 * 96.0 / p.cores_per_node();
  const double expected = stages * per_stage +
                          intra * s.latency_intra_node_s +
                          (stages - intra) * s.latency_inter_node_s +
                          progress;
  EXPECT_DOUBLE_EQ(n.allreduce(bytes), expected);
  // The split must price below the old all-stages-inter-node model and
  // above a hypothetical all-intra-node one.
  EXPECT_LT(n.allreduce(bytes),
            stages * (per_stage + s.latency_inter_node_s) + progress);
  EXPECT_GT(n.allreduce(bytes),
            stages * (per_stage + s.latency_intra_node_s) + progress);
}

TEST(NetCostTest, SingleNodeAllreduceAllIntraNode) {
  // All stages of a one-node job pay intra-node latency only.
  const compiler::MpiStackModel s = test_stack();
  const Placement p(32);
  ASSERT_EQ(p.nodes_used(), 1);
  const NetCost n(s, p);
  const int stages = 5;
  const double per_stage = 16.0 / s.bandwidth_Bps +
                           s.allreduce_stage_overhead_s +
                           s.latency_intra_node_s;
  const double progress =
      s.per_rank_overhead_s * 32.0 * 32.0 / p.cores_per_node();
  EXPECT_DOUBLE_EQ(n.allreduce(16), stages * per_stage + progress);
}

TEST(NetCostTest, EagerVsRendezvous) {
  const Placement p(2);
  const NetCost n(test_stack(), p);
  const double small = n.pt2pt(0, 1, 1024);
  const double large = n.pt2pt(0, 1, NetCost::kEagerLimit + 1);
  // Rendezvous pays an extra handshake latency beyond the bandwidth term.
  const double bw_delta =
      (NetCost::kEagerLimit + 1.0 - 1024.0) / test_stack().bandwidth_Bps;
  EXPECT_GT(large - small, bw_delta + 0.9e-6);
}

TEST(NetCostTest, InterNodeCostsMore) {
  const Placement p(50);
  const NetCost n(test_stack(), p);
  EXPECT_GT(n.pt2pt(0, 49, 1024), n.pt2pt(0, 1, 1024));
}

TEST(NetCostTest, AllreduceGrowsWithRanks) {
  double prev = 0.0;
  for (int ranks : {2, 4, 8, 16, 32}) {
    const Placement p(ranks);
    const NetCost n(test_stack(), p);
    const double t = n.allreduce(16);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(NetCostTest, SingleRankAllreduceFree) {
  const Placement p(1);
  const NetCost n(test_stack(), p);
  EXPECT_DOUBLE_EQ(n.allreduce(1024), 0.0);
}

TEST(NetCostTest, GangedCheaperThanSeparate) {
  // One allreduce of 3 doubles must beat three of 1 double (the paper's
  // ganging rationale).
  const Placement p(16);
  const NetCost n(test_stack(), p);
  EXPECT_LT(n.allreduce(24), 3.0 * n.allreduce(8));
}

// --- exec model -------------------------------------------------------------

std::vector<compiler::CodegenProfile> two_profiles() {
  return {compiler::cray_2103(), compiler::cray_2103().without_sve()};
}

sim::KernelCounts small_kernel() {
  sim::KernelCounts c;
  c.record(sim::OpClass::FlopFma, 8, 100);
  c.record(sim::OpClass::LoadContig, 8, 200);
  c.bytes_read = 200 * 64;
  c.calls = 1;
  return c;
}

TEST(ExecModelTest, KernelAdvancesOnlyThatRank) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 4);
  em.kernel(2, compiler::KernelFamily::Matvec, "matvec", small_kernel(),
            16 * 1024);
  EXPECT_GT(em.rank_time(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(em.rank_time(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(em.elapsed(0), em.rank_time(0, 2));
}

TEST(ExecModelTest, SveProfileFasterThanScalar) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 1);
  em.kernel(0, compiler::KernelFamily::Daxpy, "daxpy", small_kernel(),
            16 * 1024);
  EXPECT_LT(em.elapsed(0), em.elapsed(1));  // profile 0 = SVE
}

TEST(ExecModelTest, AllreduceSynchronizesClocks) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 4);
  em.kernel(1, compiler::KernelFamily::Matvec, "matvec", small_kernel(),
            16 * 1024);
  em.allreduce(16, sim::Region::MpiAllreduce);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(em.rank_time(0, r), em.elapsed(0));
  }
  EXPECT_GT(em.merged_ledger(0).at("mpi_allreduce").comm_seconds, 0.0);
}

TEST(ExecModelTest, ExchangeChargesBothEnds) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em.exchange({Transfer{0, 1, 4096, false}}, sim::Region::MpiHalo);
  EXPECT_GT(em.rank_time(0, 0), 0.0);
  EXPECT_GT(em.rank_time(0, 1), 0.0);
}

TEST(ExecModelTest, ExchangeLedgersCountReceivedVolume) {
  // One 0→1 transfer: the receiver's ledger must carry the message and
  // its bytes too, not only the sender's (received halo volume used to
  // vanish from per-rank breakdowns).
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em.exchange({Transfer{0, 1, 4096, false}}, sim::Region::MpiHalo);
  for (const int r : {0, 1}) {
    const auto& entry = em.ledger(0, r).at("mpi_halo");
    EXPECT_EQ(entry.comm_messages, 1u) << "rank " << r;
    EXPECT_EQ(entry.comm_bytes, 4096u) << "rank " << r;
  }
  // A bidirectional pair: each rank sent one and received one message.
  ExecModel em2(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em2.exchange({Transfer{0, 1, 4096, false}, Transfer{1, 0, 2048, false}},
               sim::Region::MpiHalo);
  for (const int r : {0, 1}) {
    const auto& entry = em2.ledger(0, r).at("mpi_halo");
    EXPECT_EQ(entry.comm_messages, 2u) << "rank " << r;
    EXPECT_EQ(entry.comm_bytes, 4096u + 2048u) << "rank " << r;
  }
}

TEST(ExecModelTest, SingleRankAllreduceLeavesLedgerClean) {
  // NetCost::allreduce is zero at one rank; recording a payload-carrying
  // ledger entry anyway put phantom bytes into single-rank breakdowns.
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 1);
  em.allreduce(1024, sim::Region::MpiAllreduce);
  EXPECT_FALSE(em.ledger(0, 0).has("mpi_allreduce"));
  EXPECT_DOUBLE_EQ(em.elapsed(0), 0.0);
  // Multi-rank jobs still record exactly one entry per rank per call.
  ExecModel em2(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em2.allreduce(1024, sim::Region::MpiAllreduce);
  for (const int r : {0, 1}) {
    const auto& entry = em2.ledger(0, r).at("mpi_allreduce");
    EXPECT_EQ(entry.comm_messages, 1u);
    EXPECT_EQ(entry.comm_bytes, 1024u);
  }
}

TEST(ExecModelTest, StridedTransfersCostMore) {
  ExecModel a(sim::MachineSpec::a64fx(), two_profiles(), 2);
  ExecModel b(sim::MachineSpec::a64fx(), two_profiles(), 2);
  a.exchange({Transfer{0, 1, 4096, false}}, sim::Region::MpiHalo);
  b.exchange({Transfer{0, 1, 4096, true}}, sim::Region::MpiHalo);
  EXPECT_GT(b.elapsed(0), a.elapsed(0));
}

TEST(ExecModelTest, ExchangeWaitsForLateNeighbour) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em.kernel(1, compiler::KernelFamily::Matvec, "matvec", small_kernel(),
            16 * 1024);
  const double t1 = em.rank_time(0, 1);
  em.exchange({Transfer{1, 0, 1024, false}}, sim::Region::MpiHalo);
  // Rank 0 cannot finish the exchange before rank 1 even arrived.
  EXPECT_GT(em.rank_time(0, 0), t1);
}

TEST(ExecModelTest, ResetClearsState) {
  ExecModel em(sim::MachineSpec::a64fx(), two_profiles(), 2);
  em.kernel(0, compiler::KernelFamily::Matvec, "matvec", small_kernel(),
            1024);
  em.reset();
  EXPECT_DOUBLE_EQ(em.elapsed(0), 0.0);
  EXPECT_TRUE(em.merged_ledger(0).regions().empty());
}

// --- msgqueue -----------------------------------------------------------------

NetCost simple_net(int ranks) { return NetCost(test_stack(), Placement(ranks)); }

TEST(MsgQueue, EagerSendCompletesEarly) {
  MsgQueueSim sim(simple_net(2), 2);
  const int s = sim.isend(0, 1, /*tag=*/7, 1024);
  const int r = sim.irecv(1, 0, 7);
  const double t_send = sim.wait(s);
  const double t_recv = sim.wait(r);
  EXPECT_LT(t_send, t_recv);  // sender only pays injection
  EXPECT_EQ(sim.pending(), 0);
}

TEST(MsgQueue, RendezvousBlocksSenderOnLateReceiver) {
  MsgQueueSim sim(simple_net(2), 2);
  const std::uint64_t big = NetCost::kEagerLimit * 4;
  const int s = sim.isend(0, 1, 0, big);
  sim.compute(1, 1.0);  // receiver shows up a second later
  const int r = sim.irecv(1, 0, 0);
  EXPECT_GT(sim.wait(s), 1.0);  // sender waited for the handshake
  sim.wait(r);
}

TEST(MsgQueue, EagerReceiverDoesNotBlockSender) {
  MsgQueueSim sim(simple_net(2), 2);
  const int s = sim.isend(0, 1, 0, 512);
  sim.compute(1, 1.0);
  const int r = sim.irecv(1, 0, 0);
  EXPECT_LT(sim.wait(s), 1e-3);  // sender long gone
  EXPECT_GE(sim.wait(r), 1.0);
}

TEST(MsgQueue, FifoMatchingPerTag) {
  MsgQueueSim sim(simple_net(2), 2);
  const int s1 = sim.isend(0, 1, 0, 8);
  sim.compute(0, 0.5);
  const int s2 = sim.isend(0, 1, 0, 8);
  const int r1 = sim.irecv(1, 0, 0);
  const int r2 = sim.irecv(1, 0, 0);
  // First recv matches the first send (posted at t=0) and completes well
  // before the second send was even posted; the second completes after.
  const double t1 = sim.wait(r1);
  const double t2 = sim.wait(r2);
  EXPECT_LT(t1, 0.5);
  EXPECT_GE(t2, 0.5);
  sim.wait(s1);
  sim.wait(s2);
}

TEST(MsgQueue, UnmatchedWaitIsDeadlock) {
  MsgQueueSim sim(simple_net(2), 2);
  const int r = sim.irecv(1, 0, 0);
  EXPECT_THROW(sim.wait(r), Error);
}

TEST(MsgQueue, WaitAllDrainsEverything) {
  MsgQueueSim sim(simple_net(4), 4);
  for (int r = 1; r < 4; ++r) {
    sim.isend(0, r, r, 256);
    sim.irecv(r, 0, r);
  }
  sim.wait_all();
  EXPECT_EQ(sim.pending(), 0);
  for (int r = 1; r < 4; ++r) EXPECT_GT(sim.clock(r), 0.0);
}

TEST(MsgQueue, AgreesWithAnalyticOrderOfMagnitude) {
  // Cross-check: a single eager message should cost about the analytic
  // pt2pt time.
  MsgQueueSim sim(simple_net(2), 2);
  const NetCost net = simple_net(2);
  const int s = sim.isend(0, 1, 0, 4096);
  const int r = sim.irecv(1, 0, 0);
  sim.wait(s);
  const double t = sim.wait(r);
  EXPECT_NEAR(t, net.pt2pt(0, 1, 4096), 1e-9);
}

}  // namespace
}  // namespace v2d::mpisim
