#include "mpisim/exec_model.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace v2d::mpisim {

namespace {
/// Halo pack/unpack bandwidth: contiguous rows stream near memcpy speed;
/// column (strided) halos gather one element per cache line and run an
/// order of magnitude slower.  Charged to both endpoints of a transfer.
constexpr double kPackBwContig = 6.0e9;   // bytes/s
constexpr double kPackBwStrided = 1.5e9;  // bytes/s

double pack_seconds(const Transfer& t) {
  return static_cast<double>(t.bytes) /
         (t.strided ? kPackBwStrided : kPackBwContig);
}
}  // namespace

ExecModel::ExecModel(sim::MachineSpec machine,
                     std::vector<compiler::CodegenProfile> profiles,
                     int nranks)
    : cost_(std::move(machine)),
      profiles_(std::move(profiles)),
      placement_(nranks, static_cast<int>(cost_.machine().cores_per_cmg),
                 static_cast<int>(cost_.machine().cmgs_per_node)) {
  V2D_REQUIRE(!profiles_.empty(), "need at least one compiler profile");
  state_.reserve(profiles_.size());
  for (const auto& p : profiles_) {
    state_.push_back(PerProfile{
        NetCost(p.mpi(), placement_),
        std::vector<double>(static_cast<std::size_t>(nranks), 0.0),
        std::vector<sim::CostLedger>(static_cast<std::size_t>(nranks)),
    });
  }
}

void ExecModel::kernel(int rank, compiler::KernelFamily family,
                       sim::Region region, const sim::KernelCounts& counts,
                       std::uint64_t working_set_bytes) {
  const auto sharers =
      static_cast<std::uint32_t>(placement_.ranks_on_cmg(rank));
  for (std::size_t p = 0; p < profiles_.size(); ++p) {
    const auto& prof = profiles_[p];
    const sim::CostBreakdown cost =
        cost_.price(counts, prof.mode(), prof.factors(family),
                    working_set_bytes, sharers);
    auto& st = state_[p];
    st.clock[static_cast<std::size_t>(rank)] +=
        cost_.seconds(cost.total_cycles());
    st.ledger[static_cast<std::size_t>(rank)].add_kernel(region, counts, cost);
  }
}

void ExecModel::exchange(const std::vector<Transfer>& transfers,
                         sim::Region region) {
  for (auto& st : state_) {
    // Phase start per rank: one round of neighbour-max over the transfer
    // graph (nonblocking sends/recvs cannot complete before both ends
    // have entered the exchange).
    const std::vector<double> snapshot = st.clock;
    std::vector<double> start = snapshot;
    std::vector<double> busy(snapshot.size(), 0.0);
    std::vector<std::uint64_t> msgs(snapshot.size(), 0);
    std::vector<std::uint64_t> bytes(snapshot.size(), 0);
    for (const Transfer& t : transfers) {
      V2D_REQUIRE(t.src != t.dst, "self-transfer in exchange");
      start[static_cast<std::size_t>(t.src)] =
          std::max(start[static_cast<std::size_t>(t.src)],
                   snapshot[static_cast<std::size_t>(t.dst)]);
      start[static_cast<std::size_t>(t.dst)] =
          std::max(start[static_cast<std::size_t>(t.dst)],
                   snapshot[static_cast<std::size_t>(t.src)]);
      const double wire = st.net.pt2pt(t.src, t.dst, t.bytes);
      const double pack = pack_seconds(t);
      // Nonblocking exchange: a rank's sends and receives overlap; the
      // receiver pays the wire time plus unpack, the sender pays pack and
      // half the wire (injection).
      busy[static_cast<std::size_t>(t.dst)] =
          std::max(busy[static_cast<std::size_t>(t.dst)], wire + pack);
      busy[static_cast<std::size_t>(t.src)] += 0.5 * wire + pack;
      // Both endpoints participate in the message: the sender's ledger
      // counts the bytes it injected, the receiver's the bytes that landed
      // in its halo.  (Counting only the sender undercounted every rank's
      // received volume.)
      msgs[static_cast<std::size_t>(t.src)] += 1;
      bytes[static_cast<std::size_t>(t.src)] += t.bytes;
      msgs[static_cast<std::size_t>(t.dst)] += 1;
      bytes[static_cast<std::size_t>(t.dst)] += t.bytes;
    }
    for (std::size_t r = 0; r < st.clock.size(); ++r) {
      const double wait = start[r] - snapshot[r];
      const double total = wait + busy[r];
      if (total > 0.0 || msgs[r] > 0) {
        st.clock[r] = start[r] + busy[r];
        st.ledger[r].add_comm(region, total, msgs[r], bytes[r]);
      }
    }
  }
}

void ExecModel::allreduce(std::uint64_t bytes, sim::Region region) {
  // A 1-rank "allreduce" is a no-op (NetCost prices it at zero): recording
  // a ledger entry carrying the payload bytes would put phantom
  // communication volume into single-rank breakdowns.
  if (placement_.nranks() <= 1) return;
  for (auto& st : state_) {
    const double t_max = *std::max_element(st.clock.begin(), st.clock.end());
    const double done = t_max + st.net.allreduce(bytes);
    for (std::size_t r = 0; r < st.clock.size(); ++r) {
      const double delta = done - st.clock[r];
      st.ledger[r].add_comm(region, delta, 1u, bytes);
      st.clock[r] = done;
    }
  }
}

double ExecModel::elapsed(std::size_t p) const {
  const auto& clock = state_.at(p).clock;
  return *std::max_element(clock.begin(), clock.end());
}

double ExecModel::rank_time(std::size_t p, int rank) const {
  return state_.at(p).clock.at(static_cast<std::size_t>(rank));
}

const sim::CostLedger& ExecModel::ledger(std::size_t p, int rank) const {
  return state_.at(p).ledger.at(static_cast<std::size_t>(rank));
}

sim::CostLedger ExecModel::merged_ledger(std::size_t p) const {
  sim::CostLedger out;
  for (const auto& l : state_.at(p).ledger) out.merge(l);
  return out;
}

void ExecModel::restore_rank(std::size_t p, int rank, double clock,
                             sim::CostLedger ledger) {
  auto& st = state_.at(p);
  st.clock.at(static_cast<std::size_t>(rank)) = clock;
  st.ledger.at(static_cast<std::size_t>(rank)) = std::move(ledger);
}

void ExecModel::reset() {
  for (auto& st : state_) {
    std::fill(st.clock.begin(), st.clock.end(), 0.0);
    for (auto& l : st.ledger) l.clear();
  }
}

}  // namespace v2d::mpisim
