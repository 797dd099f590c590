#pragma once
/// \file planner.hpp
/// \brief Greedy fusion planner: Chain IR → executable FusionPlan.
///
/// The planner walks a Chain front-to-back and greedily appends nodes to
/// the current fused group while that stays legal:
///
///   - elementwise → elementwise: always fuses (producer values stay in
///     registers; temporaries never touch memory);
///   - elementwise → reduction tail: a Dot joins the sweep as a predicated
///     FMA chain plus one horizontal reduce in the group epilogue, and the
///     numerical result is produced by an exact (ExactSum) tail over the
///     operands' memory images after the sweep — bit-identical to the
///     unfused DPROD/dot_ganged path;
///   - copy-elision: a Copy whose source is register-resident lowers to a
///     bare store (or to nothing when the destination is not live-out);
///   - a Stencil node only ever *heads* a group (its 10-load sweep is the
///     group's backbone);
///   - ILLEGAL: a node that writes a slot some Dot already in the group
///     reads (write-after-read across a reduction would change which values
///     the reduction sees) — the group is cut and the writer starts a new
///     one.  Likewise a Dot whose operand is an unstored temporary, or a
///     temporary read across a group boundary, is rejected outright.
///
/// Each group lowers to a GroupProgram: a register-allocated straight-line
/// step sequence (prologue broadcasts, a strip-body, reduction tails) that
/// both execution representations consume — the generic interpreter sweep
/// and the natively stamped template (fused_exec.cpp), whose recording is
/// a dry run of that same sweep.  Everything here is constexpr
/// so the built-in template set is planned at compile time; the same code
/// runs at runtime for ad-hoc chains (the tests).

#include <cstdint>

#include "linalg/fusion/ir.hpp"

namespace v2d::linalg::fusion {

inline constexpr std::size_t kMaxRegs = 32;
inline constexpr std::size_t kMaxSteps = 40;
inline constexpr std::size_t kMaxPre = kMaxScalars + kMaxAccs;
inline constexpr std::size_t kMaxGroups = kMaxNodes;

enum class StepKind : std::uint8_t {
  DupScal,  ///< pre:  reg[dst] ← broadcast scal[a]
  DupAcc,   ///< pre:  accreg[dst] ← broadcast 0
  Load,     ///< body: reg[dst] ← slot[a][i]
  Stencil,  ///< body: reg[dst] ← 5-pt row over slots a..a+7; reg[b] ← xc tap
  Fma,      ///< body: reg[dst] ← reg[a]·reg[b] + reg[c]
  Mul,      ///< body: reg[dst] ← reg[a]·reg[b]
  Sub,      ///< body: reg[dst] ← reg[a] − reg[b]
  Store,    ///< body: slot[dst][i] ← reg[a]
  DotAcc,   ///< body: accreg[dst] ← fma_merge(reg[a], reg[b], accreg[dst])
};

struct Step {
  StepKind k = StepKind::Load;
  std::uint8_t dst = 0;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;
};

/// Exact tail of one fused dot: after the sweep,
/// acc[acc] += Σ slot[slot_a][i] · slot[slot_b][i] through an ExactSum.
struct DotTail {
  std::uint8_t acc = 0;
  std::uint8_t slot_a = 0;
  std::uint8_t slot_b = 0;
};

/// One fused group, fully lowered.  `sig` is the fused-op signature: a hash
/// of the exact step encoding, keying both the native-stamp registry and
/// the count memo.
struct GroupProgram {
  std::uint8_t first_node = 0;
  std::uint8_t nnodes = 0;
  std::uint8_t npre = 0;
  std::uint8_t nsteps = 0;
  std::uint8_t ntails = 0;
  std::uint8_t nregs = 0;
  std::uint8_t naccs = 0;
  std::uint64_t sig = 0;
  Step pre[kMaxPre] = {};
  Step step[kMaxSteps] = {};
  DotTail tail[kMaxAccs] = {};
};

struct FusionPlan {
  std::uint8_t ngroups = 0;
  GroupProgram group[kMaxGroups] = {};
};

constexpr std::uint64_t group_signature(const GroupProgram& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto byte = [&h](std::uint8_t x) {
    h = (h ^ x) * 1099511628211ull;
  };
  const auto step = [&byte](const Step& s) {
    byte(static_cast<std::uint8_t>(s.k));
    byte(s.dst);
    byte(s.a);
    byte(s.b);
    byte(s.c);
  };
  byte(g.npre);
  for (std::uint8_t i = 0; i < g.npre; ++i) step(g.pre[i]);
  byte(g.nsteps);
  for (std::uint8_t i = 0; i < g.nsteps; ++i) step(g.step[i]);
  byte(g.ntails);
  for (std::uint8_t i = 0; i < g.ntails; ++i) {
    byte(g.tail[i].acc);
    byte(g.tail[i].slot_a);
    byte(g.tail[i].slot_b);
  }
  byte(g.naccs);
  byte(g.nregs);
  return h;
}

namespace detail {

/// May node `first+count` join the group [first, first+count)?
constexpr bool can_append(const Chain& c, std::uint8_t first,
                          std::uint8_t count) {
  if (first + count >= c.nnodes) return false;
  if (count >= kMaxNodes) return false;
  const PrimNode& cand = c.node[first + count];
  if (cand.op == Prim::Stencil) return false;  // stencil only heads a group
  if (cand.dst != kNone) {
    for (std::uint8_t k = first; k < first + count; ++k) {
      const PrimNode& nd = c.node[k];
      if (nd.op == Prim::Dot &&
          (nd.src0 == cand.dst || nd.src1 == cand.dst))
        return false;  // write-after-read across a reduction
    }
  }
  return true;
}

}  // namespace detail

/// Register-allocate and lower one group of chain nodes.
constexpr GroupProgram lower_group(const Chain& c, std::uint8_t first,
                                   std::uint8_t nnodes) {
  GroupProgram g{};
  g.first_node = first;
  g.nnodes = nnodes;

  std::uint8_t slot_reg[kMaxSlots] = {};
  std::uint8_t scal_reg[kMaxScalars] = {};
  bool written[kMaxSlots] = {};
  bool acc_used[kMaxAccs] = {};
  for (auto& r : slot_reg) r = kNone;
  for (auto& r : scal_reg) r = kNone;
  Step pre_scal[kMaxScalars] = {};
  std::uint8_t npre_scal = 0;

  const auto emit = [&g](Step s) {
    if (g.nsteps >= kMaxSteps) plan_fail("fused group exceeds step budget");
    g.step[g.nsteps++] = s;
  };
  const auto fresh = [&g]() -> std::uint8_t {
    if (g.nregs >= kMaxRegs) plan_fail("fused group exceeds register budget");
    return g.nregs++;
  };
  const auto fetch = [&](std::uint8_t slot) -> std::uint8_t {
    if (slot >= c.nslots) plan_fail("operand slot out of range");
    if (slot_reg[slot] != kNone) return slot_reg[slot];
    const std::uint8_t r = fresh();
    emit({StepKind::Load, r, slot, 0, 0});
    slot_reg[slot] = r;
    return r;
  };
  const auto scalar = [&](std::uint8_t sidx) -> std::uint8_t {
    if (sidx >= c.nscal) plan_fail("scalar index out of range");
    if (scal_reg[sidx] != kNone) return scal_reg[sidx];
    const std::uint8_t r = fresh();
    pre_scal[npre_scal++] = {StepKind::DupScal, r, sidx, 0, 0};
    scal_reg[sidx] = r;
    return r;
  };
  const auto write = [&](std::uint8_t slot, std::uint8_t r) {
    if (slot >= c.nslots) plan_fail("destination slot out of range");
    slot_reg[slot] = r;
    written[slot] = true;
    if (c.live_out[slot]) emit({StepKind::Store, slot, r, 0, 0});
  };

  for (std::uint8_t k = first; k < first + nnodes; ++k) {
    const PrimNode& nd = c.node[k];
    switch (nd.op) {
      case Prim::Axpy: {
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rs = scalar(nd.scal);
        const std::uint8_t rc = fetch(nd.src1);
        const std::uint8_t rd = fresh();
        emit({StepKind::Fma, rd, ra, rs, rc});
        write(nd.dst, rd);
        break;
      }
      case Prim::Mul: {
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rb = fetch(nd.src1);
        const std::uint8_t rd = fresh();
        emit({StepKind::Mul, rd, ra, rb, 0});
        write(nd.dst, rd);
        break;
      }
      case Prim::MulAdd: {
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rb = fetch(nd.src1);
        const std::uint8_t rc = fetch(nd.src2);
        const std::uint8_t rd = fresh();
        emit({StepKind::Fma, rd, ra, rb, rc});
        write(nd.dst, rd);
        break;
      }
      case Prim::SubFrom: {
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rb = fetch(nd.src1);
        const std::uint8_t rd = fresh();
        emit({StepKind::Sub, rd, ra, rb, 0});
        write(nd.dst, rd);
        break;
      }
      case Prim::Copy: {
        // Copy-elision: the destination inherits the source register; only
        // a live-out destination costs a store.
        const std::uint8_t ra = fetch(nd.src0);
        write(nd.dst, ra);
        break;
      }
      case Prim::Stencil: {
        if (k != first) plan_fail("stencil must head its group");
        if (nd.src0 + 8 > c.nslots) plan_fail("stencil slot pack out of range");
        const std::uint8_t rd = fresh();
        const std::uint8_t rt = fresh();
        emit({StepKind::Stencil, rd, nd.src0, rt, 0});
        // The center operand is now register-resident: a following self-dot
        // (w == xc) reuses the tap instead of reloading.
        slot_reg[nd.src0 + 5] = rt;
        write(nd.dst, rd);
        break;
      }
      case Prim::Dot: {
        // The exact tail reads the operands' memory images after the
        // sweep, so both must be pure inputs or live-out stores.
        if (written[nd.src0] && !c.live_out[nd.src0])
          plan_fail("reduction reads an unstored temporary");
        if (written[nd.src1] && !c.live_out[nd.src1])
          plan_fail("reduction reads an unstored temporary");
        if (nd.acc >= c.naccs || nd.acc >= kMaxAccs)
          plan_fail("accumulator index out of range");
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rb = fetch(nd.src1);
        acc_used[nd.acc] = true;
        emit({StepKind::DotAcc, nd.acc, ra, rb, 0});
        if (g.ntails >= kMaxAccs) plan_fail("reduction tail overflow");
        g.tail[g.ntails++] = {nd.acc, nd.src0, nd.src1};
        break;
      }
    }
  }

  for (std::uint8_t i = 0; i < npre_scal; ++i) g.pre[g.npre++] = pre_scal[i];
  for (std::uint8_t a = 0; a < kMaxAccs; ++a) {
    if (!acc_used[a]) continue;
    g.pre[g.npre++] = {StepKind::DupAcc, a, 0, 0, 0};
    ++g.naccs;
  }
  g.sig = group_signature(g);
  return g;
}

/// Plan a chain: greedy grouping + lowering + cross-group legality.
constexpr FusionPlan plan_chain(const Chain& c) {
  FusionPlan p{};

  std::uint8_t start = 0;
  while (start < c.nnodes) {
    std::uint8_t count = 1;
    while (detail::can_append(c, start, count)) ++count;
    if (p.ngroups >= kMaxGroups) plan_fail("group overflow");
    p.group[p.ngroups++] = lower_group(c, start, count);
    start = static_cast<std::uint8_t>(start + count);
  }

  // A temporary (written, not live-out) exists only in registers; reading
  // it from a later group would read garbage.
  std::int16_t writer_group[kMaxSlots];
  for (auto& w : writer_group) w = -1;
  for (std::uint8_t gi = 0; gi < p.ngroups; ++gi) {
    const GroupProgram& g = p.group[gi];
    for (std::uint8_t k = g.first_node; k < g.first_node + g.nnodes; ++k) {
      const PrimNode& nd = c.node[k];
      const std::uint8_t reads[3] = {nd.src0, nd.src1, nd.src2};
      for (const std::uint8_t s : reads) {
        if (s == kNone) continue;
        if (writer_group[s] >= 0 && writer_group[s] < gi && !c.live_out[s])
          plan_fail("temporary value crosses a group boundary");
      }
    }
    for (std::uint8_t k = g.first_node; k < g.first_node + g.nnodes; ++k) {
      const PrimNode& nd = c.node[k];
      if (nd.dst != kNone) writer_group[nd.dst] = gi;
    }
  }
  return p;
}

}  // namespace v2d::linalg::fusion
