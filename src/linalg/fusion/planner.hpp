#pragma once
/// \file planner.hpp
/// \brief Lowering a Chain into one fused sweep: Chain IR → GroupProgram.
///
/// `lower` walks a Chain front-to-back and emits one register-allocated
/// sweep for the whole chain:
///
///   - elementwise → elementwise: producer values stay in registers;
///     temporaries never touch memory;
///   - elementwise → reduction tail: a Dot joins the sweep as a predicated
///     FMA chain plus one horizontal reduce in the epilogue, and the
///     numerical result is produced by an exact (ExactSum) tail over the
///     operands' memory images after the sweep — bit-identical to the
///     unfused DPROD/dot_ganged path;
///   - copy-elision: a Copy whose source is register-resident lowers to a
///     bare store (or to nothing when the destination is not live-out);
///   - a Stencil node must be the chain's first node (its 10-load sweep is
///     the backbone).
///
/// A chain that one sweep cannot run is rejected: a node that writes a slot
/// an earlier Dot read (the post-sweep tail would see the updated values),
/// a Dot over an unstored temporary (the tail reads memory), a Stencil that
/// is not the first node, and any slot, scalar or budget overflow.
///
/// The GroupProgram is a straight-line step sequence (prologue broadcasts,
/// a strip-body, reduction tails) that both execution representations
/// consume — the interpreter sweep and the natively stamped template
/// (fused_exec.cpp), whose recording is a dry run of that same sweep.
/// Everything here is constexpr, so each built-in chain is lowered at
/// compile time and an illegal one is a compile error.

#include <cstdint>

#include "linalg/fusion/ir.hpp"

namespace v2d::linalg::fusion {

inline constexpr std::size_t kMaxRegs = 32;
inline constexpr std::size_t kMaxSteps = 40;
inline constexpr std::size_t kMaxPre = kMaxScalars + kMaxAccs;

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

/// One chain, fully lowered into a single sweep.
struct GroupProgram {
  std::uint8_t npre = 0;
  std::uint8_t nsteps = 0;
  std::uint8_t ntails = 0;
  std::uint8_t nregs = 0;
  std::uint8_t naccs = 0;
  Step pre[kMaxPre] = {};
  Step step[kMaxSteps] = {};
  DotTail tail[kMaxAccs] = {};
};

/// Register-allocate and lower the whole chain into one sweep.
constexpr GroupProgram lower(const Chain& c) {
  GroupProgram g{};

  std::uint8_t slot_reg[kMaxSlots] = {};
  std::uint8_t scal_reg[kMaxScalars] = {};
  bool written[kMaxSlots] = {};
  bool dot_read[kMaxSlots] = {};
  bool acc_used[kMaxAccs] = {};
  for (auto& r : slot_reg) r = kNone;
  for (auto& r : scal_reg) r = kNone;
  Step pre_scal[kMaxScalars] = {};
  std::uint8_t npre_scal = 0;

  const auto emit = [&g](Step s) {
    if (g.nsteps >= kMaxSteps) lower_fail("fused sweep exceeds step budget");
    g.step[g.nsteps++] = s;
  };
  const auto fresh = [&g]() -> std::uint8_t {
    if (g.nregs >= kMaxRegs)
      lower_fail("fused sweep exceeds register budget");
    return g.nregs++;
  };
  const auto fetch = [&](std::uint8_t slot) -> std::uint8_t {
    if (slot >= c.nslots) lower_fail("operand slot out of range");
    if (slot_reg[slot] != kNone) return slot_reg[slot];
    const std::uint8_t r = fresh();
    emit({StepKind::Load, r, slot, 0, 0});
    slot_reg[slot] = r;
    return r;
  };
  const auto scalar = [&](std::uint8_t sidx) -> std::uint8_t {
    if (sidx >= c.nscal) lower_fail("scalar index out of range");
    if (scal_reg[sidx] != kNone) return scal_reg[sidx];
    const std::uint8_t r = fresh();
    pre_scal[npre_scal++] = {StepKind::DupScal, r, sidx, 0, 0};
    scal_reg[sidx] = r;
    return r;
  };
  const auto write = [&](std::uint8_t slot, std::uint8_t r) {
    if (slot >= c.nslots) lower_fail("destination slot out of range");
    // The dot tails run after the sweep over the slots' memory images, so
    // a write to a slot an earlier Dot read would feed it the new values.
    if (dot_read[slot])
      lower_fail("a node writes a slot an earlier reduction read");
    slot_reg[slot] = r;
    written[slot] = true;
    if (c.live_out[slot]) emit({StepKind::Store, slot, r, 0, 0});
  };

  for (std::uint8_t k = 0; k < c.nnodes; ++k) {
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
        if (k != 0) lower_fail("stencil must be the chain's first node");
        if (nd.src0 + 8 > c.nslots)
          lower_fail("stencil slot pack out of range");
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
          lower_fail("reduction reads an unstored temporary");
        if (written[nd.src1] && !c.live_out[nd.src1])
          lower_fail("reduction reads an unstored temporary");
        if (nd.acc >= c.naccs || nd.acc >= kMaxAccs)
          lower_fail("accumulator index out of range");
        const std::uint8_t ra = fetch(nd.src0);
        const std::uint8_t rb = fetch(nd.src1);
        dot_read[nd.src0] = true;
        dot_read[nd.src1] = true;
        acc_used[nd.acc] = true;
        emit({StepKind::DotAcc, nd.acc, ra, rb, 0});
        if (g.ntails >= kMaxAccs) lower_fail("reduction tail overflow");
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
  return g;
}

}  // namespace v2d::linalg::fusion
