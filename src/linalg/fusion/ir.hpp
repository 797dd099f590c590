#pragma once
/// \file ir.hpp
/// \brief Primitive-chain IR of the fused composites.
///
/// A Chain is the input to `lower` (planner.hpp): a short straight-line
/// sequence of primitive kernel launches (the body of one solver-iteration
/// hot spot) over a small set of operand slots.  Slots are indices into
/// the binding table fused_exec.cpp fills from a composite's operands; the
/// IR itself carries no pointers, so chains are constexpr values, each
/// lowered into one sweep at compile time.
///
/// Node semantics (all elementwise over i, except Dot):
///   Axpy     dst ← src0·scal + src1
///   Mul      dst ← src0·src1
///   MulAdd   dst ← src0·src1 + src2          (species-coupling add)
///   SubFrom  dst ← src0 − src1
///   Copy     dst ← src0                      (store-only when src0 is
///                                             already register-resident —
///                                             this is the copy-elision rule)
///   Stencil  dst ← five-point row over the 8 consecutive slots starting at
///            src0, laid out [cc, cw, ce, cs, cn, xc, xs, xn]; xc must have
///            a readable ghost on each side
///   Dot      acc += Σ src0·src1              (reduction tail; adds the
///                                             exact sum of the products to
///                                             the caller's ExactSum)
///
/// The chain lists which slots are live-out (must reach memory).  Writes to
/// other slots are temporaries the sweep keeps in registers.

#include <cstdint>

#include "support/error.hpp"

namespace v2d::linalg::fusion {

inline constexpr std::uint8_t kNone = 0xff;
inline constexpr std::size_t kMaxNodes = 8;
inline constexpr std::size_t kMaxSlots = 16;
inline constexpr std::size_t kMaxScalars = 4;
inline constexpr std::size_t kMaxAccs = 2;

enum class Prim : std::uint8_t {
  Axpy,
  Mul,
  MulAdd,
  SubFrom,
  Copy,
  Stencil,
  Dot,
};

struct PrimNode {
  Prim op = Prim::Copy;
  std::uint8_t dst = kNone;   ///< slot written (kNone for Dot)
  std::uint8_t src0 = kNone;
  std::uint8_t src1 = kNone;
  std::uint8_t src2 = kNone;
  std::uint8_t scal = kNone;  ///< scalar index (Axpy)
  std::uint8_t acc = kNone;   ///< accumulator index (Dot)
};

struct Chain {
  std::uint8_t nnodes = 0;
  std::uint8_t nslots = 0;
  std::uint8_t nscal = 0;
  std::uint8_t naccs = 0;
  PrimNode node[kMaxNodes] = {};
  bool live_out[kMaxSlots] = {};
};

/// Failure path shared by compile-time and runtime lowering: reaching it
/// during constant evaluation is a compile error (no built-in composite can
/// ship an illegal chain); at runtime it throws.
[[noreturn]] inline void lower_fail(const char* msg) {
  throw Error(std::string("fusion lowering: ") + msg);
}

namespace detail {

constexpr void push(Chain& c, PrimNode n) {
  if (c.nnodes >= kMaxNodes) lower_fail("chain node overflow");
  c.node[c.nnodes++] = n;
}

}  // namespace detail

// --- built-in chains (the solver hot-loop composites) ------------------------

/// CG twin update: x ← x + s0·p and r ← r + s1·q (slots p=0 x=1 q=2 r=3).
constexpr Chain make_daxpy2_chain() {
  Chain c{};
  c.nslots = 4;
  c.nscal = 2;
  c.live_out[1] = true;
  c.live_out[3] = true;
  detail::push(c, {Prim::Axpy, 1, 0, 1, kNone, 0, kNone});
  detail::push(c, {Prim::Axpy, 3, 2, 3, kNone, 1, kNone});
  return c;
}

/// Fused COPY+DAXPY: z ← x + s0·y (slots x=0 y=1 z=2; the copy of x into z
/// is elided into the FMA's addend).
constexpr Chain make_axpy_out_chain() {
  Chain c{};
  c.nslots = 3;
  c.nscal = 1;
  c.live_out[2] = true;
  detail::push(c, {Prim::Axpy, 2, 1, 0, kNone, 0, kNone});
  return c;
}

/// BiCGSTAB p-update: p ← r + s1·(p + s0·v) with s0 = −ω, s1 = β
/// (slots r=0 v=1 p=2, temp t=3).
constexpr Chain make_p_update_chain() {
  Chain c{};
  c.nslots = 4;
  c.nscal = 2;
  c.live_out[2] = true;
  detail::push(c, {Prim::Axpy, 3, 1, 2, kNone, 0, kNone});
  detail::push(c, {Prim::Axpy, 2, 3, 0, kNone, 1, kNone});
  return c;
}

/// Precond apply + ganged 2-dot: z ← m ⊙ r, acc0 += Σ z·r, acc1 += Σ r·r
/// (slots m=0 r=1 z=2).
constexpr Chain make_hadamard_dot2_chain() {
  Chain c{};
  c.nslots = 3;
  c.naccs = 2;
  c.live_out[2] = true;
  detail::push(c, {Prim::Mul, 2, 0, 1, kNone, kNone, kNone});
  detail::push(c, {Prim::Dot, kNone, 2, 1, kNone, kNone, 0});
  detail::push(c, {Prim::Dot, kNone, 1, 1, kNone, kNone, 1});
  return c;
}

/// CG tail composite: r ← r + s0·q, then the precond+gang sweep over the
/// updated residual (slots m=0 q=1 r=2 z=3).
constexpr Chain make_hadamard_update_dot2_chain() {
  Chain c{};
  c.nslots = 4;
  c.nscal = 1;
  c.naccs = 2;
  c.live_out[2] = true;
  c.live_out[3] = true;
  detail::push(c, {Prim::Axpy, 2, 1, 2, kNone, 0, kNone});
  detail::push(c, {Prim::Mul, 3, 0, 2, kNone, kNone, kNone});
  detail::push(c, {Prim::Dot, kNone, 3, 2, kNone, kNone, 0});
  detail::push(c, {Prim::Dot, kNone, 2, 2, kNone, kNone, 1});
  return c;
}

/// Fused stencil-row composites.  Slots 0..7 are the stencil pack
/// [cc cw ce cs cn xc xs xn]; then optionally csp/xo (coupling), the
/// stencil temp, the residual operand b (sub form) or the distinct dot
/// operand w (dot form), and finally y.
///
///   bsub=true            y ← b − (A·x) row          (fused residual)
///   bsub=false,self=true y ← (A·x) row, acc0 += Σ xc·y   (CG p·Ap)
///   bsub=false,self=false y ← (A·x) row, acc0 += Σ w·y
constexpr Chain make_stencil_chain(bool coupled, bool bsub, bool self_w) {
  Chain c{};
  std::uint8_t s = 8;  // slots 0..7 = stencil pack
  const std::uint8_t csp = coupled ? s++ : kNone;
  const std::uint8_t xo = coupled ? s++ : kNone;
  const std::uint8_t t = s++;
  const std::uint8_t b = bsub ? s++ : kNone;
  const std::uint8_t w = (!bsub && !self_w) ? s++ : kNone;
  const std::uint8_t y = s++;
  c.nslots = s;
  c.naccs = bsub ? 0 : 1;
  c.live_out[y] = true;
  detail::push(c, {Prim::Stencil, t, 0, kNone, kNone, kNone, kNone});
  if (coupled) detail::push(c, {Prim::MulAdd, t, csp, xo, t, kNone, kNone});
  if (bsub) {
    detail::push(c, {Prim::SubFrom, y, b, t, kNone, kNone, kNone});
  } else {
    detail::push(c, {Prim::Copy, y, t, kNone, kNone, kNone, kNone});
    const std::uint8_t wslot = self_w ? std::uint8_t{5} : w;
    detail::push(c, {Prim::Dot, kNone, wslot, y, kNone, kNone, 0});
  }
  return c;
}

}  // namespace v2d::linalg::fusion
