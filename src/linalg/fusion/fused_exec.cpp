/// \file fused_exec.cpp
/// \brief The fused composites: one lowered sweep each, in both backends.
///
/// Each composite is a tile entry: it binds its operands to its chain's
/// slots over a Tile and calls `run<Chain, KernelShape>`, which lowers the
/// chain at compile time (planner.hpp) and runs the sweep as:
///   - Interpret: the generic sweep below, row by row, which walks the
///     GroupProgram's steps per strip through vla::Context ops (recording
///     op-by-op, like every other interpreted kernel);
///   - Native: `stamp_body<G>`, the program unrolled at compile time into
///     a flat per-element loop nest over the tile's rows and run at the
///     host's vector width through simd::dispatch, with the tile recorded
///     once through run_tile — nj × the interpreter row's dry run,
///     memoized per (shape, ni) under the composite's own KernelShape, as
///     for every primitive kernel.
/// Both produce bit-identical results: elementwise steps evaluate the same
/// per-element expressions in the same association order, and each fused
/// dot is a post-sweep tail that adds the exact sum of its stored
/// operands' products to the caller's ExactSum (per row in the
/// interpreter, per tile natively) — whose value no order or grouping of
/// rows, ranks or threads can change.

#include "linalg/fusion/fused_exec.hpp"

#include <cstddef>
#include <utility>

#include "linalg/fusion/planner.hpp"
#include "linalg/kernel_counts.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::fusion {

namespace {

/// Operand binding for one composite call: slot index → base pointer,
/// scalar index → value, accumulator index → caller's exact dot, over the
/// tile `t`.  Temporary slots need no binding (they live in registers).
struct Bind {
  double* slot[kMaxSlots] = {};
  double scal[kMaxScalars] = {};
  ExactSum* acc[kMaxAccs] = {};
  Tile t;

  /// The binding of row j alone (bound slots advanced to that row).
  Bind row(std::size_t j) const {
    Bind r = *this;
    for (double*& s : r.slot)
      if (s != nullptr) s += t.offset(j);
    r.t = Tile::row(t.ni);
    return r;
  }
};

// --- interpreter backend ------------------------------------------------------

/// The sweep's dot tails: acc[t.acc] += Σ slot[t.slot_a][i]·slot[t.slot_b][i]
/// over the binding's tile for each tail t, exactly — one gang sweep for
/// the tails (ExactSum::Gang), which loads each slot they read once.  Both
/// backends run them after the sweep: the interpreter once per row, the
/// native stamp once per tile.
void run_dot_tails(const GroupProgram& g, const Bind& b) {
  ExactSum::Gang gang(b.t.stride, b.t.ni, b.t.nj);
  for (std::uint8_t k = 0; k < g.ntails; ++k) {
    const DotTail& tl = g.tail[k];
    gang.add(b.slot[tl.slot_a], b.slot[tl.slot_b], b.acc[tl.acc]);
  }
  gang.sweep();
}

/// The generic interpreter sweep over one row (also the reference backend
/// the stamps are differentially tested against, and the recording of the
/// native stamps).  In a dry context it records the whole sweep, reduction
/// epilogue included, but skips the dot tails.
void run_interpret(vla::Context& ctx, const GroupProgram& g, const Bind& b) {
  using vla::Predicate;
  using vla::VReg;

  VReg reg[kMaxRegs];
  VReg acc[kMaxAccs];
  for (std::uint8_t i = 0; i < g.npre; ++i) {
    const Step& s = g.pre[i];
    if (s.k == StepKind::DupScal)
      reg[s.dst] = ctx.dup(b.scal[s.a]);
    else
      acc[s.dst] = ctx.dup(0.0);
  }

  vla::strip_mine(ctx, b.t.ni, [&](std::uint64_t i, const Predicate& p) {
    for (std::uint8_t k = 0; k < g.nsteps; ++k) {
      const Step& s = g.step[k];
      switch (s.k) {
        case StepKind::Load:
          reg[s.dst] = ctx.ld1(p, b.slot[s.a] + i);
          break;
        case StepKind::Stencil: {
          // The canonical five-point sweep: mul then four chained FMAs,
          // coefficient load before the matching solution load.
          const VReg vcc = ctx.ld1(p, b.slot[s.a + 0] + i);
          const VReg vxc = ctx.ld1(p, b.slot[s.a + 5] + i);
          VReg a2 = ctx.mul(p, vcc, vxc);
          const VReg vcw = ctx.ld1(p, b.slot[s.a + 1] + i);
          const VReg vxw = ctx.ld1(p, b.slot[s.a + 5] + i - 1);
          a2 = ctx.fma(p, vcw, vxw, a2);
          const VReg vce = ctx.ld1(p, b.slot[s.a + 2] + i);
          const VReg vxe = ctx.ld1(p, b.slot[s.a + 5] + i + 1);
          a2 = ctx.fma(p, vce, vxe, a2);
          const VReg vcs = ctx.ld1(p, b.slot[s.a + 3] + i);
          const VReg vxs = ctx.ld1(p, b.slot[s.a + 6] + i);
          a2 = ctx.fma(p, vcs, vxs, a2);
          const VReg vcn = ctx.ld1(p, b.slot[s.a + 4] + i);
          const VReg vxn = ctx.ld1(p, b.slot[s.a + 7] + i);
          a2 = ctx.fma(p, vcn, vxn, a2);
          reg[s.dst] = a2;
          reg[s.b] = vxc;
          break;
        }
        case StepKind::Fma:
          reg[s.dst] = ctx.fma(p, reg[s.a], reg[s.b], reg[s.c]);
          break;
        case StepKind::Mul:
          reg[s.dst] = ctx.mul(p, reg[s.a], reg[s.b]);
          break;
        case StepKind::Sub:
          reg[s.dst] = ctx.sub(p, reg[s.a], reg[s.b]);
          break;
        case StepKind::Store:
          ctx.st1(p, b.slot[s.dst] + i, reg[s.a]);
          break;
        case StepKind::DotAcc:
          // Merging form: a zeroing tail strip would clobber the lanes
          // accumulated so far.
          acc[s.dst] = ctx.fma_merge(p, reg[s.a], reg[s.b], acc[s.dst]);
          break;
        case StepKind::DupScal:
        case StepKind::DupAcc:
          break;  // prologue-only kinds
      }
    }
  });

  if (g.naccs > 0) {
    // The lane-accumulated values are the hardware's; the returned results
    // are the exact dot tails, identical in both exec modes (and to the
    // unfused dot path).  A dry run records the epilogue but leaves the
    // caller's accumulators alone.
    const Predicate full = ctx.ptrue();
    for (std::uint8_t i = 0; i < g.npre; ++i)
      if (g.pre[i].k == StepKind::DupAcc)
        (void)ctx.reduce_add(full, acc[g.pre[i].dst]);
    if (!ctx.dry()) run_dot_tails(g, b);
  }
}

// --- native stamps ------------------------------------------------------------

template <GroupProgram G, std::size_t I>
V2D_SIMD_BODY void stamp_pre(const double* sc, double* r) {
  constexpr Step S = G.pre[I];
  if constexpr (S.k == StepKind::DupScal) r[S.dst] = sc[S.a];
}

template <GroupProgram G, std::size_t I>
V2D_SIMD_BODY void stamp_step(double* const* p, double* r, std::ptrdiff_t i) {
  constexpr Step S = G.step[I];
  if constexpr (S.k == StepKind::Load) {
    r[S.dst] = p[S.a][i];
  } else if constexpr (S.k == StepKind::Stencil) {
    double acc = p[S.a + 0][i] * p[S.a + 5][i];
    acc = p[S.a + 1][i] * p[S.a + 5][i - 1] + acc;
    acc = p[S.a + 2][i] * p[S.a + 5][i + 1] + acc;
    acc = p[S.a + 3][i] * p[S.a + 6][i] + acc;
    acc = p[S.a + 4][i] * p[S.a + 7][i] + acc;
    r[S.dst] = acc;
    r[S.b] = p[S.a + 5][i];
  } else if constexpr (S.k == StepKind::Fma) {
    r[S.dst] = r[S.a] * r[S.b] + r[S.c];
  } else if constexpr (S.k == StepKind::Mul) {
    r[S.dst] = r[S.a] * r[S.b];
  } else if constexpr (S.k == StepKind::Sub) {
    r[S.dst] = r[S.a] - r[S.b];
  } else if constexpr (S.k == StepKind::Store) {
    p[S.dst][i] = r[S.a];
  }
  // DotAcc emits nothing here: the dots are exact tails over the stored
  // slots after the sweep (run_dot_tails).
}

/// One stamped-out native kernel: the GroupProgram unrolled at compile time
/// into a flat per-element loop, run over every row of the tile.  Every
/// program is elementwise once its dots move to the tails, so each reduces
/// to a plain raw-pointer loop nest like the primitive kernels in
/// kernels_native.cpp, which the host compiler auto-vectorizes at both
/// widths.  Register slots with compile-time-constant indices are
/// scalarized by the compiler.
template <GroupProgram G>
V2D_SIMD_BODY void stamp_body(const Bind* b) {
  double* p[kMaxSlots];
  for (std::size_t s = 0; s < kMaxSlots; ++s) p[s] = b->slot[s];
  double sc[kMaxScalars];
  for (std::size_t s = 0; s < kMaxScalars; ++s) sc[s] = b->scal[s];
  const Tile t = b->t;
  const auto ni = static_cast<std::ptrdiff_t>(t.ni);
  for (std::size_t j = 0; j < t.nj; ++j) {
    // Unbound slots stay null, so rows are element offsets, not advanced
    // pointers.
    const std::ptrdiff_t o = t.offset(j);
    for (std::ptrdiff_t i = o; i < o + ni; ++i) {
      double r[kMaxRegs];
      [&]<std::size_t... Pi>(std::index_sequence<Pi...>) {
        (stamp_pre<G, Pi>(sc, r), ...);
      }(std::make_index_sequence<std::size_t{G.npre}>{});
      [&]<std::size_t... Si>(std::index_sequence<Si...>) {
        (stamp_step<G, Si>(p, r, i), ...);
      }(std::make_index_sequence<std::size_t{G.nsteps}>{});
    }
  }
}

/// Run chain `C` over the binding's tile as one sweep per row in the
/// context's exec mode.  The native path is a tile entry like the
/// primitive kernels': the tile is recorded once (the interpreter row's
/// dry run, memoized under (S, ni), nj times), one stamp runs every row,
/// and each dot tail adds the whole tile in one exact call.
template <Chain C, KernelShape S>
void run(vla::Context& ctx, const Bind& bind) {
  static constexpr GroupProgram G = lower(C);
  run_tile(
      ctx, S, bind.t,
      [&](vla::Context& c, std::size_t j) {
        run_interpret(c, G, bind.row(j));
      },
      [&] {
        simd::dispatch<&stamp_body<G>>(&bind);
        run_dot_tails(G, bind);
      });
}

}  // namespace

// --- the composites -----------------------------------------------------------

void daxpy2(vla::Context& ctx, double a, const double* p, double* x, double b,
            const double* q, double* r, Tile t) {
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(p);
  bd.slot[1] = x;
  bd.slot[2] = const_cast<double*>(q);
  bd.slot[3] = r;
  bd.scal[0] = a;
  bd.scal[1] = b;
  run<make_daxpy2_chain(), KernelShape::Daxpy2>(ctx, bd);
}

void axpy_out(vla::Context& ctx, const double* x, double a, const double* y,
              double* z, Tile t) {
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(x);
  bd.slot[1] = const_cast<double*>(y);
  bd.slot[2] = z;
  bd.scal[0] = a;
  run<make_axpy_out_chain(), KernelShape::AxpyOut>(ctx, bd);
}

void p_update(vla::Context& ctx, const double* r, double b, double w,
              const double* v, double* p, Tile t) {
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(r);
  bd.slot[1] = const_cast<double*>(v);
  bd.slot[2] = p;
  bd.scal[0] = -w;
  bd.scal[1] = b;
  run<make_p_update_chain(), KernelShape::PUpdate>(ctx, bd);
}

void hadamard_dot2(vla::Context& ctx, const double* m, const double* r,
                   double* z, ExactSum& rz, ExactSum& rr, Tile t) {
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(m);
  bd.slot[1] = const_cast<double*>(r);
  bd.slot[2] = z;
  bd.acc[0] = &rz;
  bd.acc[1] = &rr;
  run<make_hadamard_dot2_chain(), KernelShape::HadamardDot2>(ctx, bd);
}

void hadamard_update_dot2(vla::Context& ctx, const double* m, double a,
                          const double* q, double* r, double* z, ExactSum& rz,
                          ExactSum& rr, Tile t) {
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(m);
  bd.slot[1] = const_cast<double*>(q);
  bd.slot[2] = r;
  bd.slot[3] = z;
  bd.scal[0] = a;
  bd.acc[0] = &rz;
  bd.acc[1] = &rr;
  run<make_hadamard_update_dot2_chain(), KernelShape::HadamardUpdateDot2>(
      ctx, bd);
}

void stencil_rows_fused(vla::Context& ctx, const double* cc, const double* cw,
                        const double* ce, const double* cs, const double* cn,
                        const double* xc, const double* xs, const double* xn,
                        const double* csp, const double* xo,
                        const double* bsub, const double* wdot, ExactSum* dot,
                        double* y, Tile t) {
  V2D_REQUIRE((csp == nullptr) == (xo == nullptr),
              "stencil_rows_fused: coupling needs both csp and xo");
  V2D_REQUIRE(bsub == nullptr || wdot == nullptr,
              "stencil_rows_fused: residual and dot forms are exclusive");
  V2D_REQUIRE((wdot == nullptr) == (dot == nullptr),
              "stencil_rows_fused: dot needs both w and an accumulator");
  V2D_REQUIRE(bsub != nullptr || wdot != nullptr,
              "stencil_rows_fused: need a residual or dot operand "
              "(use stencil_rows/coupling_rows otherwise)");
  const bool coupled = csp != nullptr;
  const bool sub = bsub != nullptr;
  const bool self = wdot == xc;

  // Binding mirrors make_stencil_chain's slot layout.
  Bind bd{};
  bd.t = t;
  bd.slot[0] = const_cast<double*>(cc);
  bd.slot[1] = const_cast<double*>(cw);
  bd.slot[2] = const_cast<double*>(ce);
  bd.slot[3] = const_cast<double*>(cs);
  bd.slot[4] = const_cast<double*>(cn);
  bd.slot[5] = const_cast<double*>(xc);
  bd.slot[6] = const_cast<double*>(xs);
  bd.slot[7] = const_cast<double*>(xn);
  std::uint8_t s = 8;
  if (coupled) {
    bd.slot[s++] = const_cast<double*>(csp);
    bd.slot[s++] = const_cast<double*>(xo);
  }
  ++s;  // the stencil temp slot lives in registers only
  if (sub)
    bd.slot[s++] = const_cast<double*>(bsub);
  else if (!self)
    bd.slot[s++] = const_cast<double*>(wdot);
  bd.slot[s++] = y;
  if (dot != nullptr) bd.acc[0] = dot;

  if (sub) {
    if (coupled)
      run<make_stencil_chain(true, true, false),
          KernelShape::StencilSubCoupled>(ctx, bd);
    else
      run<make_stencil_chain(false, true, false), KernelShape::StencilSub>(
          ctx, bd);
  } else if (self) {
    if (coupled)
      run<make_stencil_chain(true, false, true),
          KernelShape::StencilDotCoupled>(ctx, bd);
    else
      run<make_stencil_chain(false, false, true), KernelShape::StencilDot>(
          ctx, bd);
  } else {
    if (coupled)
      run<make_stencil_chain(true, false, false),
          KernelShape::StencilDotWCoupled>(ctx, bd);
    else
      run<make_stencil_chain(false, false, false), KernelShape::StencilDotW>(
          ctx, bd);
  }
}

}  // namespace v2d::linalg::fusion
