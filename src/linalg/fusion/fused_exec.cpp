/// \file fused_exec.cpp
/// \brief The fused composites, written like the primitive kernels.
///
/// Each composite is a tile entry like those in kernels.cpp: an
/// interpreter row that computes and records strip by strip through
/// vla::Context ops, and a V2D_SIMD_BODY tile body that evaluates the same
/// per-element expressions in the same order over every row of the tile,
/// at the host's vector width through simd::dispatch.  run_tile picks one
/// by exec mode; natively the tile is recorded once, nj × the row's
/// memoized dry run under the composite's own KernelShape.  Rows branch
/// only on which operands are present, never on a loaded value, as the dry
/// run requires (vla.hpp).
///
/// A fused dot is a tail: one ExactSum::Gang sweep over the operands after
/// the sweep, which adds the exact sum of their products to the caller's
/// accumulator — per row in the interpreter, after the row's recorded
/// ptrue and horizontal reduces, and per tile natively.  No order or
/// grouping of rows, ranks or threads can change that value, so both
/// backends and the unfused kernel sequence agree bit for bit.

#include "linalg/fusion/fused_exec.hpp"

#include <cstddef>
#include <initializer_list>
#include <type_traits>

#include "linalg/kernel_counts.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::fusion {

using vla::Context;
using vla::Predicate;
using vla::VReg;

namespace {

/// One fused dot: *acc += Σ x·y.
struct Dot {
  const double* x;
  const double* y;
  ExactSum* acc;
};

/// The dot tails of one sweep over `t`, in one gang sweep that loads each
/// operand once.  A tail reads memory after the sweep, so each operand must
/// be an input or an output the sweep stored, and nothing later in the
/// sweep may overwrite it: then the tail sees the values the sweep's dot
/// FMAs saw.
void dot_tails(Tile t, std::initializer_list<Dot> dots) {
  ExactSum::Gang gang(t.stride, t.ni, t.nj);
  for (const Dot& d : dots) gang.add(d.x, d.y, d.acc);
  gang.sweep();
}

/// The recorded end of a row with dots: a ptrue and one horizontal reduce
/// per lane accumulator.  Their values are the hardware's; the results are
/// the exact tails, which a dry run skips.
void reduce_epilogue(Context& ctx, std::initializer_list<VReg> accs) {
  const Predicate full = ctx.ptrue();
  for (const VReg& acc : accs) (void)ctx.reduce_add(full, acc);
}

// --- interpreter rows: the reference, and every native recording -------------

void daxpy2_row(Context& ctx, double a, const double* p, double* x, double b,
                const double* q, double* r, std::size_t n) {
  const VReg va = ctx.dup(a);
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& pr) {
    const VReg vp = ctx.ld1(pr, p + i);
    const VReg vx = ctx.ld1(pr, x + i);
    ctx.st1(pr, x + i, ctx.fma(pr, vp, va, vx));
    const VReg vq = ctx.ld1(pr, q + i);
    const VReg vr = ctx.ld1(pr, r + i);
    ctx.st1(pr, r + i, ctx.fma(pr, vq, vb, vr));
  });
}

void axpy_out_row(Context& ctx, const double* x, double a, const double* y,
                  double* z, std::size_t n) {
  const VReg va = ctx.dup(a);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vy = ctx.ld1(p, y + i);
    const VReg vx = ctx.ld1(p, x + i);
    ctx.st1(p, z + i, ctx.fma(p, vy, va, vx));  // the COPY is the addend
  });
}

void p_update_row(Context& ctx, const double* r, double b, double w,
                  const double* v, double* p, std::size_t n) {
  const VReg vw = ctx.dup(-w);
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& pr) {
    const VReg vv = ctx.ld1(pr, v + i);
    const VReg vp = ctx.ld1(pr, p + i);
    const VReg t = ctx.fma(pr, vv, vw, vp);  // p − w·v, kept in a register
    const VReg vr = ctx.ld1(pr, r + i);
    ctx.st1(pr, p + i, ctx.fma(pr, t, vb, vr));
  });
}

/// z ← m ⊙ r with rz += Σ z·r and rr += Σ r·r, after r ← r + a·q when q is
/// given.  The tails read z and r, which nothing after their dot FMAs
/// writes.
void hadamard_dot2_row(Context& ctx, const double* m, double a,
                       const double* q, double* r, double* z, ExactSum& rz,
                       ExactSum& rr, std::size_t n) {
  VReg va;
  if (q != nullptr) va = ctx.dup(a);
  VReg acc_rz = ctx.dup(0.0);
  VReg acc_rr = ctx.dup(0.0);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    VReg vm, vr;
    if (q != nullptr) {
      const VReg vq = ctx.ld1(p, q + i);
      const VReg vr0 = ctx.ld1(p, r + i);
      vr = ctx.fma(p, vq, va, vr0);
      ctx.st1(p, r + i, vr);
      vm = ctx.ld1(p, m + i);
    } else {
      vm = ctx.ld1(p, m + i);
      vr = ctx.ld1(p, r + i);
    }
    const VReg vz = ctx.mul(p, vm, vr);
    ctx.st1(p, z + i, vz);
    // Merging form: a zeroing tail strip would clobber the lanes
    // accumulated so far.
    acc_rz = ctx.fma_merge(p, vz, vr, acc_rz);
    acc_rr = ctx.fma_merge(p, vr, vr, acc_rr);
  });
  reduce_epilogue(ctx, {acc_rz, acc_rr});
  if (!ctx.dry()) dot_tails(Tile::row(n), {{z, r, &rz}, {r, r, &rr}});
}

/// The six stencil composites: the five-point row of A·x, plus csp ⊙ xo
/// when coupled, then y ← b − (A·x) when b is given, or else y ← A·x with
/// *dot += Σ w·y, where w == xc reuses the center tap.  The tail reads w,
/// an input, and y, which nothing after its store writes.
void stencil_fused_row(Context& ctx, const double* cc, const double* cw,
                       const double* ce, const double* cs, const double* cn,
                       const double* xc, const double* xs, const double* xn,
                       const double* csp, const double* xo, const double* b,
                       const double* w, ExactSum* dot, double* y,
                       std::size_t n) {
  VReg acc;
  if (dot != nullptr) acc = ctx.dup(0.0);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vcc = ctx.ld1(p, cc + i);
    const VReg vxc = ctx.ld1(p, xc + i);
    VReg ax = ctx.mul(p, vcc, vxc);
    const VReg vcw = ctx.ld1(p, cw + i);
    const VReg vxw = ctx.ld1(p, xc + i - 1);
    ax = ctx.fma(p, vcw, vxw, ax);
    const VReg vce = ctx.ld1(p, ce + i);
    const VReg vxe = ctx.ld1(p, xc + i + 1);
    ax = ctx.fma(p, vce, vxe, ax);
    const VReg vcs = ctx.ld1(p, cs + i);
    const VReg vxs = ctx.ld1(p, xs + i);
    ax = ctx.fma(p, vcs, vxs, ax);
    const VReg vcn = ctx.ld1(p, cn + i);
    const VReg vxn = ctx.ld1(p, xn + i);
    ax = ctx.fma(p, vcn, vxn, ax);
    if (csp != nullptr) {
      const VReg vsp = ctx.ld1(p, csp + i);
      const VReg vxo = ctx.ld1(p, xo + i);
      ax = ctx.fma(p, vsp, vxo, ax);
    }
    if (b != nullptr) {
      const VReg vb = ctx.ld1(p, b + i);
      ctx.st1(p, y + i, ctx.sub(p, vb, ax));
      return;
    }
    ctx.st1(p, y + i, ax);
    const VReg vw = w == xc ? vxc : ctx.ld1(p, w + i);
    acc = ctx.fma_merge(p, vw, ax, acc);
  });
  if (dot == nullptr) return;
  reduce_epilogue(ctx, {acc});
  if (!ctx.dry()) dot_tails(Tile::row(n), {{w, y, dot}});
}

// --- native tile bodies -------------------------------------------------------

V2D_SIMD_BODY void daxpy2_body(double a, const double* p, double* x, double b,
                               const double* q, double* r, Tile t) {
  for (std::size_t j = 0; j < t.nj; ++j, p += t.stride, x += t.stride,
                   q += t.stride, r += t.stride) {
    for (std::size_t i = 0; i < t.ni; ++i) {
      x[i] = p[i] * a + x[i];
      r[i] = q[i] * b + r[i];
    }
  }
}

V2D_SIMD_BODY void axpy_out_body(const double* x, double a, const double* y,
                                 double* z, Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, x += t.stride, y += t.stride, z += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) z[i] = y[i] * a + x[i];
}

V2D_SIMD_BODY void p_update_body(const double* r, double b, double w,
                                 const double* v, double* p, Tile t) {
  const double mw = -w;
  for (std::size_t j = 0; j < t.nj;
       ++j, r += t.stride, v += t.stride, p += t.stride) {
    for (std::size_t i = 0; i < t.ni; ++i) {
      const double s = v[i] * mw + p[i];
      p[i] = s * b + r[i];
    }
  }
}

// Bodies with optional operands index rows by element offset, so that an
// absent (null) operand is never advanced.

/// The update runs as its own loop over each row, whose r is still in
/// cache for the product: one loop storing both r and z ran about 1.5x
/// slower than DAXPY + HADAMARD on cache-resident tiles (256², AVX2).
template <bool Update>
V2D_SIMD_BODY void hadamard_dot2_body(const double* m, double a,
                                      const double* q, double* r, double* z,
                                      Tile t) {
  const auto ni = static_cast<std::ptrdiff_t>(t.ni);
  for (std::size_t j = 0; j < t.nj; ++j) {
    const std::ptrdiff_t o = t.offset(j);
    if constexpr (Update)
      for (std::ptrdiff_t i = o; i < o + ni; ++i) r[i] = q[i] * a + r[i];
    for (std::ptrdiff_t i = o; i < o + ni; ++i) z[i] = m[i] * r[i];
  }
}

template <bool Coupled, bool Residual>
V2D_SIMD_BODY void stencil_fused_body(
    const double* cc, const double* cw, const double* ce, const double* cs,
    const double* cn, const double* xc, const double* xs, const double* xn,
    const double* csp, const double* xo, const double* b, double* y, Tile t) {
  const auto ni = static_cast<std::ptrdiff_t>(t.ni);
  for (std::size_t j = 0; j < t.nj; ++j) {
    const std::ptrdiff_t o = t.offset(j);
    for (std::ptrdiff_t i = o; i < o + ni; ++i) {
      double ax = cc[i] * xc[i];
      ax = cw[i] * xc[i - 1] + ax;
      ax = ce[i] * xc[i + 1] + ax;
      ax = cs[i] * xs[i] + ax;
      ax = cn[i] * xn[i] + ax;
      if constexpr (Coupled) ax = csp[i] * xo[i] + ax;
      if constexpr (Residual) ax = b[i] - ax;
      y[i] = ax;
    }
  }
}

/// The two hadamard composites: `Update` adds r ← r + a·q to the sweep.
template <bool Update>
void hadamard_dot2_tile(Context& ctx, const double* m, double a,
                        const double* q, double* r, double* z, ExactSum& rz,
                        ExactSum& rr, Tile t) {
  run_tile(
      ctx, Update ? KernelShape::HadamardUpdateDot2 : KernelShape::HadamardDot2,
      t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        hadamard_dot2_row(c, m + o, a, Update ? q + o : nullptr, r + o, z + o,
                          rz, rr, t.ni);
      },
      [&] {
        simd::dispatch<&hadamard_dot2_body<Update>>(m, a, q, r, z, t);
        dot_tails(t, {{z, r, &rz}, {r, r, &rr}});
      });
}

}  // namespace

// --- tile entries ---------------------------------------------------------------

void daxpy2(Context& ctx, double a, const double* p, double* x, double b,
            const double* q, double* r, Tile t) {
  run_tile(
      ctx, KernelShape::Daxpy2, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        daxpy2_row(c, a, p + o, x + o, b, q + o, r + o, t.ni);
      },
      [&] { simd::dispatch<&daxpy2_body>(a, p, x, b, q, r, t); });
}

void axpy_out(Context& ctx, const double* x, double a, const double* y,
              double* z, Tile t) {
  run_tile(
      ctx, KernelShape::AxpyOut, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        axpy_out_row(c, x + o, a, y + o, z + o, t.ni);
      },
      [&] { simd::dispatch<&axpy_out_body>(x, a, y, z, t); });
}

void p_update(Context& ctx, const double* r, double b, double w,
              const double* v, double* p, Tile t) {
  run_tile(
      ctx, KernelShape::PUpdate, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        p_update_row(c, r + o, b, w, v + o, p + o, t.ni);
      },
      [&] { simd::dispatch<&p_update_body>(r, b, w, v, p, t); });
}

void hadamard_dot2(Context& ctx, const double* m, const double* r, double* z,
                   ExactSum& rz, ExactSum& rr, Tile t) {
  // Without the update, r is only read.
  hadamard_dot2_tile<false>(ctx, m, 0.0, nullptr, const_cast<double*>(r), z,
                            rz, rr, t);
}

void hadamard_update_dot2(Context& ctx, const double* m, double a,
                          const double* q, double* r, double* z, ExactSum& rz,
                          ExactSum& rr, Tile t) {
  hadamard_dot2_tile<true>(ctx, m, a, q, r, z, rz, rr, t);
}

void stencil_rows_fused(Context& ctx, const double* cc, const double* cw,
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
  const KernelShape shape =
      sub ? (coupled ? KernelShape::StencilSubCoupled : KernelShape::StencilSub)
      : wdot == xc
          ? (coupled ? KernelShape::StencilDotCoupled : KernelShape::StencilDot)
          : (coupled ? KernelShape::StencilDotWCoupled
                     : KernelShape::StencilDotW);

  const auto body = [&]<bool C, bool R>(std::bool_constant<C>,
                                        std::bool_constant<R>) {
    simd::dispatch<&stencil_fused_body<C, R>>(cc, cw, ce, cs, cn, xc, xs, xn,
                                              csp, xo, bsub, y, t);
  };
  run_tile(
      ctx, shape, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        const auto at = [o](const double* v) {
          return v != nullptr ? v + o : nullptr;
        };
        stencil_fused_row(c, cc + o, cw + o, ce + o, cs + o, cn + o, xc + o,
                          xs + o, xn + o, at(csp), at(xo), at(bsub), at(wdot),
                          dot, y + o, t.ni);
      },
      [&] {
        if (coupled && sub)
          body(std::true_type{}, std::true_type{});
        else if (coupled)
          body(std::true_type{}, std::false_type{});
        else if (sub)
          body(std::false_type{}, std::true_type{});
        else
          body(std::false_type{}, std::false_type{});
        if (dot != nullptr) dot_tails(t, {{wdot, y, dot}});
      });
}

}  // namespace v2d::linalg::fusion
