#include "linalg/kernels.hpp"

#include "linalg/kernel_counts.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"

namespace v2d::linalg {

using vla::Context;
using vla::Predicate;
using vla::VReg;

namespace {

// --- interpreter rows: the reference, and every native recording -------------

double dprod_row(Context& ctx, const double* x, const double* y,
                 std::size_t n) {
  return vla::strip_reduce(ctx, n,
                           [&](std::uint64_t i, const Predicate& p, VReg acc) {
                             const VReg vx = ctx.ld1(p, x + i);
                             const VReg vy = ctx.ld1(p, y + i);
                             // Merging form: a zeroing tail strip would
                             // clobber the accumulator's inactive lanes.
                             return ctx.fma_merge(p, vx, vy, acc);
                           });
}

void daxpy_row(Context& ctx, double a, const double* x, double* y,
               std::size_t n) {
  const VReg va = ctx.dup(a);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, x + i);
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, y + i, ctx.fma(p, vx, va, vy));
  });
}

void dscal_row(Context& ctx, double c, double d, double* y, std::size_t n) {
  const VReg vc = ctx.dup(c);
  const VReg vd = ctx.dup(-d);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, y + i, ctx.fma(p, vy, vd, vc));  // c + (−d)·y
  });
}

void ddaxpy_row(Context& ctx, double a, const double* x, double b,
                const double* y, double* z, std::size_t n) {
  const VReg va = ctx.dup(a);
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, x + i);
    const VReg vy = ctx.ld1(p, y + i);
    const VReg vz = ctx.ld1(p, z + i);
    const VReg t = ctx.fma(p, vx, va, vz);
    ctx.st1(p, z + i, ctx.fma(p, vy, vb, t));
  });
}

void xpby_row(Context& ctx, const double* x, double b, double* y,
              std::size_t n) {
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, x + i);
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, y + i, ctx.fma(p, vy, vb, vx));
  });
}

void copy_row(Context& ctx, const double* x, double* y, std::size_t n) {
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    ctx.st1(p, y + i, ctx.ld1(p, x + i));
  });
}

void fill_row(Context& ctx, double a, double* y, std::size_t n) {
  const VReg va = ctx.dup(a);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    ctx.st1(p, y + i, va);
  });
}

void sub_row(Context& ctx, const double* x, const double* y, double* z,
             std::size_t n) {
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, x + i);
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, z + i, ctx.sub(p, vx, vy));
  });
}

void hadamard_row(Context& ctx, const double* x, const double* y, double* z,
                  std::size_t n) {
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, x + i);
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, z + i, ctx.mul(p, vx, vy));
  });
}

void stencil_row(Context& ctx, const double* cc, const double* cw,
                 const double* ce, const double* cs, const double* cn,
                 const double* xc, const double* xs, const double* xn,
                 double* y, std::size_t n) {
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vcc = ctx.ld1(p, cc + i);
    const VReg vxc = ctx.ld1(p, xc + i);
    VReg acc = ctx.mul(p, vcc, vxc);
    const VReg vcw = ctx.ld1(p, cw + i);
    const VReg vxw = ctx.ld1(p, xc + i - 1);  // unaligned shifted load
    acc = ctx.fma(p, vcw, vxw, acc);
    const VReg vce = ctx.ld1(p, ce + i);
    const VReg vxe = ctx.ld1(p, xc + i + 1);
    acc = ctx.fma(p, vce, vxe, acc);
    const VReg vcs = ctx.ld1(p, cs + i);
    const VReg vxs = ctx.ld1(p, xs + i);
    acc = ctx.fma(p, vcs, vxs, acc);
    const VReg vcn = ctx.ld1(p, cn + i);
    const VReg vxn = ctx.ld1(p, xn + i);
    acc = ctx.fma(p, vcn, vxn, acc);
    ctx.st1(p, y + i, acc);
  });
}

void coupling_row(Context& ctx, const double* csp, const double* xo, double* y,
                  std::size_t n) {
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vc = ctx.ld1(p, csp + i);
    const VReg vx = ctx.ld1(p, xo + i);
    const VReg vy = ctx.ld1(p, y + i);
    ctx.st1(p, y + i, ctx.fma(p, vc, vx, vy));
  });
}

// --- native tile bodies -------------------------------------------------------

V2D_SIMD_BODY double dprod_body(const double* x, const double* y,
                                std::size_t n, unsigned vl) {
  // Strip-wise accumulation: lane l of the accumulator register sums the
  // elements with index ≡ l (mod VL), exactly like the interpreter's
  // fma_merge chain, so the final lane-order reduce rounds identically.
  double acc[vla::kMaxLanes] = {};
  std::size_t i = 0;
  for (; i + vl <= n; i += vl)
    for (unsigned l = 0; l < vl; ++l) acc[l] = x[i + l] * y[i + l] + acc[l];
  for (unsigned l = 0; i + l < n; ++l) acc[l] = x[i + l] * y[i + l] + acc[l];
  double s = 0.0;
  for (unsigned l = 0; l < vl; ++l) s += acc[l];
  return s;
}

// Each tile body walks the rows, advancing every operand by the row
// stride, around the row's streaming element loop.

V2D_SIMD_BODY void daxpy_body(double a, const double* x, double* y, Tile t) {
  for (std::size_t j = 0; j < t.nj; ++j, x += t.stride, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = x[i] * a + y[i];
}

V2D_SIMD_BODY void dscal_body(double c, double d, double* y, Tile t) {
  const double md = -d;
  for (std::size_t j = 0; j < t.nj; ++j, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = y[i] * md + c;
}

V2D_SIMD_BODY void ddaxpy_body(double a, const double* x, double b,
                               const double* y, double* z, Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, x += t.stride, y += t.stride, z += t.stride) {
    for (std::size_t i = 0; i < t.ni; ++i) {
      const double s = x[i] * a + z[i];
      z[i] = y[i] * b + s;
    }
  }
}

V2D_SIMD_BODY void xpby_body(const double* x, double b, double* y, Tile t) {
  for (std::size_t j = 0; j < t.nj; ++j, x += t.stride, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = y[i] * b + x[i];
}

V2D_SIMD_BODY void copy_body(const double* x, double* y, Tile t) {
  for (std::size_t j = 0; j < t.nj; ++j, x += t.stride, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = x[i];
}

V2D_SIMD_BODY void fill_body(double a, double* y, Tile t) {
  for (std::size_t j = 0; j < t.nj; ++j, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = a;
}

V2D_SIMD_BODY void sub_body(const double* x, const double* y, double* z,
                            Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, x += t.stride, y += t.stride, z += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) z[i] = x[i] - y[i];
}

V2D_SIMD_BODY void hadamard_body(const double* x, const double* y, double* z,
                                 Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, x += t.stride, y += t.stride, z += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) z[i] = x[i] * y[i];
}

V2D_SIMD_BODY void stencil_body(const double* cc, const double* cw,
                                const double* ce, const double* cs,
                                const double* cn, const double* xc,
                                const double* xs, const double* xn, double* y,
                                Tile t) {
  const auto ni = static_cast<std::ptrdiff_t>(t.ni);
  for (std::size_t j = 0; j < t.nj; ++j) {
    const std::ptrdiff_t o = t.offset(j);
    for (std::ptrdiff_t i = o; i < o + ni; ++i) {
      double acc = cc[i] * xc[i];
      acc = cw[i] * xc[i - 1] + acc;
      acc = ce[i] * xc[i + 1] + acc;
      acc = cs[i] * xs[i] + acc;
      acc = cn[i] * xn[i] + acc;
      y[i] = acc;
    }
  }
}

V2D_SIMD_BODY void coupling_body(const double* csp, const double* xo,
                                 double* y, Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, csp += t.stride, xo += t.stride, y += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) y[i] = csp[i] * xo[i] + y[i];
}

}  // namespace

// --- tile entries ---------------------------------------------------------------

double dprod(Context& ctx, std::span<const double> x,
             std::span<const double> y) {
  V2D_REQUIRE(x.size() == y.size(), "dprod: length mismatch");
  if (!ctx.native()) return dprod_row(ctx, x.data(), y.data(), x.size());
  dprod_record_only(ctx, x.data(), y.data(), Tile::row(x.size()));
  return simd::dispatch<&dprod_body>(x.data(), y.data(), x.size(),
                                     ctx.lanes());
}

void dprod_record_only(Context& ctx, const double* x, const double* y,
                       Tile t) {
  run_tile(
      ctx, KernelShape::Dprod, t,
      [&](Context& c, std::size_t j) {
        (void)dprod_row(c, x + t.offset(j), y + t.offset(j), t.ni);
      },
      [] {});
}

void daxpy(Context& ctx, double a, const double* x, double* y, Tile t) {
  run_tile(
      ctx, KernelShape::Daxpy, t,
      [&](Context& c, std::size_t j) {
        daxpy_row(c, a, x + t.offset(j), y + t.offset(j), t.ni);
      },
      [&] { simd::dispatch<&daxpy_body>(a, x, y, t); });
}

void dscal(Context& ctx, double c, double d, double* y, Tile t) {
  run_tile(
      ctx, KernelShape::Dscal, t,
      [&](Context& v, std::size_t j) { dscal_row(v, c, d, y + t.offset(j), t.ni); },
      [&] { simd::dispatch<&dscal_body>(c, d, y, t); });
}

void ddaxpy(Context& ctx, double a, const double* x, double b, const double* y,
            double* z, Tile t) {
  run_tile(
      ctx, KernelShape::Ddaxpy, t,
      [&](Context& c, std::size_t j) {
        ddaxpy_row(c, a, x + t.offset(j), b, y + t.offset(j), z + t.offset(j),
                   t.ni);
      },
      [&] { simd::dispatch<&ddaxpy_body>(a, x, b, y, z, t); });
}

void xpby(Context& ctx, const double* x, double b, double* y, Tile t) {
  run_tile(
      ctx, KernelShape::Xpby, t,
      [&](Context& c, std::size_t j) {
        xpby_row(c, x + t.offset(j), b, y + t.offset(j), t.ni);
      },
      [&] { simd::dispatch<&xpby_body>(x, b, y, t); });
}

void copy(Context& ctx, const double* x, double* y, Tile t) {
  run_tile(
      ctx, KernelShape::Copy, t,
      [&](Context& c, std::size_t j) {
        copy_row(c, x + t.offset(j), y + t.offset(j), t.ni);
      },
      [&] { simd::dispatch<&copy_body>(x, y, t); });
}

void fill(Context& ctx, double a, double* y, Tile t) {
  run_tile(
      ctx, KernelShape::Fill, t,
      [&](Context& c, std::size_t j) { fill_row(c, a, y + t.offset(j), t.ni); },
      [&] { simd::dispatch<&fill_body>(a, y, t); });
}

void sub(Context& ctx, const double* x, const double* y, double* z, Tile t) {
  run_tile(
      ctx, KernelShape::Sub, t,
      [&](Context& c, std::size_t j) {
        sub_row(c, x + t.offset(j), y + t.offset(j), z + t.offset(j), t.ni);
      },
      [&] { simd::dispatch<&sub_body>(x, y, z, t); });
}

void hadamard(Context& ctx, const double* x, const double* y, double* z,
              Tile t) {
  run_tile(
      ctx, KernelShape::Hadamard, t,
      [&](Context& c, std::size_t j) {
        hadamard_row(c, x + t.offset(j), y + t.offset(j), z + t.offset(j),
                     t.ni);
      },
      [&] { simd::dispatch<&hadamard_body>(x, y, z, t); });
}

void stencil_rows(Context& ctx, const double* cc, const double* cw,
                  const double* ce, const double* cs, const double* cn,
                  const double* xc, const double* xs, const double* xn,
                  double* y, Tile t) {
  run_tile(
      ctx, KernelShape::StencilRow, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        stencil_row(c, cc + o, cw + o, ce + o, cs + o, cn + o, xc + o, xs + o,
                    xn + o, y + o, t.ni);
      },
      [&] {
        simd::dispatch<&stencil_body>(cc, cw, ce, cs, cn, xc, xs, xn, y, t);
      });
}

void coupling_rows(Context& ctx, const double* csp, const double* xo,
                   double* y, Tile t) {
  run_tile(
      ctx, KernelShape::CouplingRow, t,
      [&](Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        coupling_row(c, csp + o, xo + o, y + o, t.ni);
      },
      [&] { simd::dispatch<&coupling_body>(csp, xo, y, t); });
}

}  // namespace v2d::linalg
