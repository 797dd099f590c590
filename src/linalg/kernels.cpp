#include "linalg/kernels.hpp"

#include "linalg/kernel_counts.hpp"
#include "linalg/kernels_native.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

using vla::Context;
using vla::Predicate;
using vla::VReg;

double dprod(Context& ctx, std::span<const double> x,
             std::span<const double> y) {
  V2D_REQUIRE(x.size() == y.size(), "dprod: length mismatch");
  if (ctx.native()) {
    dprod_record_only(ctx, x, y);
    return native::dprod(x.data(), y.data(), x.size(), ctx.lanes());
  }
  return vla::strip_reduce(ctx, x.size(),
                           [&](std::uint64_t i, const Predicate& p, VReg acc) {
                             const VReg vx = ctx.ld1(p, &x[i]);
                             const VReg vy = ctx.ld1(p, &y[i]);
                             // Merging form: a zeroing tail strip would
                             // clobber the accumulator's inactive lanes.
                             return ctx.fma_merge(p, vx, vy, acc);
                           });
}

void dprod_record_only(Context& ctx, std::span<const double> x,
                       std::span<const double> y) {
  record_native(ctx, KernelShape::Dprod, x.size(),
                [&](Context& dry) { (void)dprod(dry, x, y); });
}

void daxpy(Context& ctx, double a, std::span<const double> x,
           std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "daxpy: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Daxpy, x.size(),
                  [&](Context& dry) { daxpy(dry, a, x, y); });
    native::daxpy(a, x.data(), y.data(), x.size());
    return;
  }
  const VReg va = ctx.dup(a);
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.fma(p, vx, va, vy));
  });
}

void dscal(Context& ctx, double c, double d, std::span<double> y) {
  if (ctx.native()) {
    record_native(ctx, KernelShape::Dscal, y.size(),
                  [&](Context& dry) { dscal(dry, c, d, y); });
    native::dscal(c, d, y.data(), y.size());
    return;
  }
  const VReg vc = ctx.dup(c);
  const VReg vd = ctx.dup(-d);
  vla::strip_mine(ctx, y.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.fma(p, vy, vd, vc));  // c + (−d)·y
  });
}

void ddaxpy(Context& ctx, double a, std::span<const double> x, double b,
            std::span<const double> y, std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "ddaxpy: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Ddaxpy, x.size(),
                  [&](Context& dry) { ddaxpy(dry, a, x, b, y, z); });
    native::ddaxpy(a, x.data(), b, y.data(), z.data(), x.size());
    return;
  }
  const VReg va = ctx.dup(a);
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    const VReg vz = ctx.ld1(p, &z[i]);
    const VReg t = ctx.fma(p, vx, va, vz);
    ctx.st1(p, &z[i], ctx.fma(p, vy, vb, t));
  });
}

void xpby(Context& ctx, std::span<const double> x, double b,
          std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "xpby: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Xpby, x.size(),
                  [&](Context& dry) { xpby(dry, x, b, y); });
    native::xpby(x.data(), b, y.data(), x.size());
    return;
  }
  const VReg vb = ctx.dup(b);
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.fma(p, vy, vb, vx));
  });
}

void copy(Context& ctx, std::span<const double> x, std::span<double> y) {
  V2D_REQUIRE(x.size() == y.size(), "copy: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Copy, x.size(),
                  [&](Context& dry) { copy(dry, x, y); });
    native::copy(x.data(), y.data(), x.size());
    return;
  }
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    ctx.st1(p, &y[i], ctx.ld1(p, &x[i]));
  });
}

void fill(Context& ctx, double a, std::span<double> y) {
  if (ctx.native()) {
    record_native(ctx, KernelShape::Fill, y.size(),
                  [&](Context& dry) { fill(dry, a, y); });
    native::fill(a, y.data(), y.size());
    return;
  }
  const VReg va = ctx.dup(a);
  vla::strip_mine(ctx, y.size(), [&](std::uint64_t i, const Predicate& p) {
    ctx.st1(p, &y[i], va);
  });
}

void sub(Context& ctx, std::span<const double> x, std::span<const double> y,
         std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "sub: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Sub, x.size(),
                  [&](Context& dry) { sub(dry, x, y, z); });
    native::sub(x.data(), y.data(), z.data(), x.size());
    return;
  }
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &z[i], ctx.sub(p, vx, vy));
  });
}

void hadamard(Context& ctx, std::span<const double> x,
              std::span<const double> y, std::span<double> z) {
  V2D_REQUIRE(x.size() == y.size() && y.size() == z.size(),
              "hadamard: length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::Hadamard, x.size(),
                  [&](Context& dry) { hadamard(dry, x, y, z); });
    native::hadamard(x.data(), y.data(), z.data(), x.size());
    return;
  }
  vla::strip_mine(ctx, x.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &z[i], ctx.mul(p, vx, vy));
  });
}

void stencil_row(Context& ctx, std::span<const double> cc,
                 std::span<const double> cw, std::span<const double> ce,
                 std::span<const double> cs, std::span<const double> cn,
                 const double* xc, const double* xs, const double* xn,
                 std::span<double> y) {
  const std::size_t n = y.size();
  V2D_REQUIRE(cc.size() == n && cw.size() == n && ce.size() == n &&
                  cs.size() == n && cn.size() == n,
              "stencil_row: coefficient length mismatch");
  if (ctx.native()) {
    record_native(ctx, KernelShape::StencilRow, n, [&](Context& dry) {
      stencil_row(dry, cc, cw, ce, cs, cn, xc, xs, xn, y);
    });
    native::stencil_row(cc.data(), cw.data(), ce.data(), cs.data(), cn.data(),
                        xc, xs, xn, y.data(), n);
    return;
  }
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vcc = ctx.ld1(p, &cc[i]);
    const VReg vxc = ctx.ld1(p, xc + i);
    VReg acc = ctx.mul(p, vcc, vxc);
    const VReg vcw = ctx.ld1(p, &cw[i]);
    const VReg vxw = ctx.ld1(p, xc + i - 1);  // unaligned shifted load
    acc = ctx.fma(p, vcw, vxw, acc);
    const VReg vce = ctx.ld1(p, &ce[i]);
    const VReg vxe = ctx.ld1(p, xc + i + 1);
    acc = ctx.fma(p, vce, vxe, acc);
    const VReg vcs = ctx.ld1(p, &cs[i]);
    const VReg vxs = ctx.ld1(p, xs + i);
    acc = ctx.fma(p, vcs, vxs, acc);
    const VReg vcn = ctx.ld1(p, &cn[i]);
    const VReg vxn = ctx.ld1(p, xn + i);
    acc = ctx.fma(p, vcn, vxn, acc);
    ctx.st1(p, &y[i], acc);
  });
}

void coupling_row(Context& ctx, std::span<const double> csp, const double* xo,
                  std::span<double> y) {
  if (ctx.native()) {
    record_native(ctx, KernelShape::CouplingRow, y.size(),
                  [&](Context& dry) { coupling_row(dry, csp, xo, y); });
    native::coupling_row(csp.data(), xo, y.data(), y.size());
    return;
  }
  vla::strip_mine(ctx, y.size(), [&](std::uint64_t i, const Predicate& p) {
    const VReg vc = ctx.ld1(p, &csp[i]);
    const VReg vx = ctx.ld1(p, xo + i);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.fma(p, vc, vx, vy));
  });
}

}  // namespace v2d::linalg
