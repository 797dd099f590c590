#include "linalg/mg/mg_kernels.hpp"

#include "linalg/kernel_counts.hpp"
#include "linalg/kernels_native.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::mg {

using vla::Predicate;
using vla::VReg;

void diag_correct_row(vla::Context& ctx, double omega,
                      std::span<const double> d, std::span<const double> r,
                      std::span<double> x) {
  const std::uint64_t n = x.size();
  if (ctx.native()) {
    record_native(ctx, KernelShape::DiagCorrectRow, n, [&](vla::Context& dry) {
      diag_correct_row(dry, omega, d, r, x);
    });
    native::diag_correct_row(omega, d.data(), r.data(), x.data(), n);
    return;
  }
  const VReg w = ctx.dup(omega);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg t = ctx.mul(p, ctx.ld1(p, &d[i]), ctx.ld1(p, &r[i]));
    ctx.st1(p, &x[i], ctx.fma(p, w, t, ctx.ld1(p, &x[i])));
  });
}

void diag_scale_row(vla::Context& ctx, double omega, std::span<const double> d,
                    std::span<const double> r, std::span<double> z) {
  const std::uint64_t n = z.size();
  if (ctx.native()) {
    record_native(ctx, KernelShape::DiagScaleRow, n, [&](vla::Context& dry) {
      diag_scale_row(dry, omega, d, r, z);
    });
    native::diag_scale_row(omega, d.data(), r.data(), z.data(), n);
    return;
  }
  const VReg w = ctx.dup(omega);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg t = ctx.mul(p, ctx.ld1(p, &d[i]), ctx.ld1(p, &r[i]));
    ctx.st1(p, &z[i], ctx.mul(p, w, t));
  });
}

void restrict_row(vla::Context& ctx, const double* const fine[4],
                  const TransferTables& tab, std::span<double> coarse) {
  const std::uint64_t n = coarse.size();
  if (ctx.native()) {
    record_native(ctx, KernelShape::RestrictRow, n, [&](vla::Context& dry) {
      restrict_row(dry, fine, tab, coarse);
    });
    native::restrict_row(fine, tab.fm1.data(), tab.f0.data(), tab.f1.data(),
                         tab.f2.data(), coarse.data(), n);
    return;
  }
  // Separable full-weighting factors: (1/4)·w_i·w_j with w = (1/4, 3/4).
  const double wj[4] = {0.25, 0.75, 0.75, 0.25};
  const VReg vq = ctx.dup(0.25);
  const VReg vt = ctx.dup(0.75);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    VReg acc = ctx.dup(0.0);
    for (int dj = 0; dj < 4; ++dj) {
      const double* frow = fine[dj];
      const VReg a = ctx.ld1_gather(p, frow, tab.fm1.subspan(i));
      const VReg b = ctx.ld1_gather(p, frow, tab.f0.subspan(i));
      const VReg c = ctx.ld1_gather(p, frow, tab.f1.subspan(i));
      const VReg d = ctx.ld1_gather(p, frow, tab.f2.subspan(i));
      // Row value: 1/4·a + 3/4·b + 3/4·c + 1/4·d.
      VReg row = ctx.mul(p, vq, a);
      row = ctx.fma(p, vt, b, row);
      row = ctx.fma(p, vt, c, row);
      row = ctx.fma(p, vq, d, row);
      const VReg w = ctx.dup(0.25 * wj[dj]);
      acc = ctx.fma_merge(p, w, row, acc);
    }
    ctx.st1(p, &coarse[i], acc);
  });
}

void prolong_row_add(vla::Context& ctx, const double* cnear,
                     const double* cfar, const TransferTables& tab,
                     std::span<double> fine) {
  const std::uint64_t n = fine.size();
  if (ctx.native()) {
    record_native(ctx, KernelShape::ProlongRow, n, [&](vla::Context& dry) {
      prolong_row_add(dry, cnear, cfar, tab, fine);
    });
    native::prolong_row_add(cnear, cfar, tab.near.data(), tab.far.data(),
                            fine.data(), n);
    return;
  }
  const VReg vq = ctx.dup(0.25);
  const VReg vt = ctx.dup(0.75);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const auto near = tab.near.subspan(i);
    const auto far = tab.far.subspan(i);
    // 1-D interpolation on each of the two coarse rows …
    VReg rn = ctx.mul(p, vt, ctx.ld1_gather(p, cnear, near));
    rn = ctx.fma(p, vq, ctx.ld1_gather(p, cnear, far), rn);
    VReg rf = ctx.mul(p, vt, ctx.ld1_gather(p, cfar, near));
    rf = ctx.fma(p, vq, ctx.ld1_gather(p, cfar, far), rf);
    // … then in j, and accumulate into the fine row.
    VReg y = ctx.ld1(p, &fine[i]);
    y = ctx.fma(p, vt, rn, y);
    y = ctx.fma(p, vq, rf, y);
    ctx.st1(p, &fine[i], y);
  });
}

}  // namespace v2d::linalg::mg
