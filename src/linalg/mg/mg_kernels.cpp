#include "linalg/mg/mg_kernels.hpp"

#include "linalg/kernel_counts.hpp"
#include "support/simd.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::mg {

using vla::Predicate;
using vla::VReg;

namespace {

// --- interpreter rows: the reference, and every native recording -------------

void diag_correct_row(vla::Context& ctx, double omega, const double* d,
                      const double* r, double* x, std::size_t n) {
  const VReg w = ctx.dup(omega);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg t = ctx.mul(p, ctx.ld1(p, d + i), ctx.ld1(p, r + i));
    ctx.st1(p, x + i, ctx.fma(p, w, t, ctx.ld1(p, x + i)));
  });
}

void diag_scale_row(vla::Context& ctx, double omega, const double* d,
                    const double* r, double* z, std::size_t n) {
  const VReg w = ctx.dup(omega);
  vla::strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg t = ctx.mul(p, ctx.ld1(p, d + i), ctx.ld1(p, r + i));
    ctx.st1(p, z + i, ctx.mul(p, w, t));
  });
}

void restrict_row(vla::Context& ctx, const double* const fine[4],
                  const TransferTables& tab, double* coarse, std::size_t n) {
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
    ctx.st1(p, coarse + i, acc);
  });
}

void prolong_row_add(vla::Context& ctx, const double* cnear,
                     const double* cfar, const TransferTables& tab,
                     double* fine, std::size_t n) {
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
    VReg y = ctx.ld1(p, fine + i);
    y = ctx.fma(p, vt, rn, y);
    y = ctx.fma(p, vq, rf, y);
    ctx.st1(p, fine + i, y);
  });
}

// --- native tile bodies -------------------------------------------------------

V2D_SIMD_BODY void diag_correct_body(double omega, const double* d,
                                     const double* r, double* x, Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, d += t.stride, r += t.stride, x += t.stride) {
    for (std::size_t i = 0; i < t.ni; ++i) {
      const double s = d[i] * r[i];
      x[i] = omega * s + x[i];
    }
  }
}

V2D_SIMD_BODY void diag_scale_body(double omega, const double* d,
                                   const double* r, double* z, Tile t) {
  for (std::size_t j = 0; j < t.nj;
       ++j, d += t.stride, r += t.stride, z += t.stride)
    for (std::size_t i = 0; i < t.ni; ++i) z[i] = omega * (d[i] * r[i]);
}

V2D_SIMD_BODY void restrict_body(const double* const* fine,
                                 std::ptrdiff_t fine_step,
                                 const std::int64_t* fm1,
                                 const std::int64_t* f0,
                                 const std::int64_t* f1,
                                 const std::int64_t* f2, double* coarse,
                                 Tile t) {
  constexpr double kQ = 0.25, kT = 0.75;
  constexpr double wj[4] = {0.25, 0.75, 0.75, 0.25};
  for (std::size_t j = 0; j < t.nj; ++j, coarse += t.stride) {
    const std::ptrdiff_t fo = static_cast<std::ptrdiff_t>(j) * fine_step;
    for (std::size_t c = 0; c < t.ni; ++c) {
      double acc = 0.0;
      for (int dj = 0; dj < 4; ++dj) {
        const double* frow = fine[dj] + fo;
        // Row value 1/4·a + 3/4·b + 3/4·c + 1/4·d in the interpreter's
        // association order (mul, then three chained FMAs).
        double row = kQ * frow[fm1[c]];
        row = kT * frow[f0[c]] + row;
        row = kT * frow[f1[c]] + row;
        row = kQ * frow[f2[c]] + row;
        acc = (0.25 * wj[dj]) * row + acc;
      }
      coarse[c] = acc;
    }
  }
}

V2D_SIMD_BODY void prolong_add_body(const double* coarse,
                                    std::ptrdiff_t coarse_stride,
                                    const std::int64_t* near,
                                    const std::int64_t* far, double* fine,
                                    Tile t) {
  constexpr double kQ = 0.25, kT = 0.75;
  for (std::size_t j = 0; j < t.nj; ++j, fine += t.stride) {
    const double* cnear =
        coarse + static_cast<std::ptrdiff_t>(j / 2) * coarse_stride;
    const double* cfar = cnear + ((j & 1) ? coarse_stride : -coarse_stride);
    for (std::size_t f = 0; f < t.ni; ++f) {
      double rn = kT * cnear[near[f]];
      rn = kQ * cnear[far[f]] + rn;
      double rf = kT * cfar[near[f]];
      rf = kQ * cfar[far[f]] + rf;
      double y = fine[f];
      y = kT * rn + y;
      y = kQ * rf + y;
      fine[f] = y;
    }
  }
}

}  // namespace

// --- tile entries ---------------------------------------------------------------

void diag_correct_rows(vla::Context& ctx, double omega, const double* d,
                       const double* r, double* x, Tile t) {
  run_tile(
      ctx, KernelShape::DiagCorrectRow, t,
      [&](vla::Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        diag_correct_row(c, omega, d + o, r + o, x + o, t.ni);
      },
      [&] { simd::dispatch<&diag_correct_body>(omega, d, r, x, t); });
}

void diag_scale_rows(vla::Context& ctx, double omega, const double* d,
                     const double* r, double* z, Tile t) {
  run_tile(
      ctx, KernelShape::DiagScaleRow, t,
      [&](vla::Context& c, std::size_t j) {
        const std::ptrdiff_t o = t.offset(j);
        diag_scale_row(c, omega, d + o, r + o, z + o, t.ni);
      },
      [&] { simd::dispatch<&diag_scale_body>(omega, d, r, z, t); });
}

void restrict_rows(vla::Context& ctx, const double* const fine[4],
                   std::ptrdiff_t fine_step, const TransferTables& tab,
                   double* coarse, Tile t) {
  run_tile(
      ctx, KernelShape::RestrictRow, t,
      [&](vla::Context& c, std::size_t j) {
        const std::ptrdiff_t fo = static_cast<std::ptrdiff_t>(j) * fine_step;
        const double* const rows[4] = {fine[0] + fo, fine[1] + fo,
                                       fine[2] + fo, fine[3] + fo};
        restrict_row(c, rows, tab, coarse + t.offset(j), t.ni);
      },
      [&] {
        simd::dispatch<&restrict_body>(fine, fine_step, tab.fm1.data(),
                                       tab.f0.data(), tab.f1.data(),
                                       tab.f2.data(), coarse, t);
      });
}

void prolong_rows_add(vla::Context& ctx, const double* coarse,
                      std::ptrdiff_t coarse_stride, const TransferTables& tab,
                      double* fine, Tile t) {
  run_tile(
      ctx, KernelShape::ProlongRow, t,
      [&](vla::Context& c, std::size_t j) {
        const double* cnear =
            coarse + static_cast<std::ptrdiff_t>(j / 2) * coarse_stride;
        const double* cfar =
            cnear + ((j & 1) ? coarse_stride : -coarse_stride);
        prolong_row_add(c, cnear, cfar, tab, fine + t.offset(j), t.ni);
      },
      [&] {
        simd::dispatch<&prolong_add_body>(coarse, coarse_stride,
                                          tab.near.data(), tab.far.data(),
                                          fine, t);
      });
}

}  // namespace v2d::linalg::mg
