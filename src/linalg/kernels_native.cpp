#include "linalg/kernels_native.hpp"

#include "support/simd.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::native {

namespace {

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

// --- the public kernels: each body at the host's width ---------------------

double dprod(const double* x, const double* y, std::size_t n, unsigned vl) {
  return simd::dispatch<&dprod_body>(x, y, n, vl);
}

void daxpy(double a, const double* x, double* y, Tile t) {
  simd::dispatch<&daxpy_body>(a, x, y, t);
}

void dscal(double c, double d, double* y, Tile t) {
  simd::dispatch<&dscal_body>(c, d, y, t);
}

void ddaxpy(double a, const double* x, double b, const double* y, double* z,
            Tile t) {
  simd::dispatch<&ddaxpy_body>(a, x, b, y, z, t);
}

void xpby(const double* x, double b, double* y, Tile t) {
  simd::dispatch<&xpby_body>(x, b, y, t);
}

void copy(const double* x, double* y, Tile t) {
  simd::dispatch<&copy_body>(x, y, t);
}

void fill(double a, double* y, Tile t) { simd::dispatch<&fill_body>(a, y, t); }

void sub(const double* x, const double* y, double* z, Tile t) {
  simd::dispatch<&sub_body>(x, y, z, t);
}

void hadamard(const double* x, const double* y, double* z, Tile t) {
  simd::dispatch<&hadamard_body>(x, y, z, t);
}

void stencil(const double* cc, const double* cw, const double* ce,
             const double* cs, const double* cn, const double* xc,
             const double* xs, const double* xn, double* y, Tile t) {
  simd::dispatch<&stencil_body>(cc, cw, ce, cs, cn, xc, xs, xn, y, t);
}

void coupling(const double* csp, const double* xo, double* y, Tile t) {
  simd::dispatch<&coupling_body>(csp, xo, y, t);
}

void diag_correct(double omega, const double* d, const double* r, double* x,
                  Tile t) {
  simd::dispatch<&diag_correct_body>(omega, d, r, x, t);
}

void diag_scale(double omega, const double* d, const double* r, double* z,
                Tile t) {
  simd::dispatch<&diag_scale_body>(omega, d, r, z, t);
}

void restrict_rows(const double* const fine[4], std::ptrdiff_t fine_step,
                   const std::int64_t* fm1, const std::int64_t* f0,
                   const std::int64_t* f1, const std::int64_t* f2,
                   double* coarse, Tile t) {
  simd::dispatch<&restrict_body>(fine, fine_step, fm1, f0, f1, f2, coarse, t);
}

void prolong_rows_add(const double* coarse, std::ptrdiff_t coarse_stride,
                      const std::int64_t* near, const std::int64_t* far,
                      double* fine, Tile t) {
  simd::dispatch<&prolong_add_body>(coarse, coarse_stride, near, far, fine, t);
}

}  // namespace v2d::linalg::native
