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

V2D_SIMD_BODY void daxpy_body(double a, const double* x, double* y,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] * a + y[i];
}

V2D_SIMD_BODY void dscal_body(double c, double d, double* y, std::size_t n) {
  const double md = -d;
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] * md + c;
}

V2D_SIMD_BODY void ddaxpy_body(double a, const double* x, double b,
                               const double* y, double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = x[i] * a + z[i];
    z[i] = y[i] * b + t;
  }
}

V2D_SIMD_BODY void xpby_body(const double* x, double b, double* y,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] * b + x[i];
}

V2D_SIMD_BODY void copy_body(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i];
}

V2D_SIMD_BODY void fill_body(double a, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a;
}

V2D_SIMD_BODY void sub_body(const double* x, const double* y, double* z,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] - y[i];
}

V2D_SIMD_BODY void hadamard_body(const double* x, const double* y, double* z,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] * y[i];
}

V2D_SIMD_BODY void stencil_row_body(const double* cc, const double* cw,
                                   const double* ce, const double* cs,
                                   const double* cn, const double* xc,
                                   const double* xs, const double* xn,
                                   double* y, std::size_t n) {
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    double acc = cc[i] * xc[i];
    acc = cw[i] * xc[i - 1] + acc;
    acc = ce[i] * xc[i + 1] + acc;
    acc = cs[i] * xs[i] + acc;
    acc = cn[i] * xn[i] + acc;
    y[i] = acc;
  }
}

V2D_SIMD_BODY void coupling_row_body(const double* csp, const double* xo,
                                    double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = csp[i] * xo[i] + y[i];
}

V2D_SIMD_BODY void diag_correct_row_body(double omega, const double* d,
                                        const double* r, double* x,
                                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = d[i] * r[i];
    x[i] = omega * t + x[i];
  }
}

V2D_SIMD_BODY void diag_scale_row_body(double omega, const double* d,
                                      const double* r, double* z,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = omega * (d[i] * r[i]);
}

V2D_SIMD_BODY void restrict_row_body(const double* const* fine,
                                    const std::int64_t* fm1,
                                    const std::int64_t* f0,
                                    const std::int64_t* f1,
                                    const std::int64_t* f2, double* coarse,
                                    std::size_t n) {
  constexpr double kQ = 0.25, kT = 0.75;
  constexpr double wj[4] = {0.25, 0.75, 0.75, 0.25};
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (int dj = 0; dj < 4; ++dj) {
      const double* frow = fine[dj];
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

V2D_SIMD_BODY void prolong_row_add_body(const double* cnear,
                                       const double* cfar,
                                       const std::int64_t* near,
                                       const std::int64_t* far, double* fine,
                                       std::size_t n) {
  constexpr double kQ = 0.25, kT = 0.75;
  for (std::size_t f = 0; f < n; ++f) {
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

}  // namespace

// --- the public kernels: each body at the host's width ---------------------

double dprod(const double* x, const double* y, std::size_t n, unsigned vl) {
  return simd::dispatch<&dprod_body>(x, y, n, vl);
}

void daxpy(double a, const double* x, double* y, std::size_t n) {
  simd::dispatch<&daxpy_body>(a, x, y, n);
}

void dscal(double c, double d, double* y, std::size_t n) {
  simd::dispatch<&dscal_body>(c, d, y, n);
}

void ddaxpy(double a, const double* x, double b, const double* y, double* z,
            std::size_t n) {
  simd::dispatch<&ddaxpy_body>(a, x, b, y, z, n);
}

void xpby(const double* x, double b, double* y, std::size_t n) {
  simd::dispatch<&xpby_body>(x, b, y, n);
}

void copy(const double* x, double* y, std::size_t n) {
  simd::dispatch<&copy_body>(x, y, n);
}

void fill(double a, double* y, std::size_t n) {
  simd::dispatch<&fill_body>(a, y, n);
}

void sub(const double* x, const double* y, double* z, std::size_t n) {
  simd::dispatch<&sub_body>(x, y, z, n);
}

void hadamard(const double* x, const double* y, double* z, std::size_t n) {
  simd::dispatch<&hadamard_body>(x, y, z, n);
}

void stencil_row(const double* cc, const double* cw, const double* ce,
                 const double* cs, const double* cn, const double* xc,
                 const double* xs, const double* xn, double* y,
                 std::size_t n) {
  simd::dispatch<&stencil_row_body>(cc, cw, ce, cs, cn, xc, xs, xn, y, n);
}

void coupling_row(const double* csp, const double* xo, double* y,
                  std::size_t n) {
  simd::dispatch<&coupling_row_body>(csp, xo, y, n);
}

void diag_correct_row(double omega, const double* d, const double* r,
                      double* x, std::size_t n) {
  simd::dispatch<&diag_correct_row_body>(omega, d, r, x, n);
}

void diag_scale_row(double omega, const double* d, const double* r, double* z,
                    std::size_t n) {
  simd::dispatch<&diag_scale_row_body>(omega, d, r, z, n);
}

void restrict_row(const double* const fine[4], const std::int64_t* fm1,
                  const std::int64_t* f0, const std::int64_t* f1,
                  const std::int64_t* f2, double* coarse, std::size_t n) {
  simd::dispatch<&restrict_row_body>(fine, fm1, f0, f1, f2, coarse, n);
}

void prolong_row_add(const double* cnear, const double* cfar,
                     const std::int64_t* near, const std::int64_t* far,
                     double* fine, std::size_t n) {
  simd::dispatch<&prolong_row_add_body>(cnear, cfar, near, far, fine, n);
}
}  // namespace v2d::linalg::native
