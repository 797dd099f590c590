/// \file bench_kernels_native.cpp
/// \brief Host wall-time of the VLA kernels: interpreter vs native fast path.
///
/// Everything else in bench/ reports *simulated A64FX* time.  This binary
/// measures what the kernels actually cost on the build machine under the
/// two VlaExecMode backends — the before/after of the fast-path engine —
/// plus a plain scalar loop as the floor.  Since both backends produce
/// bit-identical results and recordings (tests/test_vla_fastpath.cpp), the
/// speedup column is pure instrumentation overhead removed; it bounds how
/// long the simulation benches take at scale.  The dot-exact row is the
/// solver's inner product (support/exact_sum.hpp) on dprod's vectors, so
/// its native ns/elem over dprod's records what exactness costs.  The
/// dot-gang3 row is BiCGSTAB's gang {t·s, t·t, s·s} from two vectors in one
/// sweep, in ns per pair and element, and the dot-exact-wide row spreads
/// the factors over enough binades that the exact dot re-anchors and takes
/// its third fold.
/// Self-timed, no external benchmark dependency; emits BENCH_kernels.json
/// for CI trend tracking.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/mg/mg_kernels.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"

namespace {

using namespace v2d;
using vla::Context;
using vla::VectorArch;
using vla::VlaExecMode;

std::vector<double> make_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.5, 1.5);
  return v;
}

/// Factors in [1, 2) with random signs, scaled by 2^−k for k uniform in
/// [0, 20] and by 2^(rise·i/n), in eight steps, along the vector.
std::vector<double> spread_vec(std::size_t n, std::uint64_t seed, int rise) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = rng.uniform(1.0, 2.0);
    const int e = rise * static_cast<int>(i * 8 / n) / 8 -
                  static_cast<int>(rng.below(21));
    v[i] = std::ldexp(rng.below(2) != 0 ? m : -m, e);
  }
  return v;
}

volatile double g_sink = 0.0;

/// Best-of-3 wall time of `body()` repeated until each sample spans at
/// least `min_ms` milliseconds (minimum, so background noise only ever
/// inflates the other samples).
template <typename Body>
double seconds_per_call(Body&& body, double min_ms) {
  using clock = std::chrono::steady_clock;
  // Calibrate the repetition count.
  std::uint64_t reps = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) body();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (ms >= min_ms || reps > (1ULL << 30)) break;
    reps = ms <= 0.01 ? reps * 16
                      : static_cast<std::uint64_t>(
                            static_cast<double>(reps) * (1.2 * min_ms / ms)) +
                            1;
  }
  double best = 1e300;
  for (int sample = 0; sample < 3; ++sample) {
    const auto t0 = clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) body();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best / static_cast<double>(reps);
}

struct Result {
  std::string kernel;
  std::size_t n;
  unsigned vl_bits;
  double interp_ns_per_elem;
  double native_ns_per_elem;
  double scalar_ns_per_elem;  // 0 when no scalar reference was run
  double speedup() const { return interp_ns_per_elem / native_ns_per_elem; }
};

/// Run `body(ctx)` under both backends and record ns per element, where a
/// call processes `elems` elements (n unless given).
template <typename Body>
Result measure(const std::string& name, std::size_t n, unsigned bits,
               double min_ms, Body&& body, std::size_t elems = 0) {
  Context interp{VectorArch(bits), VlaExecMode::Interpret};
  Context fast{VectorArch(bits), VlaExecMode::Native};
  Result res;
  res.kernel = name;
  res.n = n;
  res.vl_bits = bits;
  const double si = seconds_per_call([&] { body(interp); }, min_ms);
  const double sn = seconds_per_call([&] { body(fast); }, min_ms);
  const auto per = static_cast<double>(elems == 0 ? n : elems);
  res.interp_ns_per_elem = 1e9 * si / per;
  res.native_ns_per_elem = 1e9 * sn / per;
  res.scalar_ns_per_elem = 0.0;
  return res;
}

void write_json(const std::string& path, const std::vector<Result>& results) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"kernel\": \"%s\", \"n\": %zu, \"vl_bits\": %u, "
                  "\"interp_ns_per_elem\": %.4f, \"native_ns_per_elem\": "
                  "%.4f, \"scalar_ns_per_elem\": %.4f, \"speedup\": %.2f}%s\n",
                  r.kernel.c_str(), r.n, r.vl_bits, r.interp_ns_per_elem,
                  r.native_ns_per_elem, r.scalar_ns_per_elem, r.speedup(),
                  i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("sizes", "1000,40000", "comma list of vector lengths");
  opt.add("vl", "512", "VLA vector length in bits");
  opt.add("min-ms", "20", "minimum milliseconds per timing sample");
  opt.add("out", "BENCH_kernels.json", "JSON output path (empty = none)");
  unsigned bits = 0;
  double min_ms = 0.0;
  std::vector<std::size_t> sizes;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_kernels_native")) return 0;
    bits = opt.get_int<unsigned>("vl");
    min_ms = opt.get_double("min-ms");
    sizes = opt.get_int_list<std::size_t>("sizes");
    for (const std::size_t n : sizes)
      if (n == 0) throw Error("option --sizes needs positive lengths");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_kernels_native");
    return 1;
  }

  std::vector<Result> results;
  for (const std::size_t n : sizes) {
    const auto x = make_vec(n, 1), w = make_vec(n, 2);
    auto y = make_vec(n, 3);
    std::vector<double> z(n);
    const linalg::Tile row = linalg::Tile::row(n);

    results.push_back(measure("dprod", n, bits, min_ms, [&](Context& ctx) {
      g_sink = linalg::dprod(ctx, x, w);
      (void)ctx.take_counts();
    }));
    // The solver's inner product: the same priced DPROD stream, but the
    // value is the exact sum of the products (what dot_ganged runs), so
    // its native column over dprod's is the cost of exactness.
    results.push_back(
        measure("dot-exact", n, bits, min_ms, [&](Context& ctx) {
          linalg::dprod_record_only(ctx, x.data(), w.data(),
                                    linalg::Tile::row(n));
          ExactSum s;
          s.add_dot_rows(x.data(), 0, w.data(), 0, n, 1);
          g_sink = s.value();
          (void)ctx.take_counts();
        }));
    // BiCGSTAB's gang {t·s, t·t, s·s}: three priced DPRODs, one exact sweep
    // over the two vectors, in ns per pair and element.
    results.push_back(measure(
        "dot-gang3", n, bits, min_ms,
        [&](Context& ctx) {
          const linalg::Tile t = linalg::Tile::row(n);
          linalg::dprod_record_only(ctx, x.data(), w.data(), t);
          linalg::dprod_record_only(ctx, x.data(), x.data(), t);
          linalg::dprod_record_only(ctx, w.data(), w.data(), t);
          ExactSum ts, tt, ss;
          ExactSum::Gang gang(0, n, 1);
          gang.add(x.data(), w.data(), &ts);
          gang.add(x.data(), x.data(), &tt);
          gang.add(w.data(), w.data(), &ss);
          gang.sweep();
          g_sink = ts.value() + tt.value() + ss.value();
          (void)ctx.take_counts();
        },
        3 * n));
    // The exact dot on factors spread over 20 binades each and rising by 32
    // binades along the vector: its lanes re-anchor at each rise, and the
    // smallest products need the third fold.
    {
      const auto xw = spread_vec(n, 13, 32), ww = spread_vec(n, 14, 0);
      results.push_back(
          measure("dot-exact-wide", n, bits, min_ms, [&](Context& ctx) {
            linalg::dprod_record_only(ctx, xw.data(), ww.data(),
                                      linalg::Tile::row(n));
            ExactSum s;
            s.add_dot_rows(xw.data(), 0, ww.data(), 0, n, 1);
            g_sink = s.value();
            (void)ctx.take_counts();
          }));
    }
    results.push_back(measure("daxpy", n, bits, min_ms, [&](Context& ctx) {
      linalg::daxpy(ctx, 1.0000001, x.data(), y.data(), row);
      (void)ctx.take_counts();
    }));
    // Plain scalar daxpy: the floor the native path is chasing.
    {
      auto ys = make_vec(n, 3);
      const double s = seconds_per_call(
          [&] {
            for (std::size_t i = 0; i < n; ++i)
              ys[i] += 1.0000001 * x[i];
            g_sink = ys[n / 2];
          },
          min_ms);
      results.back().scalar_ns_per_elem = 1e9 * s / static_cast<double>(n);
    }
    results.push_back(measure("dscal", n, bits, min_ms, [&](Context& ctx) {
      linalg::dscal(ctx, 0.75, 0.9999999, y.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("ddaxpy", n, bits, min_ms, [&](Context& ctx) {
      linalg::ddaxpy(ctx, 1.0000001, x.data(), 0.9999999, w.data(), y.data(),
                     row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("xpby", n, bits, min_ms, [&](Context& ctx) {
      linalg::xpby(ctx, x.data(), 0.9999999, y.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("copy", n, bits, min_ms, [&](Context& ctx) {
      linalg::copy(ctx, x.data(), z.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("fill", n, bits, min_ms, [&](Context& ctx) {
      linalg::fill(ctx, 1.25, z.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("sub", n, bits, min_ms, [&](Context& ctx) {
      linalg::sub(ctx, x.data(), w.data(), z.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(measure("hadamard", n, bits, min_ms, [&](Context& ctx) {
      linalg::hadamard(ctx, x.data(), w.data(), z.data(), row);
      (void)ctx.take_counts();
    }));

    // MATVEC in its row form: one stencil row of n zones (ghosted center).
    const auto cc = make_vec(n, 5), cw = make_vec(n, 6), ce = make_vec(n, 7),
               cs = make_vec(n, 8), cn = make_vec(n, 9);
    const auto xc = make_vec(n + 2, 10), xs = make_vec(n, 11),
               xn = make_vec(n, 12);
    results.push_back(measure("matvec", n, bits, min_ms, [&](Context& ctx) {
      linalg::stencil_rows(ctx, cc.data(), cw.data(), ce.data(), cs.data(),
                           cn.data(), xc.data() + 1, xs.data(), xn.data(),
                           z.data(), row);
      (void)ctx.take_counts();
    }));
    results.push_back(
        measure("mg-smooth", n, bits, min_ms, [&](Context& ctx) {
          linalg::mg::diag_correct_rows(ctx, 0.8, x.data(), w.data(),
                                        y.data(), row);
          (void)ctx.take_counts();
        }));
  }

  std::cout << "native kernels at the " << simd::width_name(simd::width())
            << " width\n";
  TableWriter table("VLA kernel host wall-time: interpreter vs native");
  table.set_columns({"kernel", "n", "interp ns/elem", "native ns/elem",
                     "scalar ns/elem", "speedup"});
  bool ok = true;
  for (const Result& r : results) {
    table.add_row({r.kernel, std::to_string(r.n),
                   TableWriter::num(r.interp_ns_per_elem, 3),
                   TableWriter::num(r.native_ns_per_elem, 3),
                   r.scalar_ns_per_elem > 0.0
                       ? TableWriter::num(r.scalar_ns_per_elem, 3)
                       : "",
                   TableWriter::num(r.speedup(), 1)});
    // The fast-path engine exists to beat the interpreter by a wide
    // margin on the hot Table II kernels; flag regressions loudly.
    if (r.n >= 40000 &&
        (r.kernel == "daxpy" || r.kernel == "dprod" || r.kernel == "matvec") &&
        r.speedup() < 5.0) {
      ok = false;
    }
  }
  table.print(std::cout);

  const std::string out = opt.get("out");
  if (!out.empty()) {
    write_json(out, results);
    std::cout << "\nwrote " << out << "\n";
  }
  if (!ok) {
    std::cerr << "FAIL: native fast path under 5x on a hot kernel at "
                 "n >= 40000\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_kernels_native: " << e.what() << '\n';
  return 1;
}
