/// \file test_support.cpp
/// \brief Unit tests for the support substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "exact_sum_cases.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace v2d {
namespace {

// --- error ------------------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    V2D_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  V2D_CHECK(2 + 2 == 4, "never");
  SUCCEED();
}

TEST(Error, FailAlwaysThrows) { EXPECT_THROW(V2D_FAIL("boom"), Error); }

// --- options ----------------------------------------------------------------

TEST(Options, DefaultsAndTypes) {
  Options o;
  o.add("alpha", "1.5", "a double").add("count", "7", "an int");
  o.add_flag("verbose", "a flag");
  const char* argv[] = {"prog"};
  o.parse(1, argv);
  EXPECT_DOUBLE_EQ(o.get_double("alpha"), 1.5);
  EXPECT_EQ(o.get_int("count"), 7);
  EXPECT_FALSE(o.get_bool("verbose"));
  EXPECT_FALSE(o.was_set("alpha"));
}

TEST(Options, BoolAcceptsOnlyKnownSpellings) {
  for (const char* yes : {"1", "true"}) {
    Options o;
    o.add("ganged", "0", "");
    const char* argv[] = {"prog", "--ganged", yes};
    o.parse(3, argv);
    EXPECT_TRUE(o.get_bool("ganged")) << yes;
  }
  for (const char* no : {"0", "false"}) {
    Options o;
    o.add("ganged", "1", "");
    const char* argv[] = {"prog", "--ganged", no};
    o.parse(3, argv);
    EXPECT_FALSE(o.get_bool("ganged")) << no;
  }
  // Anything else is an error naming the option, never a silent false.
  for (const char* bad : {"on", "yes", "2"}) {
    Options o;
    o.add("ganged", "1", "");
    const char* argv[] = {"prog", "--ganged", bad};
    o.parse(3, argv);
    try {
      (void)o.get_bool("ganged");
      ADD_FAILURE() << "accepted --ganged " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--ganged"), std::string::npos)
          << bad;
    }
  }
}

TEST(Options, ParseBothSyntaxes) {
  Options o;
  o.add("alpha", "0", "").add("beta", "0", "");
  o.add_flag("flag", "");
  const char* argv[] = {"prog", "--alpha", "3", "--beta=4", "--flag"};
  o.parse(5, argv);
  EXPECT_EQ(o.get_int("alpha"), 3);
  EXPECT_EQ(o.get_int("beta"), 4);
  EXPECT_TRUE(o.get_bool("flag"));
  EXPECT_TRUE(o.was_set("alpha"));
  // No program reads a positional argument, so a stray one is an error
  // (`v2d --steps 5 10` must not run 5 steps).
  Options p;
  p.add("alpha", "0", "");
  const char* pargv[] = {"prog", "--alpha", "3", "pos"};
  try {
    p.parse(4, pargv);
    ADD_FAILURE() << "accepted a positional argument";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'pos'"), std::string::npos);
  }
}

TEST(Options, HelpPrintsUsageOnlyOnACommandLine) {
  for (const char* help : {"--help", "-h"}) {
    Options o;
    o.add("alpha", "0", "the alpha value");
    // Help wins wherever it sits, even after a bad argument.
    const char* argv[] = {"prog", "--alpha", "3", "stray", help};
    std::ostringstream out;
    EXPECT_FALSE(o.parse_command_line(5, argv, "prog", out)) << help;
    EXPECT_EQ(out.str().rfind("usage: prog", 0), 0u) << help;
    EXPECT_NE(out.str().find("the alpha value"), std::string::npos) << help;
    EXPECT_FALSE(o.was_set("alpha")) << help;
    // Anywhere else (a farm job line) help is an error, with no output.
    Options j;
    j.add("alpha", "0", "");
    const char* jargv[] = {"job", help};
    EXPECT_THROW(j.parse(2, jargv), Error) << help;
  }
  Options o;
  o.add("alpha", "0", "");
  const char* argv[] = {"prog", "--alpha", "3"};
  std::ostringstream out;
  EXPECT_TRUE(o.parse_command_line(3, argv, "prog", out));
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(o.get_int("alpha"), 3);
}

TEST(Options, UnknownOptionThrows) {
  Options o;
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(o.parse(3, argv), Error);
}

TEST(Options, MissingValueThrows) {
  Options o;
  o.add("alpha", "0", "");
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_THROW(o.parse(2, argv), Error);
}

TEST(Options, BadNumberThrows) {
  Options o;
  o.add("alpha", "0", "");
  o.add("huge", "0", "");
  o.add("wide", "0", "");
  const char* argv[] = {"prog",   "--alpha", "xyz",
                        "--huge", "99999999999999999999",
                        "--wide", "4294967297"};
  o.parse(7, argv);
  EXPECT_THROW(o.get_int("alpha"), Error);
  EXPECT_THROW(o.get_double("alpha"), Error);
  // A number must be finite and inside double's range: strtod's inf, nan
  // and overflowing 1e999 would otherwise run as a degenerate "pass".
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    Options d;
    d.add("dt", "0", "");
    const char* dargv[] = {"prog", "--dt", bad};
    d.parse(3, dargv);
    try {
      (void)d.get_double("dt");
      ADD_FAILURE() << "accepted --dt " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--dt"), std::string::npos) << bad;
    }
  }
  // Past the parser's range, and past the field's: neither wraps.
  EXPECT_THROW(o.get_int("huge"), Error);
  EXPECT_THROW(o.get_int<int>("wide"), Error);
  EXPECT_THROW(o.get_int<unsigned>("wide"), Error);
  EXPECT_EQ(o.get_int("wide"), 4294967297L);
  try {
    (void)o.get_int<int>("wide");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--wide"), std::string::npos);
  }
}

TEST(Options, IntListChecksEveryItem) {
  Options o;
  o.add("sizes", "64,,128", "");
  o.add("neg", "8,-1", "");
  o.add("wide", "1,4294967297", "");
  o.add("junk", "1,x", "");
  o.add("none", ",", "");
  EXPECT_EQ(o.get_int_list<int>("sizes"), (std::vector<int>{64, 128}));
  EXPECT_EQ(o.get_int_list<int>("neg"), (std::vector<int>{8, -1}));
  EXPECT_THROW(o.get_int_list<std::size_t>("neg"), Error);
  EXPECT_THROW(o.get_int_list<int>("wide"), Error);
  EXPECT_EQ(o.get_int_list<long>("wide").back(), 4294967297L);
  EXPECT_THROW(o.get_int_list<int>("none"), Error);
  try {
    (void)o.get_int_list<int>("junk");
    ADD_FAILURE() << "accepted --junk 1,x";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--junk"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos);
  }
}

TEST(Options, DuplicateRegistrationThrows) {
  Options o;
  o.add("a", "1", "");
  EXPECT_THROW(o.add("a", "2", ""), Error);
}

TEST(Options, UsageListsEverything) {
  Options o;
  o.add("alpha", "1", "the alpha value");
  o.add_flag("quiet", "hush");
  const std::string u = o.usage("prog");
  EXPECT_NE(u.find("--alpha"), std::string::npos);
  EXPECT_NE(u.find("--quiet"), std::string::npos);
  EXPECT_NE(u.find("the alpha value"), std::string::npos);
  EXPECT_NE(u.find("--help"), std::string::npos);
}

// --- table ------------------------------------------------------------------

TEST(TableWriter, AlignsColumns) {
  TableWriter t("title");
  t.set_columns({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter t;
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableWriter, TsvRoundTrip) {
  TableWriter t;
  t.set_columns({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.tsv(), "x\ty\n1\t2\n");
}

TEST(TableWriter, NumFormatting) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::integer(42), "42");
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

// --- units ------------------------------------------------------------------

TEST(Units, Bytes) {
  EXPECT_EQ(units::bytes(512), "512.00 B");
  EXPECT_EQ(units::bytes(2048), "2.00 KiB");
  EXPECT_EQ(units::bytes(3.0 * 1024 * 1024), "3.00 MiB");
}

TEST(Units, Seconds) {
  EXPECT_EQ(units::seconds(2.5), "2.50 s");
  EXPECT_EQ(units::seconds(2.5e-3), "2.50 ms");
  EXPECT_EQ(units::seconds(2.5e-6), "2.50 us");
}

TEST(Units, Rate) {
  EXPECT_EQ(units::rate(2.0e9, "flop"), "2.00 Gflop/s");
}

// --- exact_sum --------------------------------------------------------------

using exact_cases::SlowSum;

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

double sum_of(const std::vector<double>& xs) {
  ExactSum s;
  for (const double x : xs) s.add(x);
  return s.value();
}

/// Addends spanning `binades` binades around 2^center, with cancelling
/// pairs mixed in.
std::vector<double> spread_addends(Rng& r, std::size_t n, int center,
                                   int binades) {
  std::vector<double> xs;
  while (xs.size() < n) {
    const int e = center + static_cast<int>(r.below(
                               static_cast<std::uint64_t>(binades) + 1)) -
                  binades / 2;
    const double x = std::ldexp(r.uniform(-1.0, 1.0), e);
    xs.push_back(x);
    if (r.below(4) == 0 && xs.size() < n) xs.push_back(-x);
  }
  return xs;
}

TEST(ExactSum, CancellationIsExact) {
  ExactSum s;
  s.add(1.0e16);
  s.add(1.0);
  s.add(-1.0e16);
  EXPECT_EQ(bits_of(s.value()), bits_of(1.0));
  ExactSum z;
  z.add(0x1p-1000);
  z.add(-0x1p-1000);
  EXPECT_EQ(bits_of(z.value()), bits_of(0.0));  // +0, not −0
  EXPECT_EQ(bits_of(ExactSum{}.value()), bits_of(0.0));
}

TEST(ExactSum, PermutationAndGroupingInvariant) {
  Rng r(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs = spread_addends(r, 500, 0, 400);
    const double whole = sum_of(xs);
    std::vector<double> rev(xs.rbegin(), xs.rend());
    EXPECT_EQ(bits_of(sum_of(rev)), bits_of(whole));
    // Random groups merged in a random order.
    std::vector<ExactSum> groups(1 + r.below(9));
    for (const double x : xs) groups[r.below(groups.size())].add(x);
    ExactSum merged;
    while (!groups.empty()) {
      const std::size_t k = r.below(groups.size());
      merged.add(groups[k]);
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(k));
    }
    EXPECT_EQ(bits_of(merged.value()), bits_of(whole)) << "trial " << trial;
  }
}

TEST(ExactSum, DotRowsEqualElementwiseUnderEveryTiling) {
  Rng r(7);
  // Factors spanning 6, 26 or 300 binades give products spanning about 12
  // (two folds carry them), 52 (the third fold is needed) or 600 binades
  // (blocks fall back to product-by-product sums).
  constexpr int kSpans[] = {6, 26, 300};
  for (int trial = 0; trial < 45; ++trial) {
    const std::size_t n = 1 + r.below(3000);
    const int span = kSpans[trial % 3];
    const std::vector<double> x = spread_addends(r, n, 0, span);
    const std::vector<double> y = spread_addends(r, n, 0, span);
    ExactSum elem;
    SlowSum slow;
    for (std::size_t i = 0; i < n; ++i) {
      elem.add(x[i] * y[i]);
      slow.add(x[i] * y[i]);
    }
    EXPECT_EQ(bits_of(elem.value()), bits_of(slow.value()));
    for (const std::size_t ni : {std::size_t{1}, std::size_t{7}, n}) {
      const std::size_t nj = n / ni;
      ExactSum tiled, rows;
      tiled.add_dot_rows(x.data(), static_cast<std::ptrdiff_t>(ni), y.data(),
                         static_cast<std::ptrdiff_t>(ni), ni, nj);
      for (std::size_t j = 0; j < nj; ++j)
        rows.add_dot_rows(x.data() + j * ni, 0, y.data() + j * ni, 0, ni, 1);
      ExactSum ref;
      for (std::size_t i = 0; i < ni * nj; ++i) ref.add(x[i] * y[i]);
      EXPECT_EQ(bits_of(tiled.value()), bits_of(ref.value()))
          << "trial " << trial << " ni " << ni;
      EXPECT_EQ(bits_of(rows.value()), bits_of(ref.value()));
    }
  }
}

TEST(ExactSum, FoldsCarryProductsFarBelowTheLargest) {
  // Cancelling ±2^40 products anchor every block; the others, 26 to 66
  // binades below them with full significands, are carried exactly by the
  // second and third folds, and the cancellation brings their lowest bits
  // into the rounded result.
  Rng r(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 64 + r.below(4000);
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 512 < 2) {
        x[i] = 0x1p20;
        y[i] = i % 2 == 0 ? 0x1p20 : -0x1p20;
      } else {
        x[i] = std::ldexp(1.0 + r.uniform(), -static_cast<int>(r.below(14)));
        y[i] = std::ldexp(r.below(2) != 0 ? 1.0 + r.uniform()
                                          : -1.0 - r.uniform(),
                          12 - static_cast<int>(r.below(26)));
      }
    }
    for (const std::size_t ni : {std::size_t{1}, std::size_t{7}, n}) {
      ExactSum s;
      s.add_dot_rows(x.data(), static_cast<std::ptrdiff_t>(ni), y.data(),
                     static_cast<std::ptrdiff_t>(ni), ni, n / ni);
      SlowSum part;
      for (std::size_t i = 0; i < ni * (n / ni); ++i) part.add(x[i] * y[i]);
      EXPECT_EQ(bits_of(s.value()), bits_of(part.value()))
          << "trial " << trial << " ni " << ni;
    }
  }
}

TEST(ExactSum, RoundsCorrectlyAgainstSlowReference) {
  Rng r(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int center = static_cast<int>(r.below(1800)) - 900;
    const std::vector<double> xs =
        spread_addends(r, 1 + r.below(60), center, 1 + trial % 120);
    SlowSum slow;
    for (const double x : xs) slow.add(x);
    EXPECT_EQ(bits_of(sum_of(xs)), bits_of(slow.value())) << "trial " << trial;
  }
}

TEST(ExactSum, TiesRoundToEvenAndStickyBitsBreakThem) {
  const double ulp1 = 0x1p-52;
  // Exact ties: even neighbour.
  EXPECT_EQ(bits_of(sum_of({1.0, 0x1p-53})), bits_of(1.0));
  EXPECT_EQ(bits_of(sum_of({1.0 + ulp1, 0x1p-53})), bits_of(1.0 + 2 * ulp1));
  EXPECT_EQ(bits_of(sum_of({-1.0, -0x1p-53})), bits_of(-1.0));
  // A sticky bit far below the round bit breaks the tie.
  EXPECT_EQ(bits_of(sum_of({1.0, 0x1p-53, 0x1p-1074})), bits_of(1.0 + ulp1));
  EXPECT_EQ(bits_of(sum_of({1.0, 0x1p-53, -0x1p-1074})), bits_of(1.0));
  EXPECT_EQ(bits_of(sum_of({0x1p1000, 0x1p947, 0x1p-1074})),
            bits_of(0x1p1000 + 0x1p948));
  EXPECT_EQ(bits_of(sum_of({-0x1p1000, -0x1p947, -0x1p-1074})),
            bits_of(-0x1p1000 - 0x1p948));
  // Below half an ulp, however many bits: round down.
  EXPECT_EQ(bits_of(sum_of({1.0, 0x1p-54, 0x1p-55, 0x1p-200})), bits_of(1.0));
}

TEST(ExactSum, SpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  EXPECT_TRUE(std::isnan(sum_of({1.0, kNaN, 2.0})));
  EXPECT_TRUE(std::isnan(sum_of({kInf, -kInf})));
  EXPECT_TRUE(std::isnan(sum_of({kInf, kNaN})));
  EXPECT_EQ(sum_of({1.0, kInf, -3.0}), kInf);
  EXPECT_EQ(sum_of({-kInf, -kInf, kMax}), -kInf);
  // A finite sum beyond DBL_MAX overflows; an intermediate one does not.
  EXPECT_EQ(sum_of({kMax, kMax}), kInf);
  EXPECT_EQ(sum_of({-kMax, -kMax}), -kInf);
  EXPECT_EQ(bits_of(sum_of({kMax, kMax, -kMax})), bits_of(kMax));
  // The flags survive merges.
  ExactSum a, b;
  a.add(1.0);
  b.add(kInf);
  a.add(b);
  EXPECT_EQ(a.value(), kInf);
  ExactSum c;
  c.add(-kInf);
  a.add(c);
  EXPECT_TRUE(std::isnan(a.value()));
  // Non-finite products through the tile kernel.
  const std::vector<double> x = {1.0, 2.0, 1e300, 4.0};
  const std::vector<double> y = {1.0, kNaN, 1.0, 1.0};
  const std::vector<double> big = {1.0, 1.0, 1e300, 1.0};
  ExactSum nan_dot, inf_dot;
  nan_dot.add_dot_rows(x.data(), 0, y.data(), 0, x.size(), 1);
  inf_dot.add_dot_rows(x.data(), 0, big.data(), 0, x.size(), 1);
  EXPECT_TRUE(std::isnan(nan_dot.value()));
  EXPECT_EQ(inf_dot.value(), kInf);
}

TEST(ExactSum, Subnormals) {
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(bits_of(sum_of({kMin, kMin, kMin})), bits_of(3 * kMin));
  EXPECT_EQ(bits_of(sum_of({0x1p-1022, -0x1p-1022, kMin})), bits_of(kMin));
  EXPECT_EQ(bits_of(sum_of({0x1p-1022, -kMin})), bits_of(0x1p-1022 - kMin));
  // Products in the subnormal range go through the tile kernel exactly.
  Rng r(5);
  std::vector<double> x(300), y(300);
  SlowSum slow;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::ldexp(r.uniform(-1.0, 1.0), -1000);
    y[i] = std::ldexp(r.uniform(-1.0, 1.0), -40 - static_cast<int>(i % 40));
    slow.add(x[i] * y[i]);
  }
  ExactSum s;
  s.add_dot_rows(x.data(), 0, y.data(), 0, x.size(), 1);
  EXPECT_EQ(bits_of(s.value()), bits_of(slow.value()));
}

TEST(ExactSum, CarryHeadroomOverTwoMillionLargeAdds) {
  // More than 2^20 adds of values near DBL_MAX/2^30 exercise the periodic
  // carry propagation in both signs.
  const double v = std::ldexp(0x1.fffffffffffffp0, 1023 - 30);
  constexpr int kAdds = (1 << 21) + 3;
  ExactSum up, down;
  for (int i = 0; i < kAdds; ++i) {
    up.add(v);
    down.add(-v);
  }
  EXPECT_EQ(bits_of(up.value()), bits_of(v * kAdds));
  EXPECT_EQ(bits_of(down.value()), bits_of(-v * kAdds));
  ExactSum both = up;
  both.add(down);
  both.add(0x1p-1074);
  EXPECT_EQ(bits_of(both.value()), bits_of(0x1p-1074));
}

/// Run `check` at the generic width and, where the CPU has it, at AVX2.
template <typename Check>
void at_each_width(Check&& check) {
  const simd::Width host = simd::width();
  for (const simd::Width w : {simd::Width::Generic, simd::Width::Avx2}) {
    if (w == simd::Width::Avx2 && !simd::avx2_supported()) continue;
    SCOPED_TRACE(simd::width_name(w));
    simd::set_width(w);
    check();
  }
  simd::set_width(host);
}

TEST(ExactSum, OnePassPathsMatchSlowSum) {
  // Rising rows (a re-anchor and rollback on every row), a huge product in
  // the last row, spans needing the third fold or the product-by-product
  // sum, one-element rows past the add cap, rows longer than a segment,
  // all-zero rows and subnormal-only tiles.
  for (const exact_cases::DotTile& t : exact_cases::one_pass_tiles()) {
    const std::uint64_t want = bits_of(t.slow());
    at_each_width([&] { EXPECT_EQ(bits_of(t.exact()), want) << t.name; });
  }
}

TEST(ExactSum, GangEqualsSeparateDotsAndSlowSum) {
  // Every gang shape with a sweep of its own, and gangs that run pair by
  // pair, over tiles that re-anchor, spill and take every fallback.
  for (const exact_cases::GangTile& g : exact_cases::gang_tiles()) {
    std::uint64_t slow[3][3];
    for (int a = 0; a < 3; ++a)
      for (int b = a; b < 3; ++b) slow[a][b] = slow[b][a] = bits_of(g.slow(a, b));
    for (const auto& pairs : exact_cases::gang_patterns()) {
      at_each_width([&] {
        const std::vector<double> got = exact_cases::run_gang(g, pairs);
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const auto [a, b] = pairs[k];
          EXPECT_EQ(bits_of(got[k]), bits_of(g.rows(a, b)))
              << g.name << " pair " << k << " of " << pairs.size();
          EXPECT_EQ(bits_of(got[k]), slow[a][b])
              << g.name << " pair " << k << " of " << pairs.size();
        }
      });
    }
  }
}

TEST(ExactSum, GangKeepsOnePairsSpecialValueToItself) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  at_each_width([&] {
    EXPECT_TRUE(std::isnan(exact_cases::special_gang(
        std::numeric_limits<double>::quiet_NaN())[1]));
    EXPECT_EQ(exact_cases::special_gang(1e308)[1], kInf);
    EXPECT_EQ(exact_cases::special_gang(-1e308)[1], -kInf);
    EXPECT_EQ(exact_cases::special_gang(-kInf)[1], -kInf);
  });
}

TEST(ExactSum, TwoFoldsHoldAWorstCaseWindowAtTheCap) {
  // Products 1.5 + k·2^−52 whose residue after the first fold (grid 2^−40
  // at this anchor) is ±2007·2^−52, just under half its ulp.  In `worst`
  // the same columns always take the + residue, so their second-fold lanes
  // drift by 2^8 such residues per window, the most the add cap allows;
  // in `spread` every lane alternates.  Both tiles hold the same products
  // in each row.  The folds derived from the cap keep every lane in its
  // binade, so both take the same two-fold spills and end in the same
  // accumulator state; a fold stride too wide for the cap sends `worst`
  // to the product-by-product sum, which ends in another state.
  constexpr std::size_t kCols = 16, kRows = 256;
  constexpr bool kPattern[kCols] = {1, 1, 0, 1, 0, 1, 0, 0,
                                    1, 1, 0, 1, 0, 1, 0, 0};
  Rng r(31);
  std::vector<double> worst(kCols * kRows), spread(kCols * kRows);
  const std::vector<double> ones(kCols * kRows, 1.0);
  SlowSum slow;
  for (std::size_t j = 0; j < kRows; ++j) {
    std::vector<double> plus, minus;
    for (std::size_t k = 0; k < kCols / 2; ++k) {
      const std::uint64_t base = (1ull << 51) + 4096 * r.below(1ull << 38);
      plus.push_back(1.0 + std::ldexp(static_cast<double>(base + 2007), -52));
      minus.push_back(1.0 + std::ldexp(static_cast<double>(base - 2007), -52));
    }
    std::size_t np = 0, nm = 0, sp = 0, sm = 0;
    for (std::size_t i = 0; i < kCols; ++i) {
      worst[j * kCols + i] = kPattern[i] ? plus[np++] : minus[nm++];
      const bool up = kPattern[i] == (j % 2 == 0);
      spread[j * kCols + i] = up ? plus[sp++] : minus[sm++];
      slow.add(worst[j * kCols + i]);
    }
  }
  at_each_width([&] {
    ExactSum w, s;
    w.add_dot_rows(worst.data(), kCols, ones.data(), kCols, kCols, kRows);
    s.add_dot_rows(spread.data(), kCols, ones.data(), kCols, kCols, kRows);
    EXPECT_EQ(bits_of(w.value()), bits_of(slow.value()));
    EXPECT_EQ(bits_of(s.value()), bits_of(slow.value()));
    EXPECT_TRUE(w == s) << "the worst-case window left the two-fold path";
  });
}

TEST(ExactSum, GangSweepsWhenAPairDoesNotFit) {
  // A fourth operand, then a fourth pair, each start a new gang; every
  // pair still reaches its own accumulator, once.
  const double v[4] = {1.0, 2.0, 3.0, 4.0};
  ExactSum acc[5];
  ExactSum::Gang g(0, 1, 1);
  g.add(&v[0], &v[1], &acc[0]);
  g.add(&v[1], &v[2], &acc[1]);
  g.add(&v[2], &v[3], &acc[2]);
  g.add(&v[3], &v[3], &acc[3]);
  g.add(&v[0], &v[0], &acc[4]);
  g.sweep();
  g.sweep();  // an empty gang sweeps nothing
  EXPECT_EQ(acc[0].value(), 2.0);
  EXPECT_EQ(acc[1].value(), 6.0);
  EXPECT_EQ(acc[2].value(), 12.0);
  EXPECT_EQ(acc[3].value(), 16.0);
  EXPECT_EQ(acc[4].value(), 1.0);
}

}  // namespace
}  // namespace v2d
