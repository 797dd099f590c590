/// \file bench_fusion.cpp
/// \brief Fused-vs-unfused ablation: host wall-time, simulated cycles and
/// priced bytes for the --fuse composites.
///
/// Runs the same Jacobi/SPAI(0)-preconditioned CG solve on the FLD
/// diffusion system twice per configuration — FuseMode::Off (the Table II
/// kernel-per-pass recording) and FuseMode::Plan (the MATVEC+DPROD,
/// DAXPY₂, precond+ganged-dot and fused-residual composites of
/// src/linalg/fusion/) — across grid sizes and the full architectural VL
/// range.  Fusion must not change the trajectory (the solves are verified
/// bit-identical here, not just in the tests), so every delta in the three
/// reported currencies is pure pass-elimination:
///
///   host seconds      — what the build machine pays to run the numerics
///   simulated seconds — what the modelled A64FX pays (CostModel cycles)
///   bytes moved       — the priced traffic CostModel's roofline sees
///
/// --fuse chooses only what is recorded: natively both solves run every
/// composite's fused body, and their host times differ only where CG's
/// tail (apply_dot2) keeps its unfused sequence under Off.  So the host
/// gain of fusion is timed at the tile entries: one CG iteration's fused
/// entries (the stencil with the p·q dot, and the preconditioner with the
/// r update and the {r·z, r·r} gang) against the primitive entries they
/// replace (stencil, DPROD, DAXPY, HADAMARD and two DPRODs, each DPROD
/// with dot_ganged's exact gang), on the same operands — the solved
/// system, whose grid is one tile — interleaved, keeping the min of
/// kTileSamples runs of each.  The solves' host times are reported beside
/// it.
///
/// Emits BENCH_fusion.json for tools/check_bench.py; the in-binary gate
/// fails the run if the fused trajectory diverges anywhere, or if, on
/// memory-bound sizes (>= --gate-size), the fused tile entries' host
/// speedup drops under --gate-speedup or fusion stops reducing the
/// simulated memory cycles and bytes.
///
///   ./bench_fusion [--sizes 64,128,256] [--vls 128,512,2048]
///                  [--precond spai0] [--tol 1e-7] [--max-iter 600]
///                  [--gate-size 256] [--gate-speedup 1.3]
///                  [--out BENCH_fusion.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "compiler/profile.hpp"
#include "linalg/cg.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "mpisim/exec_model.hpp"
#include "perfmon/perf_stat.hpp"
#include "rad/fld.hpp"
#include "rad/gaussian.hpp"
#include "sim/machine.hpp"
#include "support/exact_sum.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace v2d;

/// One fuse-mode leg of an ablation cell.
struct Leg {
  int iterations = 0;
  double host_s = 0.0;
  double sim_s = 0.0;
  double mem_cycles = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::vector<double> solution;
};

/// Sampling plan per leg: kRounds rounds of kSamplesPerRound consecutive
/// timed solves (plus one warm-up before the first).  The best sample is
/// kept — the solves are bit-identical repeats, so min is the right
/// statistic against background noise.  Rounds rotate across the two
/// fuse modes so a background-load burst hits both modes equally, while
/// the consecutive samples inside a round keep each leg's working set
/// cache-hot — timing a leg cold adds the same constant to every mode and
/// artificially compresses the speedup ratios.
constexpr int kRounds = 2;
constexpr int kSamplesPerRound = 4;

/// All live state for one fuse-mode leg of an ablation cell.  Sessions are
/// kept alive across the whole cell so the off/plan samples can be
/// interleaved — a background-load burst then hits both modes equally
/// instead of poisoning whichever leg it landed on.
struct LegSession {
  grid::Grid2D g;
  grid::Decomposition dec;
  rad::OpacitySet opac;
  rad::FldConfig fld_cfg;
  rad::FldBuilder builder;
  mpisim::ExecModel em;
  linalg::ExecContext ctx;
  linalg::DistVector e, e_old, rhs, x;
  linalg::StencilOperator A;
  std::unique_ptr<linalg::Preconditioner> M;
  linalg::SolverWorkspace ws;
  linalg::CgSolver cg;
  linalg::SolveOptions sopt;
  Leg leg;

  static rad::OpacitySet make_opac() {
    rad::OpacitySet o(1);
    o.absorption(0) = rad::OpacityLaw::constant(0.0);
    o.scattering(0) = rad::OpacityLaw::constant(10.0);
    return o;
  }
  static rad::FldConfig make_fld_cfg() {
    rad::FldConfig c;
    c.include_absorption = false;
    return c;
  }

  LegSession(int n, unsigned vl_bits, const std::string& precond,
             linalg::FuseMode fuse, double tol, int max_iter)
      : g(n, n, -1.0, 1.0, -1.0, 1.0),
        dec(g, mpisim::CartTopology(1, 1)),
        opac(make_opac()),
        fld_cfg(make_fld_cfg()),
        builder(g, dec, 1, opac, fld_cfg),
        em(sim::MachineSpec::a64fx(), {compiler::cray_2103()}, 1),
        ctx(vla::VectorArch(vl_bits), &em, vla::VlaExecMode::Native, fuse),
        e(g, dec, 1),
        e_old(g, dec, 1),
        rhs(g, dec, 1),
        x(g, dec, 1),
        A(g, dec, 1),
        ws(g, dec, 1),
        cg(ws) {
    rad::GaussianPulse pulse;
    pulse.d_coeff = 1.0 / 30.0;
    pulse.t0 = 1.0;
    pulse.fill(e, 0.0);
    e_old.copy_from(ctx, e);
    builder.build_diffusion(ctx, e, e_old, 0.03, A, rhs);
    M = linalg::make_preconditioner(precond, ctx, A);
    sopt.rel_tol = tol;
    sopt.max_iterations = max_iter;
  }

  /// Run one timed solve; `warm` samples prime caches/allocations and are
  /// discarded.
  void sample(bool warm) {
    using clock = std::chrono::steady_clock;
    em.reset();
    x.fill(ctx, 0.0);
    const auto memo0 = perfmon::MemoCacheStats::of(ctx.vctx);
    const auto t0 = clock::now();
    const auto stats = cg.solve(ctx, A, *M, x, rhs, sopt);
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    leg.iterations = stats.iterations;
    if (warm) return;
    if (leg.host_s == 0.0 || s < leg.host_s) leg.host_s = s;
    const auto memo = perfmon::MemoCacheStats::of(ctx.vctx).since(memo0);
    leg.memo_hits = memo.hits;
    leg.memo_misses = memo.misses;
  }

  /// Harvest the deterministic quantities from the last sample's ledger.
  Leg finish() {
    leg.sim_s = em.elapsed(0);
    const auto led = em.merged_ledger(0);
    for (const auto& [region, cost] : led.regions())
      leg.mem_cycles += cost.memory_cycles;
    leg.bytes = led.total_bytes();
    leg.solution = x.field().gather_global();
    return std::move(leg);
  }
};

/// Interleaved runs of each side of the tile-entry timing; min is kept.
constexpr int kTileSamples = 40;

/// Host seconds of one CG iteration's fused tile entries and of the
/// primitive tile entries they replace.
struct TileTimes {
  double fused_s = 0.0;
  double primitive_s = 0.0;
};

/// Time both sides natively on the session's system: p is the solution
/// (with its ghosts), r the right-hand side and m the radiation energy; q
/// and z are outputs.  Each run adds a·q to r, with a's sign alternating
/// between samples, so r stays near the right-hand side.
TileTimes time_tile_entries(LegSession& s) {
  using clock = std::chrono::steady_clock;
  namespace la = linalg;
  grid::DistField q = s.x.field(), r = s.rhs.field(), z = s.x.field();
  const auto base = [](grid::DistField& f) { return f.view(0, 0).base; };
  const grid::TileView p = s.x.field().view(0, 0);
  const la::Tile t = la::tile_of(p);
  const double *cc = base(s.A.cc()), *cw = base(s.A.cw()),
               *ce = base(s.A.ce()), *cs = base(s.A.cs()),
               *cn = base(s.A.cn()), *m = base(s.e.field());
  double *qb = base(q), *rb = base(r), *zb = base(z);
  vla::Context v(s.ctx.vctx.arch(), vla::VlaExecMode::Native);
  double a = 1e-3;
  const auto fused = [&] {
    ExactSum pq, rz, rr;
    la::fusion::stencil_rows_fused(v, cc, cw, ce, cs, cn, p.base, p.row(-1),
                                   p.row(1), nullptr, nullptr, nullptr,
                                   p.base, &pq, qb, t);
    la::fusion::hadamard_update_dot2(v, m, a, qb, rb, zb, rz, rr, t);
    (void)(pq.value() + rz.value() + rr.value());
  };
  const auto primitive = [&] {
    ExactSum pq, rz, rr;
    la::stencil_rows(v, cc, cw, ce, cs, cn, p.base, p.row(-1), p.row(1), qb,
                     t);
    la::dprod_record_only(v, p.base, qb, t);
    ExactSum::Gang g1(t.stride, t.ni, t.nj);
    g1.add(p.base, qb, &pq);
    g1.sweep();
    la::daxpy(v, a, qb, rb, t);
    la::hadamard(v, m, rb, zb, t);
    la::dprod_record_only(v, rb, zb, t);
    la::dprod_record_only(v, rb, rb, t);
    ExactSum::Gang g2(t.stride, t.ni, t.nj);
    g2.add(rb, zb, &rz);
    g2.add(rb, rb, &rr);
    g2.sweep();
    (void)(pq.value() + rz.value() + rr.value());
  };
  const auto sample = [](const auto& run, double& best) {
    const auto t0 = clock::now();
    run();
    const double sec = std::chrono::duration<double>(clock::now() - t0).count();
    if (best == 0.0 || sec < best) best = sec;
  };
  fused();  // warm-up: memo misses, first touch
  primitive();
  TileTimes out;
  for (int k = 0; k < kTileSamples; ++k) {
    a = k % 2 == 0 ? -1e-3 : 1e-3;
    if (k % 2 == 0) {
      sample(fused, out.fused_s);
      sample(primitive, out.primitive_s);
    } else {
      sample(primitive, out.primitive_s);
      sample(fused, out.fused_s);
    }
    (void)v.take_counts();
  }
  return out;
}

struct Row {
  int n = 0;
  unsigned vl_bits = 0;
  std::string precond;
  Leg off, plan;
  TileTimes tile;
  bool plan_identical = false;  // plan solution == off solution
  bool plan_gated = false;      // host floor applied (n >= gate size)

  double plan_host_speedup() const { return off.host_s / plan.host_s; }
  double tile_speedup() const { return tile.primitive_s / tile.fused_s; }
  double sim_speedup() const { return off.sim_s / plan.sim_s; }
};

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[1536];
    std::snprintf(
        buf, sizeof buf,
        "  {\"solver\": \"cg\", \"precond\": \"%s\", \"n\": %d, "
        "\"vl_bits\": %u, \"iters\": %d, "
        "\"host_unfused_s\": %.6f, \"host_plan_s\": %.6f, "
        "\"plan_host_speedup\": %.3f, "
        "\"tile_primitive_s\": %.6f, \"tile_fused_s\": %.6f, "
        "\"tile_fused_speedup\": %.3f, "
        "\"sim_unfused_s\": %.6f, \"sim_plan_s\": %.6f, "
        "\"sim_speedup\": %.3f, "
        "\"mem_cycles_unfused\": %.0f, \"mem_cycles_plan\": %.0f, "
        "\"bytes_unfused\": %llu, \"bytes_plan\": %llu, "
        "\"plan_identical\": %s, \"plan_gate\": \"%s\", "
        "\"memo_hits\": %llu, \"memo_misses\": %llu}%s\n",
        r.precond.c_str(), r.n, r.vl_bits, r.plan.iterations, r.off.host_s,
        r.plan.host_s, r.plan_host_speedup(), r.tile.primitive_s,
        r.tile.fused_s, r.tile_speedup(), r.off.sim_s, r.plan.sim_s,
        r.sim_speedup(), r.off.mem_cycles, r.plan.mem_cycles,
        static_cast<unsigned long long>(r.off.bytes),
        static_cast<unsigned long long>(r.plan.bytes),
        r.plan_identical ? "true" : "false",
        r.plan_gated ? "enforced" : "n/a",
        static_cast<unsigned long long>(r.plan.memo_hits),
        static_cast<unsigned long long>(r.plan.memo_misses),
        i + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  opt.add("sizes", "64,128,256", "comma list of square grid sizes");
  opt.add("vls", "128,512,2048", "comma list of SVE vector lengths (bits)");
  opt.add("precond", "spai0", "preconditioner for the CG solve");
  opt.add("tol", "1e-7", "CG relative tolerance");
  opt.add("max-iter", "600", "CG iteration cap");
  opt.add("gate-size", "256", "gate rows with n >= this size");
  opt.add("gate-speedup", "1.3",
          "minimum fused tile-entry host speedup on gated rows");
  opt.add("out", "BENCH_fusion.json", "JSON output path (empty = none)");
  int max_iter = 0, gate_size = 0;
  double tol = 0.0, gate_speedup = 0.0;
  std::vector<int> sizes, vls;
  try {
    if (!opt.parse_command_line(argc, argv, "bench_fusion")) return 0;
    max_iter = opt.get_int<int>("max-iter");
    gate_size = opt.get_int<int>("gate-size");
    tol = opt.get_double("tol");
    gate_speedup = opt.get_double("gate-speedup");
    sizes = opt.get_int_list<int>("sizes");
    vls = opt.get_int_list<int>("vls");
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_fusion");
    return 1;
  }
  const std::string precond = opt.get("precond");

  std::vector<Row> rows;
  for (const int n : sizes) {
    for (const int vl : vls) {
      Row row;
      row.n = n;
      row.vl_bits = static_cast<unsigned>(vl);
      row.precond = precond;
      LegSession off(n, row.vl_bits, precond, linalg::FuseMode::Off, tol,
                     max_iter);
      LegSession plan(n, row.vl_bits, precond, linalg::FuseMode::Plan, tol,
                      max_iter);
      for (int round = 0; round < kRounds; ++round) {
        for (LegSession* leg : {&off, &plan}) {
          if (round == 0) leg->sample(/*warm=*/true);
          for (int k = 0; k < kSamplesPerRound; ++k)
            leg->sample(/*warm=*/false);
        }
      }
      row.off = off.finish();
      row.plan = plan.finish();
      row.tile = time_tile_entries(plan);
      row.plan_identical = row.off.iterations == row.plan.iterations &&
                           row.off.solution == row.plan.solution;
      row.plan_gated = n >= gate_size;
      rows.push_back(std::move(row));
      std::cerr << "  finished " << n << "x" << n << " vl=" << vl << "\n";
    }
  }

  TableWriter table(
      "Fused-kernel ablation: CG/" + precond +
      " solve, --fuse off vs plan (host + simulated A64FX, Cray profile)");
  table.set_columns({"grid", "VL", "iters", "host off (s)", "host plan (s)",
                     "plan x", "tile prim (ms)", "tile fused (ms)", "tile x",
                     "sim off (s)", "sim plan (s)", "bytes off", "bytes plan",
                     "pinned"});
  bool ok = true;
  std::string failures;
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n),
                   TableWriter::integer(r.vl_bits),
                   TableWriter::integer(r.plan.iterations),
                   TableWriter::num(r.off.host_s, 4),
                   TableWriter::num(r.plan.host_s, 4),
                   TableWriter::num(r.plan_host_speedup(), 2),
                   TableWriter::num(r.tile.primitive_s * 1e3, 3),
                   TableWriter::num(r.tile.fused_s * 1e3, 3),
                   TableWriter::num(r.tile_speedup(), 2),
                   TableWriter::num(r.off.sim_s, 4),
                   TableWriter::num(r.plan.sim_s, 4),
                   TableWriter::num(static_cast<double>(r.off.bytes) / 1e9, 3) +
                       " GB",
                   TableWriter::num(static_cast<double>(r.plan.bytes) / 1e9,
                                    3) +
                       " GB",
                   r.plan_identical ? "yes" : "NO"});
    const std::string cell =
        std::to_string(r.n) + "x" + std::to_string(r.n) + "@" +
        std::to_string(r.vl_bits);
    if (!r.plan_identical) {
      ok = false;
      failures += "  " + cell + ": planned trajectory diverged\n";
    }
    if (r.n >= gate_size) {
      if (r.tile_speedup() < gate_speedup) {
        ok = false;
        failures += "  " + cell + ": fused tile-entry host speedup " +
                    std::to_string(r.tile_speedup()) + " < gate\n";
      }
      if (r.plan.mem_cycles >= r.off.mem_cycles) {
        ok = false;
        failures += "  " + cell + ": simulated memory cycles not reduced\n";
      }
      if (r.plan.bytes >= r.off.bytes) {
        ok = false;
        failures += "  " + cell + ": priced bytes not reduced\n";
      }
    }
  }
  table.print(std::cout);
  if (!rows.empty()) {
    // Fast-path recording overhead of the last fused leg (perfmon
    // satellite): steady-state solves should be ~all memo hits.
    const perfmon::MemoCacheStats memo{rows.back().plan.memo_hits,
                                       rows.back().plan.memo_misses};
    std::cout << "\n" << perfmon::format_memo_cache(memo) << "\n";
  }

  const std::string out = opt.get("out");
  if (!out.empty()) {
    write_json(out, rows);
    std::cout << "wrote " << out << "\n";
  }
  if (!ok) {
    std::cerr << "FAIL:\n" << failures;
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fusion: " << e.what() << '\n';
  return 1;
}
