#pragma once
/// \file exec_context.hpp
/// \brief Bundles the VLA recorder with the execution pricer.
///
/// Every distributed operation takes an ExecContext.  The vla::Context
/// executes and records; commit() flushes the recording as one priced
/// kernel call attributed to a rank and to a sim::Region of its ledger
/// (an id into the fixed region table, so no commit compares a name).
/// When `em` is null the numerics run unpriced (unit tests of pure math
/// use this).

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/profile.hpp"
#include "mpisim/exec_model.hpp"
#include "support/thread_pool.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// What the simulated machine runs for the solvers' composite operations
/// (MATVEC+DPROD, fused residual, DAXPY₂, COPY+DAXPY, the BiCGSTAB
/// p-update, precond+ganged-dot): one fused pass, or the kernel-per-pass
/// Table II sequence.  The mode chooses only what is recorded.  Natively
/// the host runs each composite's fused tile body (src/linalg/fusion/) in
/// both modes, one pass per composite, and the interpreter executes what
/// it records (see sweep_composite).  Each composite owns both recordings,
/// so the solvers read as one algorithm.
///
///   Off  — every composite records and commits the original kernel
///          sequence; results, recorded counts, ledgers and simulated
///          clocks are bit-identical to a build without the fusion layer.
///   Plan — each composite records one fused kernel: its interpreter row,
///          or natively a memoized dry run of that row — fewer memory
///          passes, fewer kernel calls, reduced bytes_moved in the priced
///          stream.
///
/// Numerics are the same in both modes (same per-element expressions in
/// the same association order, reductions are the same exact sums), so the
/// Krylov trajectory is unchanged — only the price is.  One composite
/// keeps an Off branch: the diagonal preconditioners' apply_dot2 (CG's
/// tail) declines under Off, because its Off sequence commits x's DAXPY
/// before the gang's allreduce and its fused form after it.
enum class FuseMode : std::uint8_t {
  Off,
  Plan,
};

inline const char* fuse_mode_name(FuseMode m) {
  return m == FuseMode::Plan ? "plan" : "off";
}

/// "on" is accepted as the retired spelling of "plan" so old checkpoints
/// and job files still load.
inline FuseMode fuse_mode_from_name(const std::string& name) {
  if (name == "off") return FuseMode::Off;
  if (name == "plan" || name == "on") return FuseMode::Plan;
  throw Error("unknown fuse mode '" + name + "' (expected off|plan)");
}

struct ExecContext {
  vla::Context vctx;
  mpisim::ExecModel* em = nullptr;
  FuseMode fuse = FuseMode::Off;

  ExecContext() = default;
  explicit ExecContext(vla::VectorArch arch, mpisim::ExecModel* model = nullptr,
                       vla::VlaExecMode mode = vla::VlaExecMode::Interpret,
                       FuseMode fuse_mode = FuseMode::Off)
      : vctx(arch, mode), em(model), fuse(fuse_mode) {}
  ExecContext(vla::Context v, mpisim::ExecModel* model,
              FuseMode fuse_mode = FuseMode::Off)
      : vctx(std::move(v)), em(model), fuse(fuse_mode) {}

  /// True when composite operations record their fused form.
  bool fused() const { return fuse == FuseMode::Plan; }

  /// Rank-local child context for par_ranks: shares the pricer and the
  /// count memo, with a private recording accumulator so
  /// concurrent rank tasks keep their instruction streams separate.
  /// Allocation-free beyond a shared_ptr bump — runs once per rank task.
  ExecContext fork() const { return ExecContext(vctx.fork(), em, fuse); }

  /// Flush the recording accumulated since the last commit as one kernel
  /// call by `rank` in `region`, touching a `working_set_bytes` footprint.
  void commit(int rank, compiler::KernelFamily family, sim::Region region,
              std::uint64_t elements, std::uint64_t working_set_bytes) {
    sim::KernelCounts counts = vctx.take_counts();
    counts.calls = 1;
    counts.elements = elements;
    if (em != nullptr) em->kernel(rank, family, region, counts, working_set_bytes);
  }

  /// Price scalar-heavy host code (coefficient assembly, small dense
  /// solves) from analytic per-element flop/traffic estimates instead of a
  /// VLA recording.  FMA-dominated mix is assumed; loop control is charged
  /// per element.
  void commit_synthetic(int rank, compiler::KernelFamily family,
                        sim::Region region, std::uint64_t elements,
                        std::uint64_t flops_per_elem,
                        std::uint64_t bytes_read_per_elem,
                        std::uint64_t bytes_written_per_elem,
                        std::uint64_t working_set_bytes) {
    if (em == nullptr) return;
    sim::KernelCounts c;
    const unsigned vl = vctx.lanes();
    const std::uint64_t fma = elements * flops_per_elem / 2;
    const std::uint64_t ld = elements * bytes_read_per_elem / 8;
    const std::uint64_t st = elements * bytes_written_per_elem / 8;
    auto rec = [&](sim::OpClass cls, std::uint64_t lanes) {
      const auto i = static_cast<std::size_t>(cls);
      c.lanes[i] = lanes;
      c.instr[i] = (lanes + vl - 1) / vl;
    };
    rec(sim::OpClass::FlopFma, fma);
    rec(sim::OpClass::LoadContig, ld);
    rec(sim::OpClass::StoreContig, st);
    c.lanes[static_cast<std::size_t>(sim::OpClass::Branch)] = elements;
    c.instr[static_cast<std::size_t>(sim::OpClass::Branch)] = elements;
    c.bytes_read = elements * bytes_read_per_elem;
    c.bytes_written = elements * bytes_written_per_elem;
    c.elements = elements;
    c.calls = 1;
    em->kernel(rank, family, region, c, working_set_bytes);
  }

  void allreduce(std::uint64_t bytes,
                 sim::Region region = sim::Region::MpiAllreduce) {
    if (em != nullptr) em->allreduce(bytes, region);
  }

  void exchange(const std::vector<mpisim::Transfer>& transfers,
                sim::Region region = sim::Region::MpiHalo) {
    if (em != nullptr) em->exchange(transfers, region);
  }
};

/// Run `fn(rank, rank_ctx)` for every simulated rank of `dec` (anything
/// with nranks()), concurrently on the host pool when it has more than one
/// lane.  Each task gets a fork()ed ExecContext — private recording,
/// shared count cache — so per-rank commits stay correctly attributed.
/// Safe whenever ranks touch disjoint tiles, which every V2D rank loop
/// guarantees; ExecModel::kernel writes only the committing rank's clock
/// and ledger slots.  Collective pricing (exchange/allreduce) must stay
/// outside — those are serial barrier points.  Results are bit-identical
/// to the serial loop: tasks share no mutable state, and the forked-
/// context path is taken even at one host thread so only execution order
/// varies with the thread count.
template <typename Dec, typename Fn>
void par_ranks(ExecContext& ctx, const Dec& dec, Fn&& fn) {
  parallel_for(dec.nranks(), [&](int r) {
    ExecContext rctx = ctx.fork();
    fn(r, rctx);
  });
}

}  // namespace v2d::linalg
