#pragma once
/// \file dist_vector.hpp
/// \brief Distributed Krylov vector with V2D's grid shape.
///
/// A DistVector is an ns-species grid-shaped vector (one DistField) plus
/// the instrumented BLAS-level operations of the paper's Table II.  Every
/// streaming operation is one rank loop: one task per simulated rank
/// (concurrently on the host pool — see par_ranks) runs the kernel's tile
/// entry once per species tile and commits one priced call, so per-rank
/// clocks advance exactly with the work each simulated processor does.  A
/// primitive op is one pass (sweep_tiles, or sweep_pass over a TilePass it
/// shares with the composites), and a composite one sweep_composite call.
/// The diagonal preconditioners and the multigrid smoother's diagonal
/// sweeps use the same rank loop.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "grid/dist_field.hpp"
#include "linalg/exec_context.hpp"
#include "linalg/tile.hpp"

namespace v2d::linalg {

/// Throws unless `a` and `b` have the same species count, ghost width,
/// rank count and tile extent on every rank (so their tile views share a
/// row stride).  Compared by value, not by the decomposition's address: a
/// field on a copy of the same decomposition is compatible.
void require_same_shape(const grid::DistField& a, const grid::DistField& b);

/// The Tile a view spans: its ni × nj zones at its row stride.
inline Tile tile_of(const grid::TileView& v) {
  return {static_cast<std::size_t>(v.ni), static_cast<std::size_t>(v.nj),
          v.row_stride};
}

/// One priced call per rank.  `tiles(vctx, rank)` runs the call's tile
/// entries over the rank's species tiles; run() then commits one call under
/// `family`/`region`, with elements = ni·nj·ns and a working set of
/// `arrays` tile arrays.
template <typename Tiles>
struct TilePass {
  compiler::KernelFamily family;
  sim::Region region;
  int arrays;
  Tiles tiles;

  /// Run rank r's tiles into rctx's recording and commit them as one call;
  /// `shape` is any operand (it gives the rank's extent and species count).
  void run(ExecContext& rctx, int r, const grid::DistField& shape) const {
    tiles(rctx.vctx, r);
    const grid::TileExtent& e = shape.decomp().extent(r);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * shape.ns();
    rctx.commit(r, family, region, elements,
                static_cast<std::uint64_t>(arrays) * elements * sizeof(double));
  }
};
template <typename Tiles>
TilePass(compiler::KernelFamily, sim::Region, int, Tiles) -> TilePass<Tiles>;

/// The pass of a streaming tile op over `fields`, outputs last: for each
/// species of a rank, fetch every operand's TileView once and call
/// `tile_op(vctx, rank, base, tile)` once, where base[k] is operand k's
/// (li = 0, lj = 0) address and `tile` the rank's ni × nj extent at the
/// operands' shared row stride, so the op runs a tile entry over the whole
/// tile.  The working set is the N arrays.  The operands' shapes are
/// checked here, once, so they share one tile.  Bases are handed out
/// mutable; the op writes only the operands it owns.
template <std::size_t N, typename TileOp>
auto tile_pass(compiler::KernelFamily family, sim::Region region,
               const grid::DistField* const (&fields)[N], TileOp tile_op) {
  for (const grid::DistField* f : fields) require_same_shape(*fields[0], *f);
  return TilePass{
      family, region, static_cast<int>(N),
      [f = std::to_array(fields), tile_op](vla::Context& v, int r) {
        std::array<double*, N> base;
        Tile tile;
        for (int s = 0; s < f[0]->ns(); ++s) {
          for (std::size_t k = 0; k < N; ++k) {
            const grid::TileView tv =
                const_cast<grid::DistField*>(f[k])->view(r, s);
            base[k] = tv.base;
            tile = tile_of(tv);  // one tile: same extents and ghost width
          }
          tile_op(v, r, base, tile);
        }
      }};
}

/// Run `pass` on every simulated rank, concurrently (see par_ranks): each
/// rank commits one priced call.
template <typename Tiles>
void sweep_pass(ExecContext& ctx, const grid::DistField& shape,
                const TilePass<Tiles>& pass) {
  par_ranks(ctx, shape,
            [&](int r, ExecContext& rctx) { pass.run(rctx, r, shape); });
}

/// The rank loop of every streaming tile op: sweep_pass over
/// tile_pass(family, region, fields, tile_op).
template <std::size_t N, typename TileOp>
void sweep_tiles(ExecContext& ctx, compiler::KernelFamily family,
                 sim::Region region,
                 const grid::DistField* const (&fields)[N], TileOp&& tile_op) {
  sweep_pass(ctx, *fields[0],
             tile_pass(family, region, fields, std::forward<TileOp>(tile_op)));
}

/// The rank loop of a composite operation (DistVector::daxpy2, assign_axpy
/// and p_update; StencilOperator's dot and residual forms).  `fused` is
/// the composite's one-pass kernel and `steps` the Table II kernel
/// sequence it stands for, in order.  The fuse mode chooses only what each
/// rank records and commits:
///   Plan — one call, the composite's own (`fused`);
///   Off  — one call per step, in order.
/// Natively every rank runs the fused bodies in both modes.  Under Off they
/// run unrecorded (vla::NativeWork::RunOnly), and then the steps' tile
/// entries only record (vla::NativeWork::RecordOnly), so each rank commits
/// exactly the sequence's calls.  The interpreter executes what it records, so under
/// Off it runs the steps.  Collectives stay with the caller.
template <typename Fused, typename... Steps>
void sweep_composite(ExecContext& ctx, const grid::DistField& shape,
                     const TilePass<Fused>& fused,
                     const TilePass<Steps>&... steps) {
  par_ranks(ctx, shape, [&](int r, ExecContext& rctx) {
    if (rctx.fused()) return fused.run(rctx, r, shape);
    if (rctx.vctx.native()) {
      rctx.vctx.set_native_work(vla::NativeWork::RunOnly);
      fused.tiles(rctx.vctx, r);
      rctx.vctx.set_native_work(vla::NativeWork::RecordOnly);
    }
    (steps.run(rctx, r, shape), ...);
  });
}

class DistVector {
public:
  DistVector(const grid::Grid2D& g, const grid::Decomposition& d, int ns)
      : field_(g, d, ns, /*ng=*/1) {}

  grid::DistField& field() { return field_; }
  const grid::DistField& field() const { return field_; }
  int ns() const { return field_.ns(); }
  int nranks() const { return field_.nranks(); }

  /// y ← a·x + y   (DAXPY)
  void daxpy(ExecContext& ctx, double a, const DistVector& x);
  /// y ← c − d·y   (DSCAL, V2D flavour)
  void dscal(ExecContext& ctx, double c, double d);
  /// z ← a·x + b·y + z   (DDAXPY)
  void ddaxpy(ExecContext& ctx, double a, const DistVector& x, double b,
              const DistVector& y);
  /// y ← x + b·y   (XPBY)
  void xpby(ExecContext& ctx, const DistVector& x, double b);
  /// y ← x
  void copy_from(ExecContext& ctx, const DistVector& x);
  /// y ← a
  void fill(ExecContext& ctx, double a);
  /// z ← x − y
  void assign_sub(ExecContext& ctx, const DistVector& x, const DistVector& y);

  // --- composites: one sweep_composite call each.  Natively the fused
  // body runs in both fuse modes; FuseMode::Plan records the composite and
  // FuseMode::Off the kernel pair in the documented order.  Results are
  // bit-identical either way (same per-element association order); only
  // the instruction stream and priced traffic differ.

  /// CG twin update: x ← x + a·p and r ← r + b·q (DAXPY₂; Off records
  /// x.daxpy, then r.daxpy).
  static void daxpy2(ExecContext& ctx, DistVector& x, double a,
                     const DistVector& p, DistVector& r, double b,
                     const DistVector& q);

  /// y ← x + a·z (Off records copy_from, then daxpy).
  void assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                   const DistVector& z);

  /// y ← x + b·(y − w·v), the BiCGSTAB p-update (Off records daxpy(−w), then
  /// xpby).
  void p_update(ExecContext& ctx, const DistVector& x, double b, double w,
                const DistVector& v);

  /// DPROD with the global reduction priced as one allreduce.
  static double dot(ExecContext& ctx, const DistVector& x,
                    const DistVector& y);

  /// Ganged inner products: all pairs share a single allreduce — the
  /// paper's "gangs inner products to reduce the number of parallel global
  /// reduction operations" restructuring.
  struct DotPair {
    const DistVector* x;
    const DistVector* y;
  };
  static std::vector<double> dot_ganged(ExecContext& ctx,
                                        std::span<const DotPair> pairs);

  /// 2-norm (one DPROD + host sqrt).
  static double norm2(ExecContext& ctx, const DistVector& x);

  /// Bytes one rank touches when an op reads/writes `arrays` tile-shaped
  /// arrays (for working-set classification).
  std::uint64_t working_set(int rank, int arrays) const;

private:
  grid::DistField field_;
};

}  // namespace v2d::linalg
