#pragma once
/// \file dist_vector.hpp
/// \brief Distributed Krylov vector with V2D's grid shape.
///
/// A DistVector is an ns-species grid-shaped vector (one DistField) plus
/// the instrumented BLAS-level operations of the paper's Table II.  Every
/// streaming operation is one sweep_tiles call: one task per simulated
/// rank (concurrently on the host pool — see par_ranks) runs the kernel's
/// tile entry once per species tile and commits one priced call, so
/// per-rank clocks advance exactly with the work each simulated processor
/// does.  The diagonal preconditioners and the multigrid smoother's
/// diagonal sweeps use the same rank loop.

#include <array>
#include <cstdint>
#include <span>
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

/// The rank loop of every streaming tile op.  For each simulated rank
/// (concurrently — see par_ranks) and each species, fetch every operand's
/// TileView once and call `tile_op(vctx, rank, base, tile)` once, where
/// base[k] is operand k's (li = 0, lj = 0) address and `tile` the rank's
/// ni × nj extent at the operands' shared row stride: the op runs a tile
/// entry over the whole tile.  Each rank commits one priced call under
/// `family`/`region`: elements = ni·nj·ns, working set = N tile arrays.
/// The operands' shapes are checked once per call, so they share one tile.
/// Bases are handed out mutable; the op writes only the operands it owns.
template <std::size_t N, typename TileOp>
void sweep_tiles(ExecContext& ctx, compiler::KernelFamily family,
                 sim::Region region,
                 const grid::DistField* const (&fields)[N], TileOp&& tile_op) {
  const grid::DistField& f0 = *fields[0];
  for (const grid::DistField* f : fields) require_same_shape(f0, *f);
  par_ranks(ctx, f0, [&](int r, ExecContext& rctx) {
    std::array<double*, N> base;
    Tile tile;
    for (int s = 0; s < f0.ns(); ++s) {
      for (std::size_t k = 0; k < N; ++k) {
        const grid::TileView v =
            const_cast<grid::DistField*>(fields[k])->view(r, s);
        base[k] = v.base;
        tile = tile_of(v);  // one tile: same extents and ghost width
      }
      tile_op(rctx.vctx, r, base, tile);
    }
    const grid::TileExtent& e = f0.decomp().extent(r);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * f0.ns();
    rctx.commit(r, family, region, elements, N * elements * sizeof(double));
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

  // --- composites: one fused pass under FuseMode::Plan, otherwise the
  // kernel-per-pass pair in the documented order.  Results are
  // bit-identical either way (same per-element association order); only
  // the instruction stream and priced traffic differ.

  /// CG twin update: x ← x + a·p and r ← r + b·q (DAXPY₂; unfused:
  /// x.daxpy, then r.daxpy).
  static void daxpy2(ExecContext& ctx, DistVector& x, double a,
                     const DistVector& p, DistVector& r, double b,
                     const DistVector& q);

  /// y ← x + a·z (unfused: copy_from, then daxpy).
  void assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                   const DistVector& z);

  /// y ← x + b·(y − w·v), the BiCGSTAB p-update (unfused: daxpy(−w), then
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
