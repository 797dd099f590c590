#pragma once
/// \file dist_vector.hpp
/// \brief Distributed Krylov vector with V2D's grid shape.
///
/// A DistVector is an ns-species grid-shaped vector (one DistField) plus
/// the instrumented BLAS-level operations of the paper's Table II.  Every
/// operation runs one task per simulated rank (concurrently on the host
/// pool — see par_ranks) over that rank's tile rows, runs the VLA kernel,
/// and commits one priced call per rank, so per-rank clocks advance
/// exactly with the work each simulated processor does.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grid/dist_field.hpp"
#include "linalg/exec_context.hpp"

namespace v2d::linalg {

class DistVector {
public:
  DistVector(const grid::Grid2D& g, const grid::Decomposition& d, int ns)
      : field_(g, d, ns, /*ng=*/1) {}

  grid::DistField& field() { return field_; }
  const grid::DistField& field() const { return field_; }
  int ns() const { return field_.ns(); }
  int nranks() const { return field_.nranks(); }
  std::int64_t global_size() const {
    return field_.grid().zones() * field_.ns();
  }

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
  template <typename RowOp>
  void for_each_row(ExecContext& ctx, compiler::KernelFamily family,
                    const std::string& region, int arrays, RowOp&& op);

  grid::DistField field_;
};

}  // namespace v2d::linalg
