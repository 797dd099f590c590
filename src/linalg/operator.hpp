#pragma once
/// \file operator.hpp
/// \brief Abstract linear operator applied matrix-free.
///
/// "Because of its prohibitive size, the sparse linear system matrix is
/// never stored and the Krylov subspace methods are implemented in
/// matrix-free form by application of a finite-difference operator to
/// column vectors."  LinearOperator is that abstraction; StencilOperator
/// is the concrete finite-difference form.

#include <cstdint>

#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"

namespace v2d::linalg {

class LinearOperator {
public:
  virtual ~LinearOperator() = default;

  /// y ← A·x.  `x` is taken mutable because the operator refreshes its
  /// ghost zones (the halo exchange is part of the matrix-free product).
  virtual void apply(ExecContext& ctx, DistVector& x, DistVector& y) const = 0;

  /// y ← A·x returning w·y (w null ⇒ x·y, the CG p·Ap case), with the
  /// reduction priced as one allreduce — the MATVEC+DPROD composite.  This
  /// default is the unfused lowering: apply() followed by DistVector::dot,
  /// so any operator supports it.  StencilOperator overrides it to fold
  /// the dot into the stencil sweep under FuseMode::Plan and calls this
  /// default otherwise.  The result is bit-identical either way (the same
  /// exact sum in both).
  virtual double apply_dot(ExecContext& ctx, DistVector& x, DistVector& y,
                           const DistVector* w = nullptr) const {
    apply(ctx, x, y);
    return DistVector::dot(ctx, w != nullptr ? *w : x, y);
  }

  /// r ← b − A·x — the residual composite.  This default is the unfused
  /// lowering, apply() + assign_sub; StencilOperator folds the subtraction
  /// into the sweep under FuseMode::Plan and calls this default otherwise.
  virtual void apply_residual(ExecContext& ctx, DistVector& x,
                              const DistVector& b, DistVector& r) const {
    apply(ctx, x, r);
    r.assign_sub(ctx, b, r);
  }

  /// Number of unknowns (ns · nx1 · nx2).
  virtual std::int64_t size() const = 0;
};

}  // namespace v2d::linalg
