#pragma once
/// \file precond.hpp
/// \brief Preconditioners for the V2D Krylov solvers.
///
/// The production preconditioner is the sparse approximate inverse of
/// Swesty, Smolarski & Saylor (ApJS 153:369, 2004): M ≈ A⁻¹ with the same
/// five-point stencil sparsity as A, each column obtained from a small
/// least-squares problem solved independently per zone — embarrassingly
/// parallel, no triangular solves, and its application is just another
/// stencil sweep (which is why the paper sees SVE speedup in it).
/// Jacobi and identity are included as baselines for the ablation bench.
/// Jacobi and SPAI(0) differ only in how they build their diagonal; both
/// apply it through DiagonalPrecond, whose sweeps are sweep_tiles calls.

#include <memory>
#include <string>

#include "linalg/stencil_op.hpp"

namespace v2d::linalg {

class Preconditioner {
public:
  virtual ~Preconditioner() = default;

  /// y ← M·x.  `x` mutable for ghost refresh (stencil-shaped M).
  virtual void apply(ExecContext& ctx, DistVector& x, DistVector& y) = 0;

  /// Fused apply + ganged 2-dot: y ← M·x and out = {x·y, x·x}, the pair
  /// priced as ONE ganged allreduce — exactly the reduction the CG hot
  /// loop issues as dot_ganged({r·z, r·r}) after the precond apply, folded
  /// into the apply sweep so x and y are not re-streamed.  When
  /// `update_q` is non-null the sweep first applies the residual DAXPY
  /// x ← x + update_a·q element-by-element (the CG tail composite: the
  /// r-update, precond apply and gang become one pass).  Returns false
  /// *without doing any work* when there is no fused form to run — this
  /// default (stencil-shaped or multilevel M), or any M under
  /// FuseMode::Off; callers then run the unfused kernel chain, which is
  /// the off lowering.  DiagonalPrecond overrides it with the fused
  /// sweep, run under FuseMode::Plan; results are bit-identical to the
  /// unfused sequence.
  virtual bool apply_dot2(ExecContext& /*ctx*/, DistVector& /*x*/,
                          DistVector& /*y*/, double /*out*/[2],
                          double /*update_a*/ = 0.0,
                          const DistVector* /*update_q*/ = nullptr) {
    return false;
  }

  virtual std::string name() const = 0;
};

/// M = I (no preconditioning).
class IdentityPrecond final : public Preconditioner {
public:
  void apply(ExecContext& ctx, DistVector& x, DistVector& y) override;
  std::string name() const override { return "identity"; }
};

/// M = diag(m), a stored diagonal: apply is y ← m ⊙ x ("precond"), and
/// the fused apply_dot2 folds {x·y, x·x} (and the optional residual
/// update) into the same sweep ("precond-dot").  Subclasses only build m.
class DiagonalPrecond : public Preconditioner {
public:
  void apply(ExecContext& ctx, DistVector& x, DistVector& y) override;
  bool apply_dot2(ExecContext& ctx, DistVector& x, DistVector& y,
                  double out[2], double update_a = 0.0,
                  const DistVector* update_q = nullptr) override;

  const grid::DistField& diagonal() const { return m_; }

protected:
  /// Allocates m with A's shape; the subclass constructor fills it.
  explicit DiagonalPrecond(const StencilOperator& A);

  grid::DistField m_;
};

/// M = diag(A)⁻¹.
class JacobiPrecond final : public DiagonalPrecond {
public:
  /// Build from the operator's diagonal; `ctx` prices the build.
  JacobiPrecond(ExecContext& ctx, const StencilOperator& A);
  std::string name() const override { return "jacobi"; }
};

/// Diagonal-pattern sparse approximate inverse — SPAI(0).  Column k is
/// the scalar m_k minimizing ‖A·m_k·e_k − e_k‖₂, i.e.
/// m_k = a_kk / Σ_i a_ik², computed from the operator's column entries
/// (which requires the neighbours' coefficients, ghost-exchanged).  This
/// is V2D's production preconditioner profile: its application is a
/// pointwise multiply, an order of magnitude cheaper than the matvec,
/// matching the paper's 14 s preconditioning vs 141 s matvec split.
class Spai0Precond final : public DiagonalPrecond {
public:
  Spai0Precond(ExecContext& ctx, const StencilOperator& A);
  std::string name() const override { return "spai0"; }
};

/// Stencil-pattern sparse approximate inverse — SPAI(1): column m_k
/// minimizes ‖A[J,J]·m − e_k‖₂ over the five-point pattern J(k), via 5×5
/// normal equations solved by Cholesky, independently per zone.  Stronger
/// than SPAI(0) per iteration but its application costs a full stencil
/// sweep; the preconditioner ablation bench compares the two.
class SpaiPrecond final : public Preconditioner {
public:
  /// Build M from A; `ctx` prices the construction (PrecondBuild family).
  SpaiPrecond(ExecContext& ctx, const StencilOperator& A);

  void apply(ExecContext& ctx, DistVector& x, DistVector& y) override;
  std::string name() const override { return "spai"; }

  /// The approximate inverse as a stencil operator (tests inspect it).
  const StencilOperator& stencil() const { return m_; }

private:
  StencilOperator m_;
};

namespace mg {
struct MgOptions;
}  // namespace mg

/// True when `kind` names a preconditioner the factory can build — lets
/// config validation (e.g. --solver-fallbacks) fail at parse time instead
/// of mid-run when a fallback first engages.
bool is_preconditioner_kind(const std::string& kind);

/// Factory by short name: "identity" | "jacobi" | "spai0" | "spai" | "mg".
/// "mg" builds a geometric multigrid V-cycle with default options (see
/// linalg/mg/mg_precond.hpp).
std::unique_ptr<Preconditioner> make_preconditioner(const std::string& kind,
                                                    ExecContext& ctx,
                                                    const StencilOperator& A);

/// Same, with explicit multigrid options (ignored unless kind == "mg").
std::unique_ptr<Preconditioner> make_preconditioner(
    const std::string& kind, ExecContext& ctx, const StencilOperator& A,
    const mg::MgOptions& mg_options);

}  // namespace v2d::linalg
