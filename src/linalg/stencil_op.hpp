#pragma once
/// \file stencil_op.hpp
/// \brief Matrix-free five-point (plus optional species-coupling) operator.
///
/// "Because of its prohibitive size, the sparse linear system matrix is
/// never stored and the Krylov subspace methods are implemented in
/// matrix-free form by application of a finite-difference operator to
/// column vectors."  StencilOperator is that finite-difference operator,
/// the one the Krylov solvers apply.  It arises from the second-order
/// finite-difference discretization of the multigroup diffusion equation:
///
///   (A x)(s,i,j) = cc·x(s,i,j) + cw·x(s,i−1,j) + ce·x(s,i+1,j)
///                + cs·x(s,i,j−1) + cn·x(s,i,j+1)  [+ csp·x(ŝ,i,j)]
///
/// Coefficients are zone- and species-dependent DistFields.  Physical
/// boundary conditions are *folded into the coefficients* by the problem
/// builder (the boundary-facing coefficient is zeroed / merged into cc),
/// so apply() always uses zero ghosts at the domain edge — this keeps the
/// matrix-free product bit-identical to the assembled BandedMatrix.
///
/// With dictionary ordering (i fastest, then j, then species) the
/// assembled matrix has bands {0, ±1, ±nx1} per species and ±nx1·nx2 for
/// the coupling — exactly the Fig. 1 pattern.
///
/// Every product form (apply, apply_dot, apply_residual and their
/// attributed variants) is one halo exchange plus one private rank loop
/// that fetches each operand's tile view once per (rank, species) and
/// hands the whole tile to the kernels' tile entries.  The dot and
/// residual forms are composites (sweep_composite): natively they run the
/// fused tile entry in both fuse modes, and the fuse mode chooses what is
/// recorded — under FuseMode::Plan the fused call, under FuseMode::Off the
/// plain product followed by the separate Table II kernel.

#include <cstdint>
#include <memory>

#include "grid/dist_field.hpp"
#include "linalg/banded.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

/// V2D never stores its matrix: every operator application re-evaluates
/// the finite-difference coefficients from the material state, opacity
/// tables and limiter fields.  These constants describe that per-element
/// evaluation cost (dominated by table/state reads, hence memory-heavy):
/// the FLD builder attaches them to the diffusion operator, and the
/// Table II kernel driver uses the same values ("the actual V2D
/// routines").  The SPAI operator stores its coefficients and carries no
/// overhead.
inline constexpr std::uint64_t kMatvecEvalDoublesRead = 35;
inline constexpr std::uint64_t kMatvecEvalFlops = 30;

class StencilOperator {
public:
  StencilOperator(const grid::Grid2D& g, const grid::Decomposition& d, int ns);

  int ns() const { return ns_; }
  const grid::Grid2D& grid() const { return *grid_; }
  const grid::Decomposition& decomp() const { return *dec_; }

  grid::DistField& cc() { return cc_; }
  grid::DistField& cw() { return cw_; }
  grid::DistField& ce() { return ce_; }
  grid::DistField& cs() { return cs_; }
  grid::DistField& cn() { return cn_; }
  const grid::DistField& cc() const { return cc_; }
  const grid::DistField& cw() const { return cw_; }
  const grid::DistField& ce() const { return ce_; }
  const grid::DistField& cs() const { return cs_; }
  const grid::DistField& cn() const { return cn_; }

  /// Enable the species-coupling band (requires ns == 2: species s couples
  /// to 1−s with coefficient csp).
  void enable_coupling();
  bool coupled() const { return static_cast<bool>(csp_); }
  grid::DistField& csp();
  const grid::DistField& csp() const;

  /// Zero the boundary-facing coefficients after assembly-time folding —
  /// call after the problem builder fills the coefficients.  (Provided as
  /// a checked helper; builders may also do it themselves.)
  void zero_boundary_coefficients();

  /// Declare that each application re-evaluates coefficients on the fly
  /// at `doubles_read` state/table reads and `flops` arithmetic per
  /// element (see kMatvecEval* above).  Affects pricing only; the stored
  /// coefficients remain the source of truth for the numerics (they are
  /// constant within a solve).
  void set_evaluation_overhead(std::uint64_t doubles_read,
                               std::uint64_t flops) {
    eval_doubles_read_ = doubles_read;
    eval_flops_ = flops;
  }
  std::uint64_t evaluation_doubles_read() const { return eval_doubles_read_; }

  /// y ← A·x ("matvec").  `x` is taken mutable because the product
  /// refreshes its ghost zones (the halo exchange is part of the
  /// matrix-free product).
  void apply(ExecContext& ctx, DistVector& x, DistVector& y) const;

  /// Same product but attributed to a different kernel family/region —
  /// the SPAI preconditioner application reuses the stencil sweep.
  void apply_as(ExecContext& ctx, DistVector& x, DistVector& y,
                compiler::KernelFamily family, sim::Region region) const;

  /// MATVEC+DPROD: y ← A·x returning w·y (w null ⇒ x·y, the CG p·Ap
  /// case), with the reduction priced as one allreduce.  Under
  /// FuseMode::Plan the recorded dot rides the stencil rows as one extra
  /// FMA (plus a load when w is a distinct vector), so neither w nor y is
  /// re-streamed: one kernel call per rank ("matvec-dot").  Under Off the
  /// recording is apply()'s, then DistVector::dot's.  Bit-identical either
  /// way: the global value is the same exact sum dot_ganged computes.
  double apply_dot(ExecContext& ctx, DistVector& x, DistVector& y,
                   const DistVector* w = nullptr) const;

  /// Residual r ← b − A·x.  Plan records one sweep ("matvec-residual":
  /// the b load and subtraction replace the separate A·x write-back + SUB
  /// pass); Off records apply() + assign_sub ("matvec", then "sub").
  void apply_residual(ExecContext& ctx, DistVector& x, const DistVector& b,
                      DistVector& r) const;

  /// Residual with explicit attribution (the multigrid smoother and V-cycle
  /// price their residuals under KernelFamily::Precond).  Off records
  /// apply_as() under the same family and region, then assign_sub.
  void apply_residual_as(ExecContext& ctx, DistVector& x, const DistVector& b,
                         DistVector& r, compiler::KernelFamily family,
                         sim::Region region) const;

  /// Number of unknowns (ns · nx1 · nx2).
  std::int64_t size() const {
    return grid_->zones() * static_cast<std::int64_t>(ns_);
  }

  /// Assemble the global banded matrix (validation and Fig. 1).
  BandedMatrix assemble() const;

private:
  /// The one stencil rank loop behind every product form: exchange x's
  /// halo, then per rank and species tile run y ← A·x (the stencil tile
  /// entry, then the coupling tile entry) and commit one call in `region`.
  /// With `b` (y ← b − A·x) or `dot` (y ← A·x and *dot += w·y, w null ⇒ x,
  /// priced as one allreduce) it is a composite whose fused tile entry is
  /// recorded in `fused_region` and whose Off sequence is that product
  /// followed by SUB or DPROD.  Working set: x, y, five coefficients, plus
  /// the coupling, b and a distinct w when present.
  void sweep(ExecContext& ctx, DistVector& x, DistVector& y,
             const DistVector* b, const DistVector* w, ExactSum* dot,
             compiler::KernelFamily family, sim::Region region,
             sim::Region fused_region) const;

  const grid::Grid2D* grid_;
  const grid::Decomposition* dec_;
  int ns_;
  grid::DistField cc_, cw_, ce_, cs_, cn_;
  std::unique_ptr<grid::DistField> csp_;
  std::uint64_t eval_doubles_read_ = 0;
  std::uint64_t eval_flops_ = 0;
};

}  // namespace v2d::linalg
