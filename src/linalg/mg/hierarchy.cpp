#include "linalg/mg/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "linalg/mg/smoother.hpp"
#include "support/error.hpp"

namespace v2d::linalg::mg {

using compiler::KernelFamily;

MgLevel::MgLevel(const grid::Grid2D& g, const grid::Decomposition& d,
                 const StencilOperator& a, bool with_solution)
    : grid(&g),
      decomp(&d),
      op(&a),
      dinv(g, d, a.ns(), 1),
      r(g, d, a.ns()),
      z(g, d, a.ns()),
      p(g, d, a.ns()) {
  if (with_solution) {
    x = std::make_unique<DistVector>(g, d, a.ns());
    b = std::make_unique<DistVector>(g, d, a.ns());
  }
}

bool MgHierarchy::can_coarsen(const grid::Grid2D& g,
                              const grid::Decomposition& d,
                              const MgOptions& opt) {
  if (std::min(g.nx1(), g.nx2()) <= opt.coarse_size) return false;
  if (g.nx1() % 2 != 0 || g.nx2() % 2 != 0) return false;
  // Parent alignment needs every tile boundary on an even zone index.
  for (int r = 0; r < d.nranks(); ++r) {
    const grid::TileExtent& e = d.extent(r);
    if (e.i0 % 2 != 0 || e.j0 % 2 != 0 || e.ni % 2 != 0 || e.nj % 2 != 0)
      return false;
  }
  return true;
}

namespace {

/// Galerkin coarsening with piecewise-constant transfers: every coarse
/// five-point coefficient is (1/4)·Σ of the matching children entries.
/// All reads are in-tile (children of an aligned coarse tile are exactly
/// the rank's fine zones), so no ghost exchange is needed.
void galerkin_coarsen(ExecContext& ctx, const StencilOperator& fineA,
                      StencilOperator& coarseA) {
  auto& ff = const_cast<StencilOperator&>(fineA);
  const auto& cdec = coarseA.decomp();
  const auto& fdec = fineA.decomp();
  par_ranks(ctx, cdec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& ce = cdec.extent(r);
    const grid::TileExtent& fe = fdec.extent(r);
    V2D_REQUIRE(fe.ni == 2 * ce.ni && fe.nj == 2 * ce.nj,
                "coarse tiles must be parent-aligned");
    for (int s = 0; s < fineA.ns(); ++s) {
      grid::TileView fcc = ff.cc().view(r, s), fcw = ff.cw().view(r, s),
                     fce = ff.ce().view(r, s), fcs = ff.cs().view(r, s),
                     fcn = ff.cn().view(r, s);
      grid::TileView ccc = coarseA.cc().view(r, s),
                     ccw = coarseA.cw().view(r, s),
                     cce = coarseA.ce().view(r, s),
                     ccs = coarseA.cs().view(r, s),
                     ccn = coarseA.cn().view(r, s);
      for (int cj = 0; cj < ce.nj; ++cj) {
        for (int ci = 0; ci < ce.ni; ++ci) {
          const int fi = 2 * ci, fj = 2 * cj;
          ccw(ci, cj) = 0.25 * (fcw(fi, fj) + fcw(fi, fj + 1));
          cce(ci, cj) = 0.25 * (fce(fi + 1, fj) + fce(fi + 1, fj + 1));
          ccs(ci, cj) = 0.25 * (fcs(fi, fj) + fcs(fi + 1, fj));
          ccn(ci, cj) = 0.25 * (fcn(fi, fj + 1) + fcn(fi + 1, fj + 1));
          // Diagonal: the children's diagonals plus the couplings that
          // become internal to the 2×2 aggregate.
          ccc(ci, cj) =
              0.25 * (fcc(fi, fj) + fcc(fi + 1, fj) + fcc(fi, fj + 1) +
                      fcc(fi + 1, fj + 1) + fce(fi, fj) + fce(fi, fj + 1) +
                      fcw(fi + 1, fj) + fcw(fi + 1, fj + 1) + fcn(fi, fj) +
                      fcn(fi + 1, fj) + fcs(fi, fj + 1) + fcs(fi + 1, fj + 1));
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(ce.ni) * ce.nj *
                          static_cast<std::uint64_t>(fineA.ns());
    // ~16 flops/zone over 20 reads, 5 writes.
    rctx.commit_synthetic(r, KernelFamily::PrecondBuild, sim::Region::MgBuild, elements,
                          16, 160, 40, elements * 200);
  });
}

/// Fill dinv = 1/diag(A) and return the Gershgorin bound on λ(D⁻¹A).
double invert_diagonal(ExecContext& ctx, const StencilOperator& A,
                       grid::DistField& dinv) {
  auto& a = const_cast<StencilOperator&>(A);
  const auto& dec = A.decomp();
  // Per-rank Gershgorin partials, max-merged after the parallel region
  // (max is order-independent, so the bound is thread-count-invariant).
  std::vector<double> lam_rank(static_cast<std::size_t>(dec.nranks()), 0.0);
  par_ranks(ctx, dec, [&](int r, ExecContext& rctx) {
    double lam = 0.0;
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      grid::TileView cc = a.cc().view(r, s), cw = a.cw().view(r, s),
                     ce = a.ce().view(r, s), cs = a.cs().view(r, s),
                     cn = a.cn().view(r, s);
      // The level-0 smoother applies the full operator including the
      // species-coupling band, so the spectrum bound must count it too.
      const grid::TileView* sp = nullptr;
      grid::TileView sp_view;
      if (A.coupled()) {
        sp_view = a.csp().view(r, s);
        sp = &sp_view;
      }
      grid::TileView dv = dinv.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const double d = cc(li, lj);
          V2D_REQUIRE(d != 0.0, "multigrid needs a nonzero diagonal");
          dv(li, lj) = 1.0 / d;
          const double row = std::fabs(cc(li, lj)) + std::fabs(cw(li, lj)) +
                             std::fabs(ce(li, lj)) + std::fabs(cs(li, lj)) +
                             std::fabs(cn(li, lj)) +
                             (sp ? std::fabs((*sp)(li, lj)) : 0.0);
          lam = std::max(lam, row / std::fabs(d));
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj *
                          static_cast<std::uint64_t>(A.ns());
    rctx.commit_synthetic(r, KernelFamily::PrecondBuild, sim::Region::MgBuild, elements,
                          8, 48, 8, elements * 56);
    lam_rank[static_cast<std::size_t>(r)] = lam;
  });
  double lam = 0.0;
  for (const double l : lam_rank) lam = std::max(lam, l);
  return lam;
}

}  // namespace

void check_options(const MgOptions& opt) {
  const auto fail = [](const char* name, const char* bound, auto v) {
    std::ostringstream os;
    os << "option --" << name << " must be " << bound << ", got " << v;
    throw Error(os.str());
  };
  if (opt.coarse_size < 1) fail("mg-coarse-size", ">= 1", opt.coarse_size);
  if (opt.max_levels < 1) fail("mg-levels", ">= 1", opt.max_levels);
  if (opt.nu_pre < 0) fail("mg-nu-pre", ">= 0", opt.nu_pre);
  if (opt.nu_post < 0) fail("mg-nu-post", ">= 0", opt.nu_post);
  if (opt.nu_pre + opt.nu_post < 1)
    throw Error("options --mg-nu-pre + --mg-nu-post must be >= 1 (an "
                "unsmoothed coarse correction is singular)");
  if (!(opt.jacobi_omega > 0.0)) fail("mg-omega", "> 0", opt.jacobi_omega);
  if (!(opt.cheb_boost > 1.0)) fail("mg-cheb-boost", "> 1", opt.cheb_boost);
  if (opt.max_direct_zones < 1)
    fail("mg-max-direct-zones", ">= 1", opt.max_direct_zones);
  try {
    (void)make_smoother(opt);  // the smoother catalog
  } catch (const Error& e) {
    throw Error(std::string("option --mg-smoother: ") + e.what());
  }
}

MgHierarchy::MgHierarchy(ExecContext& ctx, const StencilOperator& A,
                         MgOptions opt)
    : opt_(std::move(opt)) {
  check_options(opt_);
  // Level 0 smooths with a cached copy of the fine coefficients: they are
  // frozen for the lifetime of one preconditioner, so the cycle's many
  // sweeps skip V2D's per-application on-the-fly coefficient evaluation —
  // the same storage-for-evaluation trade the SPAI operator makes.
  auto cached = std::make_unique<StencilOperator>(A.grid(), A.decomp(),
                                                  A.ns());
  cached->cc() = A.cc();
  cached->cw() = A.cw();
  cached->ce() = A.ce();
  cached->cs() = A.cs();
  cached->cn() = A.cn();
  if (A.coupled()) {
    cached->enable_coupling();
    cached->csp() = A.csp();
  }
  par_ranks(ctx, A.decomp(), [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = A.decomp().extent(r);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj *
                          static_cast<std::uint64_t>(A.ns());
    // Evaluate-once: the stored-coefficient fill costs one evaluation
    // sweep (the same per-element price a single matvec would pay).
    rctx.commit_synthetic(r, KernelFamily::PrecondBuild, sim::Region::MgBuild, elements,
                          kMatvecEvalFlops, kMatvecEvalDoublesRead * 8, 40,
                          elements * 48);
  });
  levels_.push_back(std::make_unique<MgLevel>(A.grid(), A.decomp(), *cached,
                                              /*with_solution=*/false));
  levels_.back()->owned_op = std::move(cached);
  levels_.back()->lambda_max =
      invert_diagonal(ctx, *levels_.back()->op, levels_.back()->dinv);

  while (nlevels() < opt_.max_levels &&
         can_coarsen(*levels_.back()->grid, *levels_.back()->decomp, opt_)) {
    const MgLevel& fine = *levels_.back();
    const grid::Grid2D& fg = *fine.grid;
    auto cg = std::make_unique<grid::Grid2D>(
        fg.nx1() / 2, fg.nx2() / 2, fg.x1f(0), fg.x1f(fg.nx1()), fg.x2f(0),
        fg.x2f(fg.nx2()), fg.coord());

    std::vector<grid::TileExtent> extents;
    extents.reserve(static_cast<std::size_t>(fine.decomp->nranks()));
    for (int r = 0; r < fine.decomp->nranks(); ++r) {
      const grid::TileExtent& e = fine.decomp->extent(r);
      extents.push_back(grid::TileExtent{e.i0 / 2, e.j0 / 2, e.ni / 2,
                                         e.nj / 2});
    }
    auto cd = std::make_unique<grid::Decomposition>(
        *cg, fine.decomp->topology(), std::move(extents));
    auto ca = std::make_unique<StencilOperator>(*cg, *cd, A.ns());
    galerkin_coarsen(ctx, *fine.op, *ca);

    auto lvl = std::make_unique<MgLevel>(*cg, *cd, *ca,
                                         /*with_solution=*/true);
    lvl->owned_grid = std::move(cg);
    lvl->owned_decomp = std::move(cd);
    lvl->owned_op = std::move(ca);
    lvl->lambda_max = invert_diagonal(ctx, *lvl->op, lvl->dinv);
    levels_.push_back(std::move(lvl));
  }

  // Coarsest level: assemble and factor once; every rank solves the small
  // system redundantly after a gather, so the factorization is priced on
  // each rank.
  const MgLevel& coarsest = *levels_.back();
  if (coarsest.grid->zones() > opt_.max_direct_zones) {
    const int nx1 = coarsest.grid->nx1(), nx2 = coarsest.grid->nx2();
    std::string cause;
    if (nlevels() >= opt_.max_levels) {
      cause = "the level cap (--mg-levels " +
              std::to_string(opt_.max_levels) +
              ") was reached — raise --mg-levels";
    } else if (std::min(nx1, nx2) <= opt_.coarse_size) {
      cause = "the coarse size (--mg-coarse-size " +
              std::to_string(opt_.coarse_size) +
              ") was reached — lower --mg-coarse-size";
    } else if (nx1 % 2 != 0 || nx2 % 2 != 0) {
      cause = "the grid has an odd extent, which cannot be halved — choose "
              "--nx1 and --nx2 with more factors of two";
    } else {
      cause =
          "a tile boundary sits on an odd zone index, which would break "
          "parent alignment — choose --nprx1/--nprx2 that split the grid "
          "into even tiles (powers of two work best)";
    }
    throw Error("multigrid coarsening stalled at " + std::to_string(nx1) +
                "x" + std::to_string(nx2) + " zones (> --mg-max-direct-zones " +
                std::to_string(opt_.max_direct_zones) + "): " + cause +
                ", or raise --mg-max-direct-zones if a large direct solve is "
                "intended");
  }
  coarse_lu_ = std::make_unique<BandedLU>(coarsest.op->assemble());
  const auto n = static_cast<std::uint64_t>(coarsest.op->size());
  par_ranks(ctx, *coarsest.decomp, [&](int r, ExecContext& rctx) {
    rctx.commit_synthetic(r, KernelFamily::PrecondBuild, sim::Region::MgCoarseFactor, n,
                          coarse_lu_->factor_flops() / std::max<std::uint64_t>(
                                                           1, n),
                          16, 16, n * 8 *
                              static_cast<std::uint64_t>(
                                  coarse_lu_->lower_bandwidth() +
                                  coarse_lu_->upper_bandwidth() + 1));
  });
}

}  // namespace v2d::linalg::mg
