#include "linalg/precond.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "linalg/mg/mg_precond.hpp"
#include "support/error.hpp"
#include "support/exact_sum.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;
using sim::Region;

namespace {

/// Refresh the ghost zones of A's five coefficient fields — column k of A
/// needs the neighbours' coefficients pointing back at k — and price the
/// copies as one halo exchange.
void exchange_coefficients(ExecContext& ctx, const StencilOperator& A) {
  auto& a = const_cast<StencilOperator&>(A);
  std::vector<mpisim::Transfer> transfers;
  for (grid::DistField* f : {&a.cc(), &a.cw(), &a.ce(), &a.cs(), &a.cn()}) {
    auto t = f->exchange_ghosts();
    f->apply_bc(grid::BcKind::Dirichlet0);
    transfers.insert(transfers.end(), t.begin(), t.end());
  }
  ctx.exchange(transfers);
}

}  // namespace

// --- identity -----------------------------------------------------------------

void IdentityPrecond::apply(ExecContext& ctx, DistVector& x, DistVector& y) {
  y.copy_from(ctx, x);
}

// --- diagonal -----------------------------------------------------------------

DiagonalPrecond::DiagonalPrecond(const StencilOperator& A)
    : m_(A.grid(), A.decomp(), A.ns(), 1) {}

void DiagonalPrecond::apply(ExecContext& ctx, DistVector& x, DistVector& y) {
  sweep_tiles(ctx, KernelFamily::Precond, Region::Precond,
              {&m_, &x.field(), &y.field()},
              [](vla::Context& v, int, const auto& p, const Tile& t) {
                hadamard(v, p[0], p[1], p[2], t);
              });
}

bool DiagonalPrecond::apply_dot2(ExecContext& ctx, DistVector& x,
                                 DistVector& y, double out[2],
                                 double update_a, const DistVector* update_q) {
  if (!ctx.fused()) return false;
  // y ← m ⊙ x with {x·y, x·x} folded in — and, when `update_q` is given,
  // the residual DAXPY x ← x + update_a·q leading the sweep (the CG tail
  // composite).  Per-rank exact partials (the same exact sums dot_ganged
  // forms), one ganged allreduce for the pair.
  std::vector<std::array<ExactSum, 2>> partial(
      static_cast<std::size_t>(x.nranks()));
  if (update_q != nullptr) {
    sweep_tiles(ctx, KernelFamily::Precond, Region::PrecondDot,
                {&m_, &update_q->field(), &x.field(), &y.field()},
                [&](vla::Context& v, int r, const auto& p, const Tile& t) {
                  auto& acc = partial[static_cast<std::size_t>(r)];
                  fusion::hadamard_update_dot2(v, p[0], update_a, p[1], p[2],
                                               p[3], acc[0], acc[1], t);
                });
  } else {
    sweep_tiles(ctx, KernelFamily::Precond, Region::PrecondDot,
                {&m_, &x.field(), &y.field()},
                [&](vla::Context& v, int r, const auto& p, const Tile& t) {
                  auto& acc = partial[static_cast<std::size_t>(r)];
                  fusion::hadamard_dot2(v, p[0], p[1], p[2], acc[0], acc[1],
                                        t);
                });
  }
  ctx.allreduce(2 * sizeof(double));
  ExactSum xy, xx;
  for (const auto& p : partial) {
    xy.add(p[0]);
    xx.add(p[1]);
  }
  out[0] = xy.value();
  out[1] = xx.value();
  return true;
}

// --- Jacobi --------------------------------------------------------------------

JacobiPrecond::JacobiPrecond(ExecContext& ctx, const StencilOperator& A)
    : DiagonalPrecond(A) {
  // Set-up only, so it runs the interpreter row by row in either mode.
  sweep_tiles(
      ctx, KernelFamily::PrecondBuild, Region::PrecondBuild, {&A.cc(), &m_},
      [](vla::Context& v, int, const auto& base, const Tile& t) {
        for (std::size_t j = 0; j < t.nj; ++j) {
          const double* c = base[0] + t.offset(j);
          double* m = base[1] + t.offset(j);
          const vla::VReg ones = v.dup(1.0);
          vla::strip_mine(v, t.ni,
                          [&](std::uint64_t i, const vla::Predicate& p) {
                            const vla::VReg vc = v.ld1(p, c + i);
                            v.st1(p, m + i, v.div(p, ones, vc));
                          });
        }
      });
}

// --- SPAI(0) --------------------------------------------------------------------

Spai0Precond::Spai0Precond(ExecContext& ctx, const StencilOperator& A)
    : DiagonalPrecond(A) {
  exchange_coefficients(ctx, A);
  const auto& dec = A.decomp();
  par_ranks(ctx, dec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      const grid::TileView cc = A.cc().view(r, s), cw = A.cw().view(r, s),
                           ce = A.ce().view(r, s), cs = A.cs().view(r, s),
                           cn = A.cn().view(r, s);
      grid::TileView mv = m_.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          // Column k entries: diagonal plus each neighbour's coefficient
          // toward k (ghost coefficients at the domain edge are zero).
          const double d = cc(li, lj);
          const double col[5] = {d, ce(li - 1, lj), cw(li + 1, lj),
                                 cn(li, lj - 1), cs(li, lj + 1)};
          double norm2 = 0.0;
          for (double v : col) norm2 += v * v;
          mv(li, lj) = norm2 > 0.0 ? d / norm2 : 1.0;
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * A.ns();
    // ~12 flops/zone, 5 coefficient reads, 1 write.
    rctx.commit_synthetic(r, KernelFamily::PrecondBuild, Region::PrecondBuild,
                          elements, 12, 40, 8, elements * 48);
  });
}

// --- SPAI(1) --------------------------------------------------------------------

namespace {

/// Solve the n×n SPD system G·m = rhs in place by Cholesky; returns false
/// if G is not positive definite.
bool cholesky_solve(std::array<std::array<double, 5>, 5>& G,
                    std::array<double, 5>& rhs, int n) {
  // Factor G = L·Lᵀ.
  for (int k = 0; k < n; ++k) {
    double d = G[k][k];
    for (int p = 0; p < k; ++p) d -= G[k][p] * G[k][p];
    if (!(d > 0.0)) return false;
    const double l = std::sqrt(d);
    G[k][k] = l;
    for (int i = k + 1; i < n; ++i) {
      double v = G[i][k];
      for (int p = 0; p < k; ++p) v -= G[i][p] * G[k][p];
      G[i][k] = v / l;
    }
  }
  // Forward solve L·z = rhs.
  for (int i = 0; i < n; ++i) {
    double v = rhs[i];
    for (int p = 0; p < i; ++p) v -= G[i][p] * rhs[p];
    rhs[i] = v / G[i][i];
  }
  // Back solve Lᵀ·m = z.
  for (int i = n - 1; i >= 0; --i) {
    double v = rhs[i];
    for (int p = i + 1; p < n; ++p) v -= G[p][i] * rhs[p];
    rhs[i] = v / G[i][i];
  }
  return true;
}

}  // namespace

SpaiPrecond::SpaiPrecond(ExecContext& ctx, const StencilOperator& A)
    : m_(A.grid(), A.decomp(), A.ns()) {
  // Neighbour coefficients are needed across tile interfaces.
  exchange_coefficients(ctx, A);

  const grid::Grid2D& g = A.grid();
  const auto& dec = A.decomp();
  // Pattern slots: 0 = C, 1 = W, 2 = E, 3 = S, 4 = N.
  const int di[5] = {0, -1, 1, 0, 0};
  const int dj[5] = {0, 0, 0, -1, 1};

  // Deliberately serial: the column scatter below writes M entries into
  // *neighbour* tiles via gset (a zone adjacent to a tile boundary owns
  // column entries that live in the next rank's rows), so rank tasks are
  // not disjoint and par_ranks would race.  The build runs once per solve;
  // the hot path is apply(), which is a rank-parallel stencil sweep.
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      const grid::TileView cc = A.cc().view(r, s), cw = A.cw().view(r, s),
                           ce = A.ce().view(r, s), cs = A.cs().view(r, s),
                           cn = A.cn().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          // Active pattern slots (drop neighbours outside the domain).
          int slots[5];
          int np = 0;
          for (int q = 0; q < 5; ++q) {
            const int qi = gi + di[q], qj = gj + dj[q];
            if (qi >= 0 && qi < g.nx1() && qj >= 0 && qj < g.nx2())
              slots[np++] = q;
          }
          // B[p][q] = A(zone_p, zone_q) over the active pattern.  Both
          // indices are pattern slots; zone_p's coefficient toward zone_q
          // depends on their relative offset.
          auto coeff = [&](int p, int q) -> double {
            const int pi = li + di[p], pj = lj + dj[p];
            const int ddi = di[q] - di[p], ddj = dj[q] - dj[p];
            if (ddi == 0 && ddj == 0) return cc(pi, pj);
            if (ddi == -1 && ddj == 0) return cw(pi, pj);
            if (ddi == 1 && ddj == 0) return ce(pi, pj);
            if (ddi == 0 && ddj == -1) return cs(pi, pj);
            if (ddi == 0 && ddj == 1) return cn(pi, pj);
            return 0.0;  // not adjacent
          };
          std::array<std::array<double, 5>, 5> B{};
          for (int p = 0; p < np; ++p)
            for (int q = 0; q < np; ++q) B[p][q] = coeff(slots[p], slots[q]);
          // Normal equations G = BᵀB, rhs = Bᵀ·e_C (center is slot 0 and,
          // because slot 0 always lies inside the domain, pattern index 0).
          std::array<std::array<double, 5>, 5> G{};
          std::array<double, 5> rhs{};
          for (int p = 0; p < np; ++p) {
            for (int q = 0; q < np; ++q) {
              double acc = 0.0;
              for (int t = 0; t < np; ++t) acc += B[t][p] * B[t][q];
              G[p][q] = acc;
            }
            rhs[p] = B[0][p];  // e_C picks row 0 of B
          }
          std::array<double, 5> m = rhs;
          if (!cholesky_solve(G, m, np)) {
            // Degenerate local block: fall back to Jacobi for this column.
            m.fill(0.0);
            const double d = cc(li, lj);
            m[0] = d != 0.0 ? 1.0 / d : 1.0;
          }
          // Scatter column entries M[zone_p, zone_k] into row-major
          // stencil storage of M: entry at row zone_p pointing toward the
          // center zone_k sits in the band opposite to slot p.
          for (int p = 0; p < np; ++p) {
            const int q = slots[p];
            const int pgi = gi + di[q], pgj = gj + dj[q];
            switch (q) {
              case 0: m_.cc().gset(s, pgi, pgj, m[p]); break;
              case 1: m_.ce().gset(s, pgi, pgj, m[p]); break;  // row W → E
              case 2: m_.cw().gset(s, pgi, pgj, m[p]); break;  // row E → W
              case 3: m_.cn().gset(s, pgi, pgj, m[p]); break;  // row S → N
              case 4: m_.cs().gset(s, pgi, pgj, m[p]); break;  // row N → S
            }
          }
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * A.ns();
    // ~350 flops/zone (B, BᵀB, 5×5 Cholesky, two solves), ~15 doubles read,
    // 5 written.
    ctx.commit_synthetic(r, KernelFamily::PrecondBuild, Region::PrecondBuild,
                         elements, 350, 120, 40, elements * 160);
  }
}

void SpaiPrecond::apply(ExecContext& ctx, DistVector& x, DistVector& y) {
  m_.apply_as(ctx, x, y, KernelFamily::Precond, Region::Precond);
}

bool is_preconditioner_kind(const std::string& kind) {
  return kind == "identity" || kind == "jacobi" || kind == "spai0" ||
         kind == "spai" || kind == "mg";
}

std::unique_ptr<Preconditioner> make_preconditioner(const std::string& kind,
                                                    ExecContext& ctx,
                                                    const StencilOperator& A) {
  return make_preconditioner(kind, ctx, A, mg::MgOptions{});
}

std::unique_ptr<Preconditioner> make_preconditioner(
    const std::string& kind, ExecContext& ctx, const StencilOperator& A,
    const mg::MgOptions& mg_options) {
  if (kind == "identity") return std::make_unique<IdentityPrecond>();
  if (kind == "jacobi") return std::make_unique<JacobiPrecond>(ctx, A);
  if (kind == "spai0") return std::make_unique<Spai0Precond>(ctx, A);
  if (kind == "spai") return std::make_unique<SpaiPrecond>(ctx, A);
  if (kind == "mg") return std::make_unique<mg::MgPrecond>(ctx, A, mg_options);
  throw Error("unknown preconditioner '" + kind +
              "' (expected identity|jacobi|spai0|spai|mg)");
}

}  // namespace v2d::linalg
