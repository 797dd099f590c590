#include "linalg/workspace.hpp"

namespace v2d::linalg {

SolverWorkspace::SolverWorkspace(const grid::Grid2D& g,
                                 const grid::Decomposition& d, int ns)
    : g_(&g), d_(&d), ns_(ns) {}

DistVector& SolverWorkspace::vec(std::size_t slot) {
  std::lock_guard<std::mutex> lk(mu_);
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  if (!slots_[slot])
    slots_[slot] = std::make_unique<DistVector>(*g_, *d_, ns_);
  return *slots_[slot];
}

std::size_t SolverWorkspace::allocated() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s) ++n;
  return n;
}

void SolverWorkspace::scrub() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& s : slots_)
    if (s) s->field().fill(0.0);
}

bool WorkspacePool::shape_equal(const Entry& e, const grid::Grid2D& g,
                                const grid::Decomposition& d, int ns) {
  if (e.ns != ns) return false;
  // Grid2D is defined by its zone counts, box and coordinate system.
  if (e.g.nx1() != g.nx1() || e.g.nx2() != g.nx2()) return false;
  if (e.g.coord() != g.coord()) return false;
  if (e.g.x1f(0) != g.x1f(0) || e.g.x1f(g.nx1()) != g.x1f(g.nx1()))
    return false;
  if (e.g.x2f(0) != g.x2f(0) || e.g.x2f(g.nx2()) != g.x2f(g.nx2()))
    return false;
  // Decomposition: same topology and identical per-rank tile extents.
  if (e.d.nranks() != d.nranks()) return false;
  if (e.d.topology().nprx1() != d.topology().nprx1() ||
      e.d.topology().nprx2() != d.topology().nprx2())
    return false;
  for (int r = 0; r < d.nranks(); ++r) {
    const auto &a = e.d.extent(r), &b = d.extent(r);
    if (a.i0 != b.i0 || a.j0 != b.j0 || a.ni != b.ni || a.nj != b.nj)
      return false;
  }
  return true;
}

WorkspacePool::Lease WorkspacePool::acquire(const grid::Grid2D& g,
                                            const grid::Decomposition& d,
                                            int ns) {
  Entry* hit = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& e : entries_) {
      if (!e->busy && shape_equal(*e, g, d, ns)) {
        e->busy = true;
        ++reused_;
        hit = e.get();
        break;
      }
    }
    if (hit == nullptr) {
      entries_.push_back(std::make_unique<Entry>(g, d, ns));
      entries_.back()->busy = true;
      hit = entries_.back().get();
    }
  }
  // Scrub outside the pool lock: zeroing a large reused workspace must
  // not serialize unrelated acquires.
  hit->ws.scrub();
  return Lease(this, &hit->ws);
}

void WorkspacePool::Lease::release() {
  if (pool_ == nullptr || ws_ == nullptr) return;
  std::lock_guard<std::mutex> lk(pool_->mu_);
  for (auto& e : pool_->entries_) {
    if (&e->ws == ws_) {
      e->busy = false;
      break;
    }
  }
  pool_ = nullptr;
  ws_ = nullptr;
}

std::size_t WorkspacePool::created() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::uint64_t WorkspacePool::reused() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reused_;
}

}  // namespace v2d::linalg
