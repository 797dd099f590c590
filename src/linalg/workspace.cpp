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

}  // namespace v2d::linalg
