#include "scenario/registry.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>

#include "scenario/problems.hpp"
#include "support/error.hpp"

namespace v2d::scenario {

namespace {

constexpr Scenario kCatalog[] = {
    {"gaussian-pulse",
     "the paper's diffusing 2-D Gaussian radiation pulse "
     "(free-space analytic reference)",
     make_gaussian_pulse},
    {"hotspot-absorber",
     "radiation diffusion through a nonuniform power-law absorbing "
     "blob (discrete absorption decay bounds)",
     make_hotspot_absorber},
    {"sedov-radhydro",
     "Sedov-like blast with HLL hydro sweeps, 3-solve radiation "
     "step and radiation-gas exchange (mass-conservation pin)",
     make_sedov_radhydro},
    {"two-species-relax",
     "exchange-dominated two-species relaxation on uniform fields "
     "(closed-form per-step equilibration reference)",
     make_two_species_relax},
};

// Strictly increasing names: sorted for --list-problems, and no name twice.
static_assert(std::ranges::adjacent_find(kCatalog, std::greater_equal{},
                                         &Scenario::name) ==
              std::end(kCatalog));

}  // namespace

std::span<const Scenario> catalog() { return kCatalog; }

const Scenario& lookup(std::string_view name) {
  for (const Scenario& s : kCatalog)
    if (s.name == name) return s;
  std::string known;
  for (const Scenario& s : kCatalog) {
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  throw Error("unknown problem '" + std::string(name) +
              "' (known problems: " + known + ")");
}

}  // namespace v2d::scenario
