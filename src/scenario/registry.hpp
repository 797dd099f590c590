#pragma once
/// \file registry.hpp
/// \brief The fixed catalog of workloads the driver can run.
///
/// The catalog is the single authority on what `--problem <name>` means:
/// RunConfig validation, the Simulation constructor and the `v2d` CLI's
/// `--list-problems` all consult it.  It is a constant table of the
/// built-in problems (problems.hpp), sorted by name with no name twice
/// (checked at compile time); nothing in the driver names a concrete
/// Problem type.

#include <memory>
#include <span>
#include <string_view>

#include "scenario/problem.hpp"

namespace v2d::scenario {

/// One catalog entry.  `description` is the one-line entry shown by
/// `v2d --list-problems`.
struct Scenario {
  std::string_view name;
  std::string_view description;
  std::unique_ptr<Problem> (*make)();
};

/// Every entry, sorted by name.
std::span<const Scenario> catalog();

/// The entry named `name`; throws v2d::Error listing the known names when
/// there is none.
const Scenario& lookup(std::string_view name);

}  // namespace v2d::scenario
