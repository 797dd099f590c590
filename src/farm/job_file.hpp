#pragma once
/// \file job_file.hpp
/// \brief The `v2d --farm` job-list format.
///
/// One job per line, using exactly the v2d driver's command-line options:
///
///   # comments and blank lines are skipped
///   pulse-hi: --problem gaussian-pulse --steps 10 --nx1 64 --nx2 32
///   sedov:    --problem sedov-radhydro --steps 5 --compilers cray,gnu
///   --problem hotspot-absorber --steps 5        # unnamed -> "job-3"
///
/// An optional `name:` prefix labels the job (names must be unique;
/// unnamed jobs get "job-<line-order>").  The rest of the line is split
/// on whitespace (no quoting) and parsed through the same
/// Options/RunConfig pipeline as the v2d command line, so every solo-run
/// knob — grid, decomposition, solver, VL, profiles, fuse, checkpoints —
/// works per job, and an unknown option fails with the offending line
/// number.
///
/// `--fuse off|plan` is a per-job knob like any other: every job runs as
/// its own session with its own count memo.  `--host-threads` on a job
/// line is ignored; the farm's own `--host-threads` sizes every session.

#include <string>
#include <vector>

#include "farm/farm.hpp"

namespace v2d::farm {

/// Parse a job list from `path`.  Throws v2d::Error (with line numbers)
/// on unreadable files, malformed lines, or duplicate job names.
std::vector<FarmJob> parse_job_file(const std::string& path);

/// Parse one job line (exposed for tests).  `default_name` is used when
/// the line carries no `name:` prefix.
FarmJob parse_job_line(const std::string& line,
                       const std::string& default_name);

}  // namespace v2d::farm
