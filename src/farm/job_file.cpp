#include "farm/job_file.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/options.hpp"

namespace v2d::farm {

namespace {

std::string strip(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r\n");
  if (a == std::string::npos) return {};
  const auto b = s.find_last_not_of(" \t\r\n");
  return s.substr(a, b - a + 1);
}

}  // namespace

FarmJob parse_job_line(const std::string& line,
                       const std::string& default_name) {
  std::string body = line;
  std::string name = default_name;

  // Optional `name:` label — a first token that ends in ':' and is not an
  // option.
  const std::string head = strip(body);
  if (!head.empty() && head[0] != '-') {
    const auto colon = head.find(':');
    const auto space = head.find_first_of(" \t");
    if (colon != std::string::npos && (space == std::string::npos ||
                                       colon < space)) {
      name = strip(head.substr(0, colon));
      V2D_REQUIRE(!name.empty(), "empty job name before ':'");
      body = head.substr(colon + 1);
    }
  }

  std::vector<std::string> tokens;
  std::istringstream is(body);
  for (std::string tok; is >> tok;) tokens.push_back(tok);
  V2D_REQUIRE(!tokens.empty(), "job line has no options");

  std::vector<const char*> argv;
  argv.reserve(tokens.size() + 1);
  argv.push_back("v2d-farm");
  for (const auto& t : tokens) argv.push_back(t.c_str());

  Options opt;
  core::RunConfig::register_options(opt);
  opt.parse(static_cast<int>(argv.size()), argv.data());

  FarmJob job;
  job.name = std::move(name);
  job.cfg = core::RunConfig::from_options(opt);
  return job;
}

std::vector<FarmJob> parse_job_file(const std::string& path) {
  std::ifstream in(path);
  V2D_REQUIRE(in.good(), "cannot open job file '" + path + "'");

  std::vector<FarmJob> jobs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (strip(line).empty()) continue;
    try {
      jobs.push_back(parse_job_line(
          line, "job-" + std::to_string(jobs.size() + 1)));
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    for (std::size_t i = 0; i + 1 < jobs.size(); ++i)
      V2D_REQUIRE(jobs[i].name != jobs.back().name,
                  path + ":" + std::to_string(lineno) +
                      ": duplicate job name '" + jobs.back().name + "'");
  }
  V2D_REQUIRE(!jobs.empty(), "job file '" + path +
                  "' defines no jobs (empty or comment-only)");
  return jobs;
}

}  // namespace v2d::farm
