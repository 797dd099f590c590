#include "perfmon/perf_stat.hpp"

#include <iomanip>
#include <sstream>

namespace v2d::perfmon {

namespace {
/// Group digits like perf does: 1,234,567,890.
std::string grouped(std::uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}
}  // namespace

std::string format_perf_stat(const PerfStatResult& r) {
  std::ostringstream os;
  os << " Performance counter stats for '" << r.command << "':\n\n";
  const auto ns = static_cast<std::uint64_t>(r.duration_seconds * 1e9);
  os << std::setw(20) << grouped(ns) << " ns   duration_time\n";
  os << std::setw(20) << grouped(r.cpu_cycles) << "      cpu-cycles\n";
  if (r.instructions) {
    os << std::setw(20) << grouped(r.instructions) << "      instructions\n";
  }
  os << '\n'
     << std::fixed << std::setprecision(9) << std::setw(18)
     << r.duration_seconds << " seconds time elapsed\n";
  return os.str();
}

std::string format_memo_cache(const MemoCacheStats& s) {
  std::ostringstream os;
  os << "memo cache: " << grouped(s.hits) << " hits, " << grouped(s.misses)
     << " misses (" << std::fixed << std::setprecision(1)
     << 100.0 * s.hit_rate() << "% hit rate)";
  return os.str();
}

}  // namespace v2d::perfmon
