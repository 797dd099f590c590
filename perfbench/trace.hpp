#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the benchmark's traced pass.
///
/// Spans are recorded around the calls the benchmark makes into the
/// program's layers (session set-up, each drive_step, a farm run, each
/// layer probe) and kept in memory; write_chrome_json() writes them once,
/// at exit, as Chrome trace-event JSON, which Perfetto and chrome://tracing
/// open with no extra tooling.  All spans come from the benchmark's own
/// thread, so they nest strictly: a span's parent is the innermost span
/// open when it began.  A disabled tracer records nothing, which is how the
/// untraced pass runs the same code.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;          ///< the program module the call enters
  std::int64_t begin_ns = 0;  ///< since the tracer was constructed
  std::int64_t end_ns = -1;   ///< -1 while the span is open
  int parent = -1;            ///< index into spans(), -1 for a root span
};

class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span as a child of the innermost open span; returns its id,
  /// or -1 when tracing is off.
  int begin(std::string name, std::string layer) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.begin_ns = now_ns();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Close span `id`, which must be the innermost open span.
  void end(int id) {
    if (id < 0) return;
    if (open_.empty() || open_.back() != id)
      throw std::logic_error("trace: spans must close innermost-first");
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// RAII span: open on construction, closed at scope exit.
  class Scope {
  public:
    Scope(Tracer& t, std::string name, std::string layer)
        : t_(t), id_(t.begin(std::move(name), std::move(layer))) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every closed span as one complete ("X") event, timestamps in
  /// microseconds; the span id and its parent's id ride in "args".
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}",
                   first ? "" : ",", escape(s.name).c_str(),
                   escape(s.layer).c_str(), s.begin_ns / 1e3,
                   (s.end_ns - s.begin_ns) / 1e3, i, s.parent);
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  /// JSON string-body escaping (quotes, backslashes, control characters).
  static std::string escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
