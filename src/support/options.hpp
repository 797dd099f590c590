#pragma once
/// \file options.hpp
/// \brief Tiny declarative command-line parser used by benches and examples.
///
/// Supports `--name value`, `--name=value` and boolean `--flag`.  Unknown
/// options and stray arguments raise v2d::Error so typos in bench sweeps
/// fail loudly.  A program's command line also answers `--help` and `-h`
/// (parse_command_line); a job line or any other parse() rejects them.

#include <concepts>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace v2d {

class Options {
public:
  /// Register an option with a default; returns *this for chaining.
  Options& add(const std::string& name, const std::string& default_value,
               const std::string& help);
  Options& add_flag(const std::string& name, const std::string& help);

  /// Parse argv; throws v2d::Error on an unknown option, a missing value,
  /// an argument that is not an option, or a help request.
  void parse(int argc, const char* const* argv);

  /// Parse a program's command line.  When any argument is `--help` or
  /// `-h`, print usage(program) to `out` and return false without parsing
  /// anything (the caller then exits 0); otherwise parse() and return true.
  bool parse_command_line(int argc, const char* const* argv,
                          const std::string& program,
                          std::ostream& out = std::cout);

  /// Typed getters (throw if the option was never registered).
  std::string get(const std::string& name) const;
  /// Integer value as T; throws v2d::Error naming the option when the value
  /// is not an integer or does not fit T, so nothing wraps on the way into
  /// a narrower field.
  template <std::integral T = long>
  T get_int(const std::string& name) const {
    return parse_int<T>(name, get(name));
  }
  /// Comma-separated integer list, each item checked as get_int<T> checks
  /// its value (empty items are skipped); throws v2d::Error naming the
  /// option when an item is bad or the list is empty.
  template <std::integral T = long>
  std::vector<T> get_int_list(const std::string& name) const {
    std::vector<T> out;
    for (const std::string& item : split_list(name))
      out.push_back(parse_int<T>(name, item));
    return out;
  }
  /// Finite number; throws v2d::Error naming the option for anything else,
  /// including NaN, ±Inf and values strtod reports out of range.
  double get_double(const std::string& name) const;
  /// `1`/`true` or `0`/`false`; throws v2d::Error naming the option for
  /// anything else, so `--ganged on` cannot silently read as false.
  bool get_bool(const std::string& name) const;

  bool was_set(const std::string& name) const;

  /// Render a --help style usage block.
  std::string usage(const std::string& program) const;

private:
  struct Spec {
    std::string value;
    std::string help;
    bool is_flag = false;
    bool set = false;
  };
  Spec& require_spec(const std::string& name);
  const Spec& require_spec(const std::string& name) const;
  template <std::integral T>
  static T parse_int(const std::string& name, const std::string& text) {
    const long long v = parse_long(name, text);
    if (!std::in_range<T>(v)) throw_out_of_range(name, text);
    return static_cast<T>(v);
  }
  static long long parse_long(const std::string& name, const std::string& text);
  [[noreturn]] static void throw_out_of_range(const std::string& name,
                                              const std::string& text);
  std::vector<std::string> split_list(const std::string& name) const;

  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
};

}  // namespace v2d
