#pragma once
/// \file options.hpp
/// \brief Tiny declarative command-line parser used by benches and examples.
///
/// Supports `--name value`, `--name=value` and boolean `--flag`.  Unknown
/// options raise v2d::Error so typos in bench sweeps fail loudly.

#include <concepts>
#include <functional>
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

  /// Parse argv; throws v2d::Error on unknown option or missing value.
  void parse(int argc, const char* const* argv);

  /// Typed getters (throw if the option was never registered).
  std::string get(const std::string& name) const;
  /// Integer value as T; throws v2d::Error naming the option when the value
  /// is not an integer or does not fit T, so nothing wraps on the way into
  /// a narrower field.
  template <std::integral T = long>
  T get_int(const std::string& name) const {
    const long long v = parse_int(name);
    if (!std::in_range<T>(v)) throw_out_of_range(name);
    return static_cast<T>(v);
  }
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  bool was_set(const std::string& name) const;

  /// Positional arguments left over after option parsing.
  const std::vector<std::string>& positional() const { return positional_; }

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
  long long parse_int(const std::string& name) const;
  [[noreturn]] void throw_out_of_range(const std::string& name) const;

  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace v2d
