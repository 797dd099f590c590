#include "support/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace v2d {

Options& Options::add(const std::string& name, const std::string& default_value,
                      const std::string& help) {
  V2D_REQUIRE(!specs_.count(name), "duplicate option --" + name);
  specs_[name] = Spec{default_value, help, /*is_flag=*/false, /*set=*/false};
  order_.push_back(name);
  return *this;
}

Options& Options::add_flag(const std::string& name, const std::string& help) {
  V2D_REQUIRE(!specs_.count(name), "duplicate flag --" + name);
  specs_[name] = Spec{"0", help, /*is_flag=*/true, /*set=*/false};
  order_.push_back(name);
  return *this;
}

Options::Spec& Options::require_spec(const std::string& name) {
  auto it = specs_.find(name);
  if (it == specs_.end()) throw Error("unknown option --" + name);
  return it->second;
}

const Options::Spec& Options::require_spec(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) throw Error("unknown option --" + name);
  return it->second;
}

namespace {
bool is_help(const std::string& arg) { return arg == "--help" || arg == "-h"; }
}  // namespace

void Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (is_help(arg))
      throw Error(arg + " is only accepted on a program's command line");
    if (arg.rfind("--", 0) != 0)
      throw Error("unexpected argument '" + arg + "' (options start with --)");
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    Spec& spec = require_spec(arg);
    if (spec.is_flag) {
      V2D_REQUIRE(!has_value || value == "0" || value == "1",
                  "flag --" + arg + " takes no value");
      spec.value = has_value ? value : "1";
    } else if (has_value) {
      spec.value = value;
    } else {
      if (i + 1 >= argc) throw Error("option --" + arg + " needs a value");
      spec.value = argv[++i];
    }
    spec.set = true;
  }
}

bool Options::parse_command_line(int argc, const char* const* argv,
                                 const std::string& program,
                                 std::ostream& out) {
  for (int i = 1; i < argc; ++i) {
    if (is_help(argv[i])) {
      out << usage(program);
      return false;
    }
  }
  parse(argc, argv);
  return true;
}

std::string Options::get(const std::string& name) const {
  return require_spec(name).value;
}

long long Options::parse_long(const std::string& name,
                              const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long out = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw Error("option --" + name + " expects an integer, got '" + text + "'");
  if (errno == ERANGE) throw_out_of_range(name, text);
  return out;
}

void Options::throw_out_of_range(const std::string& name,
                                 const std::string& text) {
  throw Error("option --" + name + " value '" + text + "' is out of range");
}

std::vector<std::string> Options::split_list(const std::string& name) const {
  const std::string v = get(name);
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = v.find(',', start);
    const std::string item = v.substr(start, comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (items.empty())
    throw Error("option --" + name + " expects a comma list, got '" + v + "'");
  return items;
}

double Options::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0')
    throw Error("option --" + name + " expects a number, got '" + v + "'");
  if (errno == ERANGE) throw_out_of_range(name, v);
  if (!std::isfinite(out))
    throw Error("option --" + name + " expects a finite number, got '" + v +
                "'");
  return out;
}

bool Options::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  throw Error("option --" + name + " expects 1|true|0|false, got '" + v + "'");
}

bool Options::was_set(const std::string& name) const {
  return require_spec(name).set;
}

std::string Options::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& name : order_) {
    const Spec& s = specs_.at(name);
    os << "  --" << name;
    if (!s.is_flag) os << " <value>  (default: " << s.value << ")";
    os << "\n      " << s.help << "\n";
  }
  os << "  --help, -h\n      print this usage and exit\n";
  return os.str();
}

}  // namespace v2d
