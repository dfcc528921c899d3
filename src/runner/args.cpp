#include "runner/args.hpp"

#include <cstddef>
#include <stdexcept>

namespace das::runner {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  touched_[name] = true;
  return values_.contains(name);
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  touched_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// `parse(value, &used)` if it consumes the whole token; otherwise (a
/// prefix like "1x" or "8.9" for an integer, garbage, or out of range)
/// throws naming the flag and the value.
template <typename T, typename Parse>
T parse_whole(const std::string& name, const std::string& value,
              const char* expected, Parse parse) {
  std::size_t used = 0;
  T result{};
  try {
    result = parse(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (value.empty() || used != value.size()) {
    throw std::invalid_argument("--" + name + "=" + value + ": expects " +
                                expected);
  }
  return result;
}

}  // namespace

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  touched_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<std::int64_t>(
      name, it->second, "an integer",
      [](const std::string& v, std::size_t* used) {
        return std::stoll(v, used);
      });
}

double Args::get_double(const std::string& name, double fallback) const {
  touched_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<double>(name, it->second, "a number",
                             [](const std::string& v, std::size_t* used) {
                               return std::stod(v, used);
                             });
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  touched_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + " expects a boolean, got: " + v);
}

std::string Args::unused() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    if (!touched_.contains(name)) {
      if (!out.empty()) out += ", ";
      out += name;
    }
  }
  return out;
}

}  // namespace das::runner
