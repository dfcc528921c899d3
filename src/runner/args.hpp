// Minimal command-line flag parsing for the example binaries:
// --name=value or --name value; unknown flags are reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace das::runner {

class Args {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Value lookups with defaults. get_int and get_double accept only a
  /// value they parse in full (--gib=1x or --nodes=8.9 throws rather than
  /// reading a prefix), and throw std::invalid_argument naming the flag
  /// and the value. get_bool accepts true/false, 1/0, yes/no, and on/off;
  /// anything else throws (a typo like --prefetch=of silently reading as
  /// false would defeat the disabled==baseline check).
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Names that were parsed but never looked up (typo detection).
  [[nodiscard]] std::string unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace das::runner
