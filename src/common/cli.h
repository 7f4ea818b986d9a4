// Tiny command-line flag parser for benches and examples.
//
// Supported syntax: --name=value, --name value, and boolean --flag.
// Every getter (and has()) records the name it consults; a main calls
// reject_unknown() once all its flags are read, so a misspelt or retired
// flag stops the run (exit status 2) instead of being silently ignored.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace aps {

class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Flags given on the command line that no getter has consulted yet,
  /// in name order.
  [[nodiscard]] std::vector<std::string> unknown() const;
  /// Print every unknown() flag to stderr and exit with status 2; a no-op
  /// when every flag was consulted. Call it after the last flag read.
  void reject_unknown() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  [[nodiscard]] const std::string* find(const std::string& name) const;

  struct Flag {
    std::string value;
    mutable bool consulted = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace aps
