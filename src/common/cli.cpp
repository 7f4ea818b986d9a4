#include "common/cli.h"

#include <cstdio>
#include <cstdlib>

namespace aps {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)].value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg].value = argv[++i];
    } else {
      flags_[arg].value = "true";
    }
  }
}

const std::string* CliFlags::find(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  it->second.consulted = true;
  return &it->second.value;
}

bool CliFlags::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

int CliFlags::get_int(const std::string& name, int fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : std::atoi(value->c_str());
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : std::atof(value->c_str());
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value != "false" && *value != "0";
}

std::vector<std::string> CliFlags::unknown() const {
  std::vector<std::string> names;
  for (const auto& [name, flag] : flags_) {
    if (!flag.consulted) names.push_back(name);
  }
  return names;
}

void CliFlags::reject_unknown() const {
  const std::vector<std::string> names = unknown();
  if (names.empty()) return;
  for (const auto& name : names) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  std::exit(2);
}

}  // namespace aps
