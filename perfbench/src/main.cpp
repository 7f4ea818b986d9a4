// Benchmark binary. Run through perfbench/run.py, which builds it,
// passes each workload's fixed settings from perfbench/config.json, checks
// the printed metrics against BENCHMARK.json and prints the final result.
//
// Output: human-readable lines, then one `ENV {...}` line (the environment
// stamp) and one `RESULT {...}` line (correct/attempted/failed/metrics
// plus workload extras).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "design.h"
#include "ml/kernels/kernels.h"
#include "wire.h"

namespace {

using perfbench::RunResult;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      args[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[arg] = argv[++i];
    } else {
      throw std::invalid_argument("flag --" + arg + " needs a value");
    }
  }
  return args;
}

class Args {
 public:
  explicit Args(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(str(key));
  }
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream in(str(key));
    std::string item;
    while (std::getline(in, item, ',')) out.push_back(item);
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

bool optimized_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  return std::strlen(PERFBENCH_SANITIZE) == 0 &&
         (type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel");
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args(parse_args(argc, argv));
  const std::string workload = args.str("workload");
  const auto seed = static_cast<std::uint64_t>(std::stoull(args.str("seed")));
  const double seconds = args.num("seconds");
  const bool trace = args.num("trace") != 0.0;
  const std::string work_dir = args.str("work-dir");

  std::printf("ENV {\"nproc\": %ld, \"kernels\": %s, \"build_type\": %s, "
              "\"sanitize\": %s, \"compiler\": %s, \"seed\": %ju}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              json_string(aps::ml::kernels::backend_name()).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(PERFBENCH_SANITIZE).c_str(),
              json_string(PERFBENCH_COMPILER).c_str(),
              static_cast<std::uintmax_t>(seed));
  std::fflush(stdout);
  if (!optimized_build()) {
    std::fprintf(stderr, "refusing to measure a %s build%s%s\n",
                 PERFBENCH_BUILD_TYPE,
                 std::strlen(PERFBENCH_SANITIZE) ? " with sanitizers " : "",
                 PERFBENCH_SANITIZE);
    return 3;
  }

  RunResult result;
  if (workload == "design") {
    result = perfbench::run_design({.seconds = seconds,
                                    .trace = trace,
                                    .smoke = args.num("smoke") != 0.0,
                                    .work_dir = work_dir});
  } else {
    perfbench::WireConfig config;
    config.sessions = static_cast<std::size_t>(args.num("sessions"));
    config.mix = args.list("mix");
    config.rate = args.num("rate");
    config.limit_ms = args.num("limit-ms");
    config.in_flight = static_cast<std::size_t>(args.num("in-flight"));
    config.churn_per_s = args.num("churn-per-s");
    config.listfile = args.num("listfile") != 0.0;
    config.setup_reps = static_cast<int>(args.num("setup-reps"));
    config.traces = static_cast<std::size_t>(args.num("traces"));
    config.seconds = seconds;
    config.seed = seed;
    config.trace = trace;
    config.work_dir = work_dir;
    if (config.sessions == 0 || config.mix.empty() || config.rate <= 0.0) {
      throw std::invalid_argument("bad wire workload settings");
    }
    result = perfbench::run_wire(config);
  }

  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value.first);
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + num + ", \"unit\": " +
               json_string(value.second) + "}";
  }
  std::string extra;
  for (const auto& [name, fragment] : result.extra_json) {
    extra += ", " + json_string(name) + ": " + fragment;
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %ju, \"failed\": %ju, "
              "\"metrics\": {%s}%s}\n",
              result.correct ? "true" : "false",
              static_cast<std::uintmax_t>(result.attempted),
              static_cast<std::uintmax_t>(result.failed), metrics.c_str(),
              extra.c_str());
  return 0;
} catch (const std::exception& err) {
  std::fprintf(stderr, "aps_perfbench: %s\n", err.what());
  return 2;
}
