// Shared helpers for the bench binaries.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/experiment.h"
#include "obs/metrics.h"

namespace aps::bench {

/// Parse the standard bench flags: --full (paper-sized grid), --ml=0 (skip
/// ML training), --tolerance=<steps>, --seed=<n>, --dt-cv (k-fold DT
/// depth selection). Every flag is read, so the caller's reject_unknown()
/// accepts --ml=0 on benches that train no ML either way.
[[nodiscard]] inline core::ExperimentConfig config_from_flags(
    const CliFlags& flags, bool needs_ml) {
  core::ExperimentConfig config;
  config.full = flags.get_bool("full", false);
  config.train_ml = flags.get_bool("ml", true) && needs_ml;
  config.tolerance_steps =
      flags.get_int("tolerance", metrics::kDefaultToleranceSteps);
  config.dt_depth_cv = flags.get_bool("dt-cv", false);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2021));
  return config;
}

inline void print_header(const std::string& title,
                         const core::ExperimentConfig& config) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("mode: %s grid, tolerance window %d steps (%d min)\n\n",
              config.full ? "FULL (paper-sized)" : "QUICK (scaled)",
              config.tolerance_steps,
              config.tolerance_steps * 5);
}

/// Accuracy row used by Tables V/VI: FPR FNR ACC F1.
inline void add_accuracy_row(TextTable& table, const std::string& simulator,
                             const core::MonitorEval& eval,
                             std::size_t scenarios, double hazard_fraction) {
  const auto& cm = eval.accuracy.sample;
  table.add_row({simulator, eval.name, std::to_string(scenarios),
                 TextTable::pct(hazard_fraction), TextTable::num(cm.fpr(), 3),
                 TextTable::num(cm.fnr(), 3),
                 TextTable::num(cm.accuracy(), 3),
                 TextTable::num(cm.f1(), 3)});
}

/// Peak resident set size so far (MB; ru_maxrss is KB on Linux).
[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Per-stage wall-clock / throughput / RSS recorder. Next to the
/// human-readable table every bench emits a machine-readable
/// BENCH_<name>.json so the perf trajectory is tracked across PRs:
///
///   {"bench": "table6_ml_monitors", "total_wall_s": ..., "stages": [
///     {"name": "prepare glucosym+openaps", "wall_s": ..., "runs": ...,
///      "runs_per_s": ..., "peak_rss_mb": ..., "delta_rss_mb": ...}, ...]}
///
/// Usage: one recorder per binary; wrap stages in time_stage() or call
/// stage_done() with an explicit duration; the file is written by flush()
/// (also invoked by the destructor).
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name)
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  ~BenchRecorder() { flush(); }

  /// Time `fn` as one stage; `runs` (0 = not throughput-shaped) feeds the
  /// runs_per_s field.
  template <typename Fn>
  void time_stage(const std::string& stage, std::size_t runs, Fn&& fn) {
    const double rss_before = peak_rss_mb();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stage_done(stage, wall_s, runs, rss_before);
  }

  /// Variant for stages that only know their run count afterwards: `fn`
  /// returns it.
  template <typename Fn>
  void time_stage_counted(const std::string& stage, Fn&& fn) {
    const double rss_before = peak_rss_mb();
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t runs = fn();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stage_done(stage, wall_s, runs, rss_before);
  }

  /// `extra` appends bench-specific numeric fields to the stage's JSON
  /// object (e.g. latency percentiles), next to the standard ones.
  void stage_done(const std::string& stage, double wall_s, std::size_t runs,
                  double rss_before_mb,
                  std::vector<std::pair<std::string, double>> extra = {}) {
    stages_.push_back({stage, wall_s, runs, peak_rss_mb(),
                       peak_rss_mb() - rss_before_mb, std::move(extra),
                       take_counter_deltas()});
  }

  /// Attach a metric registry: every stage recorded from here on also
  /// carries the counter deltas that accrued during it, as a "counters"
  /// object in the stage's JSON. Detached recorders emit exactly the
  /// pre-telemetry schema, so downstream BENCH_*.json consumers keep
  /// working either way.
  void attach_registry(aps::obs::Registry* registry) {
    registry_ = registry;
    last_counters_ = counter_values();
  }

  [[nodiscard]] double total_wall_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Write BENCH_<name>.json into the working directory.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    std::ofstream out("BENCH_" + name_ + ".json");
    if (!out) return;
    out << "{\"bench\": \"" << name_ << "\", \"total_wall_s\": "
        << total_wall_s() << ", \"stages\": [";
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const Stage& s = stages_[i];
      const double rps =
          s.wall_s > 0.0 ? static_cast<double>(s.runs) / s.wall_s : 0.0;
      out << (i > 0 ? ", " : "") << "{\"name\": \"" << s.name
          << "\", \"wall_s\": " << s.wall_s << ", \"runs\": " << s.runs
          << ", \"runs_per_s\": " << rps
          << ", \"peak_rss_mb\": " << s.peak_rss_mb
          << ", \"delta_rss_mb\": " << s.delta_rss_mb;
      for (const auto& [key, value] : s.extra) {
        out << ", \"" << key << "\": " << value;
      }
      if (!s.counters.empty()) {
        out << ", \"counters\": {";
        bool first = true;
        for (const auto& [series, delta] : s.counters) {
          out << (first ? "" : ", ") << "\"" << json_escape(series)
              << "\": " << delta;
          first = false;
        }
        out << "}";
      }
      out << "}";
    }
    out << "]}\n";
    std::printf("\n[bench] wrote BENCH_%s.json (total %.2fs, peak RSS %.1f MB)\n",
                name_.c_str(), total_wall_s(), peak_rss_mb());
  }

 private:
  struct Stage {
    std::string name;
    double wall_s = 0.0;
    std::size_t runs = 0;
    double peak_rss_mb = 0.0;
    double delta_rss_mb = 0.0;
    std::vector<std::pair<std::string, double>> extra;
    std::map<std::string, std::uint64_t> counters;
  };

  [[nodiscard]] static std::string json_escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const {
    std::map<std::string, std::uint64_t> values;
    if (registry_ == nullptr) return values;
    for (const auto& sample : registry_->scrape().samples) {
      if (sample.kind == aps::obs::MetricKind::kCounter) {
        values[sample.series()] = sample.counter;
      }
    }
    return values;
  }

  /// Counter deltas since the previous stage boundary (counters that did
  /// not move are dropped; a counter reset mid-stage clamps to its current
  /// value instead of wrapping).
  [[nodiscard]] std::map<std::string, std::uint64_t> take_counter_deltas() {
    std::map<std::string, std::uint64_t> deltas;
    if (registry_ == nullptr) return deltas;
    auto now = counter_values();
    for (const auto& [series, value] : now) {
      const auto it = last_counters_.find(series);
      const std::uint64_t before =
          it != last_counters_.end() ? it->second : 0;
      const std::uint64_t delta = value >= before ? value - before : value;
      if (delta > 0) deltas[series] = delta;
    }
    last_counters_ = std::move(now);
    return deltas;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Stage> stages_;
  bool flushed_ = false;
  aps::obs::Registry* registry_ = nullptr;
  std::map<std::string, std::uint64_t> last_counters_;
};

}  // namespace aps::bench
