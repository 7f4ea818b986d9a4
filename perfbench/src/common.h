// Shared pieces of the benchmark binary: timing, percentiles, peak RSS,
// a deterministic input RNG, and the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set size of this process since it started or since the
/// last reset_peak_rss(), in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Return freed heap to the system and restart the peak RSS from the
/// current RSS (writes "5" to /proc/self/clear_refs).
void reset_peak_rss();

/// Hypervisor steal time of the whole VM so far (all CPUs, seconds), from
/// /proc/stat; -1 when unavailable.
[[nodiscard]] double steal_seconds();

/// CPU time (user + system) of every thread of this process so far, s.
[[nodiscard]] double process_cpu_seconds();

/// CPU time (user + system) of the calling thread so far, s.
[[nodiscard]] double thread_cpu_seconds();

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty. Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Highest of p99, p95, p90 and p50 that has at least ten samples beyond
/// it, so a tail figure is never read off fewer than ten slow samples.
/// Returns the percentile used in `used`.
[[nodiscard]] double supported_tail(const std::vector<double>& values,
                                    double& used);

/// splitmix64: the benchmark draws every input choice from this, so the
/// same --seed gives the same inputs on any compiler and standard library.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// What one workload run reports. `metrics` maps name -> (value, unit);
/// `notes` are human-readable lines printed ahead of the JSON result.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  /// Extra machine-readable fields (JSON fragments keyed by name) that
  /// run.py checks, e.g. the design reports.
  std::map<std::string, std::string> extra_json;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// printf-style std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
