// Campaign runner: executes a set of fault-injection scenarios across a
// patient cohort, optionally wrapped by a monitor, in parallel. Results are
// placed by index, so output order is independent of thread scheduling.
//
// Two entry points share one execution core:
//   - for_each_run: streaming. Each finished SimResult is handed to a sink
//     and then dropped, so memory stays constant in the run count — this is
//     what lets 10^6-run stochastic campaigns fit in RAM.
//   - run_campaign: the materializing grid path, built on for_each_run,
//     which retains every trace for training/evaluation pipelines.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "fi/campaign.h"
#include "monitor/monitor.h"
#include "sim/closed_loop.h"
#include "sim/stack.h"

namespace aps::sim {

/// Builds the (per-patient) monitor for a campaign; patient_index lets
/// patient-specific monitors (CAWT thresholds, guideline percentiles) load
/// the right profile.
using MonitorFactory =
    std::function<std::unique_ptr<aps::monitor::Monitor>(int patient_index)>;

/// The trivially safe factory: no monitoring.
[[nodiscard]] MonitorFactory null_monitor_factory();

struct CampaignResult {
  /// results[p][s]: patient p, scenario s.
  std::vector<std::vector<SimResult>> by_patient;

  [[nodiscard]] std::size_t total_runs() const;
  /// Flattened view in (patient, scenario) order.
  [[nodiscard]] std::vector<const SimResult*> flat() const;
};

struct CampaignOptions {
  bool mitigation_enabled = false;
  aps::monitor::MitigationConfig mitigation;
  int steps = aps::kDefaultSimSteps;
};

/// Run `scenarios` for every patient of `stack` (or the subset
/// `patient_indices` when non-empty).
[[nodiscard]] CampaignResult run_campaign(
    const Stack& stack, const std::vector<aps::fi::Scenario>& scenarios,
    const MonitorFactory& make_monitor, const CampaignOptions& options = {},
    aps::ThreadPool* pool = nullptr,
    const std::vector<int>& patient_indices = {});

// ---- Streaming execution core ----------------------------------------------

/// One simulation to execute: which cohort patient and the full run config.
struct RunRequest {
  int patient_index = 0;
  SimConfig config;
};

/// Describes run `i` of the campaign. Must be pure (no side effects): it is
/// invoked from worker threads and may be re-invoked for the same index.
using RunRequestFn = std::function<RunRequest(std::size_t)>;

/// Consumes the finished run `i` executed by shard `shard`. Called
/// concurrently from pool workers for different indices; calls for the same
/// shard are sequential, so per-shard state needs no locking.
using RunSink = std::function<void(std::size_t shard, std::size_t index,
                                   const SimResult& result)>;

struct StreamingOptions {
  /// Contiguous indices executed by one pool task as one lockstep
  /// BatchSimulator batch; also the granularity of per-shard
  /// sinks/accumulators.
  std::size_t shard_size = 64;
};

/// Number of shards for_each_run will use for `count` runs.
[[nodiscard]] std::size_t shard_count(std::size_t count,
                                      const StreamingOptions& streaming = {});

/// Execute `count` runs described by `request`, streaming each result to
/// `sink` without retaining it. Patient/controller/monitor prototypes are
/// cached per shard, so mixed-patient campaigns stay cheap. Deterministic:
/// run i equals run_simulation on request(i) bit for bit, whatever the
/// shard size or thread count (tests/sim_oracle.h checks it against that
/// reference).
void for_each_run(const Stack& stack, std::size_t count,
                  const RunRequestFn& request,
                  const MonitorFactory& make_monitor, const RunSink& sink,
                  aps::ThreadPool* pool = nullptr,
                  const StreamingOptions& streaming = {});

// ---- Fused multi-monitor observation ----------------------------------------

/// Consumes run `i` of shard `shard` plus the decision trace of every
/// passive observer: `observed[o][k]` is observer o's decision at step k.
/// Same concurrency contract as RunSink.
using ObservedRunSink = std::function<void(
    std::size_t shard, std::size_t index, const SimResult& result,
    std::span<const std::vector<aps::monitor::Decision>> observed)>;

/// for_each_run with passive observer monitor banks attached: every
/// observer sees exactly the Observation stream the driving monitor sees
/// but never influences delivery. With mitigation off and the null driving
/// monitor this evaluates N monitors from ONE campaign pass, bit-identical
/// to N dedicated passes (each monitor's alarms cannot perturb the
/// simulation when no mitigation acts on them); the batch amortizes ML
/// inference across the shard.
void for_each_run_observed(const Stack& stack, std::size_t count,
                           const RunRequestFn& request,
                           const MonitorFactory& make_monitor,
                           std::span<const MonitorFactory> observers,
                           const ObservedRunSink& sink,
                           aps::ThreadPool* pool = nullptr,
                           const StreamingOptions& streaming = {});

}  // namespace aps::sim
