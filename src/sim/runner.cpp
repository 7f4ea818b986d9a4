#include "sim/runner.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "sim/batch.h"

namespace aps::sim {

MonitorFactory null_monitor_factory() {
  return [](int) { return std::make_unique<aps::monitor::NullMonitor>(); };
}

std::size_t CampaignResult::total_runs() const {
  std::size_t total = 0;
  for (const auto& p : by_patient) total += p.size();
  return total;
}

std::vector<const SimResult*> CampaignResult::flat() const {
  std::vector<const SimResult*> out;
  out.reserve(total_runs());
  for (const auto& p : by_patient) {
    for (const auto& r : p) out.push_back(&r);
  }
  return out;
}

std::size_t shard_count(std::size_t count, const StreamingOptions& streaming) {
  const std::size_t size = streaming.shard_size > 0 ? streaming.shard_size : 1;
  return (count + size - 1) / size;
}

void for_each_run_observed(const Stack& stack, std::size_t count,
                           const RunRequestFn& request,
                           const MonitorFactory& make_monitor,
                           std::span<const MonitorFactory> observers,
                           const ObservedRunSink& sink, aps::ThreadPool* pool,
                           const StreamingOptions& streaming) {
  if (count == 0) return;
  const std::size_t size = streaming.shard_size > 0 ? streaming.shard_size : 1;
  const std::size_t shards = shard_count(count, streaming);

  // Shard-progress telemetry: one counter bump per finished shard lets a
  // scraper watch a long streaming campaign advance without touching the
  // per-run hot path.
  static aps::obs::Counter& shards_done = aps::obs::Registry::global().counter(
      "sim_shards_completed_total", {},
      "streaming campaign shards fully executed");
  // Each shard is one lockstep SoA batch, emitted in lane (= index) order.
  const auto run_shard = [&](std::size_t shard) {
    const std::size_t begin = shard * size;
    const std::size_t end = std::min(begin + size, count);
    std::vector<RunRequest> requests;
    requests.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) requests.push_back(request(i));
    BatchSimulator simulator(stack, make_monitor, observers);
    simulator.run(
        requests,
        [&](std::size_t lane, const SimResult& result,
            std::span<const DecisionTrace> observed) {
          sink(shard, begin + lane, result, observed);
        });
    shards_done.add(1);
  };

  if (pool != nullptr) {
    pool->parallel_for(shards, run_shard);
  } else {
    for (std::size_t shard = 0; shard < shards; ++shard) run_shard(shard);
  }
}

void for_each_run(const Stack& stack, std::size_t count,
                  const RunRequestFn& request,
                  const MonitorFactory& make_monitor, const RunSink& sink,
                  aps::ThreadPool* pool, const StreamingOptions& streaming) {
  for_each_run_observed(
      stack, count, request, make_monitor, {},
      [&](std::size_t shard, std::size_t index, const SimResult& result,
          std::span<const std::vector<aps::monitor::Decision>>) {
        sink(shard, index, result);
      },
      pool, streaming);
}

CampaignResult run_campaign(const Stack& stack,
                            const std::vector<aps::fi::Scenario>& scenarios,
                            const MonitorFactory& make_monitor,
                            const CampaignOptions& options,
                            aps::ThreadPool* pool,
                            const std::vector<int>& patient_indices) {
  std::vector<int> patients = patient_indices;
  if (patients.empty()) {
    patients.resize(static_cast<std::size_t>(stack.cohort_size));
    std::iota(patients.begin(), patients.end(), 0);
  }

  CampaignResult result;
  result.by_patient.resize(patients.size());
  for (auto& v : result.by_patient) v.resize(scenarios.size());
  if (scenarios.empty()) return result;

  // One shard per patient keeps the former parallelization granularity (and
  // one monitor instance per patient per campaign).
  StreamingOptions streaming;
  streaming.shard_size = std::max<std::size_t>(scenarios.size(), 1);

  const auto request = [&](std::size_t i) {
    const std::size_t pi = i / scenarios.size();
    const std::size_t si = i % scenarios.size();
    RunRequest req;
    req.patient_index = patients[pi];
    req.config.steps = options.steps;
    req.config.initial_bg = scenarios[si].initial_bg;
    req.config.fault = scenarios[si].fault;
    req.config.mitigation_enabled = options.mitigation_enabled;
    req.config.mitigation = options.mitigation;
    return req;
  };
  const auto sink = [&](std::size_t, std::size_t i, const SimResult& run) {
    result.by_patient[i / scenarios.size()][i % scenarios.size()] = run;
  };
  for_each_run(stack, patients.size() * scenarios.size(), request,
               make_monitor, sink, pool, streaming);
  return result;
}

}  // namespace aps::sim
