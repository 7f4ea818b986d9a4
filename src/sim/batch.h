// Batched structure-of-arrays simulation backend: steps N closed-loop runs
// in lockstep instead of one ClosedLoopSim object per run. Patient ODE
// state, controller state, the IOB ledger, and the monitors live in batch
// backends (with precomputed insulin-curve tables), keeping the hot loop
// cache-friendly and auto-vectorizable; per-run components that are cheap
// or inherently scalar (CGM sensor, fault injector) run lane-by-lane.
// Monitors route through monitor::MonitorBatch, so ML monitors spend one
// model forward per control cycle for the whole shard; mitigation remains
// per-lane.
//
// Equivalence contract: for any request set, the emitted SimResults are
// bit-identical to run_simulation on each request — same BG, insulin, and
// decision streams — for every batch size and thread count. The seeded
// campaign oracle (tests/sim_oracle.h) diffs it against that reference
// over random mixes of patients, horizons, monitors and shard layouts.
//
// Passive observers: a simulator may additionally carry observer monitor
// banks. Observers see exactly the Observation stream the driving monitor
// sees but never influence delivery, which is what makes fused
// multi-monitor evaluation (one campaign pass, N monitors scored) exact
// when mitigation is off.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sim/runner.h"

namespace aps::sim {

/// One monitor's decision stream over a run (steps entries, step order).
using DecisionTrace = std::vector<aps::monitor::Decision>;

/// Executes batches of closed-loop runs for one Stack. Prototypes
/// (patient, controller, monitors) are cached per patient index, so a
/// simulator can serve many batches (e.g. all shards of one worker).
class BatchSimulator {
 public:
  BatchSimulator(const Stack& stack, const MonitorFactory& make_monitor,
                 std::span<const MonitorFactory> observers = {});

  /// Called once per finished lane, in lane order.
  using EmitFn = std::function<void(std::size_t lane, const SimResult&)>;
  /// Observer variant: observed[o] is observer o's decision trace for the
  /// lane (config.steps entries).
  using ObservedEmitFn =
      std::function<void(std::size_t lane, const SimResult&,
                         std::span<const DecisionTrace> observed)>;

  /// Run every request as one lockstep batch; requests may mix patients,
  /// faults, meals, horizons, and CGM seeds freely.
  void run(std::span<const RunRequest> requests, const EmitFn& emit);
  void run(std::span<const RunRequest> requests, const ObservedEmitFn& emit);

 private:
  struct Prototypes {
    std::unique_ptr<aps::patient::PatientModel> patient;
    std::unique_ptr<aps::controller::Controller> controller;
    std::unique_ptr<aps::monitor::Monitor> monitor;
    std::vector<std::unique_ptr<aps::monitor::Monitor>> observers;
  };

  const Prototypes& prototypes(int patient_index);

  // Held by value (a Stack is two std::functions plus a name) so a caller
  // passing temporaries cannot leave the simulator with dangling
  // references.
  Stack stack_;
  MonitorFactory make_monitor_;
  std::vector<MonitorFactory> observers_;
  std::map<int, Prototypes> cache_;
};

}  // namespace aps::sim
