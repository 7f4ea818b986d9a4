#include "sim/batch.h"

#include <algorithm>
#include <vector>

#include "controller/action.h"
#include "controller/iob.h"
#include "obs/metrics.h"
#include "patient/sensor.h"

namespace aps::sim {

namespace {

/// Fallback patient backend: per-lane clones stepped through the virtual
/// scalar interface. Accepts every model kind.
class GenericPatientBatch final : public aps::patient::PatientBatch {
 public:
  bool add_lane(const aps::patient::PatientModel& prototype) override {
    lanes_.push_back(prototype.clone());
    return true;
  }
  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }
  void reset_lane(std::size_t lane, double initial_bg) override {
    lanes_[lane]->reset(initial_bg);
  }
  void announce_meal(std::size_t lane, double carbs_g) override {
    lanes_[lane]->announce_meal(carbs_g);
  }
  void step(std::span<const double> insulin_rate_u_per_h,
            double dt_min) override {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l]->step(insulin_rate_u_per_h[l], dt_min);
    }
  }
  void bg(std::span<double> out) const override {
    for (std::size_t l = 0; l < lanes_.size(); ++l) out[l] = lanes_[l]->bg();
  }

 private:
  std::vector<std::unique_ptr<aps::patient::PatientModel>> lanes_;
};

/// Fallback controller backend: per-lane clones deciding through the
/// virtual scalar interface. Accepts every controller kind.
class GenericControllerBatch final : public aps::controller::ControllerBatch {
 public:
  bool add_lane(const aps::controller::Controller& prototype) override {
    lanes_.push_back(prototype.clone());
    return true;
  }
  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }
  void reset_lane(std::size_t lane) override { lanes_[lane]->reset(); }
  void decide_rates(std::span<const aps::controller::ControllerInput> in,
                    std::span<double> rates) override {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      rates[l] = lanes_[l]->decide_rate(in[l]);
    }
  }

 private:
  std::vector<std::unique_ptr<aps::controller::Controller>> lanes_;
};

// The monitor fallback (per-lane clones) moved to
// monitor::PerLaneMonitorBatch so the serving engine shares it.

/// One batch backend plus the global lanes it owns, in add order.
template <typename Batch>
struct Group {
  std::unique_ptr<Batch> batch;
  std::vector<std::size_t> lanes;
};

/// Place `lane` into the first specialized group that accepts `prototype`,
/// creating a new specialized group via `make` when none does, and falling
/// back to a shared generic group (created on demand, tracked by index)
/// otherwise. Keeping the generic group out of the accept loop guarantees
/// specialized lanes never land there just because a generic group already
/// exists.
template <typename GenericT, typename Batch, typename Proto, typename MakeFn>
void place_lane(std::vector<Group<Batch>>& groups,
                std::ptrdiff_t& generic_index, const Proto& prototype,
                std::size_t lane, const MakeFn& make) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (static_cast<std::ptrdiff_t>(g) == generic_index) continue;
    if (groups[g].batch->add_lane(prototype)) {
      groups[g].lanes.push_back(lane);
      return;
    }
  }
  if (auto specialized = make(); specialized != nullptr &&
                                 specialized->add_lane(prototype)) {
    groups.push_back({std::move(specialized), {lane}});
    return;
  }
  if (generic_index < 0) {
    generic_index = static_cast<std::ptrdiff_t>(groups.size());
    groups.push_back({std::make_unique<GenericT>(), {}});
  }
  auto& generic = groups[static_cast<std::size_t>(generic_index)];
  generic.batch->add_lane(prototype);
  generic.lanes.push_back(lane);
}

/// One monitor line-up (the driving monitor, or one observer) batched over
/// all lanes: specialized groups where the monitor provides a MonitorBatch,
/// per-lane clones otherwise.
struct MonitorBank {
  std::vector<Group<aps::monitor::MonitorBatch>> groups;
  std::ptrdiff_t generic_index = -1;
  // Gather/scatter scratch, sized per group on demand.
  std::vector<aps::monitor::Observation> group_obs;
  std::vector<aps::monitor::Decision> group_out;
  /// 0, 1, 2, ...: a group's batch-local lane indices are a prefix.
  std::vector<std::size_t> every_lane;

  void add_lane(const aps::monitor::Monitor& prototype, std::size_t lane) {
    place_lane<aps::monitor::PerLaneMonitorBatch>(
        groups, generic_index, prototype, lane,
        [&] { return prototype.make_batch(); });
  }

  void reset_all() {
    for (auto& group : groups) {
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        group.batch->reset_lane(sub);
      }
    }
  }

  /// One lockstep cycle: decisions[lane] = this bank's decision for
  /// obs[lane].
  void observe_step(std::span<const aps::monitor::Observation> obs,
                    std::span<aps::monitor::Decision> decisions) {
    for (auto& group : groups) {
      const std::size_t n = group.lanes.size();
      group_obs.resize(n);
      group_out.resize(n);
      for (std::size_t sub = 0; sub < n; ++sub) {
        group_obs[sub] = obs[group.lanes[sub]];
      }
      while (every_lane.size() < n) every_lane.push_back(every_lane.size());
      group.batch->observe_lanes(std::span(every_lane).first(n), group_obs,
                                 group_out);
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        decisions[group.lanes[sub]] = group_out[sub];
      }
    }
  }
};

}  // namespace

BatchSimulator::BatchSimulator(const Stack& stack,
                               const MonitorFactory& make_monitor,
                               std::span<const MonitorFactory> observers)
    : stack_(stack),
      make_monitor_(make_monitor),
      observers_(observers.begin(), observers.end()) {}

const BatchSimulator::Prototypes& BatchSimulator::prototypes(
    int patient_index) {
  auto it = cache_.find(patient_index);
  if (it == cache_.end()) {
    Prototypes protos;
    protos.patient = stack_.make_patient(patient_index);
    protos.controller = stack_.make_controller(*protos.patient);
    protos.monitor = make_monitor_(patient_index);
    protos.observers.reserve(observers_.size());
    for (const MonitorFactory& make_observer : observers_) {
      protos.observers.push_back(make_observer(patient_index));
    }
    it = cache_.emplace(patient_index, std::move(protos)).first;
  }
  return it->second;
}

void BatchSimulator::run(std::span<const RunRequest> requests,
                         const EmitFn& emit) {
  run(requests, [&](std::size_t lane, const SimResult& result,
                    std::span<const DecisionTrace>) { emit(lane, result); });
}

void BatchSimulator::run(std::span<const RunRequest> requests,
                         const ObservedEmitFn& emit) {
  using aps::controller::classify_action;

  const std::size_t lanes = requests.size();
  if (lanes == 0) return;
  const std::size_t n_observers = observers_.size();

  // ---- Lane setup ----------------------------------------------------------

  std::vector<Group<aps::patient::PatientBatch>> patients;
  std::ptrdiff_t generic_patient = -1;
  std::vector<Group<aps::controller::ControllerBatch>> controllers;
  std::ptrdiff_t generic_controller = -1;
  MonitorBank monitor_bank;
  std::vector<MonitorBank> observer_banks(n_observers);
  std::vector<aps::patient::CgmSensor> sensors;
  std::vector<aps::fi::FaultInjector> injectors;
  std::vector<double> basal(lanes), isf(lanes), max_basal(lanes);
  std::vector<SimResult> results(lanes);
  // observed[lane][o] = observer o's decision trace for this lane.
  std::vector<std::vector<DecisionTrace>> observed(lanes);
  sensors.reserve(lanes);
  injectors.reserve(lanes);

  int steps_max = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const RunRequest& req = requests[lane];
    const Prototypes& protos = prototypes(req.patient_index);

    place_lane<GenericPatientBatch>(patients, generic_patient,
                                    *protos.patient, lane,
                                    [&] { return protos.patient->make_batch(); });
    place_lane<GenericControllerBatch>(
        controllers, generic_controller, *protos.controller, lane,
        [&] { return protos.controller->make_batch(); });
    monitor_bank.add_lane(*protos.monitor, lane);
    for (std::size_t o = 0; o < n_observers; ++o) {
      observer_banks[o].add_lane(*protos.observers[o], lane);
    }

    sensors.emplace_back(req.config.cgm, req.config.cgm_seed);
    injectors.emplace_back(req.config.fault);

    basal[lane] = protos.controller->basal_rate();
    isf[lane] = protos.controller->isf();
    max_basal[lane] = 4.0 * basal[lane];

    results[lane].config = req.config;
    results[lane].steps.reserve(static_cast<std::size_t>(req.config.steps));
    observed[lane].resize(n_observers);
    for (auto& trace : observed[lane]) {
      trace.reserve(static_cast<std::size_t>(req.config.steps));
    }
    steps_max = std::max(steps_max, req.config.steps);
  }

  for (auto& group : patients) {
    for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
      group.batch->reset_lane(sub,
                              requests[group.lanes[sub]].config.initial_bg);
    }
  }
  for (auto& group : controllers) {
    for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
      group.batch->reset_lane(sub);
    }
  }
  monitor_bank.reset_all();
  for (auto& bank : observer_banks) bank.reset_all();

  // The ledger starts at the basal steady state, exactly like the scalar
  // path's warm-up loop over one full DIA window.
  aps::controller::BatchIobLedger ledger(lanes, aps::controller::IobCurve{},
                                         aps::kControlPeriodMin);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ledger.warm(lane, basal[lane]);
  }

  // ---- Lockstep loop -------------------------------------------------------

  std::vector<double> true_bg(lanes), iob(lanes), activity(lanes);
  std::vector<double> delivered(lanes), units(lanes), clean_rate(lanes);
  std::vector<double> prev_cgm(lanes, -1.0), prev_iob(lanes, -1.0);
  std::vector<double> prev_delivered = basal;
  std::vector<aps::controller::ControllerInput> inputs(lanes);
  std::vector<aps::monitor::Observation> observations(lanes);
  std::vector<aps::monitor::Decision> decisions(lanes);
  std::vector<aps::monitor::Decision> observer_decisions(lanes);
  std::vector<StepRecord> records(lanes);
  std::vector<double> scatter;  // per-group gather/scatter scratch
  std::vector<aps::controller::ControllerInput> group_in;
  std::vector<double> group_rates;

  for (int k = 0; k < steps_max; ++k) {
    for (auto& group : patients) {
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        const std::size_t lane = group.lanes[sub];
        if (k >= requests[lane].config.steps) continue;
        for (const MealEvent& meal : requests[lane].config.meals) {
          if (meal.step == k && meal.carbs_g > 0.0) {
            group.batch->announce_meal(sub, meal.carbs_g);
          }
        }
      }
      scatter.resize(group.lanes.size());
      group.batch->bg(scatter);
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        true_bg[group.lanes[sub]] = scatter[sub];
      }
    }

    ledger.iob(iob);
    ledger.activity(activity);

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      StepRecord& rec = records[lane];
      rec.time_min = static_cast<double>(k) * aps::kControlPeriodMin;
      rec.true_bg = true_bg[lane];
      rec.cgm_bg = sensors[lane].read(rec.true_bg, aps::kControlPeriodMin);
      rec.ctrl_bg =
          injectors[lane].apply(aps::fi::FaultTarget::kSensorGlucose,
                                rec.cgm_bg, k, aps::fi::glucose_range());
      rec.iob = iob[lane];
      rec.ctrl_iob =
          injectors[lane].apply(aps::fi::FaultTarget::kControllerIob,
                                rec.iob, k, aps::fi::iob_range());
      inputs[lane].bg_mg_dl = rec.ctrl_bg;
      inputs[lane].iob_u = rec.ctrl_iob;
      inputs[lane].activity_u_per_min = activity[lane];
      inputs[lane].time_min = rec.time_min;
    }

    for (auto& group : controllers) {
      group_in.resize(group.lanes.size());
      group_rates.resize(group.lanes.size());
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        group_in[sub] = inputs[group.lanes[sub]];
      }
      group.batch->decide_rates(group_in, group_rates);
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        clean_rate[group.lanes[sub]] = group_rates[sub];
      }
    }

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      StepRecord& rec = records[lane];
      rec.commanded_rate = injectors[lane].apply(
          aps::fi::FaultTarget::kCommandRate, clean_rate[lane], k,
          aps::fi::rate_range(max_basal[lane]));
      rec.action = classify_action(rec.commanded_rate, prev_delivered[lane]);

      aps::monitor::Observation& obs = observations[lane];
      obs.time_min = rec.time_min;
      obs.bg = rec.cgm_bg;
      obs.bg_rate = prev_cgm[lane] < 0.0 ? 0.0 : rec.cgm_bg - prev_cgm[lane];
      obs.iob = rec.iob;
      obs.iob_rate = prev_iob[lane] < 0.0 ? 0.0 : rec.iob - prev_iob[lane];
      obs.commanded_rate = rec.commanded_rate;
      obs.previous_rate = prev_delivered[lane];
      obs.action = rec.action;
      obs.basal_rate = basal[lane];
      obs.isf = isf[lane];
    }

    // The driving monitors: one lockstep cycle across all lanes.
    monitor_bank.observe_step(observations, decisions);

    // Passive observers see the identical Observation stream; their
    // decisions are recorded but never reach the pump.
    for (std::size_t o = 0; o < n_observers; ++o) {
      observer_banks[o].observe_step(observations, observer_decisions);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (k < requests[lane].config.steps) {
          observed[lane][o].push_back(observer_decisions[lane]);
        }
      }
    }

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      StepRecord& rec = records[lane];
      const SimConfig& config = requests[lane].config;
      const aps::monitor::Decision& decision = decisions[lane];
      rec.alarm = decision.alarm;
      rec.predicted = decision.predicted;
      rec.rule_id = decision.rule_id;

      rec.delivered_rate = rec.commanded_rate;
      if (config.mitigation_enabled && decision.alarm) {
        rec.delivered_rate = aps::monitor::mitigate_rate(
            decision, observations[lane], config.mitigation);
      }
      rec.delivered_rate =
          std::clamp(rec.delivered_rate, 0.0, max_basal[lane]);

      delivered[lane] = rec.delivered_rate;
      units[lane] = rec.delivered_rate * aps::kControlPeriodMin / 60.0;
      prev_cgm[lane] = rec.cgm_bg;
      prev_iob[lane] = rec.iob;
      prev_delivered[lane] = rec.delivered_rate;
      if (k < config.steps) results[lane].steps.push_back(rec);
    }

    for (auto& group : patients) {
      scatter.resize(group.lanes.size());
      for (std::size_t sub = 0; sub < group.lanes.size(); ++sub) {
        scatter[sub] = delivered[group.lanes[sub]];
      }
      group.batch->step(scatter, aps::kControlPeriodMin);
    }
    ledger.record(units);
  }

  // Campaign telemetry: recorded once per batch (never inside the lockstep
  // loop), into the process-global registry so campaign drivers and the
  // serving process scrape one place. Series handles are static — the
  // registry owns them for the process lifetime.
  auto& registry = aps::obs::Registry::global();
  static aps::obs::Counter& runs_total = registry.counter(
      "sim_runs_total", {}, "simulation runs completed");
  static aps::obs::Counter& steps_total = registry.counter(
      "sim_steps_total", {}, "control steps executed across all runs");
  static aps::obs::Counter& hazards_total = registry.counter(
      "sim_hazard_runs_total", {}, "completed runs labeled hazardous");

  std::uint64_t steps_done = 0;
  std::uint64_t hazards = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    results[lane].label = aps::risk::label_trace(
        results[lane].bg_trace(), requests[lane].config.labeling);
    steps_done += results[lane].steps.size();
    if (results[lane].label.hazardous) ++hazards;
    emit(lane, results[lane], observed[lane]);
  }
  runs_total.add(lanes);
  steps_total.add(steps_done);
  if (hazards > 0) hazards_total.add(hazards);
}

}  // namespace aps::sim
