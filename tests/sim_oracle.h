// Differential simulation oracle: seeded campaign cases, a reference that
// is the simplest loop that can be right, targets that diff the batched
// execution core and the layers above it against it field by field, and a
// shrinker. The reference builds a fresh patient, controller and monitor
// per run and calls sim::run_simulation; each observer replays the run from
// a fresh instance through sim::observation_from_record. Nothing is cached,
// so a monitor whose reset() leaves state behind diverges. Test-only (not
// linked into aps): sim_oracle_test runs the targets, and
// bench_scenario_campaign times reference_campaign as its scalar row.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "patient/profiles.h"
#include "scenario/executor.h"
#include "sim/batch.h"
#include "synthetic_util.h"

namespace aps::sim_oracle {

template <class... Args>
std::string str(const Args&... args) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << args);
  return os.str();
}

inline constexpr int kStacks = 3;
inline const sim::Stack& stack_at(int s) {
  static const std::array<sim::Stack, kStacks> stacks = {
      sim::glucosym_openaps_stack(), sim::padova_basalbolus_stack(),
      sim::glucosym_pid_stack()};
  return stacks.at(static_cast<std::size_t>(s));
}

/// Driving monitors and observers are drawn from these bundle names.
inline constexpr int kKinds = 7;
inline const std::array<std::string, kKinds> kMonitors = {
    "none", "cawt", "cawot", "mpc", "dt", "mlp", "lstm"};

/// The tiny test models, with synthetic thresholds and profiles for the
/// whole cohort ("cawt" is CAW on those thresholds).
inline sim::MonitorFactory factory(const std::string& name) {
  static const core::ArtifactBundle bundle = [] {
    core::ArtifactBundle b = testutil::tiny_bundle();
    b.artifacts = testutil::synth_artifacts(patient::kCohortSize);
    return b;
  }();
  return core::factory_from_bundle(bundle, name);
}

// ---- Reference -------------------------------------------------------------

struct Run {
  sim::SimResult result;
  std::vector<sim::DecisionTrace> observed;  ///< one trace per observer
};

inline Run reference_run(const sim::Stack& stack,
                         const sim::RunRequest& request,
                         const sim::MonitorFactory& make_monitor,
                         std::span<const sim::MonitorFactory> observers = {}) {
  const auto patient = stack.make_patient(request.patient_index);
  const auto controller = stack.make_controller(*patient);
  const auto monitor = make_monitor(request.patient_index);
  Run run{sim::run_simulation(*patient, *controller, *monitor,
                              request.config),
          {}};
  for (const sim::MonitorFactory& make_observer : observers) {
    const auto observer = make_observer(request.patient_index);
    sim::DecisionTrace& trace = run.observed.emplace_back();
    for (std::size_t k = 0; k < run.result.steps.size(); ++k) {
      trace.push_back(observer->observe(sim::observation_from_record(
          run.result, k, controller->basal_rate(), controller->isf())));
    }
  }
  return run;
}

/// What the campaign executors compute, by the reference: run i is
/// scenario_at(i) under the options' mitigation fields, folded into shard
/// i / shard_size's CampaignStats; the shards run on `pool` and merge in
/// order.
inline scenario::CampaignStats reference_campaign(
    const sim::Stack& stack, std::size_t count,
    const std::function<scenario::SampledScenario(std::size_t)>& scenario_at,
    const sim::CampaignOptions& options,
    const sim::MonitorFactory& make_monitor, std::size_t shard_size,
    ThreadPool& pool) {
  std::vector<scenario::CampaignStats> shards((count + shard_size - 1) /
                                              shard_size);
  const auto run_shard = [&](std::size_t s) {
    for (std::size_t i = s * shard_size;
         i < std::min(count, (s + 1) * shard_size); ++i) {
      const scenario::SampledScenario scenario = scenario_at(i);
      sim::RunRequest request{scenario.patient_index, scenario.config};
      request.config.mitigation_enabled = options.mitigation_enabled;
      request.config.mitigation = options.mitigation;
      shards[s].add(scenario,
                    reference_run(stack, request, make_monitor).result, 1.0);
    }
  };
  pool.parallel_for(shards.size(), run_shard);
  scenario::CampaignStats total;
  for (const scenario::CampaignStats& shard : shards) total.merge(shard);
  return total;
}

// ---- Cases -----------------------------------------------------------------

/// The run targets execute `requests` as listed. The campaign targets
/// sample one run per request from the case's seed, horizon and mitigation
/// flag instead; `requests` are those samples with some horizons and
/// mitigation flags changed.
struct Case {
  int stack = 0;
  std::uint64_t seed = 0;
  int horizon = kDefaultSimSteps;
  bool mitigation = false;
  std::vector<sim::RunRequest> requests;
  std::string monitor = "none";  ///< drives every run
  std::vector<std::string> observers;
  std::size_t shard_size = 64;
  std::size_t threads = 1;
};

inline scenario::ScenarioSpec stochastic_spec(const Case& c) {
  scenario::ScenarioSpec spec =
      scenario::default_stochastic_spec(stack_at(c.stack).cohort_size);
  spec.steps = c.horizon;
  return spec;
}

inline Case generate(std::uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&](int n) { return rng.uniform_int(0, n - 1); };
  Case c;
  c.stack = draw(kStacks);
  c.seed = rng.engine()();
  c.horizon = std::array{48, 96, kDefaultSimSteps}[draw(3)];
  c.mitigation = rng.bernoulli(0.5);
  const scenario::ScenarioSpec spec = stochastic_spec(c);
  const int n = rng.uniform_int(1, 24);
  for (int i = 0; i < n; ++i) {
    const scenario::SampledScenario s =
        scenario::sample_scenario(spec, static_cast<std::uint64_t>(i), c.seed);
    sim::RunRequest request{s.patient_index, s.config};
    if (rng.bernoulli(0.3)) request.config.steps = rng.uniform_int(2, 160);
    request.config.mitigation_enabled = c.mitigation != rng.bernoulli(0.2);
    c.requests.push_back(request);
  }
  c.monitor = kMonitors[draw(kKinds)];
  for (int o = draw(5); o > 0; --o) {
    c.observers.push_back(kMonitors[draw(kKinds)]);
  }
  c.shard_size = std::array<std::size_t, 5>{
      1, 7, 16, 64, static_cast<std::size_t>(n + 1 + draw(8))}[draw(5)];
  c.threads = rng.bernoulli(0.5) ? 4 : 1;
  return c;
}

inline std::vector<sim::MonitorFactory> observers(const Case& c) {
  std::vector<sim::MonitorFactory> out;
  for (const std::string& name : c.observers) out.push_back(factory(name));
  return out;
}

/// A pool of c.threads workers, or none (serial shards) for one thread.
inline std::unique_ptr<ThreadPool> pool_for(const Case& c) {
  return c.threads > 1 ? std::make_unique<ThreadPool>(c.threads) : nullptr;
}

// ---- Field-by-field comparison ---------------------------------------------

using Lines = std::vector<std::string>;

/// The first line that differs, as "<what>, line <k>: <line>; reference
/// <line>".
inline std::string first_diff(const std::string& what, const Lines& got,
                              const Lines& exp) {
  for (std::size_t k = 0; k < std::max(got.size(), exp.size()); ++k) {
    const std::string g = k < got.size() ? got[k] : "(missing)";
    const std::string e = k < exp.size() ? exp[k] : "(missing)";
    if (g != e) return str(what, ", line ", k, ": ", g, "; reference ", e);
  }
  return {};
}

template <class Range>
std::string join(const Range& values) {
  std::string out;
  for (const auto& v : values) out += str(v, ' ');
  return out;
}

inline std::string show(const sim::SimConfig& config) {
  const fi::FaultSpec& f = config.fault;
  std::string meals;
  for (const sim::MealEvent& m : config.meals) {
    meals += str(m.carbs_g, " g at ", m.step, " ");
  }
  return str("initial_bg ", config.initial_bg, ", fault ",
             f.enabled() ? str(f.name(), " (start ", f.start_step,
                               ", duration ", f.duration_steps,
                               ", magnitude ", f.magnitude, ")")
                         : "none",
             ", meals [ ", meals, "], cgm seed ", config.cgm_seed, " noise ",
             config.cgm.noise_std_mg_dl, ", steps ", config.steps,
             ", mitigation ", config.mitigation_enabled ? "on" : "off");
}

inline Lines lines(const sim::SimResult& r) {
  Lines out{"config " + show(r.config)};
  for (std::size_t k = 0; k < r.steps.size(); ++k) {
    const sim::StepRecord& s = r.steps[k];
    out.push_back(str("step ", k, " {time ", s.time_min, " true_bg ",
                      s.true_bg, " cgm_bg ", s.cgm_bg, " ctrl_bg ", s.ctrl_bg,
                      " iob ", s.iob, " ctrl_iob ", s.ctrl_iob, " commanded ",
                      s.commanded_rate, " delivered ", s.delivered_rate,
                      " action ", static_cast<int>(s.action), " alarm ",
                      s.alarm, " predicted ", static_cast<int>(s.predicted),
                      " rule ", s.rule_id, "}"));
  }
  const risk::TraceLabel& l = r.label;
  out.push_back(str("label hazardous ", l.hazardous, " onset ", l.onset_step,
                    " type ", static_cast<int>(l.type), " sample_hazard ",
                    join(l.sample_hazard), "lbgi ", join(l.lbgi), "hbgi ",
                    join(l.hbgi)));
  return out;
}

/// Decisions, or the decisions recorded in StepRecords.
template <class Range>
Lines decisions(const Range& trace) {
  Lines out;
  for (const auto& d : trace) {
    out.push_back(str("step ", out.size(), " {alarm ", d.alarm, " predicted ",
                      static_cast<int>(d.predicted), " rule ", d.rule_id,
                      "}"));
  }
  return out;
}

inline Lines lines(const scenario::CampaignStats& s) {
  const auto stats = [](const char* what, const RunningStats& r) {
    return str(what, r.count(), " mean ", r.mean(), " variance ",
               r.variance(), " min ", r.min(), " max ", r.max());
  };
  Lines out{str("runs ", s.runs, " hazardous ", s.hazardous_runs,
                " alarmed ", s.alarmed_runs, " severe_hypo ",
                s.severe_hypo_runs),
            stats("min_bg ", s.min_bg), stats("severity ", s.severity),
            stats("time_in_range_pct ", s.time_in_range_pct),
            "time_to_hazard_min " + join(s.time_to_hazard_min.counts()),
            str("weights ", s.sum_weight, " ", s.sum_weight_sq, " ",
                s.sum_hazard_weight, " ", s.sum_hazard_weight_sq)};
  for (const auto& [kind, k] : s.by_kind) {
    out.push_back(str("kind ", kind, " runs ", k.runs, " hazards ", k.hazards,
                      " alarmed ", k.alarmed, " tp/fp/fn/tn ", k.tp, "/",
                      k.fp, "/", k.fn, "/", k.tn));
  }
  return out;
}

inline Lines lines(const core::MonitorEval& e) {
  const auto accuracy = [](const metrics::AccuracyReport& a) {
    const auto cm = [](const metrics::ConfusionMatrix& m) {
      return str(m.tp, "/", m.fp, "/", m.fn, "/", m.tn);
    };
    return str("accuracy sample ", cm(a.sample), " simulation ",
               cm(a.simulation), " runs ", a.runs, " hazardous ",
               a.hazardous_runs);
  };
  const auto timeliness = [](const metrics::TimelinessStats& t) {
    return str("timeliness hazardous ", t.hazardous_runs, " early ",
               t.early_detections, " reaction_min ", join(t.reaction_min));
  };
  const metrics::MitigationReport& m = e.mitigation;
  Lines out{e.name, accuracy(e.accuracy), timeliness(e.timeliness),
            str("mitigation runs ", m.total_runs, " baseline_hazards ",
                m.baseline_hazards, " prevented ", m.prevented,
                " new_hazards ", m.new_hazards, " risk_sum ", m.risk_sum)};
  // Per patient, then per extra tolerance (first_diff names the line).
  for (const auto& a : e.accuracy_by_patient) out.push_back(accuracy(a));
  for (const auto& t : e.timeliness_by_patient) out.push_back(timeliness(t));
  for (const auto& a : e.accuracy_by_tolerance) out.push_back(accuracy(a));
  return out;
}

// ---- Targets ---------------------------------------------------------------

/// The library's runs of the case, by request index: for_each_run_observed
/// with the case's observers attached (observed) or with none, which is all
/// sim::for_each_run does.
inline std::vector<Run> library_runs(const Case& c, bool observed = false) {
  std::vector<Run> out(c.requests.size());
  const auto pool = pool_for(c);
  sim::for_each_run_observed(
      stack_at(c.stack), out.size(),
      [&](std::size_t i) { return c.requests[i]; }, factory(c.monitor),
      observed ? observers(c) : std::vector<sim::MonitorFactory>{},
      [&](std::size_t, std::size_t i, const sim::SimResult& r,
          std::span<const sim::DecisionTrace> traces) {
        out[i] = {r, {traces.begin(), traces.end()}};
      },
      pool.get(), {.shard_size = c.shard_size});
  return out;
}

/// Diff library runs against the reference, request by request. Observer
/// traces (when `observed`) must equal the reference replay and, on runs
/// without mitigation (no alarm acts), the decisions of that monitor's own
/// driving run: the fused-evaluation contract.
inline std::string diff_runs(const Case& c, const std::vector<Run>& got,
                             bool observed = false) {
  const auto watch =
      observed ? observers(c) : std::vector<sim::MonitorFactory>{};
  for (std::size_t i = 0; i < c.requests.size(); ++i) {
    const sim::RunRequest& request = c.requests[i];
    const Run ref =
        reference_run(stack_at(c.stack), request, factory(c.monitor), watch);
    std::string failure = first_diff(
        str("request ", i), lines(got.at(i).result), lines(ref.result));
    for (std::size_t o = 0; failure.empty() && o < watch.size(); ++o) {
      const std::string at =
          str("request ", i, " observer ", o, " (", c.observers[o], ")");
      const Lines trace = decisions(got[i].observed.at(o));
      failure = first_diff(at, trace, decisions(ref.observed[o]));
      if (failure.empty() && !request.config.mitigation_enabled) {
        const Run driving =
            reference_run(stack_at(c.stack), request, watch[o]);
        failure = first_diff(at + " vs its driving run", trace,
                             decisions(driving.result.steps));
      }
    }
    if (!failure.empty()) return failure;
  }
  return {};
}

/// The case's stochastic campaign, or an enumerated one (hold and add
/// faults on the glucose and rate targets at one window, from the first
/// request's initial BG, for the first and last requests' patients), run by
/// the library's executor or by reference_campaign at the same layout.
inline scenario::CampaignStats campaign(const Case& c, bool enumerated,
                                        bool reference) {
  const sim::Stack& stack = stack_at(c.stack);
  scenario::ScenarioSpec spec = stochastic_spec(c);
  if (enumerated) {
    fi::CampaignGrid grid;
    grid.types = {fi::FaultType::kHold, fi::FaultType::kAdd};
    grid.start_steps = {20};
    grid.duration_steps = {30};
    grid.initial_bgs = {c.requests.front().config.initial_bg};
    spec = scenario::spec_from_grid(grid, stack.cohort_size);
    spec.steps = c.horizon;
    spec.patients = {c.requests.front().patient_index,
                     c.requests.back().patient_index};
  }
  const auto grid = enumerated ? scenario::enumerate_spec(spec)
                               : std::vector<scenario::SampledScenario>{};
  scenario::StochasticCampaignConfig config;
  config.runs =
      enumerated ? spec.patients.size() * grid.size() : c.requests.size();
  config.seed = c.seed;
  config.options.mitigation_enabled = c.mitigation;
  config.streaming.shard_size = c.shard_size;
  if (reference) {
    ThreadPool pool(c.threads);
    return reference_campaign(
        stack, config.runs,
        [&](std::size_t i) {
          if (!enumerated) return scenario::sample_scenario(spec, i, c.seed);
          scenario::SampledScenario s = grid[i % grid.size()];
          s.patient_index = spec.patients[i / grid.size()];
          return s;
        },
        config.options, factory(c.monitor), c.shard_size, pool);
  }
  const auto pool = pool_for(c);
  return enumerated ? scenario::run_enumerated_campaign(
                          stack, spec, config.options, factory(c.monitor),
                          pool.get(), config.streaming)
                    : scenario::run_stochastic_campaign(
                          stack, spec, config, factory(c.monitor), pool.get());
}

/// core::evaluate_monitor_set over a hand-built context (the case's stack
/// cut to three patients; the faults and initial BGs of its first two
/// requests; the case's monitor and observers as the line-up), passive and
/// mitigated. The reference scores each monitor's own driving runs in
/// index order; the mitigation report folds per patient (the library's
/// shard) and merges in patient order, so even its floating risk sum
/// matches bit for bit.
inline std::string check_evaluate(const Case& c) {
  constexpr int kPatients = 3;
  core::ExperimentContext context;
  context.stack = stack_at(c.stack);
  context.stack.cohort_size = kPatients;
  const std::size_t scenarios = std::min<std::size_t>(2, c.requests.size());
  for (std::size_t i = 0; i < scenarios; ++i) {
    context.scenarios.push_back(
        {c.requests[i].config.fault, c.requests[i].config.initial_bg});
  }
  std::vector<core::NamedMonitor> lineup{{c.monitor, factory(c.monitor)}};
  for (const std::string& name : c.observers) {
    lineup.push_back({name, factory(name)});
  }
  const auto run = [&](std::size_t i, bool mitigation,
                       const sim::MonitorFactory& monitor) {
    sim::RunRequest r{static_cast<int>(i / scenarios), {}};
    r.config.initial_bg = context.scenarios[i % scenarios].initial_bg;
    r.config.fault = context.scenarios[i % scenarios].fault;
    r.config.mitigation_enabled = mitigation;
    return reference_run(context.stack, r, monitor).result;
  };
  for (std::size_t i = 0; i < context.run_count(); ++i) {
    context.baseline_hazard.push_back(
        run(i, false, sim::null_monitor_factory()).label.hazardous);
  }
  core::EvalOptions options;
  options.per_patient = true;
  options.extra_tolerances = {6, 72};
  const int tolerance = context.config.tolerance_steps;
  ThreadPool pool(c.threads);
  for (const bool mitigation : {false, true}) {
    options.mitigation_enabled = mitigation;
    const std::vector<core::MonitorEval> got =
        core::evaluate_monitor_set(context, lineup, pool, options);
    for (std::size_t m = 0; m < lineup.size(); ++m) {
      core::MonitorEval exp;
      exp.name = lineup[m].name;
      exp.accuracy_by_patient.resize(kPatients);
      exp.timeliness_by_patient.resize(kPatients);
      exp.accuracy_by_tolerance.resize(options.extra_tolerances.size());
      std::vector<metrics::MitigationReport> folds(kPatients);
      for (std::size_t i = 0; i < context.run_count(); ++i) {
        const sim::SimResult r = run(i, mitigation, lineup[m].factory);
        const std::vector<bool> alarms = metrics::alarms_of(r);
        const int fault = metrics::fault_step_of(r);
        const std::size_t p = i / scenarios;
        for (auto* a : {&exp.accuracy, &exp.accuracy_by_patient[p]}) {
          a->add_run(alarms, r.label, fault, tolerance);
        }
        for (auto* t : {&exp.timeliness, &exp.timeliness_by_patient[p]}) {
          t->add_run(alarms, r.label, fault);
        }
        for (std::size_t t = 0; t < options.extra_tolerances.size(); ++t) {
          exp.accuracy_by_tolerance[t].add_run(alarms, r.label, fault,
                                               options.extra_tolerances[t]);
        }
        if (mitigation) {
          folds[p].add_run(context.baseline_hazard[i] != 0, r);
        }
      }
      for (const auto& fold : folds) exp.mitigation.merge(fold);
      const std::string failure = first_diff(
          str(mitigation ? "mitigated" : "passive", " evaluation ", m),
          m < got.size() ? lines(got[m]) : Lines{}, lines(exp));
      if (!failure.empty()) return failure;
    }
  }
  return {};
}

// ---- Runner and shrinker ---------------------------------------------------

struct Target {
  std::string name;
  std::function<std::string(const Case&)> check;  ///< "" = no divergence
};

inline std::vector<Target> targets() {
  const auto campaign_target = [](bool enumerated) {
    return [enumerated](const Case& c) {
      return first_diff(
          enumerated ? "enumerated campaign" : "stochastic campaign",
          lines(campaign(c, enumerated, false)),
          lines(campaign(c, enumerated, true)));
    };
  };
  return {
      {"runs", [](const Case& c) { return diff_runs(c, library_runs(c)); }},
      {"observed",
       [](const Case& c) {
         return diff_runs(c, library_runs(c, true), true);
       }},
      {"stochastic", campaign_target(false)},
      {"enumerated", campaign_target(true)},
      {"evaluate", check_evaluate},
  };
}

/// Greedy: take the first edit that keeps `fails` true, in the order drop
/// a request, drop an observer, threads to 1, shard size to 1; repeat until
/// no edit does.
inline Case shrink(Case c, const std::function<bool(const Case&)>& fails) {
  for (bool progress = true; progress;) {
    std::vector<Case> edits;
    const auto edit = [&](const auto& change) {
      change(edits.emplace_back(c));
    };
    const auto at = [](auto& items, std::size_t i) {
      return items.begin() + static_cast<std::ptrdiff_t>(i);
    };
    for (std::size_t i = 0; c.requests.size() > 1 && i < c.requests.size();
         ++i) {
      edit([&](Case& t) { t.requests.erase(at(t.requests, i)); });
    }
    for (std::size_t o = 0; o < c.observers.size(); ++o) {
      edit([&](Case& t) { t.observers.erase(at(t.observers, o)); });
    }
    if (c.threads > 1) edit([](Case& t) { t.threads = 1; });
    if (c.shard_size > 1) edit([](Case& t) { t.shard_size = 1; });
    const auto it = std::find_if(edits.begin(), edits.end(), fails);
    progress = it != edits.end();
    if (progress) c = std::move(*it);
  }
  return c;
}

/// A reproducer: the case's knobs, then one line per request.
inline std::string describe(const Case& c) {
  std::string out = str("  stack ", stack_at(c.stack).name, ", monitor ",
                        c.monitor, ", observers [ ", join(c.observers),
                        "], shard size ", c.shard_size, ", threads ",
                        c.threads, "; campaigns: seed ", c.seed, ", horizon ",
                        c.horizon, ", mitigation ",
                        c.mitigation ? "on" : "off", "\n");
  for (std::size_t i = 0; i < c.requests.size(); ++i) {
    out += str("  ", i, ": patient ", c.requests[i].patient_index, ", ",
               show(c.requests[i].config), "\n");
  }
  return out;
}

}  // namespace aps::sim_oracle
