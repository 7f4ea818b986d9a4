// Replica-sharded serving soak: hold 100k+ live sessions on an
// serve::EngineGroup, churn sessions open/closed every tick, and verify the
// group holds its latency and memory envelope over the run. Self-gating:
//
//   * every requested session is still live (and fed) at the end,
//   * tick p99 stays under the latency budget,
//   * resident memory is FLAT across the soak window — growth between the
//     first post-warmup checkpoint and the end stays inside the allocator
//     slack budget, catching any per-churn leak (lanes, ids, registry
//     series) at 10k+ churn events,
//   * with the admission ladder off, zero ticks serve degraded.
//
// After the soak, two ADMISSION OVERLOAD stages drive a fresh group at 2x
// offered load (every session ticked twice per cycle) with the ladder
// pinned to one rung each, proving the shed policy end to end:
//
//   * overload_degrade — ladder held at kDegrade: every cycle is served
//     (zero sheds), LSTM lanes answer from their DT twin, and the tick
//     p99 stays inside the same budget as the calm soak;
//   * overload_shed — ladder held at kShed with an unlimited "care"
//     tenant and a quota-capped "bulk" tenant: care never loses a tick,
//     bulk sheds exactly its over-quota excess (reconciled input by
//     input: offered == served + shed), session opens come back as typed
//     rejects, and every shed is counted by reason and tenant.
//
// Results go to BENCH_serve_soak.json (stages: open, soak, overload_*,
// latency percentiles, shed counts, RSS trajectory) for the CI gate +
// EXPERIMENTS.md.
//
// Flags:
//   --sessions=<n>     live sessions to hold (default 100000)
//   --replicas=<n>     engine replicas (default 4)
//   --ticks=<n>        measured soak ticks (default 120)
//   --churn=<n>        sessions closed+reopened per tick (default 32)
//   --ml               include DT/MLP/LSTM sessions (default ON)
//   --p99-budget-ms=<x>  tick p99 gate (default 250 ms — single-core CI
//                        containers time-slice all replicas on one CPU)
//   --rss-slack-mb=<x>   flat-RSS gate (default 64 MB)
//   --smoke            CI-sized run: 2000 sessions, 2 replicas, 40 ticks
//   --long             nightly-sized run: full fleet, 600 soak ticks and
//                      longer overload stages (minutes of wall time)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/monitor_factory.h"
#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "monitor/ml_monitor.h"
#include "obs/metrics.h"
#include "serve/group.h"
#include "sim/stack.h"

namespace {

using namespace aps;

ml::Dataset synth_dataset(std::size_t n, std::uint64_t seed) {
  ml::Dataset data;
  data.classes = 2;
  data.x = ml::Matrix(n, monitor::kMlFeatureCount);
  data.y.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double bg = rng.uniform(40.0, 320.0);
    const double iob = rng.uniform(0.0, 10.0);
    data.x.at(i, 0) = bg;
    data.x.at(i, 1) = rng.uniform(-8.0, 8.0);
    data.x.at(i, 2) = iob;
    data.x.at(i, 3) = rng.uniform(-0.5, 0.5);
    data.x.at(i, 4) = rng.uniform(0.0, 3.0);
    data.x.at(i, 5) = static_cast<double>(rng.uniform_int(0, 3));
    data.y[i] = (bg < 80.0 && iob > 4.0) || bg > 260.0 ? 1 : 0;
  }
  return data;
}

ml::SequenceDataset synth_sequences(std::size_t n, std::uint64_t seed) {
  ml::SequenceDataset data;
  data.classes = 2;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ml::Matrix window(monitor::kLstmWindow, monitor::kMlFeatureCount);
    double bg = 120.0;
    for (std::size_t t = 0; t < monitor::kLstmWindow; ++t) {
      bg = rng.uniform(40.0, 320.0);
      window.at(t, 0) = bg;
      window.at(t, 1) = rng.uniform(-8.0, 8.0);
      window.at(t, 2) = rng.uniform(0.0, 10.0);
      window.at(t, 3) = rng.uniform(-0.5, 0.5);
      window.at(t, 4) = rng.uniform(0.0, 3.0);
      window.at(t, 5) = static_cast<double>(rng.uniform_int(0, 3));
    }
    data.sequences.push_back(std::move(window));
    data.labels.push_back(bg > 260.0 || bg < 80.0 ? 1 : 0);
  }
  return data;
}

core::ArtifactBundle build_bundle(bool with_ml) {
  core::ArtifactBundle bundle;
  const auto stack = sim::glucosym_openaps_stack();
  auto& artifacts = bundle.artifacts;
  artifacts.profiles = core::stack_profiles(stack);
  double mean_ss_iob = 0.0;
  for (const auto& profile : artifacts.profiles) {
    artifacts.patient_thresholds.push_back(
        monitor::default_thresholds(profile.steady_state_iob));
    artifacts.guideline_configs.push_back({});
    mean_ss_iob += profile.steady_state_iob;
  }
  mean_ss_iob /= static_cast<double>(artifacts.profiles.size());
  artifacts.population_thresholds = monitor::default_thresholds(mean_ss_iob);
  if (with_ml) {
    ml::DecisionTree dt;
    dt.fit(synth_dataset(2000, 1));
    bundle.dt = std::make_shared<const ml::DecisionTree>(std::move(dt));
    ml::MlpConfig mlp_config;
    mlp_config.hidden_units = {16, 8};
    mlp_config.max_epochs = 4;
    ml::Mlp mlp(mlp_config);
    mlp.fit(synth_dataset(1500, 2));
    bundle.mlp = std::make_shared<const ml::Mlp>(std::move(mlp));
    ml::LstmConfig lstm_config;
    lstm_config.hidden_units = {8};
    lstm_config.max_epochs = 2;
    ml::Lstm lstm(lstm_config);
    lstm.fit(synth_sequences(300, 3));
    bundle.lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
  }
  return bundle;
}

/// Current (not peak) resident set, so the flatness gate can see memory
/// being returned as well as taken.
[[nodiscard]] double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Session-kind mix for the held population: dominated by the cheap rule
/// monitors (the realistic fleet shape — ML tiers are opt-in), with a thin
/// ML slice so shard churn and LSTM windows stay exercised at scale.
const char* kind_for(std::size_t s, bool with_ml) {
  if (!with_ml) return s % 2 == 0 ? "cawt" : "guideline";
  const std::size_t bucket = s % 100;
  if (bucket < 40) return "cawt";
  if (bucket < 80) return "guideline";
  if (bucket < 95) return "dt";
  if (bucket < 99) return "mlp";
  return "lstm";
}

}  // namespace

int main(int argc, char** argv) try {
  CliFlags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const bool long_run = flags.get_bool("long", false);
  const std::size_t sessions =
      static_cast<std::size_t>(flags.get_int("sessions", smoke ? 2000 : 100000));
  const std::size_t replicas =
      static_cast<std::size_t>(flags.get_int("replicas", smoke ? 2 : 4));
  const std::size_t ticks = static_cast<std::size_t>(
      flags.get_int("ticks", smoke ? 40 : (long_run ? 600 : 120)));
  const std::size_t churn = static_cast<std::size_t>(
      flags.get_int("churn", smoke ? 16 : (long_run ? 64 : 32)));
  const bool with_ml = flags.get_bool("ml", true);
  const double p99_budget_ms = flags.get_double("p99-budget-ms", 250.0);
  const double rss_slack_mb = flags.get_double("rss-slack-mb", 64.0);
  const std::size_t ov_per_tenant = static_cast<std::size_t>(flags.get_int(
      "overload-sessions", smoke ? 600 : (long_run ? 4000 : 2000)));
  const std::size_t ov_ticks = static_cast<std::size_t>(
      flags.get_int("overload-ticks", smoke ? 24 : (long_run ? 240 : 60)));
  flags.reject_unknown();

  bench::BenchRecorder recorder("serve_soak");
  recorder.attach_registry(&obs::Registry::global());

  std::printf("== serve_soak ==\n");
  std::printf(
      "%zu sessions, %zu replicas, %zu ticks, churn %zu/tick, %s models\n",
      sessions, replicas, ticks, churn,
      with_ml ? "rule+ML" : "rule-based");

  core::ArtifactBundle bundle;
  recorder.time_stage("build bundle", 0, [&] { bundle = build_bundle(with_ml); });
  const int cohort = static_cast<int>(bundle.artifacts.profiles.size());

  serve::GroupConfig config;
  config.replicas = replicas;
  serve::EngineGroup group(config);
  group.register_bundle(bundle);

  // -- Open the fleet --------------------------------------------------------
  std::vector<serve::SessionId> ids;
  ids.reserve(sessions);
  recorder.time_stage("open/" + std::to_string(sessions), sessions, [&] {
    for (std::size_t s = 0; s < sessions; ++s) {
      ids.push_back(group.open_session("soak-" + std::to_string(s),
                                       kind_for(s, with_ml),
                                       static_cast<int>(s) % cohort));
    }
  });
  std::printf("opened %zu sessions, RSS %.1f MB\n", group.session_count(),
              current_rss_mb());

  // Observation variants covering quiet and alarming contexts.
  std::vector<monitor::Observation> variants;
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    monitor::Observation obs;
    obs.time_min = 5.0 * i;
    obs.bg = rng.uniform(50.0, 300.0);
    obs.bg_rate = rng.uniform(-6.0, 6.0);
    obs.iob = rng.uniform(0.0, 8.0);
    obs.iob_rate = rng.uniform(-0.4, 0.4);
    obs.commanded_rate = rng.uniform(0.0, 3.0);
    obs.previous_rate = rng.uniform(0.0, 3.0);
    obs.action = static_cast<ControlAction>(rng.uniform_int(0, 3));
    obs.basal_rate = 1.0;
    obs.isf = 40.0;
    variants.push_back(obs);
  }

  std::vector<serve::SessionInput> batch(sessions);
  std::vector<monitor::Decision> decisions(sessions);
  const auto fill_batch = [&](std::size_t variant) {
    for (std::size_t s = 0; s < sessions; ++s) {
      batch[s] = {ids[s], variants[variant % variants.size()]};
    }
  };

  // Warmup: fill LSTM windows and page every shard in before measuring.
  const std::size_t warm_ticks = with_ml ? monitor::kLstmWindow : 4;
  for (std::size_t w = 0; w < warm_ticks; ++w) {
    fill_batch(w);
    group.feed(batch, decisions);
  }
  group.reset_latency();

  // -- Soak loop: feed the whole fleet each tick, churning sessions ----------
  std::size_t churned_total = 0;
  std::size_t churn_cursor = 0;   ///< next fleet slot to churn
  std::size_t churn_serial = 0;   ///< unique patient ids for reopened slots
  std::vector<double> rss_checkpoints;
  const std::size_t checkpoint_every = std::max<std::size_t>(1, ticks / 8);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < ticks; ++k) {
    for (std::size_t c = 0; c < churn; ++c) {
      const std::size_t slot = churn_cursor++ % sessions;
      group.close_session(ids[slot]);
      ids[slot] = group.open_session(
          "soak-churn-" + std::to_string(churn_serial++),
          kind_for(slot, with_ml), static_cast<int>(slot) % cohort);
      ++churned_total;
    }
    fill_batch(k);
    group.feed(batch, decisions);
    if (k % checkpoint_every == 0) rss_checkpoints.push_back(current_rss_mb());
  }
  const double soak_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rss_checkpoints.push_back(current_rss_mb());

  const serve::LatencySummary m = group.latency();
  const double rss_first = rss_checkpoints.front();
  const double rss_last = rss_checkpoints.back();
  const double rss_growth = rss_last - rss_first;

  TextTable table({"metric", "value"});
  table.add_row({"held sessions", std::to_string(group.session_count())});
  table.add_row({"ticks", std::to_string(m.ticks)});
  table.add_row({"cycles", std::to_string(m.cycles)});
  table.add_row({"cycles/sec", TextTable::num(m.cycles_per_sec(), 0)});
  table.add_row({"tick p50 ms", TextTable::num(m.p50_us / 1000.0, 2)});
  table.add_row({"tick p99 ms", TextTable::num(m.p99_us / 1000.0, 2)});
  table.add_row({"tick max ms", TextTable::num(m.max_us / 1000.0, 2)});
  table.add_row({"degraded cycles", std::to_string(m.degraded_ticks)});
  table.add_row({"churn events", std::to_string(churned_total)});
  table.add_row({"RSS first/last MB", TextTable::num(rss_first, 1) + " / " +
                                          TextTable::num(rss_last, 1)});
  table.print(std::cout);

  recorder.stage_done(
      "soak/" + std::to_string(sessions) + "x" + std::to_string(ticks),
      soak_wall_s, m.cycles, rss_first,
      {{"sessions", static_cast<double>(sessions)},
       {"replicas", static_cast<double>(replicas)},
       {"churn_events", static_cast<double>(churned_total)},
       {"p50_us", m.p50_us},
       {"p95_us", m.p95_us},
       {"p99_us", m.p99_us},
       {"max_us", m.max_us},
       {"degraded_cycles", static_cast<double>(m.degraded_ticks)},
       {"rss_first_mb", rss_first},
       {"rss_last_mb", rss_last},
       {"rss_growth_mb", rss_growth}});

  // -- Self-gates -------------------------------------------------------------
  bool ok = true;
  if (group.session_count() != sessions) {
    std::printf("GATE FAIL: held %zu of %zu sessions\n", group.session_count(),
                sessions);
    ok = false;
  }
  if (m.p99_us / 1000.0 > p99_budget_ms) {
    std::printf("GATE FAIL: tick p99 %.2f ms > budget %.2f ms\n",
                m.p99_us / 1000.0, p99_budget_ms);
    ok = false;
  }
  if (rss_growth > rss_slack_mb) {
    std::printf("GATE FAIL: RSS grew %.1f MB across the soak (> %.1f MB)\n",
                rss_growth, rss_slack_mb);
    ok = false;
  }
  if (m.degraded_ticks != 0) {
    std::printf(
        "GATE FAIL: %ju degraded cycles with admission off\n",
        static_cast<std::uintmax_t>(m.degraded_ticks));
    ok = false;
  }
  std::printf("\nsoak gates (p99 <= %.0f ms, RSS growth <= %.0f MB, "
              "%zu sessions held, 0 degraded): %s\n",
              p99_budget_ms, rss_slack_mb, sessions, ok ? "PASS" : "FAIL");

  // == Admission overload stages ============================================
  // A fresh, smaller group per stage with a PRIVATE registry, so shed and
  // transition counters reconcile exactly per stage. Offered load is 2x:
  // every session is ticked twice per cycle — twice the sustainable rate
  // the calm soak just demonstrated for this population shape.
  // -- Stage 1: overload_degrade --------------------------------------------
  // Ladder pinned at kDegrade (latency signal trips on the first measured
  // tick; an effectively infinite dwell holds the rung). 2x offered load
  // must be absorbed by degradation alone: zero sheds, every cycle served,
  // LSTM lanes twin-answered, p99 still inside the calm-soak budget.
  {
    obs::Registry registry;
    serve::GroupConfig oconfig;
    oconfig.replicas = replicas;
    oconfig.engine.registry = &registry;
    oconfig.admission.degrade_p99_us = 1.0;
    oconfig.admission.shed_p99_us = 0.0;  // never past kDegrade
    oconfig.admission.min_dwell_ticks = 1u << 30;
    serve::EngineGroup ogroup(oconfig);
    ogroup.register_bundle(bundle);

    std::vector<serve::SessionId> oids;
    oids.reserve(ov_per_tenant);
    for (std::size_t s = 0; s < ov_per_tenant; ++s) {
      oids.push_back(ogroup.open_session("care/ov-" + std::to_string(s),
                                         kind_for(s, with_ml),
                                         static_cast<int>(s) % cohort));
    }
    std::vector<serve::SessionInput> obatch(2 * ov_per_tenant);
    std::vector<monitor::Decision> odecisions(obatch.size());
    std::vector<serve::TickOutcome> outcomes(obatch.size());
    const std::size_t warm = with_ml ? monitor::kLstmWindow : 4;
    std::uint64_t shed_cycles = 0, served_cycles = 0;
    const auto ot0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < warm + ov_ticks; ++k) {
      if (k == warm) ogroup.reset_latency();
      for (std::size_t s = 0; s < ov_per_tenant; ++s) {
        obatch[2 * s] = {oids[s], variants[k % variants.size()]};
        obatch[2 * s + 1] = {oids[s], variants[(k + 7) % variants.size()]};
      }
      ogroup.feed(obatch, odecisions, outcomes);
      for (const auto& outcome : outcomes) {
        outcome.served() ? ++served_cycles : ++shed_cycles;
      }
    }
    const double ov_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - ot0)
            .count();
    const serve::LatencySummary om = ogroup.latency();
    const double state = registry.gauge_value("serve_overload_state");

    std::printf("\n== overload_degrade: 2x load, %zu sessions, %zu ticks ==\n",
                ov_per_tenant, ov_ticks);
    std::printf(
        "ladder %.0f, p99 %.2f ms, degraded cycles %ju, shed %ju of %ju\n",
        state, om.p99_us / 1000.0,
        static_cast<std::uintmax_t>(om.degraded_ticks),
        static_cast<std::uintmax_t>(shed_cycles),
        static_cast<std::uintmax_t>(served_cycles + shed_cycles));

    recorder.stage_done(
        "overload_degrade/" + std::to_string(ov_per_tenant) + "x2",
        ov_wall_s, served_cycles, rss_last,
        {{"offered_cycles", static_cast<double>(served_cycles + shed_cycles)},
         {"served_cycles", static_cast<double>(served_cycles)},
         {"shed_cycles", static_cast<double>(shed_cycles)},
         {"degraded_cycles", static_cast<double>(om.degraded_ticks)},
         {"p50_us", om.p50_us},
         {"p99_us", om.p99_us},
         {"overload_state", state}});

    if (state != 1.0) {
      std::printf("GATE FAIL: ladder sat at %.0f, expected kDegrade (1)\n",
                  state);
      ok = false;
    }
    if (shed_cycles != 0) {
      std::printf("GATE FAIL: %ju cycles shed in the degrade-only stage\n",
                  static_cast<std::uintmax_t>(shed_cycles));
      ok = false;
    }
    if (with_ml && om.degraded_ticks == 0) {
      std::printf("GATE FAIL: no twin-answered cycles at 2x load\n");
      ok = false;
    }
    if (om.p99_us / 1000.0 > p99_budget_ms) {
      std::printf("GATE FAIL: degraded p99 %.2f ms > budget %.2f ms\n",
                  om.p99_us / 1000.0, p99_budget_ms);
      ok = false;
    }
  }

  // -- Stage 2: overload_shed -----------------------------------------------
  // Ladder pinned at kShed. Tenant "care" is unlimited, tenant "bulk" has a
  // one-tick burst and ~zero refill: bulk must shed exactly its over-quota
  // excess (offered == served + shed, reconciled against the per-tenant
  // counters), care must not lose a single cycle, and opens must come back
  // as typed rejects.
  {
    obs::Registry registry;
    serve::GroupConfig sconfig;
    sconfig.replicas = replicas;
    sconfig.engine.registry = &registry;
    sconfig.admission.degrade_p99_us = 0.5;
    sconfig.admission.shed_p99_us = 1.0;  // any tick latency trips kShed
    sconfig.admission.min_dwell_ticks = 1u << 30;
    sconfig.admission.tenant_quotas = {
        {"bulk",
         {.ticks_per_sec = 1e-9,
          .burst = static_cast<double>(ov_per_tenant)}}};
    serve::EngineGroup sgroup(sconfig);
    sgroup.register_bundle(bundle);

    std::vector<serve::SessionId> sids;
    sids.reserve(2 * ov_per_tenant);
    for (std::size_t s = 0; s < ov_per_tenant; ++s) {
      sids.push_back(sgroup.open_session("care/ov-" + std::to_string(s),
                                         kind_for(s, false),
                                         static_cast<int>(s) % cohort));
    }
    for (std::size_t s = 0; s < ov_per_tenant; ++s) {
      sids.push_back(sgroup.open_session("bulk/ov-" + std::to_string(s),
                                         kind_for(s, false),
                                         static_cast<int>(s) % cohort));
    }
    // Batch order: all care cycles (2 per session), then all bulk cycles.
    std::vector<serve::SessionInput> sbatch(4 * ov_per_tenant);
    std::vector<monitor::Decision> sdecisions(sbatch.size());
    std::vector<serve::TickOutcome> soutcomes(sbatch.size());
    std::uint64_t care_shed = 0, bulk_shed = 0, served = 0, offered = 0;
    std::uint64_t open_attempts = 0, open_rejects = 0;
    const auto st0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < ov_ticks; ++k) {
      for (std::size_t i = 0; i < 2 * ov_per_tenant; ++i) {
        sbatch[2 * i] = {sids[i], variants[k % variants.size()]};
        sbatch[2 * i + 1] = {sids[i], variants[(k + 3) % variants.size()]};
      }
      sgroup.feed(sbatch, sdecisions, soutcomes);
      offered += soutcomes.size();
      for (std::size_t i = 0; i < soutcomes.size(); ++i) {
        if (soutcomes[i].served()) {
          ++served;
        } else if (i < 2 * ov_per_tenant) {
          ++care_shed;
        } else {
          ++bulk_shed;
        }
      }
      // Once shedding, opens must be refused with the typed error.
      if (sgroup.admission().state() == serve::OverloadState::kShed) {
        ++open_attempts;
        try {
          (void)sgroup.open_session("care/late-" + std::to_string(k),
                                    "cawt", 0);
        } catch (const serve::ShedError&) {
          ++open_rejects;
        }
      }
    }
    const double sh_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - st0)
            .count();
    const std::uint64_t bulk_counted = registry.counter_value(
        "serve_shed_total", {{"reason", "tick"}, {"tenant", "bulk"}});
    const std::uint64_t care_counted = registry.counter_value(
        "serve_shed_total", {{"reason", "tick"}, {"tenant", "care"}});
    const std::uint64_t open_counted = registry.counter_value(
        "serve_shed_total", {{"reason", "open"}, {"tenant", "care"}});
    const double state = registry.gauge_value("serve_overload_state");

    std::printf("\n== overload_shed: 2x load, %zu+%zu sessions, %zu ticks ==\n",
                ov_per_tenant, ov_per_tenant, ov_ticks);
    std::printf("ladder %.0f: offered %ju = served %ju + shed %ju "
                "(care %ju, bulk %ju), opens rejected %ju/%ju\n",
                state, static_cast<std::uintmax_t>(offered),
                static_cast<std::uintmax_t>(served),
                static_cast<std::uintmax_t>(care_shed + bulk_shed),
                static_cast<std::uintmax_t>(care_shed),
                static_cast<std::uintmax_t>(bulk_shed),
                static_cast<std::uintmax_t>(open_rejects),
                static_cast<std::uintmax_t>(open_attempts));

    recorder.stage_done(
        "overload_shed/" + std::to_string(2 * ov_per_tenant) + "x2",
        sh_wall_s, served, rss_last,
        {{"offered_cycles", static_cast<double>(offered)},
         {"served_cycles", static_cast<double>(served)},
         {"shed_tick_care", static_cast<double>(care_counted)},
         {"shed_tick_bulk", static_cast<double>(bulk_counted)},
         {"shed_open", static_cast<double>(open_counted)},
         {"open_attempts", static_cast<double>(open_attempts)},
         {"overload_state", state}});

    if (state != 2.0) {
      std::printf("GATE FAIL: ladder sat at %.0f, expected kShed (2)\n",
                  state);
      ok = false;
    }
    if (care_shed != 0 || care_counted != 0) {
      std::printf("GATE FAIL: in-quota tenant lost %ju cycles "
                  "(%ju counted)\n",
                  static_cast<std::uintmax_t>(care_shed),
                  static_cast<std::uintmax_t>(care_counted));
      ok = false;
    }
    if (bulk_shed == 0) {
      std::printf("GATE FAIL: over-quota tenant shed nothing at 2x load\n");
      ok = false;
    }
    if (bulk_shed != bulk_counted) {
      std::printf("GATE FAIL: shed %ju bulk cycles but counted %ju\n",
                  static_cast<std::uintmax_t>(bulk_shed),
                  static_cast<std::uintmax_t>(bulk_counted));
      ok = false;
    }
    if (offered != served + care_shed + bulk_shed) {
      std::printf("GATE FAIL: offered %ju != served %ju + shed %ju\n",
                  static_cast<std::uintmax_t>(offered),
                  static_cast<std::uintmax_t>(served),
                  static_cast<std::uintmax_t>(care_shed + bulk_shed));
      ok = false;
    }
    if (open_attempts == 0 || open_rejects != open_attempts ||
        open_counted != open_rejects) {
      std::printf("GATE FAIL: open rejects %ju/%ju attempts (%ju counted)\n",
                  static_cast<std::uintmax_t>(open_rejects),
                  static_cast<std::uintmax_t>(open_attempts),
                  static_cast<std::uintmax_t>(open_counted));
      ok = false;
    }
  }

  std::printf("\noverload gates (degrade absorbs 2x inside %.0f ms p99, "
              "shed spares in-quota tenants, every shed counted): %s\n",
              p99_budget_ms, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
