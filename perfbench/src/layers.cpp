#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "io/artifact_io.h"
#include "ml/kernels/kernels.h"
#include "monitor/ml_monitor.h"
#include "net/listfile.h"
#include "net/protocol.h"
#include "serve/group.h"

namespace perfbench {

namespace {

using aps::monitor::Decision;
using aps::monitor::Observation;

/// Results of timed work are stored here so the compiler cannot drop it.
volatile double g_sink = 0.0;

/// Minimum time each micro-measurement repeats its work for.
constexpr double kMinMeasureS = 0.15;

/// Repeat `fn` (which does `items` units of work) for at least
/// kMinMeasureS; returns the calling thread's CPU microseconds per unit,
/// which leave out the hypervisor's steal, as the server CPU per tick that
/// the coverage shares divide by does.
template <typename Fn>
double us_per_item(std::size_t items, Fn&& fn) {
  fn();  // warm
  std::size_t done = 0;
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  do {
    fn();
    done += items;
  } while (seconds_since(t0) < kMinMeasureS);
  return (thread_cpu_seconds() - cpu0) * 1e6 /
         static_cast<double>(std::max<std::size_t>(done, 1));
}

/// Tick observations in the order a run sends them: session-major round
/// robin over the seeded traces.
std::vector<aps::net::TickMsg> sample_ticks(const WireInputs& inputs,
                                            std::size_t sessions,
                                            std::size_t count) {
  std::vector<aps::net::TickMsg> ticks(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t session = i % sessions;
    const auto& trace = inputs.traces[session % inputs.traces.size()];
    ticks[i].token = session;
    ticks[i].seq = i / sessions;
    ticks[i].obs = trace[(session + i / sessions) % trace.size()];
    ticks[i].obs.time_min = 5.0 * static_cast<double>(ticks[i].seq);
  }
  return ticks;
}

/// Per-session kind index, patient index and trace of a fleet shaped like
/// the workload's.
struct FleetShape {
  std::vector<std::uint32_t> kind;
  std::vector<std::int32_t> patient;
  std::vector<std::uint32_t> trace;
};

FleetShape fleet_shape(const WireLayerContext& c, std::size_t sessions) {
  FleetShape shape;
  for (std::size_t s = 0; s < sessions; ++s) {
    shape.kind.push_back(static_cast<std::uint32_t>(s % c.mix.size()));
    const std::size_t t = s % c.inputs.traces.size();
    shape.trace.push_back(static_cast<std::uint32_t>(t));
    shape.patient.push_back(c.inputs.trace_patient[t]);
  }
  return shape;
}

struct GroupFeedCost {
  double wall_us_per_tick = 0.0;
  double cpu_us_per_tick = 0.0;
};

/// Feed `group` batches of `batch` distinct sessions (round robin over
/// `ids`) with each session's trace observations; returns the cost per
/// tick. Every session first gets kLstmWindow ticks so LSTM windows are
/// full, as in the steady state of a run.
GroupFeedCost feed_cost(aps::serve::EngineGroup& group,
                        const std::vector<aps::serve::SessionId>& ids,
                        const std::vector<std::uint32_t>& traces,
                        const WireInputs& inputs, std::size_t batch) {
  std::vector<std::uint64_t> seq(ids.size(), 0);
  std::vector<aps::serve::SessionInput> inputs_batch;
  std::vector<Decision> decisions;
  std::size_t cursor = 0;
  const auto next_batch = [&] {
    inputs_batch.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t s = cursor;
      cursor = (cursor + 1) % ids.size();
      const auto& trace = inputs.traces[traces[s]];
      Observation obs = trace[seq[s] % trace.size()];
      obs.time_min = 5.0 * static_cast<double>(seq[s]);
      ++seq[s];
      inputs_batch.push_back({ids[s], obs});
    }
    decisions.assign(inputs_batch.size(), {});
  };
  const std::size_t warm = ids.size() * aps::monitor::kLstmWindow;
  for (std::size_t done = 0; done < warm; done += batch) {
    next_batch();
    group.feed(inputs_batch, decisions);
  }
  std::size_t ticks = 0;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  do {
    next_batch();
    group.feed(inputs_batch, decisions);
    ticks += batch;
  } while (seconds_since(t0) < 2 * kMinMeasureS);
  GroupFeedCost cost;
  cost.wall_us_per_tick = seconds_since(t0) * 1e6 / static_cast<double>(ticks);
  cost.cpu_us_per_tick =
      (process_cpu_seconds() - cpu0) * 1e6 / static_cast<double>(ticks);
  return cost;
}

[[nodiscard]] aps::serve::GroupConfig group_config(std::size_t replicas) {
  aps::serve::GroupConfig config;
  config.replicas = replicas;
  config.engine.threads = 1;
  return config;
}

/// A connected loopback TCP pair (127.0.0.1), like the ingest server's
/// client connections.
std::pair<int, int> loopback_pair() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    throw std::runtime_error("loopback listener failed");
  }
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (client < 0 ||
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listener);
    if (client >= 0) ::close(client);
    throw std::runtime_error("loopback connect failed");
  }
  const int server = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (server < 0) {
    ::close(client);
    throw std::runtime_error("loopback accept failed");
  }
  const int one = 1;
  (void)setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return {server, client};
}

/// One ::send per decision frame over loopback TCP, as the ingest server
/// writes decisions; a reader thread drains the client end.
double write_us_per_frame(const std::vector<std::uint8_t>& frame) {
  const auto [server, client] = loopback_pair();
  std::thread reader([client = client] {
    std::vector<std::uint8_t> buf(64 * 1024);
    while (::recv(client, buf.data(), buf.size(), 0) > 0) {
    }
  });
  const double us = us_per_item(1024, [&] {
    for (int i = 0; i < 1024; ++i) {
      (void)::send(server, frame.data(), frame.size(), MSG_NOSIGNAL);
    }
  });
  ::shutdown(server, SHUT_WR);
  reader.join();
  ::close(server);
  ::close(client);
  return us;
}

}  // namespace

void measure_gemm(std::size_t m, std::size_t k, std::size_t n, RunResult& out) {
  std::vector<double> a(m * k), b(k * n), c(m * n, 0.0);
  InputRng rng(m * 1315423911ull + k * 2654435761ull + n);
  for (auto& v : a) v = 0.5 + static_cast<double>(rng.below(1000)) * 1e-3;
  for (auto& v : b) v = -0.5 + static_cast<double>(rng.below(1000)) * 1e-3;
  const double us = us_per_item(1, [&] {
    aps::ml::kernels::gemm_accum(a.data(), b.data(), c.data(), m, k, n);
  });
  const double flops = 2.0 * static_cast<double>(m * k * n);
  out.metric("ml.kernels.gemm_gflops", flops / (us * 1e3), "GFLOP/s");
  out.metric("ml.kernels.gemm_bytes_per_call",
             8.0 * static_cast<double>(m * k + k * n + 2 * m * n), "bytes");
}

void measure_wire_layers(const WireLayerContext& c, RunResult& out) {
  const std::size_t kinds = c.mix.size();
  const std::size_t replicas = 2;
  const double share = 1.0 / static_cast<double>(kinds);

  // ---- net ----------------------------------------------------------
  const auto ticks = sample_ticks(c.inputs, c.sessions, 20000);
  std::vector<std::uint8_t> wire_bytes;
  for (const auto& tick : ticks) {
    const auto frame = aps::net::encode_frame(aps::net::encode(tick));
    wire_bytes.insert(wire_bytes.end(), frame.begin(), frame.end());
  }
  double checksum = 0.0;
  const double decode_us = us_per_item(ticks.size(), [&] {
    aps::net::FrameDecoder decoder("bench");
    for (std::size_t pos = 0; pos < wire_bytes.size(); pos += 64 * 1024) {
      const std::size_t len = std::min<std::size_t>(64 * 1024, wire_bytes.size() - pos);
      decoder.feed({wire_bytes.data() + pos, len});
      while (auto frame = decoder.next()) {
        checksum += aps::net::decode_tick(*frame).obs.bg;
      }
    }
  });
  std::vector<aps::net::DecisionMsg> decisions(ticks.size());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    decisions[i].token = ticks[i].token;
    decisions[i].seq = ticks[i].seq;
    decisions[i].decision.alarm = ticks[i].obs.bg < 70.0;
  }
  std::size_t encoded = 0;
  const double encode_us = us_per_item(decisions.size(), [&] {
    for (const auto& d : decisions) {
      encoded += aps::net::encode_frame(aps::net::encode(d)).size();
    }
  });
  const auto tick_frame = aps::net::encode_frame(aps::net::encode(ticks[0]));
  const auto decision_frame =
      aps::net::encode_frame(aps::net::encode(decisions[0]));
  const double write_us = write_us_per_frame(decision_frame);

  const std::string lf_path = c.work_dir + "/layers.listfile";
  double lf_bytes_per_tick = 0.0;
  const double listfile_us = us_per_item(ticks.size(), [&] {
    aps::net::ListfileWriter writer(lf_path);
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      writer.record_tick({.key = ticks[i].token, .seq = ticks[i].seq,
                          .obs = ticks[i].obs});
      writer.record_decision({.key = decisions[i].token,
                              .seq = decisions[i].seq,
                              .decision = decisions[i].decision});
    }
    writer.finish();
  });
  lf_bytes_per_tick = static_cast<double>(std::filesystem::file_size(lf_path)) /
                      static_cast<double>(ticks.size());
  std::filesystem::remove(lf_path);
  // CRC-32 covers each frame's 12 header bytes plus its payload, in both
  // directions, and each listfile record's kind byte plus its payload.
  const double header = aps::net::kFrameHeaderSize;
  double crc_bytes = (static_cast<double>(tick_frame.size()) - header + 12.0) +
                     (static_cast<double>(decision_frame.size()) - header + 12.0);
  if (c.listfile) crc_bytes += lf_bytes_per_tick - 16.0;

  out.metric("net.tick_decode_us", decode_us, "us");
  out.metric("net.decision_encode_us", encode_us, "us");
  out.metric("net.decision_write_us", write_us, "us");
  out.metric("net.crc_bytes_per_tick", crc_bytes, "bytes");
  out.metric("net.bytes_per_tick", c.net_bytes_per_tick, "bytes");
  out.metric("net.batch_ticks_p50", c.batch_p50, "count");
  out.metric("net.batch_ticks_p99", c.batch_p99, "count");
  out.metric("net.backpressure_per_kt", c.backpressure_per_kt, "count");
  out.metric("net.listfile_us_per_tick", listfile_us, "us");
  out.metric("net.open_rtt_ms", c.open_rtt_ms, "ms");

  out.metric("net.batch_ticks_mean", c.batch_mean, "count");

  // ---- serve: 2-replica group on batches shaped like the window's -----
  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(c.batch_mean)));
  const aps::core::ArtifactBundle bundle = aps::io::load_bundle(c.bundle_path);
  const FleetShape shape = fleet_shape(c, c.sessions);
  double open_us = 0.0;
  double close_us = 0.0;
  GroupFeedCost feed;
  {
    aps::serve::EngineGroup group(group_config(replicas));
    group.register_bundle(bundle);
    std::vector<aps::serve::SessionId> ids;
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < c.sessions; ++s) {
      ids.push_back(group.open_session("layer-" + std::to_string(s),
                                       c.mix[shape.kind[s]], shape.patient[s]));
    }
    open_us = seconds_since(t0) * 1e6 / static_cast<double>(c.sessions);
    feed = feed_cost(group, ids, shape.trace, c.inputs, batch);
    const auto t1 = Clock::now();
    for (const auto id : ids) group.close_session(id);
    close_us = seconds_since(t1) * 1e6 / static_cast<double>(c.sessions);
  }
  out.metric("serve.group.feed_us_per_tick", feed.wall_us_per_tick, "us");
  out.metric("serve.group.feed_cpu_us_per_tick", feed.cpu_us_per_tick, "us");
  out.metric("serve.group.backpressure", static_cast<double>(c.group_backpressure),
             "count");
  out.metric("serve.group.replica_imbalance", c.replica_imbalance, "ratio");
  out.metric("serve.open_us", open_us, "us");
  out.metric("serve.close_us", close_us, "us");
  out.metric("serve.degraded_cycles", static_cast<double>(c.degraded), "count");
  out.metric("serve.shed_cycles", static_cast<double>(c.shed), "count");

  // Per kind: a 1-replica group fed single-kind batches at the kind's
  // lanes at saturation (its share of a batch, split over replicas), the
  // regime throughput_per_s measures.
  const std::size_t kind_sessions = std::max<std::size_t>(1, c.sessions / kinds);
  const auto kind_lanes = std::min(
      kind_sessions,
      static_cast<std::size_t>(std::max(
          1.0, std::round(c.sat_batch_mean * share / static_cast<double>(replicas)))));
  for (std::size_t k = 0; k < kinds; ++k) {
    aps::serve::EngineGroup group(group_config(1));
    group.register_bundle(bundle);
    std::vector<aps::serve::SessionId> ids;
    std::vector<std::uint32_t> traces;
    for (std::size_t s = 0; s < kind_sessions; ++s) {
      const std::size_t t = s % c.inputs.traces.size();
      ids.push_back(group.open_session("kind-" + std::to_string(s), c.mix[k],
                                       c.inputs.trace_patient[t]));
      traces.push_back(static_cast<std::uint32_t>(t));
    }
    const GroupFeedCost cost = feed_cost(group, ids, traces, c.inputs, kind_lanes);
    out.metric("serve.kind_us_per_cycle." + c.mix[k], cost.wall_us_per_tick, "us");
  }

  // ---- ml: predict calls with the bundle's weights at the same lanes ---
  double ml_us_per_tick = 0.0;
  const auto features = aps::monitor::kMlFeatureCount;
  InputRng rng(0x6d6c);
  const auto has_kind = [&](const std::string& name) {
    return std::find(c.mix.begin(), c.mix.end(), name) != c.mix.end();
  };
  if (bundle.lstm && has_kind("lstm")) {
    const std::size_t steps = aps::monitor::kLstmWindow;
    std::vector<double> x(steps * kind_lanes * features);
    for (auto& v : x) v = -1.0 + static_cast<double>(rng.below(2000)) * 1e-3;
    std::vector<int> labels;
    const double us = us_per_item(kind_lanes, [&] {
      bundle.lstm->predict_batch_standardized(x, kind_lanes, steps, labels);
    });
    out.metric("ml.lstm_predict_us_per_lane", us, "us");
    ml_us_per_tick += share * us;
    measure_gemm(kind_lanes, bundle.lstm->config().hidden_units.front(),
                 4 * bundle.lstm->config().hidden_units.front(), out);
  }
  aps::ml::Matrix rows(kind_lanes, features);
  for (std::size_t i = 0; i < kind_lanes; ++i) {
    const auto& obs = ticks[i % ticks.size()].obs;
    const auto f = aps::monitor::ml_features(obs);
    for (std::size_t j = 0; j < features; ++j) rows.at(i, j) = f[j];
  }
  if (bundle.mlp && has_kind("mlp")) {
    const double us = us_per_item(kind_lanes, [&] {
      checksum += bundle.mlp->predict_batch(rows).front();
    });
    out.metric("ml.mlp_predict_us_per_lane", us, "us");
    ml_us_per_tick += share * us;
  }
  if (bundle.dt && has_kind("dt")) {
    const double us = us_per_item(kind_lanes, [&] {
      checksum += bundle.dt->predict_batch(rows).front();
    });
    out.metric("ml.dt_predict_us_per_lane", us, "us");
    ml_us_per_tick += share * us;
  }
  out.metric("io.bundle_load_ms", c.bundle_load_ms, "ms");
  out.metric("io.bundle_save_ms", c.bundle_save_ms, "ms");

  // ---- coverage -------------------------------------------------------
  // Latency window: summed per-tick busy time against the wire p50.
  const double churn_us =
      c.rate > 0.0 ? c.churn_per_s * (open_us + close_us) / c.rate : 0.0;
  const double net_us = decode_us + encode_us + write_us +
                        (c.listfile ? listfile_us : 0.0);
  const double busy_us = net_us + feed.cpu_us_per_tick + churn_us;
  const double p50_us = c.wire_p50_ms * 1e3;
  out.metric("net.unattributed_us", p50_us - busy_us, "us");
  out.metric("coverage.busy_us_per_tick", busy_us, "us");
  out.metric("coverage.server_cpu_us_per_tick", c.server_cpu_us_per_tick, "us");
  out.metric("coverage.sat_server_cpu_us_per_tick", c.sat_server_cpu_us_per_tick,
             "us");
  out.metric("coverage.trace_p50_ms", c.wire_p50_ms, "ms");
  // Saturation: the shares of the server's CPU per tick that the net
  // layer's and the models' own timings account for, at the lanes of that
  // phase. That is where throughput_per_s is measured.
  const double sat_server_us = std::max(c.sat_server_cpu_us_per_tick, 1e-9);
  const double net_share = net_us / sat_server_us;
  const double model_share = ml_us_per_tick / sat_server_us;
  out.metric("coverage.net_share", net_share, "ratio");
  out.metric("coverage.model_share", model_share, "ratio");
  const double window_server_us = std::max(c.server_cpu_us_per_tick, 1e-9);
  out.note(format(
      "coverage, latency window (%.2f ticks per feed): layer busy %.2f "
      "us/tick (net %.2f = decode %.2f + encode %.2f + write %.2f%s; group "
      "feed %.2f CPU; churn %.2f) beside wire p50 %.1f us -> %.1f us "
      "unattributed; of the server's %.2f us/tick CPU, net %.0f%%, group "
      "feed %.0f%%",
      c.batch_mean, busy_us, net_us, decode_us, encode_us, write_us,
      c.listfile ? format(" + listfile %.2f", listfile_us).c_str() : "",
      feed.cpu_us_per_tick, churn_us, p50_us, p50_us - busy_us,
      c.server_cpu_us_per_tick, 100.0 * net_us / window_server_us,
      100.0 * feed.cpu_us_per_tick / window_server_us));
  out.note(format(
      "coverage, saturation (%.1f ticks per feed, %zu lanes per kind and "
      "replica): of the server's %.2f us/tick CPU, net %.2f us (%.0f%%), "
      "model predict %.2f us (%.0f%%)",
      c.sat_batch_mean, kind_lanes, c.sat_server_cpu_us_per_tick, net_us,
      100.0 * net_share, ml_us_per_tick, 100.0 * model_share));
  g_sink = checksum + static_cast<double>(encoded);
  if (has_kind("lstm") && model_share <= 0.5) {
    out.fail(format("model predict takes %.0f%% of the server's CPU per tick "
                    "at saturation on an ML fleet; expected the majority",
                    100.0 * model_share));
  }
  if (!has_kind("lstm") && net_share <= 0.5) {
    out.fail(format("net takes %.0f%% of the server's CPU per tick at "
                    "saturation on a rule fleet; expected the majority",
                    100.0 * net_share));
  }
}

}  // namespace perfbench
