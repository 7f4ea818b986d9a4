// Tiny blocking ingest client: opens N synthetic sessions against a
// running `serve_demo --listen` server, streams a plausible CGM-ish
// observation sequence through each, and prints the decisions the server
// fans back. Demonstrates the full conversation (hello -> open -> tick
// stream -> close with final stats) a real device gateway would speak.
//
// Flags:
//   --host=<ip>       server address (default 127.0.0.1)
//   --port=<n>        server port (required)
//   --sessions=<n>    concurrent synthetic sessions (default 4)
//   --cycles=<n>      observations per session (default 48)
//   --monitor=<name>  registered monitor to attach (default guideline)
//   --prefix=<str>    patient-id prefix so repeated runs don't collide
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "net/client.h"

namespace {

/// A benign daily-rhythm glucose trace with a late hypo swing, so the
/// monitors have something to alarm about.
aps::monitor::Observation synth_observation(std::uint64_t session,
                                            std::uint64_t cycle) {
  aps::monitor::Observation obs;
  const double phase = static_cast<double>(session) * 0.7;
  const double t = static_cast<double>(cycle);
  obs.time_min = t * 5.0;
  obs.bg = 120.0 + 40.0 * std::sin(t / 24.0 + phase) - t * 0.5;
  obs.bg_rate = 40.0 / 24.0 * std::cos(t / 24.0 + phase) - 0.5;
  obs.iob = 1.5 + 0.5 * std::sin(t / 12.0 + phase);
  obs.iob_rate = 0.5 / 12.0 * std::cos(t / 12.0 + phase);
  obs.commanded_rate = 1.0 + 0.2 * std::sin(t / 6.0);
  obs.previous_rate = 1.0 + 0.2 * std::sin((t - 1.0) / 6.0);
  obs.action = aps::ControlAction::kKeepInsulin;
  obs.basal_rate = 1.0;
  obs.isf = 45.0;
  return obs;
}

}  // namespace

int main(int argc, char** argv) try {
  aps::CliFlags flags(argc, argv);
  const std::string host = flags.get_string("host", "127.0.0.1");
  const int port = flags.get_int("port", 0);
  const auto sessions =
      static_cast<std::uint64_t>(flags.get_int("sessions", 4));
  const auto cycles = static_cast<std::uint64_t>(flags.get_int("cycles", 48));
  const std::string monitor = flags.get_string("monitor", "guideline");
  const std::string prefix = flags.get_string("prefix", "net-client");
  flags.reject_unknown();
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "usage: net_client --port=<n> [--host=<ip>] "
                         "[--sessions=<n>] [--cycles=<n>] "
                         "[--monitor=<name>]\n");
    return 2;
  }

  aps::net::BlockingClient client(host, static_cast<std::uint16_t>(port),
                                  "net_client example");
  std::printf("connected to %s:%d (server generation %ju)\n", host.c_str(),
              port, static_cast<std::uintmax_t>(client.server_generation()));

  for (std::uint64_t token = 0; token < sessions; ++token) {
    client.open_session(token,
                        prefix + "/session" + std::to_string(token), monitor,
                        0);
  }
  std::printf("opened %ju '%s' sessions\n",
              static_cast<std::uintmax_t>(sessions), monitor.c_str());

  // Interleave the sessions cycle by cycle, the way a gateway multiplexing
  // many pumps would, and collect each cycle's decisions as they fan back.
  std::uint64_t alarms = 0;
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint64_t token = 0; token < sessions; ++token) {
      client.send_tick(token, cycle, synth_observation(token, cycle));
    }
    for (std::uint64_t i = 0; i < sessions; ++i) {
      const aps::net::DecisionMsg decision = client.recv_decision();
      if (decision.decision.alarm) {
        ++alarms;
        std::printf("  alarm: session %ju cycle %ju hazard %d rule %d\n",
                    static_cast<std::uintmax_t>(decision.token),
                    static_cast<std::uintmax_t>(decision.seq),
                    static_cast<int>(decision.decision.predicted),
                    decision.decision.rule_id);
      }
    }
  }

  std::uint64_t served_cycles = 0;
  for (std::uint64_t token = 0; token < sessions; ++token) {
    const aps::net::CloseAckMsg ack = client.close_session(token);
    served_cycles += ack.cycles;
  }
  std::printf(
      "done: %ju cycles served, %ju alarms, %ju bytes sent, %ju received\n",
      static_cast<std::uintmax_t>(served_cycles),
      static_cast<std::uintmax_t>(alarms),
      static_cast<std::uintmax_t>(client.bytes_sent()),
      static_cast<std::uintmax_t>(client.bytes_received()));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
