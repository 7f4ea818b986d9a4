// Steady-state serving makes no heap allocation: once a monitor batch has
// served its largest tick, observe_lanes (and, for the LSTM, ingest_lanes)
// reuses the batch's own buffers and the caller's spans, and a group feed
// adds none on its replica workers. Pinned here for the LSTM and MLP
// batches at float64 and float32 and for the decision-tree batch: every
// ML monitor's serving path.
//
// This binary replaces the global operator new with one that counts every
// allocation, on any thread, while counting is on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "serve/group.h"
#include "synthetic_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC takes free() here for a mismatch with operator new, not seeing that
// the operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace aps;
using monitor::Decision;
using monitor::Observation;

/// Allocations made while it lives.
class Allocations {
 public:
  Allocations() {
    g_allocs = 0;
    g_counting = true;
  }
  ~Allocations() { g_counting = false; }
  Allocations(const Allocations&) = delete;
  Allocations& operator=(const Allocations&) = delete;

  [[nodiscard]] std::size_t count() const { return g_allocs; }
};

constexpr std::size_t kLanes = 64;
constexpr std::size_t kWarmTicks = monitor::kLstmWindow + 2;
constexpr std::size_t kCountedTicks = 24;

/// Two stacked layers, so the inference pass alternates its layer output
/// buffers, and widths that take both the row-blocked and the per-row
/// GEMM paths.
std::shared_ptr<const ml::Lstm> two_layer_lstm() {
  static const auto model = [] {
    ml::LstmConfig config;
    config.hidden_units = {16, 8};
    config.max_epochs = 1;
    config.batch_size = 16;
    ml::Lstm lstm(config);
    lstm.fit(testutil::synth_sequences(64, 23));
    return std::make_shared<const ml::Lstm>(std::move(lstm));
  }();
  return model;
}

std::unique_ptr<monitor::MonitorBatch> batch_of(
    const monitor::Monitor& prototype) {
  auto batch = prototype.make_batch();
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_TRUE(batch->add_lane(prototype));
  }
  return batch;
}

/// One tick's inputs for a subset of lanes, drawn before counting starts.
struct Tick {
  std::vector<std::size_t> lanes;
  std::vector<Observation> obs;
  std::vector<Decision> out;
};

/// `count` ticks with every lane's stream advancing. Warm-up ticks cover
/// the whole batch; the others cycle through subsets of 64, 40 and 17
/// lanes, so the per-tick buffers shrink and regrow within the size they
/// reached while warming up.
std::vector<Tick> make_ticks(std::size_t count, std::uint64_t seed,
                             bool warm) {
  Rng rng(seed);
  std::vector<Tick> ticks(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t subset =
        warm || k % 3 == 0 ? kLanes : (k % 3 == 1 ? 40 : 17);
    Tick& tick = ticks[k];
    tick.lanes.resize(subset);
    std::iota(tick.lanes.begin(), tick.lanes.end(),
              (k * 7) % (kLanes - subset + 1));
    for (std::size_t i = 0; i < subset; ++i) {
      tick.obs.push_back(
          testutil::synth_observation(rng, 5.0 * static_cast<double>(k)));
    }
    tick.out.resize(subset);
  }
  return ticks;
}

/// Allocations per tick once the batch is warm (every lane's window
/// full); with `ingest`, every other tick goes through ingest_lanes
/// instead of observe_lanes.
double allocations_per_tick(monitor::MonitorBatch& batch, bool ingest) {
  for (Tick& tick : make_ticks(kWarmTicks, 5, true)) {
    batch.observe_lanes(tick.lanes, tick.obs, tick.out);
  }
  std::vector<Tick> ticks = make_ticks(kCountedTicks, 9, false);
  Allocations allocations;
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    Tick& tick = ticks[k];
    if (ingest && k % 2 == 1) {
      batch.ingest_lanes(tick.lanes, tick.obs);
    } else {
      batch.observe_lanes(tick.lanes, tick.obs, tick.out);
    }
  }
  return static_cast<double>(allocations.count()) /
         static_cast<double>(ticks.size());
}

TEST(ServeAlloc, LstmBatchF64ObserveLanesAllocatesNothing) {
  const monitor::LstmMonitor prototype(two_layer_lstm(), 2);
  auto batch = batch_of(prototype);
  EXPECT_EQ(allocations_per_tick(*batch, false), 0.0);
}

TEST(ServeAlloc, LstmBatchF32ObserveLanesAllocatesNothing) {
  const monitor::LstmMonitor prototype(two_layer_lstm(), 2);
  two_layer_lstm()->warm_f32_cache();
  auto batch = batch_of(prototype);
  batch->set_precision(monitor::Precision::kF32);
  EXPECT_EQ(allocations_per_tick(*batch, false), 0.0);
}

TEST(ServeAlloc, LstmBatchIngestLanesAllocatesNothing) {
  const monitor::LstmMonitor prototype(two_layer_lstm(), 2);
  for (const auto precision :
       {monitor::Precision::kF64, monitor::Precision::kF32}) {
    auto batch = batch_of(prototype);
    batch->set_precision(precision);
    EXPECT_EQ(allocations_per_tick(*batch, true), 0.0);
  }
}

TEST(ServeAlloc, MlpBatchF64ObserveLanesAllocatesNothing) {
  const monitor::MlpMonitor prototype(testutil::tiny_bundle().mlp, 2);
  auto batch = batch_of(prototype);
  EXPECT_EQ(allocations_per_tick(*batch, false), 0.0);
}

TEST(ServeAlloc, MlpBatchF32ObserveLanesAllocatesNothing) {
  const monitor::MlpMonitor prototype(testutil::tiny_bundle().mlp, 2);
  testutil::tiny_bundle().mlp->warm_f32_cache();
  auto batch = batch_of(prototype);
  batch->set_precision(monitor::Precision::kF32);
  EXPECT_EQ(allocations_per_tick(*batch, false), 0.0);
}

TEST(ServeAlloc, DtBatchObserveLanesAllocatesNothing) {
  const monitor::DtMonitor prototype(testutil::tiny_bundle().dt, 2);
  auto batch = batch_of(prototype);
  EXPECT_EQ(allocations_per_tick(*batch, false), 0.0);
}

// The same streams through a 2-replica EngineGroup: the caller's feed and
// both replica workers allocate nothing once every lane's window is full.
TEST(ServeAlloc, GroupFeedAllocatesNothingForMlMonitors) {
  for (const char* kind : {"lstm", "mlp", "dt"}) {
    for (const auto precision :
         {monitor::Precision::kF64, monitor::Precision::kF32}) {
      serve::GroupConfig config;
      config.engine.precision = precision;
      serve::EngineGroup group(config);
      group.register_bundle(testutil::tiny_bundle());
      std::vector<serve::SessionInput> inputs(kLanes);
      for (std::size_t s = 0; s < kLanes; ++s) {
        inputs[s].session = group.open_session(
            "patient-" + std::to_string(s), kind, static_cast<int>(s % 4));
      }
      std::vector<Decision> decisions(kLanes);
      Rng rng(13);
      const auto draw = [&](std::size_t tick) {
        for (auto& input : inputs) {
          input.obs = testutil::synth_observation(
              rng, 5.0 * static_cast<double>(tick));
        }
      };
      for (std::size_t t = 0; t < kWarmTicks; ++t) {
        draw(t);
        group.feed(inputs, decisions);
      }
      std::size_t made = 0;
      for (std::size_t t = kWarmTicks; t < kWarmTicks + kCountedTicks; ++t) {
        draw(t);
        const Allocations allocations;
        group.feed(inputs, decisions);
        made += allocations.count();
      }
      EXPECT_EQ(made, 0u) << kind;
    }
  }
}

// The counter itself sees a batch that allocates per call: per-lane
// scalar LSTM monitors, whose observe builds a window Matrix every cycle.
TEST(ServeAlloc, CounterSeesAnAllocatingBatch) {
  const monitor::LstmMonitor prototype(two_layer_lstm(), 2);
  monitor::PerLaneMonitorBatch batch;
  for (std::size_t l = 0; l < kLanes; ++l) {
    ASSERT_TRUE(batch.add_lane(prototype));
  }
  EXPECT_GT(allocations_per_tick(batch, false), 0.0);
}

}  // namespace
