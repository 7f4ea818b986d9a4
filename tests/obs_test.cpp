// Observability layer: metric registry (counters/gauges/exponential-bucket
// histograms), trace spans, exposition formats, and the streaming drift
// detector. The concurrency suites run under the ThreadSanitizer CI job
// ("threads" ctest label): writers hammer sharded metrics while a scraper
// loops, and the merged result must equal a single-threaded reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace aps;

// ---- Counters / gauges ------------------------------------------------------

TEST(ObsCounter, AddsAndResets) {
  obs::Registry registry;
  auto& c = registry.counter("events_total", {}, "test events");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("events_total"), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, SameSeriesReturnsSameHandle) {
  obs::Registry registry;
  auto& a = registry.counter("hits_total", {{"shard", "a"}});
  auto& b = registry.counter("hits_total", {{"shard", "b"}});
  // Label order must not matter for identity.
  auto& a2 = registry.counter("hits_total", {{"shard", "a"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.add(3);
  b.add(5);
  EXPECT_EQ(registry.counter_value("hits_total", {{"shard", "a"}}), 3u);
  EXPECT_EQ(registry.counter_value("hits_total", {{"shard", "b"}}), 5u);
  EXPECT_EQ(registry.counter_value("hits_total", {{"shard", "absent"}}), 0u);
}

TEST(ObsGauge, SetAddRead) {
  obs::Registry registry;
  auto& g = registry.gauge("depth", {}, "test gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("depth"), 1.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("missing"), 0.0);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("thing");
  EXPECT_THROW(registry.gauge("thing"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("thing", obs::HistogramSpec{}),
               std::invalid_argument);
  registry.histogram("lat_us", obs::HistogramSpec::latency_us());
  // Same series, different bucket layout: one series, one meaning.
  EXPECT_THROW(
      registry.histogram("lat_us",
                         obs::HistogramSpec{.first_bound = 2.0,
                                            .growth = 2.0,
                                            .buckets = 8}),
      std::invalid_argument);
}

// ---- Histograms -------------------------------------------------------------

TEST(ObsHistogram, BucketsCountSumMax) {
  obs::Histogram h(obs::HistogramSpec{.first_bound = 1.0,
                                      .growth = 2.0,
                                      .buckets = 4});
  // Bounds: 1, 2, 4, 8, +Inf.
  for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 4u);
  ASSERT_EQ(snap.counts.size(), 5u);
  EXPECT_EQ(snap.counts[0], 2u);  // 0.5, 1.0 (le is inclusive)
  EXPECT_EQ(snap.counts[1], 1u);  // 1.5
  EXPECT_EQ(snap.counts[2], 1u);  // 3.0
  EXPECT_EQ(snap.counts[3], 0u);
  EXPECT_EQ(snap.counts[4], 1u);  // 100.0 overflow
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 106.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);

  h.reset();
  const obs::HistogramSnapshot zero = h.snapshot();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_DOUBLE_EQ(zero.sum, 0.0);
  EXPECT_DOUBLE_EQ(zero.max, 0.0);
  EXPECT_DOUBLE_EQ(zero.percentile(50.0), 0.0);
}

TEST(ObsHistogram, EmptySnapshotPercentileContractIsExactZero) {
  // Pinned contract (documented on HistogramSnapshot::percentile): with
  // count == 0 every percentile is EXACTLY 0.0 — never NaN, never a
  // bucket bound — and a NaN p is answered with 0.0 too. Serve-layer
  // latency summaries rely on this to report hard zeros for idle engines.
  obs::Histogram h(obs::HistogramSpec::latency_us());
  const obs::HistogramSnapshot empty = h.snapshot();
  ASSERT_EQ(empty.count, 0u);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    const double value = empty.percentile(p);
    EXPECT_EQ(value, 0.0) << "p=" << p;
    EXPECT_FALSE(std::isnan(value)) << "p=" << p;
  }
  EXPECT_EQ(empty.percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);

  // The contract is empty-only: one observation and percentiles are live.
  h.observe(3.0);
  EXPECT_GT(h.snapshot().percentile(99.0), 0.0);
}

TEST(ObsHistogram, PercentilesBracketAndClampToMax) {
  obs::Histogram h(obs::HistogramSpec{.first_bound = 1.0,
                                      .growth = 2.0,
                                      .buckets = 12});
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i) * 0.01);
  const obs::HistogramSnapshot snap = h.snapshot();
  const double p50 = snap.percentile(50.0);
  const double p99 = snap.percentile(99.0);
  // True quantiles are 5.0 and 9.9; bucket interpolation must land within
  // the owning power-of-two bucket.
  EXPECT_GT(p50, 4.0);
  EXPECT_LT(p50, 8.0);
  EXPECT_GT(p99, 8.0);
  EXPECT_LE(p99, snap.max);
  EXPECT_DOUBLE_EQ(snap.percentile(100.0), snap.max);
  EXPECT_LE(snap.percentile(0.0), snap.percentile(50.0));
}

TEST(ObsHistogram, InvalidSpecThrows) {
  EXPECT_THROW(obs::Histogram(obs::HistogramSpec{.first_bound = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram(obs::HistogramSpec{.growth = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram(obs::HistogramSpec{.buckets = 0}),
               std::invalid_argument);
}

// Pinned equivalence: the same observations pushed from N threads through
// the sharded fast path merge to exactly the single-threaded reference.
// Integer-valued observations keep the double sums associativity-proof.
TEST(ObsHistogram, ShardedMergeEqualsSingleThreadReference) {
  const obs::HistogramSpec spec{.first_bound = 1.0,
                                .growth = 1.5,
                                .buckets = 20};
  obs::Histogram reference(spec);
  obs::Histogram sharded(spec);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.observe(static_cast<double>((t * kPerThread + i) % 700));
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sharded.observe(static_cast<double>((t * kPerThread + i) % 700));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::HistogramSnapshot a = reference.snapshot();
  const obs::HistogramSnapshot b = sharded.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

// ---- Registry concurrency (TSan target) -------------------------------------

// Writers hammer one counter, one gauge, and one histogram while a scraper
// loops over the full exposition pipeline; after the writers quiesce the
// merged totals must be exact.
TEST(ObsRegistry, ConcurrentWritersAndScraper) {
  obs::Registry registry;
  auto& hits = registry.counter("hammer_hits_total", {}, "hammered");
  auto& level = registry.gauge("hammer_level");
  auto& lat = registry.histogram(
      "hammer_us", obs::HistogramSpec{.first_bound = 1.0,
                                      .growth = 2.0,
                                      .buckets = 16});

  constexpr int kWriters = 6;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::RegistrySnapshot snap = registry.scrape();
      // Torn-but-valid: totals only grow, rendering never chokes.
      EXPECT_LE(snap.samples.size(), 3u);
      (void)snap.prometheus();
      (void)snap.json();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto scope = registry.tracer().span("hammer");
      for (int i = 0; i < kIters; ++i) {
        hits.add();
        level.set(static_cast<double>(w));
        lat.observe(static_cast<double>(i % 32));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(hits.value(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  const obs::HistogramSnapshot snap = lat.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWriters) * kIters);
  EXPECT_DOUBLE_EQ(snap.max, 31.0);
}

// ---- Tracer -----------------------------------------------------------------

TEST(ObsTracer, RecordsSpansInTimeOrder) {
  obs::Tracer tracer(16);
  {
    auto outer = tracer.span("outer");
    auto inner = tracer.span("inner");
  }
  const std::vector<obs::SpanRecord> spans = tracer.recent();
  ASSERT_EQ(spans.size(), 2u);
  // Inner ends first but outer STARTED first; recent() is start-ordered.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].dur_us, 0.0);
  EXPECT_EQ(tracer.overwritten(), 0u);
}

TEST(ObsTracer, RingOverwritesOldestAndCounts) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    auto scope = tracer.span(i % 2 == 0 ? "even" : "odd");
  }
  const std::vector<obs::SpanRecord> spans = tracer.recent();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.overwritten(), 6u);
}

TEST(ObsTracer, ScopeFeedsHistogram) {
  obs::Registry registry;
  auto& h = registry.histogram("span_us", obs::HistogramSpec::latency_us());
  { auto scope = registry.tracer().span("timed", &h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(ObsTracer, PerThreadRingsMergeAcrossThreads) {
  obs::Tracer tracer(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 8; ++i) {
        auto scope = tracer.span("worker");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::vector<obs::SpanRecord> spans = tracer.recent();
  EXPECT_EQ(spans.size(), 32u);
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const auto& a, const auto& b) { return a.start_us < b.start_us; }));
}

// ---- Exposition -------------------------------------------------------------

TEST(ObsExposition, PrometheusTextFormat) {
  obs::Registry registry;
  registry.counter("req_total", {{"kind", "cawt"}}, "requests").add(7);
  registry.gauge("temp", {}, "temperature").set(1.5);
  registry
      .histogram("lat_us",
                 obs::HistogramSpec{.first_bound = 1.0,
                                    .growth = 2.0,
                                    .buckets = 2},
                 {}, "latency")
      .observe(1.5);
  const std::string text = registry.scrape_prometheus();
  EXPECT_NE(text.find("# HELP req_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{kind=\"cawt\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE temp gauge"), std::string::npos);
  EXPECT_NE(text.find("temp 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 1.5"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
}

TEST(ObsExposition, PrometheusEscapesLabelValues) {
  obs::Registry registry;
  registry.counter("odd_total", {{"path", "a\\b\"c\nd"}}).add(1);
  const std::string text = registry.scrape_prometheus();
  EXPECT_NE(text.find("odd_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
}

TEST(ObsExposition, JsonContainsMetricsAndSpans) {
  obs::Registry registry;
  registry.counter("c_total").add(3);
  auto& h = registry.histogram("h_us", obs::HistogramSpec::latency_us());
  h.observe(5.0);
  { auto scope = registry.tracer().span("phase"); }
  const std::string json = registry.scrape_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
}

TEST(ObsExposition, SeriesIdentityString) {
  obs::MetricSample sample;
  sample.name = "x_total";
  EXPECT_EQ(sample.series(), "x_total");
  sample.labels = {{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(sample.series(), "x_total{a=\"1\",b=\"2\"}");
}

// ---- Drift detection --------------------------------------------------------

obs::TrainingStats gaussian_like_stats(double mean, double half_width) {
  // Uniform summary on [mean - half_width, mean + half_width] from a fine
  // deterministic grid.
  obs::TrainingStats stats;
  obs::FeatureSummary f;
  for (int i = 0; i <= 10000; ++i) {
    f.add(mean - half_width +
          2.0 * half_width * static_cast<double>(i) / 10000.0);
  }
  stats.features = {f};
  return stats;
}

TEST(ObsDrift, FeatureSummaryMoments) {
  obs::FeatureSummary f;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) f.add(x);
  EXPECT_DOUBLE_EQ(f.mean(), 5.0);
  EXPECT_DOUBLE_EQ(f.variance(), 4.0);
  EXPECT_DOUBLE_EQ(f.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(f.min, 2.0);
  EXPECT_DOUBLE_EQ(f.max, 9.0);

  obs::FeatureSummary a;
  obs::FeatureSummary b;
  for (const double x : {2.0, 4.0, 4.0, 4.0}) a.add(x);
  for (const double x : {5.0, 5.0, 7.0, 9.0}) b.add(x);
  a.merge(b);
  EXPECT_EQ(a.count, f.count);
  EXPECT_DOUBLE_EQ(a.mean(), f.mean());
  EXPECT_DOUBLE_EQ(a.variance(), f.variance());
}

TEST(ObsDrift, FeatureSummaryStaysAccurateFarFromZero) {
  // 1e9 + N(0, 1): the naive sum_sq/n - mean^2 cancels every significant
  // digit of the variance here; Welford moments keep it, and merging two
  // halves (Chan et al.) matches the one-pass summary.
  // The noise is standardized to mean 0 and variance exactly 1 before the
  // offset is added, so the summary's variance must come out as 1.
  std::mt19937_64 gen(7);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> noise(100000);
  for (auto& z : noise) z = normal(gen);
  double mean = 0.0;
  for (const double z : noise) mean += z;
  mean /= static_cast<double>(noise.size());
  double var = 0.0;
  for (const double z : noise) var += (z - mean) * (z - mean);
  var /= static_cast<double>(noise.size());
  std::vector<double> xs(noise.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 1e9 + (noise[i] - mean) / std::sqrt(var);
  }

  obs::FeatureSummary whole;
  for (const double x : xs) whole.add(x);
  EXPECT_NEAR(whole.variance(), 1.0, 1e-6);
  EXPECT_NEAR(whole.mean(), 1e9, 1e-6);

  obs::FeatureSummary a;
  obs::FeatureSummary b;
  for (std::size_t i = 0; i < xs.size() / 2; ++i) a.add(xs[i]);
  for (std::size_t i = xs.size() / 2; i < xs.size(); ++i) b.add(xs[i]);
  a.merge(b);
  EXPECT_EQ(a.count, whole.count);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12 * whole.mean());
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12 * whole.variance());

  // Merging into or from an empty summary is the identity.
  obs::FeatureSummary empty;
  empty.merge(whole);
  EXPECT_EQ(empty.variance(), whole.variance());
  whole.merge(obs::FeatureSummary{});
  EXPECT_EQ(empty.variance(), whole.variance());
}

TEST(ObsDrift, TrainingStatsFromRowMajorSamples) {
  // 3 rows x 2 cols.
  const std::vector<double> rows = {1.0, 10.0, 2.0, 20.0, 3.0, 30.0};
  const obs::TrainingStats stats =
      obs::training_stats_from_samples(2, rows);
  ASSERT_EQ(stats.features.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.features[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.features[1].mean(), 20.0);
  EXPECT_DOUBLE_EQ(stats.features[0].min, 1.0);
  EXPECT_DOUBLE_EQ(stats.features[1].max, 30.0);
}

TEST(ObsDrift, InDistributionStreamNeverAlerts) {
  auto reference = std::make_shared<const obs::TrainingStats>(
      gaussian_like_stats(100.0, 50.0));
  obs::DriftDetector detector(reference, {.min_samples = 64});
  for (int round = 0; round < 20; ++round) {
    obs::FeatureSummary batch;
    for (int i = 0; i < 32; ++i) {
      batch.add(100.0 - 50.0 + 100.0 * static_cast<double>(i) / 31.0);
    }
    EXPECT_FALSE(detector.merge({&batch, 1}));
  }
  EXPECT_FALSE(detector.alerting());
  EXPECT_LT(detector.score(), 0.5);
  EXPECT_EQ(detector.samples(), 640u);
}

TEST(ObsDrift, ShiftedStreamAlertsOncePerTransition) {
  auto reference = std::make_shared<const obs::TrainingStats>(
      gaussian_like_stats(100.0, 50.0));
  obs::DriftDetector detector(
      reference,
      {.min_samples = 64, .threshold = 0.5, .clear_factor = 0.8});

  // Shifted by ~3.5 training sigmas (sigma of U(50,150) ~= 28.9).
  int transitions = 0;
  for (int round = 0; round < 8; ++round) {
    obs::FeatureSummary batch;
    for (int i = 0; i < 32; ++i) batch.add(200.0 + i % 3);
    if (detector.merge({&batch, 1})) ++transitions;
  }
  EXPECT_EQ(transitions, 1);  // transition fires once, not per merge
  EXPECT_TRUE(detector.alerting());
  EXPECT_GT(detector.score(), 0.5);
}

TEST(ObsDrift, MinSampleGateHoldsBackEarlyAlerts) {
  auto reference = std::make_shared<const obs::TrainingStats>(
      gaussian_like_stats(100.0, 50.0));
  obs::DriftDetector detector(reference, {.min_samples = 1000});
  obs::FeatureSummary batch;
  for (int i = 0; i < 100; ++i) batch.add(500.0);
  EXPECT_FALSE(detector.merge({&batch, 1}));  // wildly off, but n < gate
  EXPECT_FALSE(detector.alerting());
  EXPECT_GT(detector.score(), 1.0);  // score itself is already live
}

TEST(ObsDrift, ExtraLiveFeaturesBeyondReferenceAreIgnored) {
  obs::TrainingStats stats = gaussian_like_stats(0.0, 1.0);
  auto reference =
      std::make_shared<const obs::TrainingStats>(std::move(stats));
  obs::DriftDetector detector(reference, {.min_samples = 1});
  std::vector<obs::FeatureSummary> batch(3);
  // Feature 0 mirrors the training distribution (uniform on [-1, 1]);
  // feature 2 has no reference column and must be ignored outright.
  for (int i = 0; i < 32; ++i) {
    batch[0].add(-1.0 + 2.0 * static_cast<double>(i) / 31.0);
    batch[2].add(1e9);
  }
  (void)detector.merge(batch);
  EXPECT_LT(detector.score(), 0.5);
}

}  // namespace
