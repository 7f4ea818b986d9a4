// Common utilities: stats, ring buffer, RNG determinism, table rendering,
// thread pool, CLI flags.
#include <gtest/gtest.h>

#include <sstream>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/units.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace {

using namespace aps;

TEST(Stats, MeanVarianceStd) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(Stats, HistogramClampsOutliers) {
  const std::vector<double> xs = {-10.0, 0.5, 1.5, 99.0};
  const auto bins = histogram(xs, 0.0, 2.0, 2);
  EXPECT_EQ(bins[0], 2u);  // -10 clamped into first bin
  EXPECT_EQ(bins[1], 2u);  // 99 clamped into last bin
}

TEST(Stats, RunningMatchesBatch) {
  const std::vector<double> xs = {1.0, 5.0, 2.5, -3.0, 8.0};
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 8.0);
}

TEST(RingBuffer, DropsOldestBeyondCapacity) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  ASSERT_TRUE(rb.full());
  EXPECT_EQ(rb.front(), 3);
  EXPECT_EQ(rb.back(), 5);
  EXPECT_EQ(rb.to_vector(), (std::vector<int>{3, 4, 5}));
  rb.clear();
  EXPECT_TRUE(rb.empty());
}

TEST(Rng, DerivedSeedsAreIndependentStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  Rng a(derive_seed(42, 7));
  Rng b(derive_seed(42, 7));
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, SplitDerivesReproducibleChildStreams) {
  Rng parent(42);
  Rng a = parent.split(7);
  EXPECT_EQ(a.seed(), derive_seed(42, 7));
  // split depends only on the parent's seed, not on its draw position.
  (void)parent.uniform(0.0, 1.0);
  Rng b = parent.split(7);
  EXPECT_EQ(b.seed(), a.seed());
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
  EXPECT_NE(parent.split(1).seed(), parent.split(2).seed());
  EXPECT_NE(Rng(1).split(0).seed(), Rng(2).split(0).seed());
}

TEST(Stats, RunningStatsMergeMatchesSequential) {
  const std::vector<double> xs = {1.0, 5.0, 2.5, -3.0, 8.0, 4.0, 0.5};
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i < 3 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  // Merging into an empty accumulator copies.
  RunningStats empty;
  empty.merge(whole);
  EXPECT_NEAR(empty.mean(), whole.mean(), 1e-12);
}

TEST(Stats, HistogramAccumulatorMergeMatchesBatch) {
  const std::vector<double> xs = {-10.0, 0.5, 1.5, 99.0, 1.0, 0.1};
  HistogramAccumulator whole(0.0, 2.0, 2);
  HistogramAccumulator left(0.0, 2.0, 2);
  HistogramAccumulator right(0.0, 2.0, 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i % 2 == 0 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.counts(), whole.counts());
  EXPECT_EQ(left.total(), whole.total());
  // Bins match the batch histogram() helper.
  EXPECT_EQ(whole.counts(), histogram(xs, 0.0, 2.0, 2));
  EXPECT_DOUBLE_EQ(whole.bin_lo(1), 1.0);
}

TEST(TextTable, AlignsAndFormats) {
  TextTable table({"name", "value"});
  table.add_row({"x", TextTable::num(1.23456, 2)});
  table.add_row({"longer-name", TextTable::pct(0.339)});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("33.9%"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEdgeSizes) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::vector<std::size_t> seen;
  pool.parallel_for(1, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<std::size_t>{0});

  // Far more indices than threads: each runs exactly once.
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // With one worker the outer task holds the only thread, so the inner
  // call must make progress on the caller's own thread.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(4 * 16);
    pool.parallel_for(4, [&](std::size_t outer) {
      pool.parallel_for(16, [&](std::size_t inner) {
        hits[outer * 16 + inner]++;
      });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ThreadPool, ConcurrentCallersWaitOnlyForTheirOwnIndices) {
  ThreadPool pool(2);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  // Caller A's index 0 occupies one worker until released (two indices,
  // so the call goes through the workers rather than running inline).
  std::thread caller_a([&] {
    pool.parallel_for(2, [&](std::size_t i) {
      if (i != 0) return;
      blocker_started = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!blocker_started) std::this_thread::yield();

  // Caller B must finish on the other worker while A's index still runs.
  std::atomic<int> b_done{0};
  std::atomic<bool> b_returned{false};
  std::thread caller_b([&] {
    pool.parallel_for(8, [&](std::size_t) { b_done++; });
    b_returned = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!b_returned && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(b_returned.load()) << "caller B waited on caller A's index";
  release = true;
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(b_done.load(), 8);
}

TEST(CliFlags, ParsesAllSyntaxes) {
  const char* argv[] = {"prog",        "--full",      "--seed=7",
                        "--name",      "value",       "positional",
                        "--ratio=0.5", "--no-ml",     "--sede=3"};
  const CliFlags flags(9, argv);
  EXPECT_TRUE(flags.get_bool("full", false));
  EXPECT_EQ(flags.get_int("seed", 0), 7);
  EXPECT_EQ(flags.get_string("name", ""), "value");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"positional"});
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  // Unknown flags: every flag no getter consulted, a retired one and a
  // misspelt one alike; reject_unknown() names them and exits 2.
  EXPECT_EQ(flags.unknown(), (std::vector<std::string>{"no-ml", "sede"}));
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(flags.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --no-ml\nunknown flag --sede");
  EXPECT_TRUE(flags.get_bool("no-ml", false));
  EXPECT_EQ(flags.get_int("sede", 0), 3);
  EXPECT_TRUE(flags.unknown().empty());
  flags.reject_unknown();  // every flag consulted: returns
}

TEST(Units, EnumToString) {
  EXPECT_STREQ(to_string(HazardType::kH1TooMuchInsulin), "H1");
  EXPECT_STREQ(to_string(ControlAction::kStopInsulin), "stop_insulin");
}

}  // namespace
