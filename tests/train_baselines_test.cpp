// Training the ML baselines: train_ml_baselines fits the MLP and LSTM as
// two concurrent pool tasks whose chunk parallel_fors nest. The fitted
// models must not depend on that or on the pool size, and the fits must
// not allocate inside their chunk tasks or copy their datasets on a pool
// worker, where freed buffers stay resident in the worker's malloc arena.
//
// This binary replaces the global operator new with one that counts the
// allocations made on threads other than the test's own while counting
// is on; every other thread here is a pool worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "io/artifact_io.h"
#include "sim/stack.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_worker_allocs{0};
std::atomic<std::size_t> g_worker_max_bytes{0};
/// Set on the test's own thread; constant-initialized, so reading it in
/// operator new cannot recurse into an allocation.
thread_local bool t_test_thread = false;

void note_allocation(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed) || t_test_thread) return;
  g_worker_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_worker_max_bytes.load(std::memory_order_relaxed);
  while (seen < size && !g_worker_max_bytes.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation(size);
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

/// Worker-thread allocations made while it lives.
class WorkerAllocations {
 public:
  WorkerAllocations() {
    t_test_thread = true;
    g_worker_allocs = 0;
    g_worker_max_bytes = 0;
    g_counting = true;
  }
  ~WorkerAllocations() { g_counting = false; }
  WorkerAllocations(const WorkerAllocations&) = delete;
  WorkerAllocations& operator=(const WorkerAllocations&) = delete;

  [[nodiscard]] std::size_t count() const { return g_worker_allocs; }
  [[nodiscard]] std::size_t largest() const { return g_worker_max_bytes; }
};

/// Run fn once on every worker of `pool`. Each index waits until all have
/// started, so no worker can take two; the caller only waits.
void on_every_worker(ThreadPool& pool, const std::function<void()>& fn) {
  const std::size_t workers = pool.thread_count();
  std::barrier started(static_cast<std::ptrdiff_t>(workers));
  pool.parallel_for(workers, [&](std::size_t) {
    started.arrive_and_wait();
    fn();
  });
}

std::vector<char> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

class TrainBaselines : public ::testing::Test {
 protected:
  /// A quick-grid context with small reservoirs, so repeated fits of all
  /// three models stay cheap under the thread sanitizer. Preparing it
  /// trains the baselines once, on a pool of 2.
  static void SetUpTestSuite() {
    ThreadPool pool(2);
    core::ExperimentConfig config;
    config.ml_data.max_samples = 2000;
    config.lstm_data.max_samples = 300;
    context_ = new core::ExperimentContext(core::prepare_experiment(
        sim::glucosym_openaps_stack(), config, pool));
    dir_ = std::filesystem::temp_directory_path() / "aps_train_baselines_test";
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(dir_);
    delete context_;
  }

  static std::vector<char> saved_bundle(const core::ArtifactBundle& bundle,
                                        const std::string& name) {
    const auto path = dir_ / name;
    io::save_bundle(bundle, path.string());
    return file_bytes(path);
  }

  static core::ExperimentContext* context_;
  static std::filesystem::path dir_;
};

core::ExperimentContext* TrainBaselines::context_ = nullptr;
std::filesystem::path TrainBaselines::dir_;

TEST_F(TrainBaselines, ModelsDoNotDependOnPoolSizeOrConcurrency) {
  ASSERT_GT(context_->tabular.size(), 0u);
  ASSERT_GT(context_->sequences.size(), 0u);

  // Each model fitted alone, without a pool.
  const auto models = core::ml_baseline_configs(context_->config);
  core::ArtifactBundle alone = core::bundle_from_context(*context_);
  {
    ml::DecisionTree dt(models.dt);
    dt.fit(context_->tabular);
    ml::Mlp mlp(models.mlp);
    mlp.fit(context_->tabular);
    ml::Lstm lstm(models.lstm);
    lstm.fit(context_->sequences);
    alone.dt = std::make_shared<const ml::DecisionTree>(std::move(dt));
    alone.mlp = std::make_shared<const ml::Mlp>(std::move(mlp));
    alone.lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
  }
  const std::vector<char> reference = saved_bundle(alone, "alone.aps");
  ASSERT_FALSE(reference.empty());

  EXPECT_TRUE(saved_bundle(core::bundle_from_context(*context_),
                           "pool2.aps") == reference)
      << "pool of 2";
  core::ExperimentContext context = *context_;
  for (const std::size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    core::train_ml_baselines(context, pool);
    const auto bytes = saved_bundle(core::bundle_from_context(context),
                                    "pool" + std::to_string(threads) + ".aps");
    EXPECT_TRUE(bytes == reference) << "pool of " << threads;
  }
}

TEST_F(TrainBaselines, CounterSeesWorkerAllocations) {
  ThreadPool pool(2);
  std::vector<std::vector<double>> made(8);
  WorkerAllocations allocations;
  pool.parallel_for(made.size(), [&](std::size_t i) { made[i].resize(1000); });
  EXPECT_EQ(allocations.count(), made.size());
  EXPECT_EQ(allocations.largest(), 1000 * sizeof(double));
}

// Both fits size their chunk workspaces on the thread that calls fit, so
// a chunk task allocates nothing once its worker has run a first
// minibatch: the kernels' thread_local scratch grows to the largest shape
// a thread has seen, and a serial one-epoch fit on every worker reaches
// it. The measured fit is called from this thread, which only waits in
// parallel_for, so every chunk runs on a worker.
template <typename Model, typename Data>
std::size_t chunk_task_allocations(const Model& untrained, const Data& data) {
  ThreadPool pool(4);
  on_every_worker(pool, [&] {
    Model warm = untrained;
    warm.fit(data);
  });
  Model model = untrained;
  WorkerAllocations allocations;
  model.fit(data, &pool);
  return allocations.count();
}

TEST_F(TrainBaselines, MlpChunkTasksAllocateNothing) {
  auto config = core::ml_baseline_configs(context_->config).mlp;
  config.max_epochs = 1;
  EXPECT_EQ(chunk_task_allocations(ml::Mlp(config), context_->tabular), 0u);
}

TEST_F(TrainBaselines, LstmChunkTasksAllocateNothing) {
  auto config = core::ml_baseline_configs(context_->config).lstm;
  config.max_epochs = 1;
  EXPECT_EQ(chunk_task_allocations(ml::Lstm(config), context_->sequences),
            0u);
}

// In train_ml_baselines the MLP and LSTM fits themselves run on workers.
// Their own set-up allocates there, but never a buffer the size of a
// standardized copy of either dataset.
TEST_F(TrainBaselines, WorkersMakeNoDatasetSizedAllocation) {
  const auto& tabular = context_->tabular;
  const auto& sequences = context_->sequences;
  const std::size_t tabular_copy =
      tabular.size() * tabular.features() * sizeof(double);
  const std::size_t sequence_copy = sequences.size() * sequences.steps() *
                                    sequences.features() * sizeof(double);
  core::ExperimentContext context = *context_;
  ThreadPool pool(4);
  std::size_t largest = 0;
  {
    WorkerAllocations allocations;
    core::train_ml_baselines(context, pool);
    largest = allocations.largest();
    EXPECT_GT(allocations.count(), 0u);  // the fits did run on workers
  }
  EXPECT_LT(largest, std::min(tabular_copy, sequence_copy))
      << "tabular copy " << tabular_copy << " B, sequence copy "
      << sequence_copy << " B";
}

}  // namespace
