// The parallel partition search promises results bit-identical to the
// serial reference regardless of thread count (wall-clock cpu_s aside).
// These tests pin that contract on the real benchmark SOC, on seeded
// synthetic SOCs, and across the ablation switches, plus the ThreadPool
// substrate itself.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/partition_evaluate.hpp"
#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"

namespace wtam::core {
namespace {

void expect_same_architecture(const TamArchitecture& serial,
                              const TamArchitecture& parallel) {
  EXPECT_EQ(serial.widths, parallel.widths);
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.tam_times, parallel.tam_times);
  EXPECT_EQ(serial.testing_time, parallel.testing_time);
}

void expect_same_stats(const PartitionSearchStats& serial,
                       const PartitionSearchStats& parallel) {
  EXPECT_EQ(serial.tams, parallel.tams);
  EXPECT_EQ(serial.partitions_unique, parallel.partitions_unique);
  EXPECT_EQ(serial.evaluated_to_completion, parallel.evaluated_to_completion);
  EXPECT_EQ(serial.aborted_by_tau, parallel.aborted_by_tau);
  EXPECT_EQ(serial.best_time, parallel.best_time);
  EXPECT_EQ(serial.best_partition, parallel.best_partition);
}

void expect_bit_identical(const TestTimeTable& table, int width,
                          const PartitionEvaluateOptions& base) {
  PartitionEvaluateOptions serial_options = base;
  serial_options.threads = 1;
  const auto serial = partition_evaluate(table, width, serial_options);
  for (const int threads : {2, 4, 8}) {
    PartitionEvaluateOptions parallel_options = base;
    parallel_options.threads = threads;
    const auto parallel = partition_evaluate(table, width, parallel_options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_architecture(serial.best, parallel.best);
    EXPECT_EQ(serial.best_tams, parallel.best_tams);
    ASSERT_EQ(serial.per_b.size(), parallel.per_b.size());
    for (std::size_t i = 0; i < serial.per_b.size(); ++i) {
      SCOPED_TRACE("B=" + std::to_string(serial.per_b[i].tams));
      expect_same_stats(serial.per_b[i], parallel.per_b[i]);
    }
  }
}

TEST(ParallelPartitionEvaluate, BitIdenticalOnD695) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  PartitionEvaluateOptions options;
  options.max_tams = 6;
  expect_bit_identical(table, 32, options);
}

TEST(ParallelPartitionEvaluate, BitIdenticalWithTinyChunks) {
  // chunk_size = 1 maximizes merge traffic and out-of-order completion.
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 24);
  PartitionEvaluateOptions options;
  options.max_tams = 5;
  options.chunk_size = 1;
  expect_bit_identical(table, 24, options);
}

TEST(ParallelPartitionEvaluate, BitIdenticalAcrossAblationSwitches) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 28);

  PartitionEvaluateOptions no_prune;
  no_prune.max_tams = 4;
  no_prune.prune_with_tau = false;
  expect_bit_identical(table, 28, no_prune);

  PartitionEvaluateOptions carried_tau;
  carried_tau.max_tams = 5;
  carried_tau.reset_tau_per_b = false;
  expect_bit_identical(table, 28, carried_tau);

  PartitionEvaluateOptions no_tiebreaks;
  no_tiebreaks.max_tams = 4;
  no_tiebreaks.widest_tam_tiebreak = false;
  no_tiebreaks.next_tam_core_tiebreak = false;
  expect_bit_identical(table, 28, no_tiebreaks);
}

TEST(ParallelPartitionEvaluate, BitIdenticalOnSeededSyntheticSocs) {
  for (const std::uint64_t seed : {7u, 23u, 101u}) {
    soc::SyntheticSpec spec;
    spec.name = "synthetic-" + std::to_string(seed);
    spec.seed = seed;
    spec.logic_cores = 6;
    spec.logic.patterns = {60, 900};
    spec.logic.ios = {20, 120};
    spec.logic.chains = {4, 16};
    spec.logic.chain_len = {30, 200};
    spec.memory_cores = 3;
    spec.memory.patterns = {200, 4000};
    spec.memory.ios = {30, 80};
    const soc::Soc soc = soc::generate_soc(spec);
    const TestTimeTable table(soc, 26);
    PartitionEvaluateOptions options;
    options.max_tams = 5;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_identical(table, 26, options);
  }
}

TEST(ParallelPartitionEvaluate, AutoThreadsRunsAndMatchesSerial) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 20);
  PartitionEvaluateOptions serial;
  serial.max_tams = 4;
  PartitionEvaluateOptions automatic = serial;
  automatic.threads = 0;  // hardware concurrency
  const auto a = partition_evaluate(table, 20, serial);
  const auto b = partition_evaluate(table, 20, automatic);
  expect_same_architecture(a.best, b.best);
  EXPECT_EQ(a.best_tams, b.best_tams);
}

TEST(ParallelPartitionEvaluate, RejectsBadOptions) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  PartitionEvaluateOptions negative_threads;
  negative_threads.threads = -1;
  EXPECT_THROW(partition_evaluate(table, 16, negative_threads),
               std::invalid_argument);
  PartitionEvaluateOptions zero_chunk;
  zero_chunk.chunk_size = 0;
  EXPECT_THROW(partition_evaluate(table, 16, zero_chunk),
               std::invalid_argument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  common::ThreadPool pool(4);
  std::atomic<int> counter{0};
  // The pool has no join-all primitive by design; the ordered pipeline is
  // the synchronization layer, so use it to wait.
  common::OrderedChunkPipeline<int, int> pipeline(
      pool, [&](const int& value) { return counter.fetch_add(value) + value; },
      [](int&&) {}, 8);
  for (int i = 0; i < 100; ++i) pipeline.push(1);
  pipeline.finish();
  EXPECT_EQ(counter.load(), 100);
}

TEST(OrderedChunkPipeline, MergesInSubmissionOrder) {
  common::ThreadPool pool(8);
  std::vector<int> merged;
  common::OrderedChunkPipeline<int, int> pipeline(
      pool, [](const int& value) { return value; },
      [&](int&& value) { merged.push_back(value); }, 4);
  std::vector<int> expected(200);
  std::iota(expected.begin(), expected.end(), 0);
  for (const int value : expected) ASSERT_TRUE(pipeline.push(value));
  pipeline.finish();
  EXPECT_EQ(merged, expected);
}

TEST(OrderedChunkPipeline, PropagatesWorkerExceptions) {
  common::ThreadPool pool(2);
  common::OrderedChunkPipeline<int, int> pipeline(
      pool,
      [](const int& value) -> int {
        if (value == 13) throw std::runtime_error("unlucky");
        return value;
      },
      [](int&&) {}, 2);
  for (int i = 0; i < 64; ++i) {
    if (!pipeline.push(i)) break;  // pipeline reports failure to producer
  }
  EXPECT_THROW(pipeline.finish(), std::runtime_error);
}

}  // namespace
}  // namespace wtam::core
