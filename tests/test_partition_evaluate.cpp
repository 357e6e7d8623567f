#include <gtest/gtest.h>

#include "core/core_assign.hpp"
#include "core/partition_evaluate.hpp"
#include "core/test_time_table.hpp"
#include "partition/partition.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::core {
namespace {

TEST(PartitionEvaluate, StatsPartitionCountsMatchTheory) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 24);
  PartitionEvaluateOptions options;
  options.min_tams = 1;
  options.max_tams = 4;
  const auto result = partition_evaluate(table, 24, options);
  ASSERT_EQ(result.per_b.size(), 4u);
  for (const auto& stats : result.per_b) {
    EXPECT_EQ(stats.partitions_unique,
              partition::count_exact(24, stats.tams));
    EXPECT_EQ(stats.evaluated_to_completion + stats.aborted_by_tau,
              stats.partitions_unique);
  }
}

TEST(PartitionEvaluate, TauPruningSkipsMostPartitions) {
  // The paper's Table-1 claim: only a small fraction of partitions is
  // evaluated to completion.
  const soc::Soc soc = soc::p21241();
  const TestTimeTable table(soc, 40);
  PartitionEvaluateOptions options;
  options.min_tams = 5;
  options.max_tams = 5;
  const auto result = partition_evaluate(table, 40, options);
  const auto& stats = result.per_b.front();
  EXPECT_GT(stats.aborted_by_tau, stats.evaluated_to_completion);
}

TEST(PartitionEvaluate, PruningDoesNotChangeTheResult) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  PartitionEvaluateOptions pruned;
  pruned.max_tams = 4;
  PartitionEvaluateOptions unpruned = pruned;
  unpruned.prune_with_tau = false;
  const auto a = partition_evaluate(table, 32, pruned);
  const auto b = partition_evaluate(table, 32, unpruned);
  EXPECT_EQ(a.best.testing_time, b.best.testing_time);
  EXPECT_EQ(a.best.widths, b.best.widths);
  EXPECT_EQ(a.best_tams, b.best_tams);
}

TEST(PartitionEvaluate, BestIsMinimumOverEvaluations) {
  // Re-evaluating the winning partition reproduces the winning time.
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  const auto result = partition_evaluate(table, 32, {});
  const auto check = core_assign(table, result.best.widths);
  ASSERT_FALSE(check.aborted);
  EXPECT_EQ(check.architecture.testing_time, result.best.testing_time);
}

TEST(PartitionEvaluate, SingleTamDegenerateCase) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  PartitionEvaluateOptions options;
  options.max_tams = 1;
  const auto result = partition_evaluate(table, 16, options);
  EXPECT_EQ(result.best_tams, 1);
  EXPECT_EQ(result.best.widths, (std::vector<int>{16}));
  EXPECT_EQ(result.best.testing_time, table.total_time(16));
}

TEST(PartitionEvaluate, WiderSearchNeverHurts) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  PartitionEvaluateOptions narrow;
  narrow.max_tams = 2;
  PartitionEvaluateOptions wide;
  wide.max_tams = 5;
  EXPECT_LE(partition_evaluate(table, 32, wide).best.testing_time,
            partition_evaluate(table, 32, narrow).best.testing_time);
}

TEST(PartitionEvaluate, MaxTamsAboveWidthIsClamped) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 8);
  PartitionEvaluateOptions options;
  options.max_tams = 20;  // > W = 8
  const auto result = partition_evaluate(table, 8, options);
  EXPECT_LE(result.per_b.size(), 8u);
}

TEST(PartitionEvaluate, CarriedTauMatchesPerBReset) {
  // Carrying tau across B is a strictly stronger prune but must find the
  // same best architecture.
  const soc::Soc soc = soc::p31108();
  const TestTimeTable table(soc, 24);
  PartitionEvaluateOptions reset;
  reset.max_tams = 4;
  PartitionEvaluateOptions carried = reset;
  carried.reset_tau_per_b = false;
  const auto a = partition_evaluate(table, 24, reset);
  const auto b = partition_evaluate(table, 24, carried);
  EXPECT_EQ(a.best.testing_time, b.best.testing_time);
  // And it prunes at least as hard.
  std::uint64_t evaluated_reset = 0;
  std::uint64_t evaluated_carried = 0;
  for (const auto& s : a.per_b) evaluated_reset += s.evaluated_to_completion;
  for (const auto& s : b.per_b) evaluated_carried += s.evaluated_to_completion;
  EXPECT_LE(evaluated_carried, evaluated_reset);
}

TEST(PartitionEvaluate, RejectsBadArguments) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  EXPECT_THROW((void)partition_evaluate(table, 0, {}), std::invalid_argument);
  EXPECT_THROW((void)partition_evaluate(table, 17, {}), std::invalid_argument);
  PartitionEvaluateOptions bad;
  bad.min_tams = 3;
  bad.max_tams = 2;
  EXPECT_THROW((void)partition_evaluate(table, 16, bad), std::invalid_argument);
  // More TAMs than wires: no partition exists, and that is the caller's
  // error, not an empty search.
  PartitionEvaluateOptions too_many;
  too_many.min_tams = 17;
  too_many.max_tams = 17;
  EXPECT_THROW((void)partition_evaluate(table, 16, too_many),
               std::invalid_argument);
}

}  // namespace
}  // namespace wtam::core
