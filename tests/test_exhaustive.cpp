#include <gtest/gtest.h>

#include "core/co_optimizer.hpp"
#include "core/exhaustive.hpp"
#include "core/test_time_table.hpp"
#include "partition/partition.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::core {
namespace {

TEST(Exhaustive, PawFindsTheGlobalOptimumOverPartitions) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  const auto result = exhaustive_paw(table, 16, 2, {});
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.partitions_total, partition::count_exact(16, 2));
  EXPECT_EQ(result.partitions_solved, result.partitions_total);
  // Verify against manual enumeration: solve each partition exactly.
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  partition::for_each_partition(16, 2, [&](std::span<const int> widths) {
    best = std::min(best,
                    solve_assignment_exact(table, widths).architecture.testing_time);
    return true;
  });
  EXPECT_EQ(result.best.testing_time, best);
}

TEST(Exhaustive, NeverWorseThanHeuristicFlow) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 24);
  const auto exhaustive = exhaustive_paw(table, 24, 3, {});
  ASSERT_TRUE(exhaustive.completed);
  const auto heuristic = co_optimize_fixed_b(table, 24, 3, {});
  EXPECT_LE(exhaustive.best.testing_time,
            heuristic.architecture.testing_time);
}

TEST(Exhaustive, PnpawCoversAllTamCounts) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 12);
  const auto result = exhaustive_pnpaw(table, 12, 3, {});
  ASSERT_TRUE(result.completed);
  std::uint64_t expected = 0;
  for (int b = 1; b <= 3; ++b) expected += partition::count_exact(12, b);
  EXPECT_EQ(result.partitions_total, expected);
  // P_NPAW dominates every fixed-B P_PAW answer.
  for (int b = 1; b <= 3; ++b) {
    const auto fixed = exhaustive_paw(table, 12, b, {});
    EXPECT_LE(result.best.testing_time, fixed.best.testing_time);
  }
}

TEST(Exhaustive, ZeroBudgetDoesNotComplete) {
  const soc::Soc soc = soc::p93791();
  const TestTimeTable table(soc, 32);
  ExhaustiveOptions options;
  options.time_budget_s = 0.0;
  const auto result = exhaustive_paw(table, 32, 3, options);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.partitions_solved, result.partitions_total);
}

TEST(Exhaustive, IlpEngineMatchesCombinatorial) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 12);
  ExhaustiveOptions ilp_engine;
  ilp_engine.engine = ExactEngine::Ilp;
  const auto a = exhaustive_paw(table, 12, 2, {});
  const auto b = exhaustive_paw(table, 12, 2, ilp_engine);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.best.testing_time, b.best.testing_time);
}

TEST(Exhaustive, RejectsBadTams) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 8);
  EXPECT_THROW((void)exhaustive_paw(table, 8, 0, {}), std::invalid_argument);
  // More TAMs than wires has no partition: an error, not an empty answer.
  EXPECT_THROW((void)exhaustive_paw(table, 8, 9, {}), std::invalid_argument);
  EXPECT_THROW((void)exhaustive_pnpaw(table, 8, 0, {}), std::invalid_argument);
  EXPECT_THROW((void)exhaustive_pnpaw(table, 0, 3, {}), std::invalid_argument);
}

}  // namespace
}  // namespace wtam::core
