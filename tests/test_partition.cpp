#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "partition/partition.hpp"

namespace wtam::partition {
namespace {

TEST(CountExact, KnownSmallValues) {
  EXPECT_EQ(count_exact(1, 1), 1u);
  EXPECT_EQ(count_exact(5, 1), 1u);
  EXPECT_EQ(count_exact(5, 2), 2u);   // 1+4, 2+3
  EXPECT_EQ(count_exact(10, 4), 9u);
  EXPECT_EQ(count_exact(10, 3), 8u);
  EXPECT_EQ(count_exact(3, 4), 0u);   // more parts than units
}

TEST(CountExact, TwoPartsIsFloorHalf) {
  // The paper notes P(W, 2) = floor(W/2).
  for (int w = 2; w <= 80; ++w)
    EXPECT_EQ(count_exact(w, 2), static_cast<std::uint64_t>(w / 2)) << w;
}

TEST(CountExact, RejectsBadArguments) {
  EXPECT_THROW((void)count_exact(0, 1), std::invalid_argument);
  EXPECT_THROW((void)count_exact(5, 0), std::invalid_argument);
}

TEST(ForEachPartition, VisitsNonDecreasingSumsToTotal) {
  for_each_partition(12, 3, [](std::span<const int> parts) {
    int sum = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      sum += parts[i];
      EXPECT_GE(parts[i], 1);
      if (i > 0) {
        EXPECT_LE(parts[i - 1], parts[i]);
      }
    }
    EXPECT_EQ(sum, 12);
    return true;
  });
}

TEST(ForEachPartition, NoDuplicates) {
  std::set<std::vector<int>> seen;
  const auto count = for_each_partition(20, 5, [&](std::span<const int> parts) {
    EXPECT_TRUE(seen.emplace(parts.begin(), parts.end()).second);
    return true;
  });
  EXPECT_EQ(count, seen.size());
}

TEST(ForEachPartition, EarlyStop) {
  std::uint64_t visited = 0;
  const auto count = for_each_partition(30, 3, [&](std::span<const int>) {
    ++visited;
    return visited < 5;
  });
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(visited, 5u);
}

TEST(ForEachPartition, MorePartsThanUnitsVisitsNothing) {
  EXPECT_EQ(for_each_partition(3, 5, [](std::span<const int>) { return true; }),
            0u);
}

TEST(ForEachPartition, FigureThreeExampleOrder) {
  // For W = 10, B = 4 the first partitions are (1,1,1,7), (1,1,2,6), ...
  std::vector<std::vector<int>> first;
  for_each_partition(10, 4, [&](std::span<const int> parts) {
    first.emplace_back(parts.begin(), parts.end());
    return first.size() < 3;
  });
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], (std::vector<int>{1, 1, 1, 7}));
  EXPECT_EQ(first[1], (std::vector<int>{1, 1, 2, 6}));
  EXPECT_EQ(first[2], (std::vector<int>{1, 1, 3, 5}));
}

/// Enumeration count equals the DP count across the full bench envelope.
class PartitionSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionSweepTest, EnumerationMatchesDpCount) {
  const auto [total, parts] = GetParam();
  const auto enumerated =
      for_each_partition(total, parts, [](std::span<const int>) { return true; });
  EXPECT_EQ(enumerated, count_exact(total, parts));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndTams, PartitionSweepTest,
    ::testing::Combine(::testing::Values(8, 16, 24, 33, 44, 56, 64),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 8)));

TEST(Estimate, MatchesPaperTable1Column) {
  // Table 1 tabulates P(W, B) ~ W^(B-1)/(B!(B-1)!) for B = 6 and B = 8.
  EXPECT_NEAR(estimate(44, 6), 1909.0, 1.0);
  EXPECT_NEAR(estimate(48, 6), 2949.0, 1.0);
  EXPECT_NEAR(estimate(52, 6), 4401.0, 1.0);
  EXPECT_NEAR(estimate(56, 6), 6374.0, 1.0);
  EXPECT_NEAR(estimate(60, 6), 9000.0, 0.5);
  EXPECT_NEAR(estimate(64, 6), 12428.0, 1.0);
  EXPECT_NEAR(estimate(44, 8), 1571.0, 1.0);
  EXPECT_NEAR(estimate(64, 8), 21643.0, 1.5);
}

TEST(Estimate, ApproachesExactForLargeW) {
  // [10]: the asymptotic estimate is accurate for W >> B.
  const double exact = static_cast<double>(count_exact(200, 3));
  EXPECT_NEAR(estimate(200, 3) / exact, 1.0, 0.08);
}

TEST(RestrictedOdometer, UniqueEqualsExactCount) {
  for (const auto& [w, b] : {std::pair{10, 4}, {20, 3}, {24, 5}, {16, 2}}) {
    const OdometerStats stats = restricted_odometer_stats(w, b);
    EXPECT_EQ(stats.unique, count_exact(w, b)) << w << "," << b;
    EXPECT_EQ(stats.duplicates, stats.tuples - stats.unique);
  }
}

TEST(RestrictedOdometer, BoundRuleLeavesSomeDuplicates) {
  // The paper: "a sizeable number of repeated partitions is prevented" —
  // i.e. not all. For W=10, B=4 the odometer still emits e.g. (1,2,1,6).
  const OdometerStats stats = restricted_odometer_stats(10, 4);
  EXPECT_GT(stats.duplicates, 0u);
  // ...but far fewer than unrestricted composition enumeration.
  const ComparisonStats compositions = comparison_filter_stats(10, 4);
  EXPECT_LT(stats.tuples, compositions.compositions);
}

TEST(RestrictedOdometer, SinglePart) {
  const OdometerStats stats = restricted_odometer_stats(7, 1);
  EXPECT_EQ(stats.tuples, 1u);
  EXPECT_EQ(stats.unique, 1u);
}

TEST(ComparisonFilter, CompositionCountIsBinomial) {
  // Compositions of W into B positive parts: C(W-1, B-1).
  const ComparisonStats stats = comparison_filter_stats(10, 3);
  EXPECT_EQ(stats.compositions, 36u);  // C(9,2)
  EXPECT_EQ(stats.unique, count_exact(10, 3));
  EXPECT_GT(stats.stored_bytes, 0u);
}

TEST(ComparisonFilter, MemoryGrowsWithUnique) {
  const auto small = comparison_filter_stats(16, 4);
  const auto large = comparison_filter_stats(40, 4);
  EXPECT_GT(large.stored_bytes, small.stored_bytes);
}

}  // namespace
}  // namespace wtam::partition
