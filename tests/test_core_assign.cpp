#include <gtest/gtest.h>

#include "core/core_assign.hpp"
#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::core {
namespace {

/// The worked example of Figure 2(a): five cores, TAMs of width 32/16/8.
TestTimeTable figure2_matrix() {
  return TestTimeTable({32, 16, 8}, {
                                        {50, 100, 200},   // core 1
                                        {75, 95, 200},    // core 2
                                        {90, 100, 150},   // core 3
                                        {60, 75, 80},     // core 4
                                        {120, 120, 125},  // core 5
                                    });
}

TEST(CoreAssign, Figure2FinalAssignment) {
  const TestTimeTable matrix = figure2_matrix();
  const std::vector<int> widths = {32, 16, 8};
  const CoreAssignResult result = core_assign(matrix, widths);
  ASSERT_FALSE(result.aborted);
  // Figure 2(b): cores 1..5 -> TAMs 2, 3, 2, 1, 1 (1-based).
  EXPECT_EQ(result.architecture.assignment, (std::vector<int>{1, 2, 1, 0, 0}));
  // "The testing times on TAMs 1, 2, and 3 are 180, 200, and 200."
  EXPECT_EQ(result.architecture.tam_times, (std::vector<std::int64_t>{180, 200, 200}));
  EXPECT_EQ(result.architecture.testing_time, 200);
}

TEST(CoreAssign, Figure2CoreTieBreakUsesNextNarrowerTam) {
  // Disabling the rule flips the Core-1-vs-Core-3 choice on TAM 2: the tie
  // then resolves to the lowest index (core 1 as well) — so instead verify
  // the rule on a matrix where it changes the outcome.
  const TestTimeTable matrix({16, 8}, {
                                          {100, 150},  // core 0
                                          {100, 200},  // core 1
                                      });
  const std::vector<int> widths = {16, 8};
  CoreAssignOptions with_rule;
  const auto a = core_assign(matrix, widths, with_rule);
  // Tie on TAM 1 (both 100); core 1 is slower on the 8-bit TAM, so it is
  // assigned first to the 16-bit TAM; core 0 then goes to the 8-bit TAM.
  EXPECT_EQ(a.architecture.assignment, (std::vector<int>{1, 0}));

  CoreAssignOptions without_rule;
  without_rule.next_tam_core_tiebreak = false;
  const auto b = core_assign(matrix, widths, without_rule);
  EXPECT_EQ(b.architecture.assignment, (std::vector<int>{0, 1}));
  // The rule strictly helps here.
  EXPECT_LT(a.architecture.testing_time, b.architecture.testing_time);
}

TEST(CoreAssign, WidestTamTieBreak) {
  // Both TAMs empty; the wider one must be seeded first.
  const TestTimeTable matrix({16, 8}, {{10, 30}});
  const std::vector<int> widths = {8, 16};  // deliberately narrow-first
  const auto result = core_assign(matrix, widths);
  EXPECT_EQ(result.architecture.assignment, (std::vector<int>{1}));
}

TEST(CoreAssign, SingleTamAccumulatesAll) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  const std::vector<int> widths = {32};
  const auto result = core_assign(table, widths);
  EXPECT_EQ(result.architecture.testing_time, table.total_time(32));
}

TEST(CoreAssign, EarlyAbortWhenBestKnownReached) {
  const TestTimeTable matrix = figure2_matrix();
  const std::vector<int> widths = {32, 16, 8};
  CoreAssignOptions options;
  options.best_known = 150;  // below the achievable 200
  const auto result = core_assign(matrix, widths, options);
  EXPECT_TRUE(result.aborted);
  EXPECT_GE(result.architecture.testing_time, 150);
}

TEST(CoreAssign, NoAbortWhenBestKnownHigh) {
  const TestTimeTable matrix = figure2_matrix();
  const std::vector<int> widths = {32, 16, 8};
  CoreAssignOptions options;
  options.best_known = 201;
  const auto result = core_assign(matrix, widths, options);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.architecture.testing_time, 200);
}

TEST(CoreAssign, AbortAtExactEquality) {
  // Lines 18-20 use >=: reaching tau exactly aborts too.
  const TestTimeTable matrix = figure2_matrix();
  const std::vector<int> widths = {32, 16, 8};
  CoreAssignOptions options;
  options.best_known = 200;
  EXPECT_TRUE(core_assign(matrix, widths, options).aborted);
}

TEST(CoreAssign, EveryCoreAssignedExactlyOnce) {
  const soc::Soc soc = soc::p21241();
  const TestTimeTable table(soc, 32);
  const std::vector<int> widths = {10, 10, 12};
  const auto result = core_assign(table, widths);
  ASSERT_FALSE(result.aborted);
  std::vector<std::int64_t> recomputed(widths.size(), 0);
  for (int i = 0; i < table.core_count(); ++i) {
    const int j = result.architecture.assignment[static_cast<std::size_t>(i)];
    ASSERT_GE(j, 0);
    ASSERT_LT(j, 3);
    recomputed[static_cast<std::size_t>(j)] +=
        table.time(i, widths[static_cast<std::size_t>(j)]);
  }
  EXPECT_EQ(recomputed, result.architecture.tam_times);
}

TEST(CoreAssign, LargestCoreGoesToWidestTamFirst) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  const std::vector<int> widths = {32, 16, 8};
  const auto result = core_assign(table, widths);
  // The first selection happens on the empty, widest TAM (32) and takes the
  // core with the largest T(32): s13207 (index 5).
  EXPECT_EQ(result.architecture.assignment[5], 0);
}

TEST(CoreAssign, RejectsBadWidths) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  EXPECT_THROW((void)core_assign(table, std::vector<int>{}),
               std::invalid_argument);
  EXPECT_THROW((void)core_assign(table, std::vector<int>{0}),
               std::invalid_argument);
  EXPECT_THROW((void)core_assign(table, std::vector<int>{17}),
               std::invalid_argument);
}

TEST(FormatHelpers, PartitionAndAssignmentNotation) {
  EXPECT_EQ(format_partition(std::vector<int>{5, 5, 6}), "5+5+6");
  EXPECT_EQ(format_partition(std::vector<int>{16}), "16");
  // [5]-style vector: entries are 1-based TAM numbers.
  EXPECT_EQ(format_assignment(std::vector<int>{1, 2, 1, 0, 0}), "(2,3,2,1,1)");
}

TEST(TamArchitecture, Accessors) {
  TamArchitecture arch;
  arch.widths = {8, 16};
  EXPECT_EQ(arch.tam_count(), 2);
  EXPECT_EQ(arch.total_width(), 24);
}

}  // namespace
}  // namespace wtam::core
