#include <gtest/gtest.h>

#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"
#include "wrapper/wrapper.hpp"

namespace wtam::core {
namespace {

TEST(TestTimeTable, RejectsBadWidth) {
  const soc::Soc soc = soc::d695();
  EXPECT_THROW((void)TestTimeTable(soc, 0), std::invalid_argument);
}

TEST(TestTimeTable, MonotoneNonIncreasingPerCore) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 64);
  for (int i = 0; i < table.core_count(); ++i)
    for (int w = 2; w <= 64; ++w)
      EXPECT_LE(table.time(i, w), table.time(i, w - 1))
          << soc.cores[static_cast<std::size_t>(i)].name << " w=" << w;
}

TEST(TestTimeTable, MatchesBestDesign) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 48);
  for (int i = 0; i < table.core_count(); ++i) {
    for (int w : {1, 3, 8, 17, 48}) {
      EXPECT_EQ(table.time(i, w),
                wrapper::best_design(soc.cores[static_cast<std::size_t>(i)], w)
                    .test_time);
    }
  }
}

TEST(TestTimeTable, IndexChecks) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  EXPECT_THROW((void)table.time(-1, 4), std::out_of_range);
  EXPECT_THROW((void)table.time(10, 4), std::out_of_range);
  EXPECT_THROW((void)table.time(0, 0), std::out_of_range);
  EXPECT_THROW((void)table.time(0, 17), std::out_of_range);
}

TEST(TestTimeTable, TotalTimeIsColumnSum) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  std::int64_t expected = 0;
  for (int i = 0; i < table.core_count(); ++i) expected += table.time(i, 8);
  EXPECT_EQ(table.total_time(8), expected);
}

TEST(TestTimeTable, RowsAreTheTimesCoreMajor) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 24);
  for (int i = 0; i < table.core_count(); ++i) {
    const auto row = table.row(i);
    ASSERT_EQ(row.size(), 24u);
    for (int w = 1; w <= 24; ++w)
      EXPECT_EQ(row[static_cast<std::size_t>(w - 1)], table.time(i, w));
  }
}

TEST(TestTimeTable, HandGivenLooksUpByWidth) {
  const TestTimeTable table({8, 16, 32}, {{200, 100, 50}, {200, 95, 75}});
  EXPECT_EQ(table.core_count(), 2);
  EXPECT_EQ(table.max_width(), 32);
  EXPECT_EQ(table.time(0, 16), 100);
  EXPECT_EQ(table.time(1, 8), 200);
  EXPECT_EQ(table.total_time(16), 195);
  EXPECT_EQ(table.row(1)[15], 95);
}

TEST(TestTimeTable, HandGivenRejectsAbsentWidthAndBadCore) {
  const TestTimeTable table({8, 16}, {{3, 1}});
  EXPECT_THROW((void)table.time(0, 17), std::out_of_range);
  EXPECT_THROW((void)table.time(0, 12), std::out_of_range);  // not given
  EXPECT_THROW((void)table.time(1, 8), std::out_of_range);
  EXPECT_LT(table.row(0)[11], 0);
}

TEST(TestTimeTable, HandGivenRejectsMalformedConstruction) {
  EXPECT_THROW(TestTimeTable(std::vector<int>{}, {{}}), std::invalid_argument);
  EXPECT_THROW(TestTimeTable({4}, {}), std::invalid_argument);
  EXPECT_THROW(TestTimeTable({4, 4}, {{1, 2}}), std::invalid_argument);
  EXPECT_THROW(TestTimeTable({0}, {{1}}), std::invalid_argument);
  EXPECT_THROW(TestTimeTable({4, 8}, {{1}}), std::invalid_argument);
  EXPECT_THROW(TestTimeTable({4}, {{-1}}), std::invalid_argument);
}

TEST(TestTimeTable, RequireWidthsNamesTheCaller) {
  const TestTimeTable table({8, 16}, {{3, 1}});
  EXPECT_NO_THROW(table.require_widths(std::vector<int>{16, 8, 8}, "here"));
  for (const auto& widths :
       {std::vector<int>{}, {0}, {12}, {8, 17}}) {
    try {
      table.require_widths(widths, "here");
      ADD_FAILURE() << "no throw for " << widths.size() << " widths";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("here: ", 0), 0u);
    }
  }
}

}  // namespace
}  // namespace wtam::core
