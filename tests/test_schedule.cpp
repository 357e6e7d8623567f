#include <gtest/gtest.h>

#include "core/co_optimizer.hpp"
#include "core/schedule.hpp"
#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"
#include "wrapper/wrapper.hpp"

namespace wtam::core {
namespace {

class ScheduleFixture : public ::testing::Test {
 protected:
  static const soc::Soc& soc() {
    static const soc::Soc soc = soc::d695();
    return soc;
  }
  static const TestTimeTable& table() {
    static const TestTimeTable table(soc(), 32);
    return table;
  }
  static TamArchitecture architecture() {
    return co_optimize_fixed_b(table(), 32, 3, {}).architecture;
  }
};

TEST_F(ScheduleFixture, MakespanEqualsArchitectureTestingTime) {
  const TamArchitecture arch = architecture();
  const TestSchedule schedule = build_schedule(table(), arch);
  EXPECT_EQ(schedule.makespan, arch.testing_time);
  EXPECT_EQ(schedule.tam_finish, arch.tam_times);
}

TEST_F(ScheduleFixture, EveryCoreScheduledExactlyOnce) {
  const TestSchedule schedule = build_schedule(table(), architecture());
  std::vector<int> count(static_cast<std::size_t>(table().core_count()), 0);
  for (const auto& entry : schedule.entries)
    ++count[static_cast<std::size_t>(entry.core)];
  for (const int c : count) EXPECT_EQ(c, 1);
}

TEST_F(ScheduleFixture, SessionsOnATamAreContiguousAndDisjoint) {
  const TamArchitecture arch = architecture();
  const TestSchedule schedule = build_schedule(table(), arch);
  for (int tam = 0; tam < arch.tam_count(); ++tam) {
    std::int64_t clock = 0;
    for (const auto& entry : schedule.entries) {
      if (entry.tam != tam) continue;
      EXPECT_EQ(entry.start, clock);  // back to back, no gaps
      EXPECT_GE(entry.end, entry.start);
      clock = entry.end;
    }
    EXPECT_EQ(clock, schedule.tam_finish[static_cast<std::size_t>(tam)]);
  }
}

TEST_F(ScheduleFixture, SessionDurationsMatchTable) {
  const TamArchitecture arch = architecture();
  const TestSchedule schedule = build_schedule(table(), arch);
  for (const auto& entry : schedule.entries) {
    const int width = arch.widths[static_cast<std::size_t>(entry.tam)];
    EXPECT_EQ(entry.end - entry.start, table().time(entry.core, width));
  }
}

TEST_F(ScheduleFixture, OrderPoliciesPreserveMakespan) {
  // Test-bus model: per-TAM order cannot change completion times.
  const TamArchitecture arch = architecture();
  const auto a = build_schedule(table(), arch, ScheduleOrder::AsAssigned);
  const auto b = build_schedule(table(), arch, ScheduleOrder::LongestFirst);
  const auto c = build_schedule(table(), arch, ScheduleOrder::ShortestFirst);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.makespan, c.makespan);
}

TEST_F(ScheduleFixture, LongestFirstOrdering) {
  const TamArchitecture arch = architecture();
  const auto schedule = build_schedule(table(), arch, ScheduleOrder::LongestFirst);
  for (int tam = 0; tam < arch.tam_count(); ++tam) {
    std::int64_t previous = std::numeric_limits<std::int64_t>::max();
    for (const auto& entry : schedule.entries) {
      if (entry.tam != tam) continue;
      const std::int64_t duration = entry.end - entry.start;
      EXPECT_LE(duration, previous);
      previous = duration;
    }
  }
}

TEST_F(ScheduleFixture, RejectsMalformedArchitecture) {
  TamArchitecture arch = architecture();
  arch.assignment[0] = 99;
  EXPECT_THROW((void)build_schedule(table(), arch), std::invalid_argument);
  TamArchitecture empty;
  EXPECT_THROW((void)build_schedule(table(), empty), std::invalid_argument);
  TamArchitecture short_assignment = architecture();
  short_assignment.assignment.pop_back();
  EXPECT_THROW((void)build_schedule(table(), short_assignment),
               std::invalid_argument);
}

TEST_F(ScheduleFixture, WireUtilizationBounds) {
  const TamArchitecture arch = architecture();
  const auto report = wire_utilization(table(), arch);
  ASSERT_EQ(report.size(), static_cast<std::size_t>(arch.tam_count()));
  for (const auto& u : report) {
    EXPECT_GE(u.max_used_width, 0);
    EXPECT_LE(u.max_used_width, u.width);
    EXPECT_EQ(u.idle_wires, u.width - u.max_used_width);
    EXPECT_GE(u.time_weighted_utilization, 0.0);
    EXPECT_LE(u.time_weighted_utilization, 1.0 + 1e-9);
  }
}

TEST_F(ScheduleFixture, UsedWidthMatchesWrapperDesigns) {
  const TamArchitecture arch = architecture();
  const auto report = wire_utilization(table(), arch);
  for (int tam = 0; tam < arch.tam_count(); ++tam) {
    int expected_max = 0;
    for (int i = 0; i < table().core_count(); ++i) {
      if (arch.assignment[static_cast<std::size_t>(i)] != tam) continue;
      const int w = arch.widths[static_cast<std::size_t>(tam)];
      const auto design =
          wrapper::best_design(soc().cores[static_cast<std::size_t>(i)], w);
      expected_max = std::max(expected_max, design.tam_width);
    }
    EXPECT_EQ(report[static_cast<std::size_t>(tam)].max_used_width, expected_max);
  }
}

TEST_F(ScheduleFixture, GanttRendersAllTams) {
  const TamArchitecture arch = architecture();
  const auto schedule = build_schedule(table(), arch);
  const std::string gantt = render_gantt(schedule, soc(), 40);
  for (int tam = 1; tam <= arch.tam_count(); ++tam)
    EXPECT_NE(gantt.find("TAM " + std::to_string(tam)), std::string::npos);
  EXPECT_NE(gantt.find("legend:"), std::string::npos);
  EXPECT_NE(gantt.find("c6288"), std::string::npos);
}

TEST(Schedule, EmptyGantt) {
  TestSchedule schedule;
  soc::Soc soc = soc::d695();
  EXPECT_EQ(render_gantt(schedule, soc), "(empty schedule)\n");
}

}  // namespace
}  // namespace wtam::core
