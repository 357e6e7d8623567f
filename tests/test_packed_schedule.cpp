#include <gtest/gtest.h>

#include <algorithm>

#include "core/co_optimizer.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::pack {
namespace {

/// A tiny hand-valid schedule on d695 at W=8: every core full-width,
/// strictly sequential (one placement at a time can never overlap).
PackedSchedule sequential_schedule(const core::TestTimeTable& table,
                                   int width) {
  PackedSchedule schedule;
  schedule.total_width = width;
  std::vector<PackedPlacement> placements;
  std::int64_t clock = 0;
  for (int i = 0; i < table.core_count(); ++i) {
    const std::int64_t duration = table.time(i, width);
    placements.push_back({i, width, 0, clock, clock + duration});
    clock += duration;
  }
  schedule.placements = PlacementList(std::move(placements));
  schedule.makespan = clock;
  return schedule;
}

/// `schedule` with a new placement list: a copy of its own, changed by
/// `edit`. The list `schedule` holds is never changed.
template <typename Edit>
PackedSchedule with_placements(PackedSchedule schedule, Edit edit) {
  std::vector<PackedPlacement> placements = schedule.placements.to_vector();
  edit(placements);
  schedule.placements = PlacementList(std::move(placements));
  return schedule;
}

TEST(PackedSchedule, CopiesShareOneImmutablePlacementList) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 8);
  const PackedSchedule schedule = sequential_schedule(table, 8);
  const std::vector<PackedSchedule> copies(2, schedule);
  for (const PackedSchedule& copy : copies) {
    EXPECT_EQ(copy.placements.data(), schedule.placements.data());
    EXPECT_EQ(copy.placements.size(), schedule.placements.size());
  }

  // An edit builds a new list and leaves the shared one as it was.
  const std::int64_t start = schedule.placements[0].start;
  const PackedSchedule edited = with_placements(
      schedule, [](std::vector<PackedPlacement>& p) { p[0].start += 1; });
  EXPECT_NE(edited.placements.data(), schedule.placements.data());
  EXPECT_EQ(edited.placements[0].start, start + 1);
  EXPECT_EQ(schedule.placements[0].start, start);

  const PlacementList none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_TRUE(none.to_vector().empty());
}

TEST(PackedSchedule, SequentialScheduleValidates) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 8);
  const auto schedule = sequential_schedule(table, 8);
  EXPECT_TRUE(validate_packed_schedule(table, schedule).empty());
  EXPECT_NEAR(strip_utilization(schedule), 1.0, 1e-12);
}

TEST(PackedSchedule, ValidatorCatchesEveryCorruption) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 8);
  const auto good = sequential_schedule(table, 8);

  {  // overlap in wires and time
    const auto bad = with_placements(good, [&](auto& p) {
      p[1].start = p[0].start;
      p[1].end = p[1].start + table.time(1, p[1].width);
    });
    const auto issues = validate_packed_schedule(table, bad);
    EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& m) {
      return m.find("overlap") != std::string::npos;
    })) << "issues: " << issues.size();
  }
  {  // wire interval escaping the strip
    const auto bad = with_placements(good, [](auto& p) { p[0].wire = 1; });
    EXPECT_FALSE(validate_packed_schedule(table, bad).empty());
  }
  {  // dishonest duration
    const auto bad = with_placements(good, [](auto& p) { p[0].end -= 1; });
    EXPECT_FALSE(validate_packed_schedule(table, bad).empty());
  }
  {  // missing core / duplicated core
    const auto bad =
        with_placements(good, [](auto& p) { p[0].core = p[1].core; });
    const auto issues = validate_packed_schedule(table, bad);
    EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& m) {
      return m.find("never placed") != std::string::npos;
    }));
    EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& m) {
      return m.find("placed 2 times") != std::string::npos;
    }));
  }
  {  // lying makespan
    auto bad = good;
    bad.makespan -= 1;
    EXPECT_FALSE(validate_packed_schedule(table, bad).empty());
  }
  {  // width outside the table's range
    auto bad = good;
    bad.total_width = 9;
    EXPECT_FALSE(validate_packed_schedule(table, bad).empty());
  }
  {  // placement width beyond the table's range must not throw
    const auto bad = with_placements(good, [](auto& p) { p[0].width = 300; });
    const auto issues = validate_packed_schedule(table, bad);
    EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& m) {
      return m.find("width outside the table's range") != std::string::npos;
    }));
  }
}

TEST(PackedSchedule, FromArchitectureMatchesTestBusSemantics) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  const auto arch = core::co_optimize(table, 24, {}).architecture;
  const auto schedule = from_architecture(table, arch);

  EXPECT_TRUE(validate_packed_schedule(table, schedule).empty());
  EXPECT_EQ(schedule.makespan, arch.testing_time);
  EXPECT_EQ(schedule.total_width, 24);
  ASSERT_EQ(static_cast<int>(schedule.placements.size()), table.core_count());

  // Every placement sits inside its TAM's static wire lane at the TAM's
  // width, and a lane runs its cores back to back from cycle 0 in
  // core-index order, ending at the TAM's summed time.
  std::vector<int> lane_start(arch.widths.size(), 0);
  for (std::size_t t = 1; t < arch.widths.size(); ++t)
    lane_start[t] = lane_start[t - 1] + arch.widths[t - 1];
  std::vector<std::int64_t> clock(arch.widths.size(), 0);
  std::vector<int> previous_core(arch.widths.size(), -1);
  for (const auto& p : schedule.placements) {
    const auto tam = static_cast<std::size_t>(
        arch.assignment[static_cast<std::size_t>(p.core)]);
    EXPECT_EQ(p.width, arch.widths[tam]);
    EXPECT_EQ(p.wire, lane_start[tam]);
    EXPECT_EQ(p.start, clock[tam]);
    EXPECT_GT(p.core, previous_core[tam]);
    clock[tam] = p.end;
    previous_core[tam] = p.core;
  }
  EXPECT_EQ(clock, arch.tam_times);
}

/// d695 at W = 24 and the architecture co_optimize chooses there.
struct D695At24 {
  soc::Soc soc_data = soc::d695();
  core::TestTimeTable table{soc_data, 24};
  core::TamArchitecture arch = core::co_optimize(table, 24, {}).architecture;
};

TEST(PackedSchedule, FromArchitectureGanttShowsEveryLaneAndCore) {
  const D695At24 d695;
  const std::string gantt = render_packed_gantt(
      from_architecture(d695.table, d695.arch), d695.soc_data, 40);
  // Each lane's wires carry one sequence, so they collapse to one row.
  int lane_start = 0;
  for (const int width : d695.arch.widths) {
    EXPECT_NE(gantt.find("wires " + std::to_string(lane_start + 1) + "-" +
                         std::to_string(lane_start + width) + "\t"),
              std::string::npos)
        << gantt;
    lane_start += width;
  }
  for (const auto& core : d695.soc_data.cores)
    EXPECT_NE(gantt.find("=" + core.name), std::string::npos) << core.name;
}

TEST(PackedSchedule, FromArchitectureRejectsNoTams) {
  const D695At24 d695;
  core::TamArchitecture empty;
  empty.assignment = d695.arch.assignment;
  EXPECT_THROW((void)from_architecture(d695.table, empty),
               std::invalid_argument);
}

TEST(PackedSchedule, FromArchitectureRejectsAnAssignmentOfTheWrongSize) {
  const D695At24 d695;
  core::TamArchitecture short_assignment = d695.arch;
  short_assignment.assignment.resize(3);
  EXPECT_THROW((void)from_architecture(d695.table, short_assignment),
               std::invalid_argument);
  core::TamArchitecture long_assignment = d695.arch;
  long_assignment.assignment.push_back(0);
  EXPECT_THROW((void)from_architecture(d695.table, long_assignment),
               std::invalid_argument);
}

TEST(PackedSchedule, FromArchitectureRejectsAWidthOutsideTheTable) {
  const D695At24 d695;
  for (const int width : {0, 25}) {
    core::TamArchitecture bad = d695.arch;
    bad.widths.front() = width;
    EXPECT_THROW((void)from_architecture(d695.table, bad),
                 std::invalid_argument)
        << "width " << width;
  }
}

TEST(PackedSchedule, FromArchitectureRejectsATamIndexOutOfRange) {
  const D695At24 d695;
  for (const int tam : {-1, d695.arch.tam_count()}) {
    core::TamArchitecture bad = d695.arch;
    bad.assignment.back() = tam;
    EXPECT_THROW((void)from_architecture(d695.table, bad),
                 std::invalid_argument)
        << "TAM " << tam;
  }
}

TEST(PackedSchedule, ConstraintValidatorCorruptionMatrix) {
  // A valid constrained schedule; corrupting any single constraint class
  // must flip the validator's verdict to invalid, with a violation
  // message naming that class. (Acceptance: ISSUE 5.)
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 8);
  const auto good = sequential_schedule(table, 8);  // one core at a time

  // A constraint set the sequential schedule satisfies (full-width
  // placements touch every wire, so no forbidden interval can hold).
  core::ScheduleConstraints constraints;
  constraints.power.assign(static_cast<std::size_t>(table.core_count()), 7);
  constraints.power_budget = 7;  // sequential = exactly one core running
  constraints.precedence = {{0, 1}, {1, 2}};
  constraints.fixed = {{3, {0, 8}}};
  constraints.earliest = {{0, 0}};
  ASSERT_TRUE(
      validate_packed_schedule(table, good, constraints).empty());
  // Empty constraints reduce to the geometric validator exactly.
  ASSERT_TRUE(
      validate_packed_schedule(table, good, core::ScheduleConstraints{})
          .empty());

  const auto first_issue_containing =
      [&](const core::ScheduleConstraints& corrupted, const char* needle) {
        const auto issues =
            validate_packed_schedule(table, good, corrupted);
        return std::any_of(issues.begin(), issues.end(),
                           [&](const std::string& issue) {
                             return issue.find(needle) != std::string::npos;
                           });
      };

  {  // power: tighten the budget below the (sequential) peak
    auto corrupted = constraints;
    corrupted.power_budget = 6;
    EXPECT_TRUE(first_issue_containing(corrupted, "exceeds the budget"));
  }
  {  // precedence: demand the reverse order of two sequential cores
    auto corrupted = constraints;
    corrupted.precedence.push_back({2, 1});
    EXPECT_TRUE(first_issue_containing(corrupted, "precedence"));
  }
  {  // fixed: shrink core 3's window below its full-width placement
    auto corrupted = constraints;
    corrupted.fixed = {{3, {0, 4}}};
    EXPECT_TRUE(first_issue_containing(corrupted, "fixed interval"));
  }
  {  // forbidden: outlaw a wire every full-width placement touches
    auto corrupted = constraints;
    corrupted.forbidden = {{4, {7, 8}}};
    EXPECT_TRUE(first_issue_containing(corrupted, "forbidden interval"));
  }
  {  // earliest_start: core 0 starts at 0, demand 1
    auto corrupted = constraints;
    corrupted.earliest = {{0, 1}};
    EXPECT_TRUE(first_issue_containing(corrupted, "earliest_start"));
  }
  {  // malformed constraints can never validate a schedule
    auto corrupted = constraints;
    corrupted.precedence.push_back({1, 0});  // closes a cycle
    EXPECT_TRUE(first_issue_containing(corrupted, "cycle"));
  }
  {  // an unknown core index is reported, never thrown, even with power
    const auto bad = with_placements(
        good, [&](auto& p) { p[0].core = table.core_count(); });
    std::vector<std::string> issues;
    EXPECT_NO_THROW(issues =
                        validate_packed_schedule(table, bad, constraints));
    EXPECT_TRUE(std::any_of(issues.begin(), issues.end(),
                            [](const std::string& issue) {
                              return issue.find("unknown core") !=
                                     std::string::npos;
                            }));
  }
}

TEST(PackedSchedule, PackedPeakPowerSweepsExactly) {
  PackedSchedule schedule;
  schedule.total_width = 4;
  schedule.placements =
      PlacementList({{0, 2, 0, 0, 10},     // power 5 over [0,10)
                     {1, 2, 2, 5, 15},     // power 3 over [5,15)
                     {2, 4, 0, 20, 30}});  // power 9 over [20,30)
  schedule.makespan = 30;
  const core::PowerVector power = {5, 3, 9};
  EXPECT_EQ(packed_peak_power(schedule, power), 9);  // overlap 8, solo 9
  EXPECT_EQ(packed_peak_power(PackedSchedule{}, power), 0);
  const core::PowerVector short_power = {5};
  EXPECT_THROW((void)packed_peak_power(schedule, short_power),
               std::invalid_argument);
}

TEST(PackedSchedule, GanttRendersAndCollapsesWireRuns) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 8);
  const auto schedule = sequential_schedule(table, 8);
  const std::string gantt =
      render_packed_gantt(schedule, soc::d695(), 40);
  // All 8 wires carry the same sequence, so they collapse to one row.
  EXPECT_NE(gantt.find("wires 1-8"), std::string::npos);
  EXPECT_NE(gantt.find("legend:"), std::string::npos);
  EXPECT_NE(gantt.find("makespan"), std::string::npos);

  PackedSchedule empty;
  empty.total_width = 8;
  EXPECT_EQ(render_packed_gantt(empty, soc::d695(), 40), "(empty schedule)\n");
}

}  // namespace
}  // namespace wtam::pack
