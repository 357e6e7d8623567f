#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/co_optimizer.hpp"
#include "core/power.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::core {
namespace {

class PowerFixture : public ::testing::Test {
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
  static PowerVector power() { return scan_activity_power(soc()); }
};

TEST_F(PowerFixture, ScanActivityModelValues) {
  const PowerVector p = power();
  ASSERT_EQ(p.size(), 10u);
  // c6288: 32+32 I/Os, no scan.
  EXPECT_EQ(p[0], 64);
  // s9234: 36+39 I/Os + 212 scan bits.
  EXPECT_EQ(p[3], 36 + 39 + 212);
}

/// A schedule's power profile: the timeline of its placements.
PowerTimeline profile_of(const pack::PackedSchedule& schedule,
                         const PowerVector& power) {
  PowerTimeline timeline;
  for (const auto& p : schedule.placements)
    timeline.add(p.start, p.end, power[static_cast<std::size_t>(p.core)]);
  return timeline;
}

/// The placements of `schedule` grouped by lane (their wire), each lane
/// in start order.
std::map<int, std::vector<pack::PackedPlacement>> lanes_of(
    const pack::PackedSchedule& schedule) {
  std::map<int, std::vector<pack::PackedPlacement>> lanes;
  for (const auto& p : schedule.placements) lanes[p.wire].push_back(p);
  return lanes;
}

TEST_F(PowerFixture, ProfileStepsAreConsistent) {
  const auto schedule = pack::from_architecture(table(), architecture());
  const auto profile = profile_of(schedule, power()).breakpoints();
  ASSERT_FALSE(profile.empty());
  // Steps are ordered, every step but the closing one draws power, and the
  // profile falls back to zero once the last session ends.
  for (std::size_t i = 0; i + 1 < profile.size(); ++i) {
    EXPECT_LT(profile[i].time, profile[i + 1].time);
    EXPECT_GT(profile[i].load, 0);
  }
  EXPECT_EQ(profile.back().load, 0);
  EXPECT_EQ(profile.back().time, schedule.makespan);
}

TEST_F(PowerFixture, InitialPowerIsSumOfFirstSessions) {
  // At t=0 every TAM starts its first core, so the first step's power is
  // the sum of those cores' powers.
  const auto arch = architecture();
  const auto schedule = pack::from_architecture(table(), arch);
  const auto p = power();
  std::int64_t expected = 0;
  for (const auto& entry : schedule.placements)
    if (entry.start == 0) expected += p[static_cast<std::size_t>(entry.core)];
  const auto profile = profile_of(schedule, p).breakpoints();
  ASSERT_FALSE(profile.empty());
  EXPECT_EQ(profile.front().time, 0);
  EXPECT_EQ(profile.front().load, expected);
}

TEST_F(PowerFixture, PeakBoundsSanity) {
  const auto schedule = pack::from_architecture(table(), architecture());
  const auto p = power();
  const std::int64_t peak = pack::packed_peak_power(schedule, p);
  const std::int64_t total = std::accumulate(p.begin(), p.end(), std::int64_t{0});
  const std::int64_t largest = *std::max_element(p.begin(), p.end());
  EXPECT_GE(peak, largest);  // the largest core is active at some point
  EXPECT_LE(peak, total);
}

TEST_F(PowerFixture, UnlimitedBudgetReproducesUnconstrainedSchedule) {
  const auto arch = architecture();
  const auto p = power();
  const std::int64_t total = std::accumulate(p.begin(), p.end(), std::int64_t{0});
  const auto lanes = pack::from_architecture(table(), arch);
  for (const std::int64_t limit : {total, total + 1, 2 * total}) {
    const auto result = schedule_with_power_limit(table(), arch, p, limit);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.idle_cycles, 0);
    EXPECT_EQ(result.schedule.makespan, arch.testing_time);
    EXPECT_EQ(result.peak, pack::packed_peak_power(lanes, p));
    // Placement for placement the static lanes, undelayed.
    EXPECT_EQ(result.schedule.total_width, lanes.total_width);
    EXPECT_EQ(result.schedule.makespan, lanes.makespan);
    ASSERT_EQ(result.schedule.placements.size(), lanes.placements.size());
    for (std::size_t k = 0; k < lanes.placements.size(); ++k) {
      const auto& got = result.schedule.placements[k];
      const auto& want = lanes.placements[k];
      EXPECT_EQ(got.core, want.core) << "placement " << k;
      EXPECT_EQ(got.width, want.width) << "placement " << k;
      EXPECT_EQ(got.wire, want.wire) << "placement " << k;
      EXPECT_EQ(got.start, want.start) << "placement " << k;
      EXPECT_EQ(got.end, want.end) << "placement " << k;
    }
  }
}

TEST_F(PowerFixture, TightBudgetRespectedAtCostOfTime) {
  const auto arch = architecture();
  const auto p = power();
  const std::int64_t unconstrained_peak =
      pack::packed_peak_power(pack::from_architecture(table(), arch), p);
  const std::int64_t limit = unconstrained_peak - 1;  // force serialization
  const auto result = schedule_with_power_limit(table(), arch, p, limit);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.peak, limit);
  EXPECT_GE(result.schedule.makespan, arch.testing_time);
  EXPECT_GT(result.idle_cycles, 0);
}

TEST_F(PowerFixture, BudgetBelowSingleCoreIsInfeasible) {
  const auto arch = architecture();
  const auto p = power();
  const std::int64_t largest = *std::max_element(p.begin(), p.end());
  const auto result = schedule_with_power_limit(table(), arch, p, largest - 1);
  EXPECT_FALSE(result.feasible);
}

TEST_F(PowerFixture, MinimalBudgetFullySerializes) {
  // Budget == largest single power: sessions can never overlap two large
  // cores; with equality to the max, at least the biggest runs alone.
  const auto arch = architecture();
  const auto p = power();
  const std::int64_t largest = *std::max_element(p.begin(), p.end());
  const auto result = schedule_with_power_limit(table(), arch, p, largest);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.peak, largest);
  // Fully or mostly serialized: makespan approaches the serial sum.
  EXPECT_GT(result.schedule.makespan, arch.testing_time);
}

TEST_F(PowerFixture, ConstrainedScheduleStillRunsEveryCoreOnce) {
  const auto arch = architecture();
  const auto p = power();
  const std::int64_t largest = *std::max_element(p.begin(), p.end());
  const auto result = schedule_with_power_limit(table(), arch, p, largest + 500);
  ASSERT_TRUE(result.feasible);
  std::vector<int> count(static_cast<std::size_t>(table().core_count()), 0);
  for (const auto& entry : result.schedule.placements)
    ++count[static_cast<std::size_t>(entry.core)];
  for (const int c : count) EXPECT_EQ(c, 1);
  // Per-TAM sequences stay disjoint, each on its own static lane.
  const auto lanes = lanes_of(result.schedule);
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(arch.tam_count()));
  for (const auto& [wire, sessions] : lanes) {
    std::int64_t clock = -1;
    for (const auto& entry : sessions) {
      EXPECT_GE(entry.start, clock);
      clock = entry.end;
    }
  }
}

TEST_F(PowerFixture, EveryBudgetYieldsAValidSchedule) {
  const auto arch = architecture();
  ScheduleConstraints constraints;
  constraints.power = power();
  const std::int64_t largest = *std::max_element(constraints.power.begin(),
                                                 constraints.power.end());
  const std::int64_t total = std::accumulate(
      constraints.power.begin(), constraints.power.end(), std::int64_t{0});
  // 24 budgets from the largest draw to the summed draws, both included.
  for (std::int64_t step = 0; step <= 23; ++step) {
    const std::int64_t limit = largest + (total - largest) * step / 23;
    const auto result =
        schedule_with_power_limit(table(), arch, constraints.power, limit);
    ASSERT_TRUE(result.feasible) << "budget " << limit;
    constraints.power_budget = limit;
    const auto issues =
        pack::validate_packed_schedule(table(), result.schedule, constraints);
    EXPECT_TRUE(issues.empty())
        << "budget " << limit << ": " << (issues.empty() ? "" : issues.front());
    EXPECT_EQ(result.peak,
              pack::packed_peak_power(result.schedule, constraints.power));
    // The same lanes, only delayed.
    for (const auto& [wire, sessions] : lanes_of(result.schedule))
      for (const auto& entry : sessions)
        EXPECT_EQ(entry.width, sessions.front().width) << "lane " << wire;
  }
}

TEST_F(PowerFixture, PowerVectorSizeChecked) {
  const auto arch = architecture();
  PowerVector wrong(3, 10);
  EXPECT_THROW(
      (void)schedule_with_power_limit(table(), arch, wrong, 1000),
      std::invalid_argument);
}

TEST_F(PowerFixture, NegativeDrawCheckedUpFront) {
  // Refused before any scheduling: at a budget of 0 every other draw
  // would make the architecture infeasible rather than throw.
  const auto arch = architecture();
  PowerVector negative = power();
  negative[2] = -1;
  for (const std::int64_t limit : {std::int64_t{0}, std::int64_t{1} << 40})
    EXPECT_THROW(
        (void)schedule_with_power_limit(table(), arch, negative, limit),
        std::invalid_argument)
        << "budget " << limit;
}

TEST(PackedPeakPower, ThrowsOnShortPowerVector) {
  pack::PackedSchedule schedule;
  schedule.total_width = 1;
  schedule.placements = pack::PlacementList({{5, 1, 0, 0, 10}});
  schedule.makespan = 10;
  PowerVector p(2, 1);
  EXPECT_THROW((void)pack::packed_peak_power(schedule, p),
               std::invalid_argument);
}

// --- Span-level helpers (the test oracles for core::PowerTimeline) ---

/// Brute force: max over every instant in [start, start + duration) of the
/// sum of covering spans.
std::int64_t brute_peak(const std::vector<PowerSpan>& spans,
                        std::int64_t start, std::int64_t duration) {
  std::int64_t peak = 0;
  for (std::int64_t t = start; t < start + duration; ++t) {
    std::int64_t total = 0;
    for (const auto& span : spans)
      if (span.start <= t && t < span.end) total += span.power;
    peak = std::max(peak, total);
  }
  return peak;
}

TEST(PowerSpans, WindowFitsMatchesPeakDefinition) {
  const std::vector<PowerSpan> spans = {{0, 5, 4}, {3, 8, 2}, {6, 10, 5}};
  for (std::int64_t start = 0; start <= 11; ++start)
    for (std::int64_t duration = 1; duration <= 11; ++duration)
      for (std::int64_t power = 0; power <= 6; ++power)
        for (const std::int64_t budget : {1, 5, 7, 9, 12}) {
          const bool expected =
              brute_peak(spans, start, duration) + power <= budget;
          EXPECT_EQ(power_window_fits(spans, start, duration, power, budget),
                    expected)
              << "window [" << start << ", " << start + duration
              << ") power " << power << " budget " << budget;
        }
}

TEST(PowerSpans, WindowFitsUnconstrainedAndDegenerate) {
  const std::vector<PowerSpan> spans = {{0, 10, 100}};
  // budget <= 0 means unconstrained.
  EXPECT_TRUE(power_window_fits(spans, 0, 10, 1000, 0));
  EXPECT_TRUE(power_window_fits(spans, 0, 10, 1000, -1));
  // The rectangle alone may exceed the budget.
  EXPECT_FALSE(power_window_fits({}, 0, 10, 11, 10));
  // Empty window always fits when the rectangle's own power does.
  EXPECT_TRUE(power_window_fits(spans, 0, 0, 5, 6));
}

TEST(PowerSpans, GlobalPeakSweepLine) {
  EXPECT_EQ(peak_power(std::span<const PowerSpan>{}), 0);
  const std::vector<PowerSpan> spans = {
      {0, 4, 3}, {2, 6, 5}, {5, 9, 2}, {4, 4, 50}, {3, 2, 50}, {1, 7, 0}};
  // Degenerate (empty or reversed) and zero-power spans are ignored;
  // the true peak is 3 + 5 = 8 over [2, 4).
  EXPECT_EQ(peak_power(spans), 8);
  // Half-open: abutting spans never stack.
  const std::vector<PowerSpan> abut = {{0, 5, 4}, {5, 10, 4}};
  EXPECT_EQ(peak_power(abut), 4);
}

}  // namespace
}  // namespace wtam::core
