// Differential tests for core::PowerTimeline against the flat-span
// helpers it replaced on the constrained-packing hot path (ISSUE-10).
// The timeline must compute exactly the same profile function — the
// packers' determinism pins (golden testing times, parallel/serial
// bit-identity) rest on this equivalence — so every query is checked
// against a brute-force span-scan oracle over seeded random histories,
// including the old candidate-probing earliest-feasible-start algorithm
// and boundary cases exactly at the budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/power.hpp"

namespace wtam::core {
namespace {

/// The pre-timeline algorithm, verbatim in spirit: probe `from` plus
/// every span end after it, in sorted order, and return the first
/// power-feasible start (falling back to the profile horizon).
std::int64_t oracle_earliest_fit(const std::vector<PowerSpan>& spans,
                                 std::int64_t from, std::int64_t duration,
                                 std::int64_t power, std::int64_t budget) {
  if (budget <= 0 || spans.empty()) return from;
  std::vector<std::int64_t> candidates;
  candidates.push_back(from);
  for (const PowerSpan& span : spans)
    if (span.end > from) candidates.push_back(span.end);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const std::int64_t start : candidates)
    if (power_window_fits(spans, start, duration, power, budget)) return start;
  std::int64_t horizon = from;
  for (const PowerSpan& span : spans) horizon = std::max(horizon, span.end);
  return horizon;
}

void check_invariants(const PowerTimeline& timeline) {
  const auto& points = timeline.breakpoints();
  for (std::size_t i = 1; i < points.size(); ++i) {
    ASSERT_LT(points[i - 1].time, points[i].time) << "times must increase";
    ASSERT_NE(points[i - 1].load, points[i].load)
        << "adjacent equal loads must be coalesced (index " << i << ")";
  }
  if (!points.empty()) {
    ASSERT_NE(points.front().load, 0)
        << "a leading zero-load breakpoint is redundant";
    ASSERT_EQ(points.back().load, 0) << "every span ends, so the tail is 0";
  }
}

TEST(PowerTimeline, EmptyTimelineAnswersLikeEmptySpanList) {
  PowerTimeline timeline;
  EXPECT_TRUE(timeline.empty());
  EXPECT_EQ(timeline.peak(), 0);
  EXPECT_TRUE(timeline.window_fits(5, 10, 3, 4));
  EXPECT_FALSE(timeline.window_fits(5, 10, 5, 4));  // own draw over budget
  EXPECT_EQ(timeline.earliest_fit(7, 10, 3, 4), 7);
}

TEST(PowerTimeline, IgnoresEmptySpansAndZeroPower) {
  PowerTimeline timeline;
  timeline.add(5, 5, 3);   // empty interval
  timeline.add(9, 4, 3);   // inverted interval
  timeline.add(0, 10, 0);  // zero draw
  EXPECT_TRUE(timeline.empty());
  EXPECT_THROW(timeline.add(0, 10, -1), std::invalid_argument);
}

TEST(PowerTimeline, CoalescesAdjacentEqualLoads) {
  PowerTimeline timeline;
  // Two abutting spans of equal draw: one plateau, two breakpoints.
  timeline.add(0, 10, 4);
  timeline.add(10, 20, 4);
  ASSERT_EQ(timeline.breakpoints().size(), 2u);
  EXPECT_EQ(timeline.breakpoints()[0].time, 0);
  EXPECT_EQ(timeline.breakpoints()[0].load, 4);
  EXPECT_EQ(timeline.breakpoints()[1].time, 20);
  EXPECT_EQ(timeline.breakpoints()[1].load, 0);
  // Filling a notch between two equal shoulders melts all interior
  // breakpoints into one plateau.
  PowerTimeline notch;
  notch.add(0, 30, 2);
  notch.add(0, 10, 3);
  notch.add(20, 30, 3);
  notch.add(10, 20, 3);
  ASSERT_EQ(notch.breakpoints().size(), 2u);
  EXPECT_EQ(notch.breakpoints()[0].load, 5);
  check_invariants(notch);
}

TEST(PowerTimeline, ExactBudgetBoundaries) {
  PowerTimeline timeline;
  timeline.add(10, 20, 6);
  // 6 + 4 == 10: exactly at the budget fits; one unit more does not.
  EXPECT_TRUE(timeline.window_fits(10, 10, 4, 10));
  EXPECT_FALSE(timeline.window_fits(10, 10, 5, 10));
  EXPECT_FALSE(timeline.window_fits(10, 10, 4, 9));
  // A window abutting the busy interval on either side never sees it
  // (half-open spans).
  EXPECT_TRUE(timeline.window_fits(0, 10, 4, 4));
  EXPECT_TRUE(timeline.window_fits(20, 10, 4, 4));
  // earliest_fit lands exactly on the drop breakpoint ([0, 10) would
  // abut the busy span and fit immediately, so overlap it).
  EXPECT_EQ(timeline.earliest_fit(5, 10, 5, 10), 20);
  EXPECT_EQ(timeline.earliest_fit(5, 10, 4, 10), 5);
  // budget <= 0 means unconstrained.
  EXPECT_TRUE(timeline.window_fits(10, 10, 100, 0));
  EXPECT_EQ(timeline.earliest_fit(3, 10, 100, 0), 3);
}

TEST(PowerTimeline, RandomizedDifferentialAgainstSpanOracle) {
  for (const std::uint64_t seed : {7u, 19u, 101u, 4242u}) {
    common::Rng rng(seed);
    PowerTimeline timeline;
    std::vector<PowerSpan> spans;
    for (int step = 0; step < 400; ++step) {
      // Mostly place, sometimes query-only; tight ranges force overlap,
      // abutment, and shared endpoints.
      const std::int64_t start = rng.uniform_int(0, 60);
      const std::int64_t length = rng.uniform_int(0, 12);
      const std::int64_t power = rng.uniform_int(0, 5);
      if (rng.uniform_int(0, 3) != 0) {
        timeline.add(start, start + length, power);
        if (length > 0 && power > 0)
          spans.push_back({start, start + length, power});
        ASSERT_NO_FATAL_FAILURE(check_invariants(timeline));
        ASSERT_EQ(timeline.peak(), peak_power(spans))
            << "seed " << seed << " step " << step;
      }
      const std::int64_t q_start = rng.uniform_int(-4, 80);
      const std::int64_t q_duration = rng.uniform_int(0, 16);
      const std::int64_t q_power = rng.uniform_int(0, 6);
      const std::int64_t q_budget = rng.uniform_int(0, 14);
      ASSERT_EQ(
          timeline.window_fits(q_start, q_duration, q_power, q_budget),
          power_window_fits(spans, q_start, q_duration, q_power, q_budget))
          << "seed " << seed << " step " << step;
      if (q_duration > 0) {
        ASSERT_EQ(
            timeline.earliest_fit(q_start, q_duration, q_power, q_budget),
            oracle_earliest_fit(spans, q_start, q_duration, q_power, q_budget))
            << "seed " << seed << " step " << step << " from " << q_start
            << " dur " << q_duration << " power " << q_power << " budget "
            << q_budget;
      }
    }
    timeline.clear();
    EXPECT_TRUE(timeline.empty());
    EXPECT_EQ(timeline.peak(), 0);
  }
}

}  // namespace
}  // namespace wtam::core
