#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/constraints.hpp"
#include "pack/skyline.hpp"

namespace wtam::pack {
namespace {

/// best_spots' table against the one-width reference: wire and start for
/// every width of the strip.
::testing::AssertionResult TableMatchesBestSpot(const Skyline& sky) {
  std::vector<Skyline::Spot> spots;
  sky.best_spots(spots);
  if (spots.size() != static_cast<std::size_t>(sky.total_width()))
    return ::testing::AssertionFailure()
           << "table size " << spots.size() << " for width "
           << sky.total_width();
  for (int width = 1; width <= sky.total_width(); ++width) {
    const Skyline::Spot table = spots[static_cast<std::size_t>(width) - 1];
    const Skyline::Spot reference = sky.best_spot(width);
    if (table.wire != reference.wire || table.start != reference.start)
      return ::testing::AssertionFailure()
             << "width " << width << ": table (wire " << table.wire
             << ", start " << table.start << "), best_spot (wire "
             << reference.wire << ", start " << reference.start << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The wires a fixed window minus forbidden intervals leaves, as the
/// SpotQuery mask (rectpack's ConstraintPlan lowers its constraints the
/// same way).
std::vector<char> allowed_wires(
    int total, core::WireInterval window,
    const std::vector<core::WireInterval>& forbidden) {
  std::vector<char> allowed(static_cast<std::size_t>(total), 0);
  for (int w = window.lo; w < window.hi; ++w)
    allowed[static_cast<std::size_t>(w)] = 1;
  for (const core::WireInterval& interval : forbidden)
    for (int w = interval.lo; w < interval.hi; ++w)
      allowed[static_cast<std::size_t>(w)] = 0;
  return allowed;
}

/// spot_from_table against the constrained best_spot for every width of
/// the strip, from one table filled with the query's mask: wire and
/// start, or both empty.
::testing::AssertionResult TableAnswersMatchBestSpot(
    const Skyline& sky, Skyline::SpotQuery query) {
  std::vector<Skyline::Spot> spots;
  sky.best_spots(spots, query.allowed);
  for (int width = 1; width <= sky.total_width(); ++width) {
    query.width = width;
    const auto table = sky.spot_from_table(spots, query);
    const auto reference = sky.best_spot(query);
    const auto show = [](const std::optional<Skyline::Spot>& spot) {
      return spot.has_value() ? "(wire " + std::to_string(spot->wire) +
                                    ", start " + std::to_string(spot->start) +
                                    ")"
                              : std::string("none");
    };
    if (table.has_value() != reference.has_value() ||
        (table.has_value() && (table->wire != reference->wire ||
                               table->start != reference->start)))
      return ::testing::AssertionFailure()
             << "width " << width << ": table " << show(table)
             << ", best_spot " << show(reference);
  }
  return ::testing::AssertionSuccess();
}

TEST(Skyline, StartsFlatAtZero) {
  const Skyline sky(8);
  EXPECT_EQ(sky.total_width(), 8);
  EXPECT_EQ(sky.makespan(), 0);
  const auto spot = sky.best_spot(8);
  EXPECT_EQ(spot.wire, 0);
  EXPECT_EQ(spot.start, 0);
  EXPECT_TRUE(TableMatchesBestSpot(sky));
}

TEST(Skyline, BottomLeftPrefersLowestThenLeftmost) {
  Skyline sky(6);
  sky.place(0, 2, 100);  // wires 0-1 busy until 100
  sky.place(4, 2, 50);   // wires 4-5 busy until 50

  // A 2-wide rectangle fits at time 0 only on wires 2-3.
  auto spot = sky.best_spot(2);
  EXPECT_EQ(spot.wire, 2);
  EXPECT_EQ(spot.start, 0);

  // A 3-wide rectangle: windows are [0,3)=100, [1,4)=100, [2,5)=50,
  // [3,6)=50 — lowest is 50, leftmost such window starts at wire 2.
  spot = sky.best_spot(3);
  EXPECT_EQ(spot.wire, 2);
  EXPECT_EQ(spot.start, 50);

  // Full width must wait for the tallest wire.
  spot = sky.best_spot(6);
  EXPECT_EQ(spot.wire, 0);
  EXPECT_EQ(spot.start, 100);
}

TEST(Skyline, PlaceRaisesOnlyTheWindow) {
  Skyline sky(4);
  sky.place(1, 2, 10);
  EXPECT_EQ(sky.free_time(0), 0);
  EXPECT_EQ(sky.free_time(1), 10);
  EXPECT_EQ(sky.free_time(2), 10);
  EXPECT_EQ(sky.free_time(3), 0);
  EXPECT_EQ(sky.makespan(), 10);

  // Placing below an already-raised wire never lowers it.
  sky.place(1, 1, 5);
  EXPECT_EQ(sky.free_time(1), 10);
}

TEST(Skyline, ClearResets) {
  Skyline sky(3);
  sky.place(0, 3, 7);
  sky.clear();
  EXPECT_EQ(sky.makespan(), 0);
}

TEST(Skyline, RejectsBadArguments) {
  EXPECT_THROW(Skyline(0), std::invalid_argument);
  Skyline sky(4);
  EXPECT_THROW((void)sky.best_spot(0), std::invalid_argument);
  EXPECT_THROW((void)sky.best_spot(5), std::invalid_argument);
  EXPECT_THROW(sky.place(2, 3, 1), std::invalid_argument);
}

TEST(Skyline, FullWidthRectanglesStack) {
  // A full-width rectangle always lands on the makespan, wire 0; a
  // sequence of them serializes perfectly.
  Skyline sky(8);
  for (const std::int64_t duration : {10, 25, 5}) {
    const auto spot = sky.best_spot(8);
    EXPECT_EQ(spot.wire, 0);
    EXPECT_EQ(spot.start, sky.makespan());
    sky.place(spot.wire, 8, spot.start + duration);
  }
  EXPECT_EQ(sky.makespan(), 40);
  // Even after an uneven partial placement, full width waits for the top.
  sky.place(3, 2, 100);
  EXPECT_EQ(sky.best_spot(8).start, 100);
}

TEST(Skyline, WidthOneStripDegeneratesToASerialLane) {
  Skyline sky(1);
  EXPECT_EQ(sky.best_spot(1).wire, 0);
  sky.place(0, 1, 7);
  EXPECT_EQ(sky.best_spot(1).start, 7);
  sky.place(0, 1, 7 + 3);
  EXPECT_EQ(sky.makespan(), 10);
  EXPECT_TRUE(TableMatchesBestSpot(sky));
  // The constrained query agrees on the degenerate strip.
  Skyline::SpotQuery query;
  query.width = 1;
  query.duration = 4;
  const auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->wire, 0);
  EXPECT_EQ(spot->start, 10);
}

TEST(Skyline, SlidingWindowMaxOverShrinkingSegments) {
  // A strictly descending staircase: segments of decreasing height where
  // every window's max is its leftmost wire. The monotone deque must
  // evict exactly one candidate per step.
  Skyline sky(6);
  for (int wire = 0; wire < 6; ++wire)
    sky.place(wire, 1, 60 - 10 * wire);  // heights 60,50,40,30,20,10
  for (int width = 1; width <= 6; ++width) {
    const auto spot = sky.best_spot(width);
    // The lowest window of any width hugs the right edge; its max is its
    // leftmost (tallest) wire.
    EXPECT_EQ(spot.wire, 6 - width) << "width=" << width;
    EXPECT_EQ(spot.start, 60 - 10 * (6 - width)) << "width=" << width;
  }
  EXPECT_TRUE(TableMatchesBestSpot(sky));
  // Shrink the last segment to a single low wire and re-query: windows
  // that include wire 5 are capped by their interior maxima.
  sky.place(5, 1, 55);  // now 60,50,40,30,20,55
  const auto spot = sky.best_spot(2);
  EXPECT_EQ(spot.wire, 3);  // [30,20] — max 30, the lowest 2-window
  EXPECT_EQ(spot.start, 30);
  EXPECT_TRUE(TableMatchesBestSpot(sky));
}

TEST(Skyline, BestSpotsMatchesBestSpotOnRandomSkylines) {
  // Random placements on every strip width 1..128. Durations of 0..3
  // cycles on top of the window's own start keep the free times within a
  // few cycles of each other, so equal starts, plateaus and tie-breaks
  // between far-apart windows are the common case, not the exception.
  common::Rng rng(1729);
  for (int total = 1; total <= 128; ++total) {
    Skyline sky(total);
    ASSERT_TRUE(TableMatchesBestSpot(sky)) << "W=" << total << " flat";
    for (int step = 0; step < 40; ++step) {
      const int width = static_cast<int>(rng.uniform_int(1, total));
      int wire = static_cast<int>(rng.uniform_int(0, total - width));
      std::int64_t start = 0;
      for (int w = wire; w < wire + width; ++w)
        start = std::max(start, sky.free_time(w));
      if (rng.uniform_int(0, 1) == 0) {  // where a packer would put it
        const Skyline::Spot spot = sky.best_spot(width);
        wire = spot.wire;
        start = spot.start;
      }
      sky.place(wire, width, start + rng.uniform_int(0, 3));
      ASSERT_TRUE(TableMatchesBestSpot(sky))
          << "W=" << total << " step " << step;
    }
  }
}

TEST(Skyline, ConstrainedQueryHonorsWindowsAndForbiddenRows) {
  Skyline sky(8);
  Skyline::SpotQuery query;
  query.width = 2;
  query.duration = 10;
  // Fixed interval: right half only.
  const std::vector<char> right_half = allowed_wires(8, {4, 8}, {});
  query.allowed = &right_half;
  const auto right = sky.best_spot(query);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->wire, 4);
  EXPECT_TRUE(TableAnswersMatchBestSpot(sky, query));

  const std::vector<char> shifted_mask = allowed_wires(8, {4, 8}, {{4, 6}});
  query.allowed = &shifted_mask;
  const auto shifted = sky.best_spot(query);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_EQ(shifted->wire, 6);

  query.width = 3;  // no 3-wide run inside [6, 8)
  EXPECT_FALSE(sky.best_spot(query).has_value());

  query.width = 2;
  query.min_start = 123;  // precedence floor lifts the start
  const auto floored = sky.best_spot(query);
  ASSERT_TRUE(floored.has_value());
  EXPECT_EQ(floored->start, 123);
  EXPECT_TRUE(TableAnswersMatchBestSpot(sky, query));
}

TEST(Skyline, PowerRejectionAtExactlyAtBudgetBoundaries) {
  Skyline sky(8);
  sky.place(0, 2, 0, 10, /*power=*/3);  // [0,10) draws 3 of budget 5
  Skyline::SpotQuery query;
  query.width = 2;
  query.duration = 5;
  query.power_budget = 5;

  // Exactly at budget: 3 + 2 == 5 fits, start 0 allowed.
  query.power = 2;
  auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 0);

  // One unit over: 3 + 3 > 5, the start is delayed to the span end.
  query.power = 3;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);

  // Exactly the whole budget alone still fits (after the running span).
  query.power = 5;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);

  // More than the budget can never fit anywhere.
  query.power = 6;
  EXPECT_FALSE(sky.best_spot(query).has_value());

  // A window that only brushes the busy span's end is not delayed.
  query.power = 3;
  query.min_start = 10;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);
}

TEST(Skyline, MaskedTableSkipsBlockedWiresOnARaisedSkyline) {
  Skyline sky(8);
  sky.place(0, 3, 7);
  sky.place(5, 2, 4);
  // Blocked: wire 0 (outside the window) and 3, 4 (forbidden).
  const std::vector<char> allowed = allowed_wires(8, {1, 8}, {{3, 5}});
  Skyline::SpotQuery query;
  query.width = 2;
  query.duration = 10;
  query.allowed = &allowed;
  // Wires {1, 2} are free at 7, {5, 6, 7} at 4: the lower window wins.
  const auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->wire, 5);
  EXPECT_EQ(spot->start, 4);

  std::vector<Skyline::Spot> spots;
  sky.best_spots(spots, &allowed);
  EXPECT_EQ(spots[1].wire, 5);
  EXPECT_EQ(spots[1].start, 4);
  EXPECT_EQ(spots[2].wire, 5);  // the only 3-wide allowed run
  EXPECT_EQ(spots[2].start, 4);
  EXPECT_EQ(spots[3].start, Skyline::kNoSpot);  // no 4 allowed in a row
  EXPECT_TRUE(TableAnswersMatchBestSpot(sky, query));
  // A floor above both runs' free times admits the leftmost run again.
  query.min_start = 9;
  EXPECT_TRUE(TableAnswersMatchBestSpot(sky, query));
  const auto floored = sky.spot_from_table(spots, query);
  ASSERT_TRUE(floored.has_value());
  EXPECT_EQ(floored->wire, 1);
  EXPECT_EQ(floored->start, 9);

  // A mask of the wrong size is a caller bug, reported loudly.
  const std::vector<char> short_mask(3, 1);
  query.allowed = &short_mask;
  EXPECT_THROW((void)sky.best_spot(query), std::invalid_argument);
  EXPECT_THROW(sky.best_spots(spots, &short_mask), std::invalid_argument);
}

TEST(Skyline, SpotFromTableMatchesBestSpotOnRandomSkylines) {
  // Power-aware placements on every strip width 1..128, each followed by
  // random queries: a mask from a random fixed window and up to two
  // forbidden intervals (or none), a random start floor, power draw and
  // budget (or none). Spans of 1..4 cycles on top of the window's start
  // keep free times and power breakpoints within a few cycles of each
  // other, so floors and probes lift starts past the table's often, and
  // equal starts between far-apart windows are common.
  common::Rng rng(4099);
  std::vector<char> allowed;
  std::vector<core::WireInterval> forbidden;
  const auto random_query = [&](const Skyline& sky) {
    const int total = sky.total_width();
    Skyline::SpotQuery query;
    query.duration = rng.uniform_int(1, 6);
    if (rng.uniform_int(0, 2) != 0) {
      const int lo = static_cast<int>(rng.uniform_int(0, total - 1));
      const int hi = static_cast<int>(rng.uniform_int(lo + 1, total));
      forbidden.clear();
      for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
        const int f_lo = static_cast<int>(rng.uniform_int(0, total - 1));
        forbidden.push_back(
            {f_lo, static_cast<int>(rng.uniform_int(f_lo + 1, total))});
      }
      allowed = allowed_wires(total, {lo, hi}, forbidden);
      query.allowed = &allowed;
    }
    if (rng.uniform_int(0, 1) == 0)
      query.min_start = rng.uniform_int(0, sky.makespan() + 4);
    if (rng.uniform_int(0, 2) != 0) {
      query.power_budget = rng.uniform_int(1, 12);
      query.power = rng.uniform_int(0, query.power_budget + 1);
    }
    return query;
  };
  for (int total = 1; total <= 128; ++total) {
    Skyline sky(total);
    ASSERT_TRUE(TableAnswersMatchBestSpot(sky, random_query(sky)))
        << "W=" << total << " flat";
    for (int step = 0; step < 30; ++step) {
      const int width = static_cast<int>(rng.uniform_int(1, total));
      int wire = static_cast<int>(rng.uniform_int(0, total - width));
      std::int64_t start = 0;
      for (int w = wire; w < wire + width; ++w)
        start = std::max(start, sky.free_time(w));
      if (rng.uniform_int(0, 1) == 0) {  // where a constrained packer would
        Skyline::SpotQuery query = random_query(sky);
        query.width = width;
        if (const auto spot = sky.best_spot(query)) {
          wire = spot->wire;
          start = spot->start;
        }
      }
      sky.place(wire, width, start, start + rng.uniform_int(1, 4),
                rng.uniform_int(0, 4));
      for (int probe = 0; probe < 2; ++probe)
        ASSERT_TRUE(TableAnswersMatchBestSpot(sky, random_query(sky)))
            << "W=" << total << " step " << step << " probe " << probe;
    }
  }
}

TEST(Skyline, ClearResetsPowerTimelineToo) {
  Skyline sky(4);
  sky.place(0, 4, 0, 10, 5);
  sky.clear();
  Skyline::SpotQuery query;
  query.width = 4;
  query.duration = 5;
  query.power = 5;
  query.power_budget = 5;
  const auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 0);
}

}  // namespace
}  // namespace wtam::pack
