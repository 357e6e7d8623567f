// Skyline (bottom-left) placement engine for strip packing.
//
// The strip has `total_width` wires on the x-axis and time growing
// upward. The skyline tracks, per wire, the earliest cycle at which the
// wire is free. Placing a w-wide rectangle means choosing a contiguous
// window of w wires; the rectangle must start at the window's maximum
// free time (rectangles never float below the skyline, so placements can
// never overlap — at the cost of leaving holes, the classic skyline
// trade-off). best_spot returns the bottom-left-justified choice: the
// window with the minimum start time, ties broken to the leftmost wire.
//
// best_spots answers best_spot(w) for every width w from one O(W) pass,
// so a placement that weighs several candidate widths walks the skyline
// once. Write h_i for wire i's free time. One monotone stack pass gives
// each wire i a run [L_i, R_i] of neighbouring wires whose free times do
// not exceed h_i (L_i - 1 is the nearest wire to the left with free time
// >= h_i, R_i + 1 the nearest to the right with free time > h_i), so every
// window of width <= R_i - L_i + 1 at L_i starts at most at h_i. Conversely,
// let [a, a + w) be the leftmost window with the minimal start s, and m the
// leftmost wire in it with h_m = s: wires a..m-1 are below s, and wire
// a - 1 (if any) is above s, or [a - 1, a - 1 + w) would be a window
// further left starting at s; so L_m = a and R_m >= a + w - 1. Hence
// best_spot(w) is the lexicographic minimum of (h_i, L_i) over the runs
// at least w long: the pass keeps that minimum per run length, and a
// suffix minimum over lengths gives the minimal start and the leftmost
// wire for every w at once — best_spot's tie-break exactly. The table is
// the caller's and describes the skyline as it was when filled: it is
// stale after the next place() or clear().
//
// The skyline is also the constraint-checking placement engine of the
// pack subsystem: a SpotQuery restricts the search to the wires of an
// allowed-wire mask (a core's fixed window minus its forbidden
// intervals), floors the start at a precedence/earliest-start bound, and
// — when a power budget is given — delays the start until the strip-wide
// instantaneous power (tracked per placement via the power-aware place
// overload) admits the rectangle for its whole duration. A constrained
// placement may therefore float above the skyline; that is safe (nothing
// below the skyline is ever free) and the hole-filling compaction of the
// rectpack engine reclaims what it can.
//
// The constrained search is answered from the run table as well, one
// table per placement. best_spots(spots, allowed) treats a blocked wire
// as never free, so no run crosses it: the argument above, over allowed
// wires only, makes spots[w - 1] the lowest, then leftmost, window of w
// allowed wires (start kNoSpot when there is none). spot_from_table then
// settles one candidate. Write t for the table's start, b = max(t,
// min_start) and f(x) for the earliest power-feasible start >= x. Every
// allowed window's base — its skyline maximum floored at min_start — is
// at least b, and b is attained. f is non-decreasing, f(x) >= x and
// f(f(x)) == f(x), so the best start is s* = f(b) (b without a budget;
// ONE timeline probe per candidate) and a window admits s* exactly when
// its base is <= s*, i.e. when its skyline maximum is <= s* (min_start
// <= b <= s*). If s* == t, the admitted windows are those whose maximum
// is t, and the table's wire is the leftmost of them. Otherwise the
// answer is the leftmost run of `width` allowed wires all free by s*,
// found by one scan that ends at the latest on the table's window. The
// constrained best_spot(const SpotQuery&) — a deque sweep per query for
// the window bases, the probe at their minimum, then a leftmost scan —
// is the reference the table answer is tested against, as best_spot(int)
// is for the table itself; neither is on the packing hot path.
//
// Everything invariant per placement or per pack stays out of the
// per-candidate step: the power profile lives in an incremental
// core::PowerTimeline updated per place() (not rescanned per query), the
// allowed-wire masks are built once per pack and borrowed through
// SpotQuery, and the scratch (run stack, masked free times, deque, window
// bases) is reused across calls. The scratch makes the const queries
// logically-const-but-mutable: a Skyline is single-owner state (one per
// packing walker) and is NOT safe for concurrent queries on the same
// instance.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/power.hpp"  // core::PowerTimeline

namespace wtam::pack {

class Skyline {
 public:
  /// Throws std::invalid_argument for total_width < 1.
  explicit Skyline(int total_width);

  [[nodiscard]] int total_width() const noexcept {
    return static_cast<int>(free_time_.size());
  }

  /// Earliest free cycle of a single wire.
  [[nodiscard]] std::int64_t free_time(int wire) const {
    return free_time_[static_cast<std::size_t>(wire)];
  }

  struct Spot {
    int wire = 0;            ///< leftmost wire of the chosen window
    std::int64_t start = 0;  ///< earliest cycle the rectangle can start
  };

  /// Bottom-left spot for a `width`-wide rectangle. Throws
  /// std::invalid_argument when width is outside [1, total_width].
  [[nodiscard]] Spot best_spot(int width) const;

  /// A table start meaning "no window of that many allowed wires".
  static constexpr std::int64_t kNoSpot =
      std::numeric_limits<std::int64_t>::max();

  /// best_spot(w) for every width at once, in one O(total_width) pass:
  /// resizes `spots` to total_width() with spots[w - 1] == best_spot(w).
  /// With an `allowed` mask (size total_width(); nonzero = usable) only
  /// windows of allowed wires count, and a width with none gets start
  /// kNoSpot. Valid until the next place() or clear() (see the class
  /// comment). Throws std::invalid_argument for a mask of the wrong size.
  void best_spots(std::vector<Spot>& spots,
                  const std::vector<char>* allowed = nullptr) const;

  /// One constrained placement query: the unconstrained search plus every
  /// restriction the constraint layer can impose on a single rectangle.
  struct SpotQuery {
    int width = 1;
    /// Rectangle time extent — the window the power check sweeps.
    std::int64_t duration = 1;
    /// Earliest allowed start (precedence and earliest-start folded in by
    /// the caller).
    std::int64_t min_start = 0;
    /// Wires the rectangle may touch: (*allowed)[w] != 0, size
    /// total_width(); null = the whole strip. Non-owning — rectpack's
    /// ConstraintPlan lowers each core's fixed window and forbidden
    /// intervals to one mask per pack.
    const std::vector<char>* allowed = nullptr;
    /// This rectangle's power draw and the strip-wide budget; budget 0 =
    /// power-unconstrained.
    std::int64_t power = 0;
    std::int64_t power_budget = 0;
  };

  /// Constrained bottom-left spot: minimum feasible start, ties to the
  /// leftmost wire. The start is the first cycle >= the window's skyline
  /// and min_start at which the power profile stays within budget for the
  /// whole duration. Returns nullopt when no window of `width` allowed
  /// wires exists (or the rectangle's own power exceeds the budget).
  /// Throws std::invalid_argument for width outside [1, total_width],
  /// duration < 1 or a mask of the wrong size. The reference for
  /// spot_from_table (see the class comment).
  [[nodiscard]] std::optional<Spot> best_spot(const SpotQuery& query) const;

  /// best_spot(query), read from `spots` as best_spots(spots,
  /// query.allowed) filled it on the current skyline: at most one power
  /// probe, plus one scan of the strip when the floor or the probe lifts
  /// the start above the table's. Unchecked hot path: the table must be
  /// current and query.width in [1, total_width].
  [[nodiscard]] std::optional<Spot> spot_from_table(
      const std::vector<Spot>& spots, const SpotQuery& query) const {
    const Spot spot = spots[static_cast<std::size_t>(query.width) - 1];
    if (spot.start == kNoSpot) return std::nullopt;  // no allowed window
    // Inline for the unconstrained placements, which read the table as is.
    if (query.power_budget <= 0 && query.min_start <= spot.start) return spot;
    return lifted_spot(spot, query);
  }

  /// Marks wires [wire, wire + width) busy until `end`. The caller places
  /// at a spot from best_spot, so free times only ever grow.
  void place(int wire, int width, std::int64_t end);

  /// Power-aware placement: additionally records the rectangle on the
  /// power timeline consulted by constrained best_spot calls (only when
  /// `power` > 0 — zero-power rectangles cannot affect any budget).
  void place(int wire, int width, std::int64_t start, std::int64_t end,
             std::int64_t power);

  /// Highest skyline point — the makespan of everything placed so far.
  [[nodiscard]] std::int64_t makespan() const noexcept;

  /// The incremental strip power profile fed by the power-aware place()
  /// overload (exposed for tests and benches).
  [[nodiscard]] const core::PowerTimeline& power_timeline() const noexcept {
    return power_timeline_;
  }

  void clear() noexcept;

 private:
  /// spot_from_table past the table's own answer: the floor and the
  /// power probe, then the leftmost run admitting a lifted start.
  [[nodiscard]] std::optional<Spot> lifted_spot(Spot table,
                                                const SpotQuery& query) const;

  std::vector<std::int64_t> free_time_;
  /// Placed rectangles' contributions to the strip power profile,
  /// maintained incrementally (coalesced breakpoints, O(log n) lookups)
  /// instead of as a rescanned span list.
  core::PowerTimeline power_timeline_;

  // Reusable per-query scratch: zero steady-state allocations on the
  // constrained path. Logically const (query-local state only); see the
  // class comment for the single-owner threading contract.
  mutable std::vector<int> monotone_window_;  ///< best_spot's deque storage
  /// best_spots' stack of (wire, free time), sentinel first, and its
  /// free times with blocked wires at kNoSpot when a mask is given.
  mutable std::vector<Spot> run_stack_;
  mutable std::vector<std::int64_t> masked_free_;
  /// Per-left-position window base starts (-1 = window blocked), filled
  /// by the constrained best_spot's first pass so the single power probe
  /// and the leftmost tie-break run without re-walking the skyline.
  mutable std::vector<std::int64_t> window_base_;
};

}  // namespace wtam::pack
