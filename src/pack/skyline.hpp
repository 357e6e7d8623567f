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
// pack subsystem: the SpotQuery form of best_spot restricts the search to
// an allowed wire window, rejects windows touching forbidden intervals,
// floors the start at a precedence/earliest-start bound, and — when a
// power budget is given — delays the start until the strip-wide
// instantaneous power (tracked per placement via the power-aware place
// overload) admits the rectangle for its whole duration. A constrained
// placement may therefore float above the skyline; that is safe (nothing
// below the skyline is ever free) and the hole-filling compaction of the
// rectpack engine reclaims what it can.
//
// The constrained spot search is the engine's single-query hot path, so
// everything invariant per placement or per pack is kept out of it: the
// power profile lives in an incremental core::PowerTimeline updated per
// place() (not rescanned per query) and probed once per query (the
// earliest-feasible-start function is monotone, so the minimal window
// base decides the start for every window), the blocked-wire masks can
// be precomputed once per pack and borrowed through SpotQuery, and the
// per-query scratch (mask fallback, window bases) is reused across
// calls. The scratch makes the const queries logically-const-but-mutable:
// a Skyline is single-owner state (one per packing walker) and is NOT
// safe for concurrent queries on the same instance.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/constraints.hpp"
#include "core/power.hpp"  // core::PowerSpan + the window-feasibility helpers

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

  /// best_spot(w) for every width at once, in one O(total_width) pass:
  /// resizes `spots` to total_width() with spots[w - 1] == best_spot(w).
  /// Valid until the next place() or clear() (see the class comment).
  void best_spots(std::vector<Spot>& spots) const;

  /// One constrained placement query: the unconstrained search plus every
  /// restriction the constraint layer can impose on a single rectangle.
  struct SpotQuery {
    int width = 1;
    /// Rectangle time extent — the window the power check sweeps.
    std::int64_t duration = 1;
    /// Earliest allowed start (precedence and earliest-start folded in by
    /// the caller).
    std::int64_t min_start = 0;
    /// Allowed wire range [lo, hi); hi = -1 means the whole strip.
    core::WireInterval window{0, -1};
    /// Wire intervals the rectangle must not touch (non-owning; may be
    /// null for none — queries are built in hot packing loops, so the
    /// constraint lists are referenced rather than copied).
    const std::vector<core::WireInterval>* forbidden = nullptr;
    /// This rectangle's power draw and the strip-wide budget; budget 0 =
    /// power-unconstrained.
    std::int64_t power = 0;
    std::int64_t power_budget = 0;
    /// Optional precomputed blocked-wire mask: prefix counts with
    /// blocked_prefix[w] = number of blocked wires < w (size
    /// total_width() + 1). When set, best_spot uses it directly instead
    /// of rebuilding the mask from `window`/`forbidden` — rectpack's
    /// ConstraintPlan builds one per wire-constrained core once per pack.
    /// Non-owning; must be consistent with `window`/`forbidden`.
    const std::vector<int>* blocked_prefix = nullptr;
  };

  /// Constrained bottom-left spot: minimum feasible start, ties to the
  /// leftmost wire. The start is the first cycle >= the window's skyline
  /// and min_start at which the power profile stays within budget for the
  /// whole duration. Returns nullopt when no window of `width` allowed
  /// wires exists (or the rectangle's own power exceeds the budget).
  /// Throws std::invalid_argument for width outside [1, total_width] or a
  /// malformed window.
  [[nodiscard]] std::optional<Spot> best_spot(const SpotQuery& query) const;

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
  std::vector<std::int64_t> free_time_;
  /// Placed rectangles' contributions to the strip power profile,
  /// maintained incrementally (coalesced breakpoints, O(log n) lookups)
  /// instead of as a rescanned span list.
  core::PowerTimeline power_timeline_;

  // Reusable per-query scratch: zero steady-state allocations on the
  // constrained hot path. Logically const (query-local state only); see
  // the class comment for the single-owner threading contract.
  mutable std::vector<int> monotone_window_;  ///< deque storage, both paths
  /// best_spots' stack of (wire, free time), sentinel first.
  mutable std::vector<Spot> run_stack_;
  mutable std::vector<char> blocked_scratch_;
  mutable std::vector<int> blocked_prefix_scratch_;
  /// Per-left-position window base starts (-1 = window blocked), filled
  /// by the constrained search's first pass so the single power probe and
  /// the leftmost tie-break run without re-walking the skyline.
  mutable std::vector<std::int64_t> window_base_;
};

}  // namespace wtam::pack
