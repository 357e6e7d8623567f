// Power-aware test scheduling (extension).
//
// The paper's related work ([4]: TAM design under place-and-route and
// power constraints) motivates a standard DFT constraint this module
// adds on top of the test-bus model: every concurrently tested core
// dissipates scan power, and the SOC-level peak must stay under a budget.
// Cores on one TAM already run sequentially; cores on different TAMs
// overlap, so the sessions' start offsets determine the peak. We provide:
//   * a default scan-activity power model (toggling bits per cycle ~
//     wrapper cells + scan flip-flops);
//   * an incremental power timeline, the one power profile the packers
//     and the validator keep. The span-list helpers power_window_fits
//     and peak_power are its test oracles, not shared with the packers
//     (power_window_fits is also a bench_micro kernel);
//   * a greedy power-constrained scheduler that delays the sessions on
//     each TAM's static wire lane (pack::from_architecture) just enough
//     to respect the budget (classic list scheduling with a resource
//     constraint), trading testing time for peak power. Its result is a
//     pack::PackedSchedule, the one schedule type; the schedule's exact
//     peak is pack::packed_peak_power.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/constraints.hpp"  // PowerVector lives with the constraints
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"

namespace wtam::core {

/// One [start, end) interval drawing `power` — the unit of the
/// span-list oracles below. Half-open on the right: a span ending at t
/// and a span starting at t never overlap.
struct PowerSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t power = 0;
};

/// True iff adding a `power`-draw rectangle over [start, start + duration)
/// on top of `spans` keeps every instant within `budget`. budget <= 0
/// means unconstrained (always fits). Early-outs on the first violating
/// breakpoint instead of computing the full peak.
[[nodiscard]] bool power_window_fits(std::span<const PowerSpan> spans,
                                     std::int64_t start, std::int64_t duration,
                                     std::int64_t power, std::int64_t budget);

/// Exact peak of the whole span profile (sweep line over start/end
/// events; 0 when empty). The oracle for PowerTimeline::peak().
[[nodiscard]] std::int64_t peak_power(std::span<const PowerSpan> spans);

/// Incremental piecewise-constant power profile — the constrained-packing
/// hot-path replacement for rescanning a flat PowerSpan list per query.
///
/// The profile is stored as sorted breakpoints: `points_[i].load` is the
/// instantaneous load on [points_[i].time, points_[i+1].time); the load is
/// 0 before the first breakpoint and after the last (whose load is always
/// 0, since every added span ends). Adjacent breakpoints with equal loads
/// are coalesced on insertion, so long packs stop accumulating one
/// breakpoint per span end and the structure stays at the number of
/// *distinct-level* transitions. add() costs a binary search plus work
/// proportional to the breakpoints the new span overlaps (vector inserts
/// shift the tail, but after coalescing the array is short); every query
/// is a binary search plus a scan of the overlapped breakpoints — no
/// allocation, no full-profile rescans.
///
/// Query results are exactly the values the flat-span helpers above
/// compute over the same placements: the profile function is identical,
/// and earliest_fit probes `from` plus every load-drop breakpoint — the
/// only instants where window feasibility can flip from infeasible to
/// feasible (a flip needs the over-budget segment to leave the window,
/// i.e. a load drop; every drop is a span end, and coalescing only ever
/// removes non-drop points). The packers' determinism pins hold across
/// the span-list -> timeline swap because of this equivalence.
class PowerTimeline {
 public:
  struct Breakpoint {
    std::int64_t time = 0;
    std::int64_t load = 0;  ///< level on [time, next breakpoint's time)
  };

  /// Adds a `power`-draw span over [start, end). Empty spans (start >=
  /// end) and zero power are ignored; negative power throws
  /// std::invalid_argument (loads are sums of draws and never negative).
  void add(std::int64_t start, std::int64_t end, std::int64_t power);

  void clear() noexcept {
    points_.clear();
    peak_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

  /// Global peak of the profile, maintained incrementally (loads only
  /// ever grow, so the peak is the running max of every raised level).
  [[nodiscard]] std::int64_t peak() const noexcept { return peak_; }

  /// True iff adding `power` over [start, start + duration) keeps every
  /// instant within `budget`. budget <= 0 means unconstrained. Same
  /// contract as core::power_window_fits over the equivalent span list.
  [[nodiscard]] bool window_fits(std::int64_t start, std::int64_t duration,
                                 std::int64_t power,
                                 std::int64_t budget) const;

  /// Earliest start >= `from` at which `power` more units fit under
  /// `budget` for `duration` cycles. Candidates are `from` and the
  /// load-drop breakpoints after it; bit-identical to probing every span
  /// end of the equivalent span list (see the class comment).
  [[nodiscard]] std::int64_t earliest_fit(std::int64_t from,
                                          std::int64_t duration,
                                          std::int64_t power,
                                          std::int64_t budget) const;

  /// The raw breakpoint array, for tests asserting the invariants
  /// (strictly increasing times, no adjacent equal loads, last load 0).
  [[nodiscard]] const std::vector<Breakpoint>& breakpoints() const noexcept {
    return points_;
  }

 private:
  /// Index of the segment whose half-open interval covers `t`, or -1 when
  /// t precedes the first breakpoint (level 0).
  [[nodiscard]] std::ptrdiff_t segment_before(std::int64_t t) const;

  std::vector<Breakpoint> points_;
  std::int64_t peak_ = 0;
};

/// Default model: power ~ scan activity = functional I/Os + scan bits
/// (every wrapper/scan cell toggles each shift cycle).
[[nodiscard]] PowerVector scan_activity_power(const soc::Soc& soc);

struct PowerConstrainedResult {
  /// The delayed TAM lanes; empty when infeasible.
  pack::PackedSchedule schedule;
  std::int64_t peak = 0;       ///< achieved peak (<= limit on success)
  bool feasible = false;       ///< false if some single core exceeds the limit
  std::int64_t idle_cycles = 0;  ///< total delay inserted vs unconstrained
};

/// Schedules the architecture under a peak-power budget: each TAM keeps
/// its static wire lane and its core sequence from
/// pack::from_architecture, but a session is delayed until enough power
/// headroom is available. Greedy earliest-start list scheduling; with
/// limit >= sum of all powers it reproduces from_architecture exactly.
/// Throws std::invalid_argument for a power vector whose size differs
/// from the core count or that holds a negative draw, and for an
/// architecture from_architecture rejects.
[[nodiscard]] PowerConstrainedResult schedule_with_power_limit(
    const TestTimeTable& table, const TamArchitecture& architecture,
    const PowerVector& power, std::int64_t limit);

}  // namespace wtam::core
