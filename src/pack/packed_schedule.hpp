// Wire-level test schedules ("packings") and their strict validator.
//
// A PackedSchedule places every core's chosen rectangle at an explicit
// wire interval and time interval of the W x time strip. It is the one
// schedule type: every backend returns one, the power-constrained
// test-bus scheduler (core::schedule_with_power_limit) delays its
// sessions in one, and the Gantt chart and power peak read one. A test-bus
// architecture is the special case where the wire intervals are the
// static TAM lanes (see from_architecture), while rectangle packing
// reassigns wires over time. The validator is deliberately strict — every
// geometric and model-consistency property is checked, so optimizer bugs
// surface as hard errors instead of silently optimistic makespans.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/constraints.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"
#include "soc/soc.hpp"

namespace wtam::pack {

/// One core's test session: wires [wire, wire + width) for cycles
/// [start, end).
struct PackedPlacement {
  int core = 0;
  int width = 0;
  int wire = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// A schedule's placements, built once by the schedule's producer and
/// immutable from then on. Copies share the one list: a cached result
/// and every answer handed out from it hold the same placements, however
/// long each of them lives. To change placements, copy them out
/// (to_vector) and build a new list.
class PlacementList {
 public:
  PlacementList() = default;
  explicit PlacementList(std::vector<PackedPlacement> placements)
      : items_(std::make_shared<const std::vector<PackedPlacement>>(
            std::move(placements))) {}

  [[nodiscard]] const PackedPlacement* data() const noexcept {
    return items_ ? items_->data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_ ? items_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const PackedPlacement* begin() const noexcept {
    return data();
  }
  [[nodiscard]] const PackedPlacement* end() const noexcept {
    return items_ ? items_->data() + items_->size() : nullptr;
  }
  /// Unchecked, like std::vector's.
  [[nodiscard]] const PackedPlacement& operator[](std::size_t i) const {
    return (*items_)[i];
  }
  [[nodiscard]] std::vector<PackedPlacement> to_vector() const {
    return std::vector<PackedPlacement>(begin(), end());
  }

 private:
  std::shared_ptr<const std::vector<PackedPlacement>> items_;
};

struct PackedSchedule {
  int total_width = 0;
  PlacementList placements;  ///< sorted by (start, wire)
  std::int64_t makespan = 0;
};

/// Sorts `placements` into the canonical (start, wire) order that
/// PackedSchedule::placements documents; every producer must use this so
/// schedules from different backends compare field-by-field.
void sort_placements(std::vector<PackedPlacement>& placements);

/// Checks `schedule` against the model and returns every violation found
/// (empty = valid):
///   * total_width within the table's range;
///   * every core placed exactly once, no unknown core indices;
///   * each placement inside the strip: wire >= 0, width >= 1,
///     wire + width <= total_width, 0 <= start < end;
///   * durations honest: end - start == table.time(core, width);
///   * no two placements overlap in both wires and time;
///   * makespan == max end over placements.
[[nodiscard]] std::vector<std::string> validate_packed_schedule(
    const core::TestTimeTable& table, const PackedSchedule& schedule);

/// Constraint-aware validation: every geometric check above plus one
/// violation class per constraint kind, so a schedule is only "valid"
/// when it honors the whole ScheduleConstraints block:
///   * the instantaneous power of concurrently running placements never
///     exceeds the budget (exact sweep over the profile);
///   * every precedence pair holds (after.start >= before.end);
///   * fixed-interval cores stay inside their interval;
///   * forbidden intervals are never touched;
///   * earliest-start floors are respected.
/// Malformed constraints (bad indices, infeasible budget, ...) are
/// reported as violations too — a schedule cannot be "valid under"
/// constraints that do not validate. Empty constraints reduce to the
/// geometric validator exactly.
[[nodiscard]] std::vector<std::string> validate_packed_schedule(
    const core::TestTimeTable& table, const PackedSchedule& schedule,
    const core::ScheduleConstraints& constraints);

/// Exact peak of the schedule's instantaneous power profile under
/// `power` (0 for an empty schedule). Throws std::invalid_argument when
/// a placement's core has no power entry.
[[nodiscard]] std::int64_t packed_peak_power(const PackedSchedule& schedule,
                                             const core::PowerVector& power);

/// Lowers a test-bus architecture to a packing: TAM j becomes the static
/// wire lane [sum of widths before j, +width_j), with its cores placed
/// sequentially in core-index order. The result has the architecture's
/// testing time as makespan and always validates. Throws
/// std::invalid_argument for an architecture with no TAMs, an assignment
/// whose size differs from the core count, a TAM width the table has no
/// times for, or a core assigned to a TAM outside the architecture.
[[nodiscard]] PackedSchedule from_architecture(
    const core::TestTimeTable& table, const core::TamArchitecture& architecture);

/// Fraction of the occupied strip (total_width * makespan wire-cycles)
/// covered by placements — the rectangle-packing efficiency metric.
[[nodiscard]] double strip_utilization(const PackedSchedule& schedule);

/// ASCII Gantt chart of the packing: time on the x-axis, one row per wire
/// (runs of wires with identical occupancy are collapsed into "wires a-b"
/// rows), `columns` wide. Cores are labeled A..Z cyclically with a legend.
[[nodiscard]] std::string render_packed_gantt(const PackedSchedule& schedule,
                                              const soc::Soc& soc,
                                              int columns = 64);

}  // namespace wtam::pack
