#include "pack/packed_schedule.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/power.hpp"

namespace wtam::pack {

namespace {

std::string placement_label(const PackedPlacement& p) {
  std::ostringstream out;
  out << "core " << p.core << " (wires [" << p.wire << "," << p.wire + p.width
      << "), cycles [" << p.start << "," << p.end << "))";
  return out.str();
}

}  // namespace

void sort_placements(std::vector<PackedPlacement>& placements) {
  std::sort(placements.begin(), placements.end(),
            [](const PackedPlacement& a, const PackedPlacement& b) {
              return a.start != b.start ? a.start < b.start : a.wire < b.wire;
            });
}

std::vector<std::string> validate_packed_schedule(
    const core::TestTimeTable& table, const PackedSchedule& schedule) {
  std::vector<std::string> issues;
  const auto complain = [&issues](const std::string& message) {
    issues.push_back(message);
  };

  if (schedule.total_width < 1 || schedule.total_width > table.max_width()) {
    complain("total_width " + std::to_string(schedule.total_width) +
             " outside the table's range [1, " +
             std::to_string(table.max_width()) + "]");
    return issues;  // nothing else is meaningful
  }

  std::vector<int> times_placed(static_cast<std::size_t>(table.core_count()), 0);
  std::int64_t max_end = 0;
  for (const auto& p : schedule.placements) {
    if (p.core < 0 || p.core >= table.core_count()) {
      complain("unknown core index " + std::to_string(p.core));
      continue;
    }
    ++times_placed[static_cast<std::size_t>(p.core)];
    if (p.width < 1 || p.width > table.max_width())
      complain(placement_label(p) + ": width outside the table's range");
    if (p.wire < 0 || p.wire + p.width > schedule.total_width)
      complain(placement_label(p) + ": wire interval outside the strip");
    if (p.start < 0 || p.start >= p.end)
      complain(placement_label(p) + ": empty or negative time interval");
    if (p.width >= 1 && p.width <= table.max_width() &&
        p.end - p.start != table.time(p.core, p.width))
      complain(placement_label(p) + ": duration " +
               std::to_string(p.end - p.start) + " != T_" +
               std::to_string(p.core) + "(" + std::to_string(p.width) +
               ") = " + std::to_string(table.time(p.core, p.width)));
    max_end = std::max(max_end, p.end);
  }

  for (int i = 0; i < table.core_count(); ++i) {
    const int n = times_placed[static_cast<std::size_t>(i)];
    if (n == 0) complain("core " + std::to_string(i) + " never placed");
    if (n > 1)
      complain("core " + std::to_string(i) + " placed " + std::to_string(n) +
               " times");
  }

  for (std::size_t a = 0; a < schedule.placements.size(); ++a) {
    for (std::size_t b = a + 1; b < schedule.placements.size(); ++b) {
      const auto& pa = schedule.placements[a];
      const auto& pb = schedule.placements[b];
      const bool wires_overlap =
          pa.wire < pb.wire + pb.width && pb.wire < pa.wire + pa.width;
      const bool time_overlap = pa.start < pb.end && pb.start < pa.end;
      if (wires_overlap && time_overlap)
        complain("overlap: " + placement_label(pa) + " and " +
                 placement_label(pb));
    }
  }

  if (schedule.makespan != max_end)
    complain("makespan " + std::to_string(schedule.makespan) +
             " != max placement end " + std::to_string(max_end));
  return issues;
}

std::int64_t packed_peak_power(const PackedSchedule& schedule,
                               const core::PowerVector& power) {
  // Feed the placements into the same incremental timeline the packers
  // maintain on their hot path; its running peak is the sweep-line value
  // the old span-list core::peak_power computed.
  core::PowerTimeline timeline;
  for (const auto& p : schedule.placements) {
    if (p.core < 0 || p.core >= static_cast<int>(power.size()))
      throw std::invalid_argument(
          "packed_peak_power: power vector too small for " +
          placement_label(p));
    timeline.add(p.start, p.end, power[static_cast<std::size_t>(p.core)]);
  }
  return timeline.peak();
}

std::vector<std::string> validate_packed_schedule(
    const core::TestTimeTable& table, const PackedSchedule& schedule,
    const core::ScheduleConstraints& constraints) {
  std::vector<std::string> issues =
      validate_packed_schedule(table, schedule);
  if (constraints.empty()) return issues;
  const auto complain = [&issues](const std::string& message) {
    issues.push_back(message);
  };

  // A schedule cannot be valid "under" constraints that are themselves
  // malformed or infeasible for this model.
  for (const auto& issue : core::validate_constraints(
           constraints, table.core_count(), schedule.total_width))
    complain("constraints: " + issue);

  // Per-core first placement, for the pairwise/interval checks; indexing
  // problems were already reported by the geometric pass.
  std::vector<const PackedPlacement*> placed(
      static_cast<std::size_t>(table.core_count()), nullptr);
  for (const auto& p : schedule.placements) {
    if (p.core < 0 || p.core >= table.core_count()) continue;
    auto& slot = placed[static_cast<std::size_t>(p.core)];
    if (slot == nullptr) slot = &p;
  }

  if (constraints.has_power() &&
      static_cast<int>(constraints.power.size()) == table.core_count() &&
      std::all_of(constraints.power.begin(), constraints.power.end(),
                  [](std::int64_t p) { return p >= 0; })) {
    // Negative draws were already reported as a constraints issue above;
    // skipping the sweep keeps the validator's never-throws contract now
    // that packed_peak_power rejects them.
    // Sweep only the placements with known cores — an unknown index was
    // already reported above, and the validator's contract is to return
    // every violation, never to throw.
    std::vector<PackedPlacement> placed = schedule.placements.to_vector();
    std::erase_if(placed, [&](const PackedPlacement& p) {
      return p.core < 0 || p.core >= table.core_count();
    });
    PackedSchedule known;
    known.placements = PlacementList(std::move(placed));
    const std::int64_t peak = packed_peak_power(known, constraints.power);
    if (peak > constraints.power_budget)
      complain("peak power " + std::to_string(peak) +
               " exceeds the budget " +
               std::to_string(constraints.power_budget));
  }

  for (const auto& pair : constraints.precedence) {
    if (pair.before < 0 || pair.before >= table.core_count() ||
        pair.after < 0 || pair.after >= table.core_count())
      continue;  // reported above
    const PackedPlacement* before =
        placed[static_cast<std::size_t>(pair.before)];
    const PackedPlacement* after = placed[static_cast<std::size_t>(pair.after)];
    if (before == nullptr || after == nullptr) continue;  // "never placed"
    if (after->start < before->end)
      complain("precedence " + std::to_string(pair.before) + ">" +
               std::to_string(pair.after) + " violated: core " +
               std::to_string(pair.after) + " starts at " +
               std::to_string(after->start) + " before core " +
               std::to_string(pair.before) + " ends at " +
               std::to_string(before->end));
  }

  for (const auto& entry : constraints.fixed) {
    if (entry.core < 0 || entry.core >= table.core_count()) continue;
    const PackedPlacement* p = placed[static_cast<std::size_t>(entry.core)];
    if (p == nullptr) continue;
    if (p->wire < entry.wires.lo || p->wire + p->width > entry.wires.hi)
      complain("fixed interval violated: " + placement_label(*p) +
               " outside wires [" + std::to_string(entry.wires.lo) + "," +
               std::to_string(entry.wires.hi) + ")");
  }

  for (const auto& entry : constraints.forbidden) {
    if (entry.core < 0 || entry.core >= table.core_count()) continue;
    const PackedPlacement* p = placed[static_cast<std::size_t>(entry.core)];
    if (p == nullptr) continue;
    if (p->wire < entry.wires.hi && entry.wires.lo < p->wire + p->width)
      complain("forbidden interval violated: " + placement_label(*p) +
               " overlaps wires [" + std::to_string(entry.wires.lo) + "," +
               std::to_string(entry.wires.hi) + ")");
  }

  for (const auto& entry : constraints.earliest) {
    if (entry.core < 0 || entry.core >= table.core_count()) continue;
    const PackedPlacement* p = placed[static_cast<std::size_t>(entry.core)];
    if (p == nullptr) continue;
    if (p->start < entry.cycle)
      complain("earliest_start violated: " + placement_label(*p) +
               " starts before cycle " + std::to_string(entry.cycle));
  }

  return issues;
}

PackedSchedule from_architecture(const core::TestTimeTable& table,
                                 const core::TamArchitecture& architecture) {
  table.require_widths(architecture.widths, "from_architecture");
  if (static_cast<int>(architecture.assignment.size()) != table.core_count())
    throw std::invalid_argument(
        "from_architecture: assignment size != core count");
  for (const int tam : architecture.assignment)
    if (tam < 0 || tam >= architecture.tam_count())
      throw std::invalid_argument(
          "from_architecture: core assigned to TAM " + std::to_string(tam) +
          " outside the architecture");

  PackedSchedule schedule;
  schedule.total_width = architecture.total_width();
  std::vector<PackedPlacement> placements;
  placements.reserve(static_cast<std::size_t>(table.core_count()));

  int lane_start = 0;
  for (int tam = 0; tam < architecture.tam_count(); ++tam) {
    const int width = architecture.widths[static_cast<std::size_t>(tam)];
    std::int64_t clock = 0;
    for (int i = 0; i < table.core_count(); ++i) {
      if (architecture.assignment[static_cast<std::size_t>(i)] != tam) continue;
      const std::int64_t duration = table.time(i, width);
      placements.push_back({i, width, lane_start, clock, clock + duration});
      clock += duration;
    }
    schedule.makespan = std::max(schedule.makespan, clock);
    lane_start += width;
  }

  sort_placements(placements);
  schedule.placements = PlacementList(std::move(placements));
  return schedule;
}

double strip_utilization(const PackedSchedule& schedule) {
  if (schedule.makespan <= 0 || schedule.total_width < 1) return 0.0;
  std::int64_t covered = 0;
  for (const auto& p : schedule.placements)
    covered += static_cast<std::int64_t>(p.width) * (p.end - p.start);
  return static_cast<double>(covered) /
         (static_cast<double>(schedule.total_width) *
          static_cast<double>(schedule.makespan));
}

std::string render_packed_gantt(const PackedSchedule& schedule,
                                const soc::Soc& soc, int columns) {
  if (columns < 10) columns = 10;
  if (schedule.makespan == 0 || schedule.total_width < 1)
    return "(empty schedule)\n";
  const double scale =
      static_cast<double>(columns) / static_cast<double>(schedule.makespan);

  // Paint every wire's row, then collapse runs of identical rows.
  std::vector<std::string> rows(
      static_cast<std::size_t>(schedule.total_width),
      std::string(static_cast<std::size_t>(columns), '.'));
  for (const auto& p : schedule.placements) {
    auto from = static_cast<int>(static_cast<double>(p.start) * scale);
    auto to = static_cast<int>(static_cast<double>(p.end) * scale);
    from = std::clamp(from, 0, columns - 1);
    to = std::clamp(to, from + 1, columns);
    const char label = static_cast<char>('A' + p.core % 26);
    for (int wire = p.wire; wire < p.wire + p.width; ++wire) {
      auto& row = rows[static_cast<std::size_t>(wire)];
      for (int c = from; c < to; ++c) row[static_cast<std::size_t>(c)] = label;
      row[static_cast<std::size_t>(from)] = '|';
    }
  }

  std::ostringstream out;
  int run_start = 0;
  for (int wire = 0; wire < schedule.total_width; ++wire) {
    const bool last = wire + 1 == schedule.total_width;
    if (!last && rows[static_cast<std::size_t>(wire + 1)] ==
                     rows[static_cast<std::size_t>(run_start)])
      continue;
    if (run_start == wire)
      out << "wire  " << run_start + 1;
    else
      out << "wires " << run_start + 1 << "-" << wire + 1;
    out << "\t" << rows[static_cast<std::size_t>(run_start)] << "\n";
    run_start = wire + 1;
  }
  out << "makespan " << schedule.makespan << "\nlegend:";
  std::vector<bool> mentioned(soc.cores.size(), false);
  for (const auto& p : schedule.placements) {
    const auto idx = static_cast<std::size_t>(p.core);
    if (idx < mentioned.size() && !mentioned[idx]) {
      mentioned[idx] = true;
      out << ' ' << static_cast<char>('A' + p.core % 26) << '='
          << soc.cores[idx].name;
    }
  }
  out << "\n";
  return out.str();
}

}  // namespace wtam::pack
