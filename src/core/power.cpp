#include "core/power.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace wtam::core {

namespace {

/// Profile level at instant `t`: sum of the spans covering it.
std::int64_t power_at(std::span<const PowerSpan> spans, std::int64_t t) {
  std::int64_t total = 0;
  for (const PowerSpan& span : spans)
    if (span.start <= t && t < span.end) total += span.power;
  return total;
}

}  // namespace

bool power_window_fits(std::span<const PowerSpan> spans, std::int64_t start,
                       std::int64_t duration, std::int64_t power,
                       std::int64_t budget) {
  if (budget <= 0) return true;
  const std::int64_t headroom = budget - power;
  if (headroom < 0) return false;
  if (duration <= 0 || spans.empty()) return true;
  if (power_at(spans, start) > headroom) return false;
  for (const PowerSpan& span : spans) {
    if (span.start <= start || span.start >= start + duration) continue;
    if (power_at(spans, span.start) > headroom) return false;
  }
  return true;
}

std::int64_t peak_power(std::span<const PowerSpan> spans) {
  std::map<std::int64_t, std::int64_t> delta;  // time -> power change
  for (const PowerSpan& span : spans) {
    if (span.start >= span.end || span.power == 0) continue;
    delta[span.start] += span.power;
    delta[span.end] -= span.power;
  }
  std::int64_t peak = 0;
  std::int64_t current = 0;
  for (const auto& [time, change] : delta) {
    current += change;
    peak = std::max(peak, current);
  }
  return peak;
}

std::ptrdiff_t PowerTimeline::segment_before(std::int64_t t) const {
  // Last breakpoint with time <= t; -1 when t precedes them all.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](std::int64_t value, const Breakpoint& bp) { return value < bp.time; });
  return it - points_.begin() - 1;
}

void PowerTimeline::add(std::int64_t start, std::int64_t end,
                        std::int64_t power) {
  if (power < 0)
    throw std::invalid_argument("PowerTimeline::add: negative power");
  if (start >= end || power == 0) return;  // nothing to record

  const auto by_time = [](const Breakpoint& bp, std::int64_t t) {
    return bp.time < t;
  };
  // Ensure breakpoints exist at `start` and `end`; a new one inherits the
  // level in force just before it.
  auto lower =
      std::lower_bound(points_.begin(), points_.end(), start, by_time);
  auto i = static_cast<std::size_t>(lower - points_.begin());
  if (i == points_.size() || points_[i].time != start) {
    const std::int64_t level = i == 0 ? 0 : points_[i - 1].load;
    points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(i),
                   {start, level});
  }
  auto upper = std::lower_bound(
      points_.begin() + static_cast<std::ptrdiff_t>(i), points_.end(), end,
      by_time);
  auto j = static_cast<std::size_t>(upper - points_.begin());
  if (j == points_.size() || points_[j].time != end) {
    // j > 0 always: the start breakpoint sits at index i < j.
    points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(j),
                   {end, points_[j - 1].load});
  }

  // Raise the level across [start, end); the global peak only ever grows.
  for (std::size_t k = i; k < j; ++k) {
    points_[k].load += power;
    peak_ = std::max(peak_, points_[k].load);
  }

  // Coalesce. Equal-load neighbours can only appear at the two seams:
  // interior neighbours differed before the uniform raise and still do.
  // The end seam goes first so index i stays valid.
  const auto coalesce_at = [this](std::size_t idx) {
    if (idx >= points_.size()) return;
    const std::int64_t before = idx == 0 ? 0 : points_[idx - 1].load;
    if (points_[idx].load == before)
      points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  coalesce_at(j);
  coalesce_at(i);
}

bool PowerTimeline::window_fits(std::int64_t start, std::int64_t duration,
                                std::int64_t power,
                                std::int64_t budget) const {
  if (budget <= 0) return true;
  const std::int64_t headroom = budget - power;
  if (headroom < 0) return false;
  if (duration <= 0 || points_.empty()) return true;
  std::ptrdiff_t seg = segment_before(start);
  if (seg >= 0 && points_[static_cast<std::size_t>(seg)].load > headroom)
    return false;
  for (++seg; seg < static_cast<std::ptrdiff_t>(points_.size()) &&
              points_[static_cast<std::size_t>(seg)].time < start + duration;
       ++seg)
    if (points_[static_cast<std::size_t>(seg)].load > headroom) return false;
  return true;
}

std::int64_t PowerTimeline::earliest_fit(std::int64_t from,
                                         std::int64_t duration,
                                         std::int64_t power,
                                         std::int64_t budget) const {
  if (budget <= 0 || points_.empty()) return from;
  if (window_fits(from, duration, power, budget)) return from;
  // Probe the load-drop breakpoints after `from` — the only instants
  // where feasibility can flip to true (see the class comment).
  const auto begin = std::upper_bound(
      points_.begin(), points_.end(), from,
      [](std::int64_t value, const Breakpoint& bp) { return value < bp.time; });
  for (auto it = begin; it != points_.end(); ++it) {
    const std::int64_t before =
        it == points_.begin() ? 0 : std::prev(it)->load;
    if (it->load >= before) continue;  // rise or plateau — cannot flip
    if (window_fits(it->time, duration, power, budget)) return it->time;
  }
  // Unreachable for power <= budget: the last breakpoint drops to zero
  // load and is probed above. Defensive fallback, matching the span-list
  // helper: the profile horizon.
  return std::max(from, points_.back().time);
}

PowerVector scan_activity_power(const soc::Soc& soc) {
  PowerVector power;
  power.reserve(soc.cores.size());
  for (const auto& core : soc.cores)
    power.push_back(core.functional_ios() + core.total_scan_bits());
  return power;
}

PowerConstrainedResult schedule_with_power_limit(
    const TestTimeTable& table, const TamArchitecture& architecture,
    const PowerVector& power, std::int64_t limit) {
  if (static_cast<int>(power.size()) != table.core_count())
    throw std::invalid_argument(
        "schedule_with_power_limit: power vector size != core count");
  if (std::any_of(power.begin(), power.end(),
                  [](std::int64_t p) { return p < 0; }))
    throw std::invalid_argument(
        "schedule_with_power_limit: negative power draw");

  // Each TAM's static lane with its sessions back to back in core order;
  // the greedy below only moves their start times.
  pack::PackedSchedule lanes = pack::from_architecture(table, architecture);

  PowerConstrainedResult result;
  // Feasibility: every single core must fit under the budget.
  if (std::any_of(power.begin(), power.end(),
                  [limit](std::int64_t p) { return p > limit; }))
    return result;

  // Per TAM, its sessions in core-index order, the order its lane runs
  // them.
  std::vector<pack::PackedPlacement> sessions = lanes.placements.to_vector();
  std::vector<std::size_t> slot(sessions.size());
  for (std::size_t k = 0; k < sessions.size(); ++k)
    slot[static_cast<std::size_t>(sessions[k].core)] = k;
  const int tams = architecture.tam_count();
  std::vector<std::vector<std::size_t>> sequence(
      static_cast<std::size_t>(tams));
  for (std::size_t i = 0; i < slot.size(); ++i)
    sequence[static_cast<std::size_t>(architecture.assignment[i])].push_back(
        slot[i]);

  std::vector<std::size_t> next(static_cast<std::size_t>(tams), 0);
  std::vector<std::int64_t> busy_until(static_cast<std::size_t>(tams), 0);
  // (end time, tam, core power) of running sessions.
  using Running = std::tuple<std::int64_t, int, std::int64_t>;
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;

  std::size_t waiting = sessions.size();
  std::int64_t clock = 0;
  std::int64_t current_power = 0;
  while (waiting > 0 || !running.empty()) {
    // Start every session that fits right now (ascending TAM index).
    bool started = true;
    while (started) {
      started = false;
      for (int tam = 0; tam < tams; ++tam) {
        const auto t = static_cast<std::size_t>(tam);
        if (next[t] >= sequence[t].size()) continue;
        if (busy_until[t] > clock) continue;
        pack::PackedPlacement& session = sessions[sequence[t][next[t]]];
        const std::int64_t p = power[static_cast<std::size_t>(session.core)];
        if (current_power + p > limit) continue;
        session.end = clock + (session.end - session.start);
        session.start = clock;
        busy_until[t] = session.end;
        running.emplace(session.end, tam, p);
        current_power += p;
        ++next[t];
        --waiting;
        started = true;
      }
    }
    if (running.empty()) break;  // cannot happen while work remains
    // Advance to the next completion.
    clock = std::get<0>(running.top());
    current_power -= std::get<2>(running.top());
    running.pop();
  }

  // Inserted idle time = the TAMs' delayed finishes minus their pure test
  // time.
  lanes.makespan = *std::max_element(busy_until.begin(), busy_until.end());
  std::int64_t idle =
      std::accumulate(busy_until.begin(), busy_until.end(), std::int64_t{0});
  for (const pack::PackedPlacement& session : sessions)
    idle -= session.end - session.start;
  pack::sort_placements(sessions);
  lanes.placements = pack::PlacementList(std::move(sessions));

  result.peak = pack::packed_peak_power(lanes, power);
  result.schedule = std::move(lanes);
  result.feasible = true;
  result.idle_cycles = idle;
  return result;
}

}  // namespace wtam::core
