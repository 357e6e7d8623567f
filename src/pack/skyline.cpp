#include "pack/skyline.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wtam::pack {

Skyline::Skyline(int total_width) {
  if (total_width < 1)
    throw std::invalid_argument("Skyline: total_width must be >= 1");
  free_time_.assign(static_cast<std::size_t>(total_width), 0);
}

Skyline::Spot Skyline::best_spot(int width) const {
  if (width < 1 || width > total_width())
    throw std::invalid_argument("Skyline::best_spot: width outside strip");

  // Sliding-window maximum of the per-wire free times (monotone deque of
  // wire indices whose free times decrease), minimized over windows. The
  // deque lives in reusable scratch: head/tail indices over a flat array
  // (total pushes <= total_width, so it never overflows).
  monotone_window_.resize(static_cast<std::size_t>(total_width()));
  std::size_t head = 0;
  std::size_t tail = 0;  // live candidates in [head, tail)
  Spot best{0, 0};
  bool have_best = false;
  for (int wire = 0; wire < total_width(); ++wire) {
    while (head < tail &&
           free_time_[static_cast<std::size_t>(monotone_window_[tail - 1])] <=
               free_time_[static_cast<std::size_t>(wire)])
      --tail;
    monotone_window_[tail++] = wire;
    const int left = wire - width + 1;
    if (left < 0) continue;
    if (monotone_window_[head] < left) ++head;
    const std::int64_t start =
        free_time_[static_cast<std::size_t>(monotone_window_[head])];
    if (!have_best || start < best.start) {
      best = {left, start};
      have_best = true;
    }
  }
  return best;
}

void Skyline::best_spots(std::vector<Spot>& spots,
                         const std::vector<char>* allowed) const {
  const int width = total_width();
  const std::int64_t* free_time = free_time_.data();
  if (allowed != nullptr) {
    // A blocked wire is never free: it reads kNoSpot, the sentinel's own
    // value, so it pops every allowed wire, nothing pops it, and its own
    // run's kNoSpot start is never kept.
    if (allowed->size() != free_time_.size())
      throw std::invalid_argument(
          "Skyline::best_spots: allowed mask size != total_width");
    masked_free_.resize(free_time_.size());
    for (std::size_t wire = 0; wire < free_time_.size(); ++wire)
      masked_free_[wire] = (*allowed)[wire] != 0 ? free_time_[wire] : kNoSpot;
    free_time = masked_free_.data();
  }
  // spots[len - 1] first collects the lexicographic minimum of (start,
  // wire) over the runs exactly len wires long (see the class comment).
  // Some lengths have no run; the suffix minimum at the end fills every
  // slot up to the longest run (the whole strip when nothing is blocked:
  // the leftmost tallest wire's run spans it), and longer slots keep
  // kNoSpot.
  spots.assign(static_cast<std::size_t>(width), Spot{0, kNoSpot});
  const auto keep = [](Spot& slot, Spot spot) {
    if (spot.start < slot.start ||
        (spot.start == slot.start && spot.wire < slot.wire))
      slot = spot;
  };
  // Stack of (wire, free time) with non-increasing free times above a
  // sentinel that is never popped. A wire is popped by the first wire to
  // its right with a higher free time (or by the strip's end), which ends
  // its run; its run starts past the wire below it on the stack, the
  // nearest to its left with a free time at least as high.
  run_stack_.resize(static_cast<std::size_t>(width) + 1);
  run_stack_[0] = {-1, kNoSpot};
  std::size_t top = 0;
  const auto pop = [&](int run_end) {
    const std::int64_t start = run_stack_[top--].start;
    const int run_start = run_stack_[top].wire + 1;
    keep(spots[static_cast<std::size_t>(run_end - run_start) - 1],
         {run_start, start});
  };
  for (int wire = 0; wire < width; ++wire) {
    const std::int64_t free = free_time[wire];
    while (run_stack_[top].start < free) pop(wire);
    run_stack_[++top] = {wire, free};
  }
  while (top > 0) pop(width);
  for (std::size_t len = spots.size() - 1; len > 0; --len)
    keep(spots[len - 1], spots[len]);
}

std::optional<Skyline::Spot> Skyline::best_spot(const SpotQuery& query) const {
  if (query.width < 1 || query.width > total_width())
    throw std::invalid_argument("Skyline::best_spot: width outside strip");
  if (query.duration < 1)
    throw std::invalid_argument("Skyline::best_spot: duration must be >= 1");
  if (query.allowed != nullptr && query.allowed->size() != free_time_.size())
    throw std::invalid_argument(
        "Skyline::best_spot: allowed mask size != total_width");
  if (query.power_budget > 0 && query.power > query.power_budget)
    return std::nullopt;  // this rectangle alone can never fit the budget

  // Pass 1: each allowed window's base start (its skyline maximum floored
  // at min_start), into reusable scratch; the minimum base wins the power
  // probe. Let f(base) = earliest power-feasible start >= base. f is
  // non-decreasing, f(base) >= base, and f's result is itself feasible
  // (f(f(base)) == f(base)), so the best achievable start is
  // s* = f(min base) and f(base) == s* exactly when base <= s*. That
  // turns the per-window power evaluation into ONE timeline probe per
  // query, and the leftmost tie-break (first window achieving the
  // minimal start, windows scanned left to right) into "leftmost window
  // with base <= s*".
  monotone_window_.resize(static_cast<std::size_t>(total_width()));
  window_base_.assign(static_cast<std::size_t>(total_width()), -1);
  std::size_t head = 0;
  std::size_t tail = 0;  // monotone deque over scratch, as in best_spot(int)
  int allowed_run = 0;   // allowed wires ending at `wire`
  std::int64_t min_base = -1;
  for (int wire = 0; wire < total_width(); ++wire) {
    while (head < tail &&
           free_time_[static_cast<std::size_t>(monotone_window_[tail - 1])] <=
               free_time_[static_cast<std::size_t>(wire)])
      --tail;
    monotone_window_[tail++] = wire;
    if (query.allowed != nullptr)
      allowed_run = (*query.allowed)[static_cast<std::size_t>(wire)] != 0
                        ? allowed_run + 1
                        : 0;
    const int left = wire - query.width + 1;
    if (left < 0) continue;
    if (monotone_window_[head] < left) ++head;
    if (query.allowed != nullptr && allowed_run < query.width)
      continue;  // window touches a blocked wire
    const std::int64_t skyline_start =
        free_time_[static_cast<std::size_t>(monotone_window_[head])];
    const std::int64_t base = std::max(skyline_start, query.min_start);
    window_base_[static_cast<std::size_t>(left)] = base;
    if (min_base < 0 || base < min_base) min_base = base;
  }
  if (min_base < 0) return std::nullopt;  // no window of allowed wires

  const std::int64_t start =
      query.power_budget <= 0
          ? min_base
          : power_timeline_.earliest_fit(min_base, query.duration,
                                         query.power, query.power_budget);
  // Pass 2: leftmost window whose base admits `start`.
  for (int left = 0; left <= total_width() - query.width; ++left) {
    const std::int64_t base = window_base_[static_cast<std::size_t>(left)];
    if (base >= 0 && base <= start) return Spot{left, start};
  }
  return std::nullopt;  // unreachable: the min-base window qualifies
}

std::optional<Skyline::Spot> Skyline::lifted_spot(
    Spot table, const SpotQuery& query) const {
  std::int64_t start = std::max(table.start, query.min_start);
  if (query.power_budget > 0) {
    if (query.power > query.power_budget) return std::nullopt;
    start = power_timeline_.earliest_fit(start, query.duration, query.power,
                                         query.power_budget);
  }
  if (start == table.start) return table;
  // The floor or the budget lifted the start: the leftmost run of `width`
  // allowed wires all free by then. The table's own window is one, so the
  // scan ends on it at the latest.
  int run = 0;
  for (int wire = 0; wire < total_width(); ++wire) {
    const auto w = static_cast<std::size_t>(wire);
    const bool usable = free_time_[w] <= start &&
                        (query.allowed == nullptr || (*query.allowed)[w] != 0);
    run = usable ? run + 1 : 0;
    if (run == query.width) return Spot{wire - query.width + 1, start};
  }
  return std::nullopt;  // unreachable for a current table
}

void Skyline::place(int wire, int width, std::int64_t end) {
  if (wire < 0 || width < 1 || wire + width > total_width())
    throw std::invalid_argument("Skyline::place: window outside strip");
  for (int w = wire; w < wire + width; ++w) {
    auto& t = free_time_[static_cast<std::size_t>(w)];
    t = std::max(t, end);
  }
}

void Skyline::place(int wire, int width, std::int64_t start, std::int64_t end,
                    std::int64_t power) {
  place(wire, width, end);
  if (power > 0 && start < end) power_timeline_.add(start, end, power);
}

std::int64_t Skyline::makespan() const noexcept {
  return *std::max_element(free_time_.begin(), free_time_.end());
}

void Skyline::clear() noexcept {
  std::fill(free_time_.begin(), free_time_.end(), 0);
  power_timeline_.clear();
}

}  // namespace wtam::pack
