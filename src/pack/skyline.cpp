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

void Skyline::best_spots(std::vector<Spot>& spots) const {
  const int width = total_width();
  // spots[len - 1] first collects the lexicographic minimum of (start,
  // wire) over the runs exactly len wires long (see the class comment).
  // Some lengths have no run, but the leftmost tallest wire's run spans
  // the strip, so the suffix minimum at the end fills every slot.
  spots.assign(static_cast<std::size_t>(width),
               Spot{0, std::numeric_limits<std::int64_t>::max()});
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
  run_stack_[0] = {-1, std::numeric_limits<std::int64_t>::max()};
  std::size_t top = 0;
  const auto pop = [&](int run_end) {
    const std::int64_t start = run_stack_[top--].start;
    const int run_start = run_stack_[top].wire + 1;
    keep(spots[static_cast<std::size_t>(run_end - run_start) - 1],
         {run_start, start});
  };
  for (int wire = 0; wire < width; ++wire) {
    const std::int64_t free = free_time_[static_cast<std::size_t>(wire)];
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
  const int window_lo = query.window.lo;
  const int window_hi =
      query.window.hi < 0 ? total_width() : query.window.hi;
  if (window_lo < 0 || window_lo >= window_hi || window_hi > total_width())
    throw std::invalid_argument("Skyline::best_spot: malformed wire window");
  if (query.duration < 1)
    throw std::invalid_argument("Skyline::best_spot: duration must be >= 1");
  if (query.blocked_prefix != nullptr &&
      query.blocked_prefix->size() !=
          static_cast<std::size_t>(total_width()) + 1)
    throw std::invalid_argument(
        "Skyline::best_spot: blocked_prefix size != total_width + 1");
  if (query.power_budget > 0 && query.power > query.power_budget)
    return std::nullopt;  // this rectangle alone can never fit the budget

  // Wires a window may not touch: outside the allowed range or inside a
  // forbidden interval. A prefix count turns the per-window check into
  // O(1). The caller can hand in a mask precomputed once per pack
  // (query.blocked_prefix); otherwise it is rebuilt here into reusable
  // scratch. The common power-only query (full window, nothing forbidden)
  // skips the mask entirely.
  const bool wires_constrained =
      query.blocked_prefix != nullptr || window_lo != 0 ||
      window_hi != total_width() ||
      (query.forbidden != nullptr && !query.forbidden->empty());
  const std::vector<int>* blocked_prefix = query.blocked_prefix;
  if (wires_constrained && blocked_prefix == nullptr) {
    blocked_prefix_scratch_.assign(
        static_cast<std::size_t>(total_width()) + 1, 0);
    blocked_scratch_.assign(static_cast<std::size_t>(total_width()), 0);
    for (int wire = 0; wire < total_width(); ++wire)
      if (wire < window_lo || wire >= window_hi)
        blocked_scratch_[static_cast<std::size_t>(wire)] = 1;
    if (query.forbidden != nullptr)
      for (const core::WireInterval& interval : *query.forbidden)
        for (int wire = std::max(0, interval.lo);
             wire < std::min(total_width(), interval.hi); ++wire)
          blocked_scratch_[static_cast<std::size_t>(wire)] = 1;
    for (int wire = 0; wire < total_width(); ++wire)
      blocked_prefix_scratch_[static_cast<std::size_t>(wire) + 1] =
          blocked_prefix_scratch_[static_cast<std::size_t>(wire)] +
          blocked_scratch_[static_cast<std::size_t>(wire)];
    blocked_prefix = &blocked_prefix_scratch_;
  }

  // Pass 1: each allowed window's base start (its skyline maximum floored
  // at min_start), into reusable scratch; the minimum base wins the power
  // probe. Let f(base) = earliest power-feasible start >= base. f is
  // non-decreasing, f(base) >= base, and f's result is itself feasible
  // (f(f(base)) == f(base)), so the best achievable start is
  // s* = f(min base) and f(base) == s* exactly when base <= s*. That
  // turns the old per-window power evaluation into ONE timeline probe per
  // query, and the old leftmost tie-break (first window achieving the
  // minimal start, windows scanned left to right) into "leftmost window
  // with base <= s*" — bit-identical results.
  monotone_window_.resize(static_cast<std::size_t>(total_width()));
  window_base_.assign(static_cast<std::size_t>(total_width()), -1);
  std::size_t head = 0;
  std::size_t tail = 0;  // monotone deque over scratch, as above
  std::int64_t min_base = -1;
  for (int wire = 0; wire < total_width(); ++wire) {
    while (head < tail &&
           free_time_[static_cast<std::size_t>(monotone_window_[tail - 1])] <=
               free_time_[static_cast<std::size_t>(wire)])
      --tail;
    monotone_window_[tail++] = wire;
    const int left = wire - query.width + 1;
    if (left < 0) continue;
    if (monotone_window_[head] < left) ++head;
    if (wires_constrained &&
        (*blocked_prefix)[static_cast<std::size_t>(wire) + 1] -
                (*blocked_prefix)[static_cast<std::size_t>(left)] !=
            0)
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
