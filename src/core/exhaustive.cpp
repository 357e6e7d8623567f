#include "core/exhaustive.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "partition/partition.hpp"

namespace wtam::core {

namespace {

/// True once the wall-clock budget is spent or the caller's context fired
/// (cancellation/deadline) — the two stop conditions behave identically.
bool budget_expired(const common::Stopwatch& watch,
                    const ExhaustiveOptions& options) {
  if (watch.elapsed_s() > options.time_budget_s) return true;
  return options.context != nullptr &&
         options.context->poll() != SolveInterrupt::None;
}

/// Remaining per-solve time: the budget remainder clamped by the
/// context's deadline, never negative (see the clamp note below).
double remaining_budget_s(const common::Stopwatch& watch,
                          const ExhaustiveOptions& options) {
  double remaining =
      std::max(0.0, options.time_budget_s - watch.elapsed_s());
  if (options.context != nullptr)
    remaining = std::min(remaining, options.context->remaining_s());
  return remaining;
}

void solve_all_partitions(const TestTimeTable& table, int total_width,
                          int tams, const ExhaustiveOptions& options,
                          const common::Stopwatch& watch,
                          ExhaustiveResult& result) {
  result.partitions_total += partition::count_exact(total_width, tams);
  partition::for_each_partition(
      total_width, tams, [&](std::span<const int> widths) {
        if (budget_expired(watch, options)) return false;
        ExactOptions exact;
        exact.engine = options.engine;
        exact.context = options.context;
        // Leave the per-partition solve unbounded in nodes; the outer
        // budget is the only cutoff, like the original runs. The budget
        // check above ran on an earlier clock reading, so clamp the
        // remainder: a solver handed a (slightly) negative limit near the
        // deadline would misbehave.
        exact.time_limit_s = remaining_budget_s(watch, options);
        ExactResult solved = solve_assignment_exact(table, widths, exact);
        if (!solved.proven_optimal) return false;  // budget expired mid-solve
        ++result.partitions_solved;
        if (result.best.widths.empty() ||
            solved.architecture.testing_time < result.best.testing_time)
          result.best = std::move(solved.architecture);
        return true;
      });
}

}  // namespace

ExhaustiveResult exhaustive_paw(const TestTimeTable& table, int total_width,
                                int tams, const ExhaustiveOptions& options) {
  if (tams < 1) throw std::invalid_argument("exhaustive_paw: tams must be >= 1");
  if (tams > total_width)
    throw std::invalid_argument(
        "exhaustive_paw: tams must not exceed total_width");
  common::Stopwatch watch;
  ExhaustiveResult result;
  solve_all_partitions(table, total_width, tams, options, watch, result);
  result.completed = result.partitions_solved == result.partitions_total;
  result.cpu_s = watch.elapsed_s();
  return result;
}

ExhaustiveResult exhaustive_pnpaw(const TestTimeTable& table, int total_width,
                                  int max_tams,
                                  const ExhaustiveOptions& options) {
  if (max_tams < 1)
    throw std::invalid_argument("exhaustive_pnpaw: max_tams must be >= 1");
  if (total_width < 1)
    throw std::invalid_argument("exhaustive_pnpaw: total_width must be >= 1");
  common::Stopwatch watch;
  ExhaustiveResult result;
  for (int b = 1; b <= max_tams && b <= total_width; ++b)
    solve_all_partitions(table, total_width, b, options, watch, result);
  result.completed = result.partitions_solved == result.partitions_total;
  result.cpu_s = watch.elapsed_s();
  return result;
}

}  // namespace wtam::core
