#include "core/co_optimizer.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace wtam::core {

CoOptimizeResult co_optimize(const TestTimeTable& table, int total_width,
                             const CoOptimizeOptions& options) {
  const SolveContext* context = options.search.context;
  obs::SolveTrace* trace = context != nullptr ? context->trace : nullptr;
  CoOptimizeResult result;
  {
    obs::SpanTimer span(trace, "partition-search");
    result.heuristic = partition_evaluate(table, total_width, options.search);
  }
  result.heuristic_cpu_s = result.heuristic.cpu_s;
  result.interrupt = result.heuristic.interrupt;
  if (options.run_final_step &&
      result.interrupt == SolveInterrupt::None) {
    // The exact step polls the context at its node cadence and is
    // additionally clamped to the remaining deadline, so the flow as a
    // whole returns on time with the (never worse than heuristic)
    // incumbent.
    ExactOptions exact = options.final_step;
    if (context != nullptr) {
      exact.time_limit_s = std::min(exact.time_limit_s, context->remaining_s());
      exact.context = context;
    }
    obs::SpanTimer span(trace, "exact-step");
    result.final_step =
        solve_assignment_exact(table, result.heuristic.best.widths, exact);
    result.final_cpu_s = result.final_step.cpu_s;
    result.architecture = result.final_step.architecture;
    if (context != nullptr && !result.final_step.proven_optimal)
      result.interrupt = context->poll();
  } else {
    result.architecture = result.heuristic.best;
  }
  return result;
}

CoOptimizeResult co_optimize_fixed_b(const TestTimeTable& table,
                                     int total_width, int tams,
                                     const CoOptimizeOptions& options) {
  CoOptimizeOptions pinned = options;
  pinned.search.min_tams = tams;
  pinned.search.max_tams = tams;
  return co_optimize(table, total_width, pinned);
}

}  // namespace wtam::core
