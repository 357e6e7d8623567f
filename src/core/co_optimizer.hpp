// The complete two-step wrapper/TAM co-optimization flow (paper §3):
//   step 1: Partition_evaluate finds a good (B, width partition) fast;
//   step 2: one exact P_AW solve re-optimizes the core assignment on that
//           partition ("final optimization step", §3.2).
// The result is near-optimal at a small fraction of the exhaustive cost.
//
// Note the paper's documented anomaly (§4.2, §5): because step 1 is a
// heuristic, the partition it returns is not always the one that would be
// best *after* exact re-optimization; co_optimize therefore reports both
// the heuristic and the final architecture so callers can observe it.

#pragma once

#include "core/assignment_exact.hpp"
#include "core/partition_evaluate.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"
#include "soc/soc.hpp"

namespace wtam::core {

struct CoOptimizeOptions {
  PartitionEvaluateOptions search;
  ExactOptions final_step;
  /// Skip step 2 entirely (heuristic-only flow; ablation).
  bool run_final_step = true;
};

struct CoOptimizeResult {
  PartitionEvaluateResult heuristic;  ///< step-1 outcome and statistics
  ExactResult final_step;             ///< step-2 outcome (on heuristic.best)
  /// The architecture to ship: final if run, else heuristic best.
  TamArchitecture architecture;
  /// None when both steps ran to completion. When search.context fires
  /// (cancellation or deadline), the flow stops early — step 2 is skipped
  /// or time-limited to the remaining deadline — and `architecture` is
  /// the best-so-far incumbent.
  SolveInterrupt interrupt = SolveInterrupt::None;
  double heuristic_cpu_s = 0.0;
  double final_cpu_s = 0.0;
  [[nodiscard]] double total_cpu_s() const noexcept {
    return heuristic_cpu_s + final_cpu_s;
  }
};

/// P_NPAW: free number of TAMs in [options.search.min_tams, max_tams].
[[nodiscard]] CoOptimizeResult co_optimize(const TestTimeTable& table,
                                           int total_width,
                                           const CoOptimizeOptions& options = {});

/// P_PAW: fixed number of TAMs (convenience wrapper that pins
/// min_tams = max_tams = tams).
[[nodiscard]] CoOptimizeResult co_optimize_fixed_b(
    const TestTimeTable& table, int total_width, int tams,
    const CoOptimizeOptions& options = {});

}  // namespace wtam::core
