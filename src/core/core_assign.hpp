// Core_assign — the paper's heuristic for P_AW (Figure 1).
//
// Given TAMs of fixed widths, repeatedly assign the unassigned core with
// the largest testing time to the TAM with the smallest accumulated
// testing time (largest-job-first list scheduling on unrelated machines,
// generalizing LPT [3]), with two tie-breaking rules reconstructed from
// the paper's worked example (Figure 2):
//   * TAM tie (equal accumulated time): prefer the widest TAM;
//   * core tie (equal T on the chosen TAM): compare the tied cores on the
//     widest *other* TAM no wider than the chosen one, and pick the core
//     that would be slowest there (it has the most to lose later).
// Lines 18-20: if any TAM's accumulated time reaches the best-known SOC
// time tau, this width partition can never win — abort immediately.
// This early abort is what makes Partition_evaluate scale (§3.1).

#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"

namespace wtam::core {

struct CoreAssignOptions {
  /// Best-known SOC testing time tau; evaluation aborts once any TAM
  /// reaches it. Default: no abort.
  std::int64_t best_known = std::numeric_limits<std::int64_t>::max();
  /// Tie-break switches (both on per the paper; exposed for the ablation
  /// bench that quantifies what each rule is worth).
  bool widest_tam_tiebreak = true;
  bool next_tam_core_tiebreak = true;
};

struct CoreAssignResult {
  /// True if Lines 18-20 fired: the partial schedule already reached tau
  /// and the partition was discarded. `architecture` then holds the
  /// partial state and testing_time >= tau.
  bool aborted = false;
  TamArchitecture architecture;
};

/// Runs Core_assign for the given TAM widths. Widths must have times in
/// the table. O(N^2 + N*B) for N cores and B TAMs.
[[nodiscard]] CoreAssignResult core_assign(const TestTimeTable& table,
                                           std::span<const int> widths,
                                           const CoreAssignOptions& options = {});

}  // namespace wtam::core
