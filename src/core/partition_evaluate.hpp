// Partition_evaluate — fast heuristic search over TAM width partitions
// (paper §3.1, Figure 3; problems P_PAW and P_NPAW).
//
// For each TAM count B in [min_tams, max_tams], enumerate every unique
// partition of the total width W into B positive parts and evaluate it
// with Core_assign. Three levels of solution-space pruning (the paper's
// central scalability argument):
//   1. the Increment upper-bound rule enumerates each partition once
//      (no permuted duplicates);
//   2. Core_assign aborts a partition as soon as any TAM's accumulated
//      time reaches the best-known time tau (Lines 18-20 of Figure 1);
//   3. evaluation itself is the O(N^2) heuristic, not an ILP.
// Statistics per B reproduce Table 1 (how few partitions are evaluated to
// completion).

#pragma once

#include <cstdint>
#include <vector>

#include "core/core_assign.hpp"
#include "core/solve_context.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"

namespace wtam::core {

struct PartitionEvaluateOptions {
  int min_tams = 1;
  int max_tams = 10;
  /// Pruning level 2 (tau early abort). Off only in the ablation bench.
  bool prune_with_tau = true;
  /// Tie-break switches forwarded to Core_assign (ablation).
  bool widest_tam_tiebreak = true;
  bool next_tam_core_tiebreak = true;
  /// Reset tau to +inf at each B, as Figure 3 Line 6 does. The ablation
  /// bench can carry tau across B values instead (slightly stronger
  /// pruning than the published algorithm).
  bool reset_tau_per_b = true;
  /// Worker threads for the search. 1 = the serial reference algorithm;
  /// 0 = one per hardware thread. Parallel runs return results that are
  /// bit-identical to serial (same best architecture and the same per-B
  /// statistics, cpu_s aside): partitions are enumerated in the canonical
  /// order into fixed-size chunks, workers evaluate chunks concurrently
  /// against a shared atomic tau that only ever holds the merged-prefix
  /// incumbent (never tighter than the serial tau at any yet-unmerged
  /// partition), and outcomes are merged in enumeration order, where each
  /// partition is re-classified exactly as the serial trajectory would
  /// have: a partition aborts serially iff its full evaluation time is
  /// >= the serial tau at its position.
  int threads = 1;
  /// Partitions per dispatched chunk in parallel mode. The default
  /// amortizes dispatch overhead while keeping the shared tau fresh;
  /// exposed mainly so tests can stress the merge logic.
  int chunk_size = 1024;
  /// Cooperative cancellation/deadline, polled once per enumerated
  /// partition (serial) or chunk boundary (parallel). The search always
  /// evaluates at least one partition to completion before honoring an
  /// interrupt, so an interrupted result still carries a best incumbent.
  /// nullptr = run to completion (no polling overhead).
  const SolveContext* context = nullptr;
};

/// Per-B statistics (Table 1 columns).
struct PartitionSearchStats {
  int tams = 0;
  std::uint64_t partitions_unique = 0;  ///< enumerated (each exactly once)
  std::uint64_t evaluated_to_completion = 0;  ///< P_eval of Table 1
  std::uint64_t aborted_by_tau = 0;
  std::int64_t best_time = 0;  ///< best heuristic time for this B
  std::vector<int> best_partition;
  double cpu_s = 0.0;
};

struct PartitionEvaluateResult {
  /// Best architecture over all B (heuristic testing times).
  TamArchitecture best;
  int best_tams = 0;
  std::vector<PartitionSearchStats> per_b;
  double cpu_s = 0.0;
  /// None when the search ran to completion; otherwise why it stopped
  /// early (`best` is the best-so-far incumbent, always populated).
  SolveInterrupt interrupt = SolveInterrupt::None;
};

/// Runs the search. total_width must be within the table's range, and
/// min_tams at most total_width (std::invalid_argument otherwise).
[[nodiscard]] PartitionEvaluateResult partition_evaluate(
    const TestTimeTable& table, int total_width,
    const PartitionEvaluateOptions& options = {});

}  // namespace wtam::core
