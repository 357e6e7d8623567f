// The exhaustive baseline of [8] that the paper measures against:
// enumerate every unique width partition and solve each P_AW instance
// *exactly*; optimal, but the per-partition cost is an ILP and the number
// of partitions explodes with B — the paper reports multi-day
// non-termination for B >= 4 on the Philips SOCs. A wall-clock budget
// reproduces that behaviour gracefully.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/assignment_exact.hpp"
#include "core/solve_context.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"

namespace wtam::core {

struct ExhaustiveOptions {
  /// Budget for the whole enumeration; on expiry the search stops and
  /// `completed` is false (the paper's "did not run to completion").
  double time_budget_s = std::numeric_limits<double>::infinity();
  ExactEngine engine = ExactEngine::BranchAndBound;
  /// Carry the best-known time into each exact solve as an upper bound?
  /// [8] could not ("execution of the ILP model cannot be halted
  /// prematurely", §2) — so the faithful baseline solves every partition
  /// from scratch; switching this on is the ablation.
  bool share_incumbent = false;
  /// Worker threads for the enumeration. 1 = serial; 0 = one per hardware
  /// thread. Partitions are enumerated in canonical order into fixed-size
  /// chunks solved concurrently; results are merged in enumeration order,
  /// so an unbudgeted run returns the same best architecture (first
  /// minimum in enumeration order) regardless of thread count. Under a
  /// budget, which partitions get solved before expiry is timing-
  /// dependent — exactly as it is serially.
  int threads = 1;
  /// Partitions per dispatched chunk in parallel mode; exact solves are
  /// expensive, so chunks are small to balance load.
  int chunk_size = 8;
  /// Cooperative cancellation/deadline, checked wherever the wall-clock
  /// budget is (a fired context behaves exactly like budget expiry:
  /// `completed` is false, `best` is the incumbent so far). nullptr =
  /// budget only.
  const SolveContext* context = nullptr;
};

struct ExhaustiveResult {
  bool completed = false;
  TamArchitecture best;
  std::uint64_t partitions_total = 0;   ///< unique partitions in the space
  std::uint64_t partitions_solved = 0;  ///< solved before budget expiry
  double cpu_s = 0.0;
};

/// P_PAW by exhaustive enumeration: fixed number of TAMs.
[[nodiscard]] ExhaustiveResult exhaustive_paw(const TestTimeTable& table,
                                              int total_width, int tams,
                                              const ExhaustiveOptions& options = {});

/// P_NPAW by exhaustive enumeration over B in [1, max_tams].
[[nodiscard]] ExhaustiveResult exhaustive_pnpaw(
    const TestTimeTable& table, int total_width, int max_tams,
    const ExhaustiveOptions& options = {});

}  // namespace wtam::core
