// The exhaustive baseline of [8] that the paper measures against:
// enumerate every unique width partition and solve each P_AW instance
// *exactly*; optimal, but the per-partition cost is an ILP and the number
// of partitions explodes with B — the paper reports multi-day
// non-termination for B >= 4 on the Philips SOCs. A wall-clock budget
// reproduces that behaviour gracefully. The enumeration is one serial
// loop, as [8]'s was, so its cpu_s (a wall clock) is [8]'s cost.

#pragma once

#include <cstdint>
#include <limits>

#include "core/assignment_exact.hpp"
#include "core/solve_context.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"

namespace wtam::core {

struct ExhaustiveOptions {
  /// Budget for the whole enumeration; on expiry the search stops and
  /// `completed` is false (the paper's "did not run to completion").
  /// Every partition is solved from scratch: [8] could not carry the
  /// best-known time into the next solve ("execution of the ILP model
  /// cannot be halted prematurely", §2).
  double time_budget_s = std::numeric_limits<double>::infinity();
  ExactEngine engine = ExactEngine::BranchAndBound;
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

/// P_PAW by exhaustive enumeration: fixed number of TAMs. The best
/// architecture is the first minimum in enumeration order. Throws
/// std::invalid_argument unless 1 <= tams <= total_width.
[[nodiscard]] ExhaustiveResult exhaustive_paw(const TestTimeTable& table,
                                              int total_width, int tams,
                                              const ExhaustiveOptions& options = {});

/// P_NPAW by exhaustive enumeration over B in [1, max_tams]. Throws
/// std::invalid_argument for max_tams < 1 or total_width < 1.
[[nodiscard]] ExhaustiveResult exhaustive_pnpaw(
    const TestTimeTable& table, int total_width, int max_tams,
    const ExhaustiveOptions& options = {});

}  // namespace wtam::core
