// Exact solution of P_AW — optimal core-to-TAM assignment for fixed TAM
// widths (paper §3.2, the "final optimization step").
//
// Two engines compute the same optimum:
//   * Ilp           — the paper's mathematical-programming model verbatim:
//                     binary x_ij (core i on TAM j), continuous makespan
//                     tau; min tau s.t. tau >= sum_i x_ij T_i(w_j) for all
//                     j and sum_j x_ij = 1 for all i. O(N*B) variables,
//                     O(N) constraints. Solved by src/ilp (branch & bound
//                     over our simplex), warm-started from Core_assign.
//   * BranchAndBound — a combinatorial DFS specialized to min-makespan
//                     assignment; orders of magnitude faster on these
//                     instances, used where benches must solve thousands
//                     of partitions exactly.
// Both honor a time limit and report whether optimality was proven —
// mirroring the paper's exhaustive runs that "did not complete even after
// two days of execution".

#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/core_assign.hpp"
#include "core/solve_context.hpp"
#include "core/tam_types.hpp"
#include "core/test_time_table.hpp"
#include "ilp/branch_and_bound.hpp"

namespace wtam::core {

enum class ExactEngine { BranchAndBound, Ilp };

struct ExactOptions {
  ExactEngine engine = ExactEngine::BranchAndBound;
  double time_limit_s = std::numeric_limits<double>::infinity();
  std::int64_t max_nodes = 500'000'000;
  /// Cooperative cancellation/deadline, checked at the same cadence as
  /// the node/time limits; when it fires the solve stops like a limit
  /// (proven_optimal = false, incumbent returned). nullptr = limits only.
  const SolveContext* context = nullptr;
};

struct ExactResult {
  bool proven_optimal = false;  ///< false if a limit stopped the search
  TamArchitecture architecture; ///< best assignment found
  std::int64_t nodes = 0;
  double cpu_s = 0.0;
};

/// Solves P_AW exactly for the given widths. The Core_assign heuristic
/// result seeds the incumbent, so the returned testing time is never worse
/// than the heuristic's even when a limit fires.
[[nodiscard]] ExactResult solve_assignment_exact(
    const TestTimeTable& table, std::span<const int> widths,
    const ExactOptions& options = {});

/// Builds the paper's ILP model (exposed for tests and the micro bench).
/// Variable layout: x_ij at index i*B + j, tau at index N*B.
[[nodiscard]] ilp::Problem build_assignment_ilp(const TestTimeTable& table,
                                                std::span<const int> widths);

}  // namespace wtam::core
