// Shared harness for regenerating the paper's tables.
//
// Every table bench compares the same two flows the paper does:
//   * "Exhaustive" — the method of [8]: every width partition solved
//     exactly (our branch & bound stands in for their lp_solve ILP), with
//     a wall-clock budget standing in for their multi-day cutoffs;
//   * "New co-optimization" — Partition_evaluate + one final exact solve.
// Columns follow the paper: width partition, core assignment vector [5],
// testing time T, CPU time, percentage delta, and CPU-time ratio.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/json_value.hpp"
#include "core/co_optimizer.hpp"
#include "core/exhaustive.hpp"
#include "core/test_time_table.hpp"
#include "soc/soc.hpp"

namespace wtam::bench {

/// Per-(W) exhaustive budget in seconds; override with the
/// WTAM_BENCH_BUDGET environment variable (the paper's analogue: runs
/// were cut off after two days).
[[nodiscard]] double exhaustive_budget_s(double fallback = 30.0);

/// Worker threads for the table benches' partition searches; override
/// with the WTAM_BENCH_THREADS environment variable (0 = one per hardware
/// thread). Search results are thread-count-invariant. The exhaustive
/// baselines always run serially, as [8]'s did.
[[nodiscard]] int bench_threads(int fallback = 1);

/// JSON document model for machine-readable bench artifacts
/// (BENCH_*.json) — the library's api::JsonValue (objects preserve
/// insertion order, deterministic two-space dump, full parser). One
/// writer means the bench artifacts and the Solver's jobs/results files
/// can never drift apart in serialization policy.
using Json = wtam::api::JsonValue;

/// Writes `document` to `path` (pretty-printed, trailing newline).
/// Throws std::runtime_error when the file cannot be written.
void write_json_file(const std::string& path, const Json& document);

struct PawComparison {
  std::string soc_label;
  int tams = 2;
  std::vector<int> widths = {16, 24, 32, 40, 48, 56, 64};
  /// After the tables, time the paper's actual per-partition solver (the
  /// ILP model through our simplex branch & bound) on one partition, to
  /// show why [8]'s exhaustive enumeration hit multi-day walls on the
  /// Philips SOCs. The exhaustive baseline above uses the combinatorial
  /// engine so that reference optima exist at all.
  bool ilp_probe = true;
  /// Additionally run the *full* exhaustive enumeration with the ILP
  /// engine — the method of [8] verbatim — and report the CPU-time ratio
  /// t_new/t_old_ilp. Only tractable on d695 within the budget.
  bool ilp_exhaustive = false;
};

/// Regenerates a Table-2/5/6/9/10/... pair: the exhaustive table and the
/// new-co-optimization table for a fixed number of TAMs.
void run_paw_comparison(const core::TestTimeTable& table,
                        const PawComparison& config);

struct PnpawRun {
  std::string soc_label;
  int max_tams = 10;
  std::vector<int> widths = {16, 24, 32, 40, 48, 56, 64};
  /// Reference for the paper's delta column: best exhaustive result with
  /// at most this many TAMs (the paper compares against its best B<=3
  /// numbers because Exhaustive never finished beyond that).
  int reference_max_tams = 3;
};

/// Regenerates a Table-3/7/13/19 row set (problem P_NPAW).
void run_pnpaw(const core::TestTimeTable& table, const PnpawRun& config);

/// Regenerates one row block of Tables 4/8/14 (core test-data ranges).
void print_ranges_table(const soc::Soc& soc, const std::string& title);

}  // namespace wtam::bench
