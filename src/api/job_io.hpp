// JSON serialization for Solver jobs and results.
//
// A jobs file is `{"jobs": [ {...}, ... ]}` (or a bare top-level array);
// each job object mirrors SolveRequest with flattened backend options:
//
//   { "id": "d695-w32", "soc": "d695", "width": 32,
//     "backend": "enumerative",            // optional, default enumerative
//     "width_max": 48,                     // optional width sweep
//     "min_tams": 1, "max_tams": 10,       // optional (enumerative)
//     "threads": 1, "run_final_step": true,
//     "rectpack_iterations": 2000, "rectpack_seed": 1,
//     "deadline_s": 5.0, "priority": 0, "tag": "nightly",
//     "constraints": {                     // optional scenario constraints
//       "power": [120, 80, ...],           //   per-core draw (one per core)
//       "power_budget": 300,               //   peak concurrent power
//       "precedence": [[0, 2], [1, 2]],    //   [before, after] pairs
//       "fixed": [[3, 0, 8]],              //   [core, lo, hi) wire interval
//       "forbidden": [[4, 8, 16]],         //   [core, lo, hi) to avoid
//       "earliest_start": [[5, 1000]] },   //   [core, cycle]
//     "soc_inline": "soc x\ncore ..." }    // instead of "soc"
//
// Unknown keys are rejected — in jobs and inside the constraints block
// alike (typos should fail loudly, not silently run a default). Results
// serialize deterministically — timing fields are opt-in — so a batch's
// results JSON is byte-identical across runs and thread counts whenever
// every job is deterministic.

#pragma once

#include <string>
#include <vector>

#include "api/json_value.hpp"
#include "api/solver.hpp"

namespace wtam::api {

/// One job <-> JSON object. job_to_json throws std::invalid_argument for
/// requests carrying an in-memory soc_value (not serializable);
/// job_from_json throws std::runtime_error on malformed/unknown fields.
/// Its rvalue form moves the soc_inline text out of `value` instead of
/// copying it, once every field has passed, so a throw leaves `value`
/// whole.
[[nodiscard]] JsonValue job_to_json(const SolveRequest& request);
[[nodiscard]] SolveRequest job_from_json(const JsonValue& value);
[[nodiscard]] SolveRequest job_from_json(JsonValue&& value);

/// The constraints block alone (the schema documented above), shared by
/// the job parser and `wtam_opt --constraints file.json`. Strict:
/// unknown keys and malformed entries throw std::runtime_error.
/// constraints_to_json emits only the populated classes; an empty
/// constraint set round-trips through an empty object.
[[nodiscard]] core::ScheduleConstraints constraints_from_json(
    const JsonValue& value);
[[nodiscard]] JsonValue constraints_to_json(
    const core::ScheduleConstraints& constraints);

/// Whole jobs documents. parse_jobs throws std::runtime_error with
/// context on malformed JSON or jobs.
[[nodiscard]] std::vector<SolveRequest> parse_jobs(const std::string& text);
[[nodiscard]] std::vector<SolveRequest> load_jobs_file(const std::string& path);
[[nodiscard]] std::string jobs_to_json(const std::vector<SolveRequest>& jobs);

struct ResultsWriteOptions {
  /// Include cpu_s/wall_s. Off by default so results files are
  /// byte-identical across runs (the `--batch` reproducibility contract).
  bool include_timing = false;
  /// Include the `cache: hit|miss|bypass` field. Off by default for the
  /// same reason: whether a result came from the cache is execution
  /// provenance, not part of the canonical result bytes, so results stay
  /// byte-identical with the cache on or off. wtam_serve turns it on.
  bool include_cache = false;
  /// Include the `trace` span array (SolveResult::trace). Off by default
  /// for the same reason — span timings are execution provenance. Only
  /// meaningful when the Solver ran with SolverOptions::trace.
  bool include_trace = false;
};

/// The one result renderer: `result` as a single-line JSON object, the
/// answer line wtam_serve writes. "id" leads, so the fleet router can
/// splice client ids over its leading {"id": "r<seq>".
[[nodiscard]] std::string result_line(const SolveResult& result,
                                      const ResultsWriteOptions& options = {});
/// result_line parsed back, for the results file and for callers that
/// read fields; its compact dump is result_line's bytes (save a negative
/// zero double, which reads back as the integer 0; no solve yields one).
[[nodiscard]] JsonValue result_to_json(const SolveResult& result,
                                       const ResultsWriteOptions& options = {});
[[nodiscard]] std::string results_to_json(
    const std::vector<SolveResult>& results,
    const ResultsWriteOptions& options = {});
/// Writes results_to_json(...) to `path` with a trailing newline; throws
/// std::runtime_error on I/O failure.
void write_results_file(const std::string& path,
                        const std::vector<SolveResult>& results,
                        const ResultsWriteOptions& options = {});

}  // namespace wtam::api
