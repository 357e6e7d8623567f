// Job-oriented solver API — the one public entry point for running
// optimizer backends.
//
// A SolveRequest names a SOC (built-in name, .soc file path, inline .soc
// text, or an already-loaded value), a total TAM width (optionally a
// width range to sweep), a backend, its options, and job metadata
// (deadline, priority, tag). The Solver executes one request or a batch
// of requests and returns SolveResults: a Status instead of
// exception-or-die control flow, the unified BackendOutcome, the lower
// bound, and timing. Deadlines and cancellation are cooperative (see
// core/solve_context.hpp); a timed-out job returns its best-so-far
// incumbent with Status::DeadlineExceeded rather than running unbounded.
//
// Batches run on common::ThreadPool with deterministic result ordering:
// results come back in request order regardless of thread count, and —
// because every engine is deterministic — with identical contents at any
// concurrency. Execution order is (priority descending, request order),
// so high-priority jobs start first when workers are scarce.
//
// The Solver is service-grade: requests have canonical identity
// (api/request_key.hpp — the SOC content-hashed via soc::canonical_bytes,
// options normalized, sweeps expanded per width), and an optional
// memoizing ResultCache (api/result_cache.hpp) serves repeated identical
// work byte-identically while coalescing concurrent duplicates onto one
// in-flight computation. SolveResult::cache reports hit/miss/bypass.
// tools/wtam_serve.cpp runs this API as a long-lived process speaking
// newline-delimited JSON (the job_io wire format).
//
// This API is the single entry point for running engines — the old
// core::run_backend free function was removed in favor of it; library
// code that genuinely needs the raw seam uses
// BackendRegistry::instance().at(name).optimize(...) directly.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/backend.hpp"
#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "soc/soc.hpp"

namespace wtam::api {

class ResultCache;  // result_cache.hpp

using core::CancelToken;
using core::SolveContext;
using core::SolveInterrupt;

enum class Status {
  Ok,                ///< ran to completion
  InvalidRequest,    ///< malformed request; never executed
  DeadlineExceeded,  ///< stopped at the deadline; best-so-far outcome
  Cancelled,         ///< stopped by the cancel token; best-so-far outcome
  InternalError,     ///< an engine threw; `error` carries the message
  Overloaded,        ///< shed by admission control before execution; the
                     ///< client should retry later (serve/router only —
                     ///< the in-process Solver never sheds)
};

[[nodiscard]] std::string_view to_string(Status status) noexcept;
/// Inverse of to_string; nullopt for unknown text.
[[nodiscard]] std::optional<Status> parse_status(std::string_view text) noexcept;

/// How the result cache participated in a solve.
enum class CacheOutcome {
  Bypass,  ///< no cache configured, or the request is uncacheable
           ///< (deadline-bound work is timing-dependent)
  Miss,    ///< consulted; at least one width had to be computed
  Hit,     ///< every width served from the cache (or a coalesced
           ///< in-flight solve) — no engine ran
};

[[nodiscard]] std::string_view to_string(CacheOutcome cache) noexcept;

struct SolveRequest {
  /// Job identifier echoed into the result; defaults to "job-<index>"
  /// inside a batch when empty.
  std::string id;
  /// SOC source — exactly one of the three must be set: a built-in
  /// benchmark name or .soc file path, inline .soc dialect text, or an
  /// in-memory value (takes precedence; not serializable to JSON).
  std::string soc;
  std::string soc_inline;
  std::optional<soc::Soc> soc_value;
  /// Total TAM width, in [1, 256]. When width_max > width, the solver
  /// sweeps every width in [width, width_max] and reports the best
  /// (lowest testing time; ties to the narrowest width).
  int width = 0;
  int width_max = 0;  ///< 0 = single width
  std::string backend = "enumerative";
  core::BackendOptions options;
  /// Wall-clock budget for the whole job (sweep included), measured from
  /// the moment the job starts executing.
  std::optional<double> deadline_s;
  /// Batch scheduling hint: higher-priority jobs start earlier. Does not
  /// affect result ordering.
  int priority = 0;
  /// Free-form label echoed into the result.
  std::string tag;
};

/// Validates `request` without executing it; empty string = valid,
/// otherwise the reason (what SolveResult::error would say).
[[nodiscard]] std::string validate(const SolveRequest& request);

/// A resolved SOC and its content hash: what a request's RequestKeys and
/// the router's shard choice are built from.
struct SocIdentity {
  std::shared_ptr<const soc::Soc> soc;
  common::Hash128 hash;  ///< stable_hash_128(soc::canonical_bytes(*soc))
};

/// Resolves the request's SOC source — in-memory value, inline text, or
/// name/path, in that precedence. The one resolution rule shared by the
/// Solver and the request-key canonicalizer (they must agree, or keys
/// would identify a different SOC than the one solved).
///
/// Built-in names and inline text resolve through a process-wide memo:
/// each built-in is generated and hashed once, on first use, and inline
/// texts up to 16 KiB are kept, keyed by their full bytes, so a repeat
/// costs a lookup instead of a parse and a hash. The memo holds at most
/// 64 texts and starts over when full. Longer texts, in-memory values
/// and file paths resolve afresh on every call (a file may change
/// between requests). Thread-safe. Throws on unreadable/malformed
/// sources; the Solver maps that to InvalidRequest.
[[nodiscard]] SocIdentity resolve_soc_identity(const SolveRequest& request);

/// resolve_soc_identity's SOC, copied out.
[[nodiscard]] soc::Soc resolve_soc(const SolveRequest& request);

struct SolveResult {
  Status status = Status::InternalError;
  std::string id;
  std::string tag;
  std::string soc_name;
  int core_count = 0;
  std::string backend;
  /// Reason for InvalidRequest / InternalError; empty otherwise.
  std::string error;
  /// Width of `outcome` (the best width of a sweep). 0 when absent.
  int width = 0;
  /// Widths actually searched before the job finished or was interrupted.
  int widths_tried = 0;
  /// Present for Ok and for interrupted jobs that reached an incumbent;
  /// absent for InvalidRequest and most InternalErrors.
  std::optional<core::BackendOutcome> outcome;
  /// Architecture-independent lower bound at `width` (0 when absent).
  std::int64_t lower_bound = 0;
  /// True when `outcome`'s schedule passed the strict validator.
  bool schedule_valid = false;
  /// How the result cache participated (hit results are byte-identical
  /// to the cold run that populated the entry).
  CacheOutcome cache = CacheOutcome::Bypass;
  double wall_s = 0.0;  ///< queued-to-finished wall clock of this job
  /// Stage spans of this solve (queue-wait, soc-resolve, cache-lookup /
  /// cache-coalesce-wait, partition-search, exact-step, walker:<seed>,
  /// validate), timestamped in ns from job submission. Populated only
  /// when SolverOptions::trace is set — opt-in like --timing, so the
  /// solve payload stays byte-identical either way.
  std::vector<obs::TraceSpan> trace;

  [[nodiscard]] bool has_outcome() const noexcept {
    return outcome.has_value();
  }

  /// (testing_time - lower_bound) / lower_bound, the shared gap metric;
  /// 0 when there is no outcome or no positive bound (never divides by
  /// zero).
  [[nodiscard]] double optimality_gap() const noexcept {
    if (!outcome.has_value() || lower_bound <= 0) return 0.0;
    return (static_cast<double>(outcome->testing_time) -
            static_cast<double>(lower_bound)) /
           static_cast<double>(lower_bound);
  }
};

/// Progress callback events, delivered serialized (never concurrently).
struct ProgressEvent {
  enum class Phase { Started, Finished };
  Phase phase = Phase::Started;
  std::size_t index = 0;            ///< request index within the batch
  std::size_t total = 1;            ///< batch size
  const SolveRequest* request = nullptr;
  const SolveResult* result = nullptr;  ///< non-null for Finished only
};

using ProgressFn = std::function<void(const ProgressEvent&)>;

struct SolverOptions {
  /// Worker threads for batch execution. 1 = run jobs sequentially;
  /// 0 = one per hardware thread. Per-job engine threads are a separate
  /// knob (SolveRequest::options.threads).
  int threads = 1;
  /// Memoizing result cache consulted per width inside solve/solve_batch
  /// (see api/result_cache.hpp). Null = no caching (every request
  /// reports `cache: bypass`). Shareable: several Solvers — or a Solver
  /// and a server loop — may point at one cache, and concurrent
  /// identical requests coalesce on its in-flight entries instead of
  /// recomputing. Deadline-bound requests always bypass it.
  std::shared_ptr<ResultCache> cache;
  /// Collect per-solve stage spans into SolveResult::trace. Off by
  /// default: tracing allocates a span log per job and takes a lock per
  /// recorded stage, and the serve/CLI layers only forward spans their
  /// caller asked for.
  bool trace = false;

  /// Named builders, because brace-initializing a subset of an aggregate
  /// trips -Wmissing-field-initializers on the toolchains CI pins.
  [[nodiscard]] static SolverOptions with_threads(
      int threads, std::shared_ptr<ResultCache> cache = nullptr) {
    SolverOptions options;
    options.threads = threads;
    options.cache = std::move(cache);
    return options;
  }
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Executes one request. Never throws for request-level problems —
  /// they come back as a Status. `cancel` may be signalled from another
  /// thread; the job stops at its next poll point.
  [[nodiscard]] SolveResult solve(const SolveRequest& request,
                                  CancelToken cancel = {},
                                  const ProgressFn& progress = {}) const;

  /// solve() for a request the cache already stores whole: one
  /// non-blocking, all-or-nothing ResultCache::lookup over its keys,
  /// whose entries go through solve()'s per-width assembly, so the
  /// result, its trace stages and the solver metrics are those of a
  /// solve() that hit. nullopt, with nothing counted, when a width is not
  /// stored (in flight counts as not stored), or the request cannot hit:
  /// no cache, a deadline, or a request solve() would refuse. Lets a
  /// server answer such a request on the thread that read it.
  [[nodiscard]] std::optional<SolveResult> solve_stored(
      const SolveRequest& request) const;

  /// Executes a batch concurrently (SolverOptions::threads workers).
  /// Results are in request order and identical at any thread count.
  /// `cancel` cancels the whole batch: running jobs stop at their next
  /// poll point, unstarted jobs come back Cancelled without outcome.
  [[nodiscard]] std::vector<SolveResult> solve_batch(
      const std::vector<SolveRequest>& requests, CancelToken cancel = {},
      const ProgressFn& progress = {}) const;

 private:
  SolverOptions options_;
};

}  // namespace wtam::api
