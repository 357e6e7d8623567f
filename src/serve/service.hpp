// The wtam_serve request service, factored out of the tool so one
// implementation answers every transport: stdin/stdout and each TCP
// client of `wtam_serve --listen`. Service owns the solver, worker pool,
// result cache (with --cache-file warm boot / save) and job accounting,
// and answers one request line at a time through a caller-supplied
// sink; serve_lines below is the read loop every stream shares. The tool
// keeps what is per-transport: a sink per client, and what EOF means
// (stdin EOF drains the service; a socket client's EOF just ends that
// client).
//
// Threading: handle_line may be called concurrently from multiple
// transport threads (one per socket client). Verbs run inline on the
// calling thread, and so does a job whose every width the cache already
// stores (Solver::solve_stored), so its answer may overtake earlier jobs
// still in the pool. Only jobs that need an engine go to the shared
// pool, where queue_limit may shed them; their results go to the sink
// that submitted them. Sinks must therefore be thread-safe and must
// tolerate outliving their client (a write after disconnect is dropped
// by the transport, not an error here). The `shutdown` verb drains the
// whole service — every client's in-flight jobs — before acking, and
// Action::Shutdown tells the transport to stop the world.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/line_io.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace wtam::serve {

/// The fixed answers every tier gives a job line, wtam_serve and the
/// fleet router alike. Each leads with the job's id (left out when
/// empty): the router splices client ids over a response's leading
/// {"id": "r<seq>" (test_serve's JobAnswersLeadWithTheirId pins this).
[[nodiscard]] api::JsonValue error_answer(const std::string& id,
                                          const std::string& message);
/// A job declined by admission control: a result line with status
/// "overloaded" and fixed text, so shed answers are byte-deterministic.
[[nodiscard]] api::JsonValue shed_answer(const std::string& id);
/// `line` when it fits the line-length bound that every reader enforces;
/// otherwise a fixed error answer for `id`, or one without the id when
/// even that would not fit. Every answer line a tier writes passes here,
/// so none is lost to its reader's bound.
[[nodiscard]] std::string bounded_answer(std::string line,
                                         const std::string& id);
/// bounded_answer of `answer`'s compact dump, for the answer's own "id".
[[nodiscard]] std::string bounded_answer(const api::JsonValue& answer);

struct ServiceOptions {
  int threads = 0;  ///< worker pool size; 0 = one per hardware thread
  std::size_t cache_mb = 64;  ///< cache byte budget in MiB; 0 = no cache
  /// Warm-boot persistence: loaded in the constructor (missing file =
  /// cold start, wrong version = refused loudly via diag), saved by
  /// drain_and_save and the shutdown verb.
  std::string cache_file;
  /// Admission control for jobs that need an engine; 0 = never shed.
  std::uint64_t queue_limit = 0;
  bool timing = false;
  bool trace = false;
};

class Service {
 public:
  /// Receives one complete response line (no trailing newline). Called
  /// from handle_line's thread and from pool workers, possibly
  /// concurrently — implementations serialize internally.
  using Sink = std::function<void(const std::string&)>;
  /// Sends the lines a Sink has queued (see handle_line).
  using Flush = std::function<void()>;
  /// Human-readable operational notices (warm boot, failed saves); the
  /// tool routes these to stderr. May be empty.
  using Diag = std::function<void(const std::string&)>;

  /// What the transport should do after a line.
  enum class Action {
    Continue,  ///< keep reading
    Shutdown,  ///< shutdown verb fully processed (drained, saved, acked)
  };

  /// Builds the solver/cache/pool and performs the warm boot.
  explicit Service(ServiceOptions options, Diag diag = {});

  /// Joins the pool (any still-running jobs finish and their sinks are
  /// invoked). Call drain_and_save first on clean exits.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Processes one request line. `line_number` is the caller's per-
  /// stream counter, echoed in parse-error messages. Thread-safe. Given
  /// a `flush`, `sink` may queue lines until it runs: handle_line runs
  /// it before any control verb and after each answer a pool thread
  /// makes, and the caller's reading loop once it has no whole line
  /// left (serve_lines). Without one, `sink` must write at once.
  [[nodiscard]] Action handle_line(const std::string& line,
                                   std::uint64_t line_number,
                                   const Sink& sink, const Flush& flush = {});

  /// The EOF / signal path: blocks until no job is in flight, then saves
  /// the cache file (when configured). Emits no ack line. Idempotent.
  void drain_and_save();

  [[nodiscard]] int workers() const noexcept { return workers_; }
  /// The cache's budget in MiB; 0 when the cache is off.
  [[nodiscard]] std::size_t cache_mb() const noexcept {
    return options_.cache_mb;
  }

 private:
  class Accounting;

  void note(const std::string& message);
  void save_cache();
  void write_error(const Sink& sink, const std::string& id,
                   const std::string& message);
  /// Handles a parsed control verb; returns the action for the caller.
  [[nodiscard]] Action handle_op(const api::JsonValue& value,
                                 const std::string& verb, const Sink& sink);
  void submit_job(api::SolveRequest request, const Sink& sink,
                  const Flush& flush);
  /// Answers an accepted, started job, flushed when `flush` is set, and
  /// counts it completed; `since` started when the job did, for
  /// serve.job_ns.
  void finish_job(const api::SolveResult& result,
                  const common::Stopwatch& since, const Sink& sink,
                  const Flush& flush);

  ServiceOptions options_;
  Diag diag_;
  std::shared_ptr<api::ResultCache> cache_;
  std::unique_ptr<api::Solver> solver_;
  api::ResultsWriteOptions write_options_;
  std::unique_ptr<Accounting> accounting_;
  int workers_ = 0;
  // Declared last: the pool's joining destructor must run before any
  // state its workers reference is torn down.
  std::unique_ptr<common::ThreadPool> pool_;
};

/// Reads request lines from one client stream — a common::LineReader or
/// a net::Connection — and passes each to `handle(line, line_number)`,
/// which returns false to stop. A line over the framing bound is
/// answered through `sink` with a fixed error, and reading resumes at the
/// next newline. `flush()` runs whenever the stream has no whole line
/// left and when `handle` stops the loop, so what one read burst
/// produced can leave in one write per destination and nothing waits
/// for a later read. Returns true when `handle` stopped the loop, false
/// when the stream ended.
template <class Stream, class Flush, class Handle>
bool serve_lines(Stream& in, const Service::Sink& sink, const Flush& flush,
                 Handle handle) {
  std::string line;
  for (std::uint64_t line_number = 1;; ++line_number) {
    switch (in.read_line(line)) {
      case common::ReadStatus::Line:
        if (!handle(line, line_number)) {
          flush();
          return true;
        }
        break;
      case common::ReadStatus::TooLong:
        sink(bounded_answer(
            error_answer({}, "line " + std::to_string(line_number) +
                                 ": frame exceeds the line-length bound; "
                                 "resynced at the next newline")));
        break;
      case common::ReadStatus::Eof:
        return false;  // the last line's flush left nothing queued
    }
    if (!in.has_line()) flush();
  }
}

}  // namespace wtam::serve
