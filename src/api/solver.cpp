#include "api/solver.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/lower_bounds.hpp"
#include "core/test_time_table.hpp"
#include "obs/metrics.hpp"
#include "pack/packed_schedule.hpp"
#include "soc/load.hpp"
#include "soc/soc_io.hpp"

namespace wtam::api {

namespace {

constexpr int kMaxWidth = 256;  ///< same ceiling the CLI enforces

/// Inline SOC texts the memo keeps; it starts over when full. A miss
/// costs only the parse and hash every request paid before there was a
/// memo.
constexpr std::size_t kSocMemoEntries = 64;
/// Longer inline texts are resolved afresh, never kept, so the memo stays
/// small whatever clients send (the benchmark SOCs' texts are under 5 KB).
constexpr std::size_t kSocMemoMaxTextBytes = 16 * 1024;

SocIdentity identify(soc::Soc soc) {
  SocIdentity identity;
  identity.hash = common::stable_hash_128(soc::canonical_bytes(soc));
  identity.soc = std::make_shared<const soc::Soc>(std::move(soc));
  return identity;
}

/// The process-wide memo behind resolve_soc_identity.
class SocMemo {
 public:
  static SocMemo& instance() {
    static SocMemo memo;
    return memo;
  }

  /// A built-in name is loaded and hashed by the first call that names
  /// it and kept for the process's life; any other name (a file path) is
  /// loaded afresh, since the file may change between requests.
  SocIdentity named(const std::string& name) {
    const auto names = soc::builtin_soc_names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) return identify(soc::load_by_name_or_path(name));
    Builtin& slot = builtins_[static_cast<std::size_t>(it - names.begin())];
    std::call_once(slot.once, [&slot, &name] {
      slot.identity = identify(soc::load_by_name_or_path(name));
    });
    return slot.identity;
  }

  /// Inline text, keyed by all of its bytes. The parse runs outside the
  /// lock, so two threads missing on one text may both parse it; their
  /// identities are equal, and either may be kept.
  SocIdentity inline_text(const std::string& text) {
    if (text.size() > kSocMemoMaxTextBytes)
      return identify(soc::parse_soc_string(text));
    {
      const common::MutexLock lock(mutex_);
      if (const auto it = texts_.find(text); it != texts_.end())
        return it->second;
    }
    SocIdentity identity = identify(soc::parse_soc_string(text));
    const common::MutexLock lock(mutex_);
    if (texts_.size() == kSocMemoEntries) texts_.clear();
    texts_.try_emplace(text, identity);
    return identity;
  }

 private:
  struct Builtin {
    std::once_flag once;
    SocIdentity identity;  // written once, under `once`
  };

  SocMemo() : builtins_(soc::builtin_soc_names().size()) {}

  std::deque<Builtin> builtins_;  // one per built-in name, never resized
  common::Mutex mutex_;
  std::unordered_map<std::string, SocIdentity> texts_ WTAM_GUARDED_BY(mutex_);
};

Status status_from_interrupt(SolveInterrupt interrupt) noexcept {
  switch (interrupt) {
    case SolveInterrupt::Cancelled: return Status::Cancelled;
    case SolveInterrupt::DeadlineExceeded: return Status::DeadlineExceeded;
    case SolveInterrupt::None: break;
  }
  return Status::Ok;
}

/// One width's solve product. The cache stores exactly this, so hits
/// reproduce the cold run byte for byte.
CachedSolve solve_width(const core::OptimizerBackend& backend,
                        const soc::Soc& soc, int width,
                        const core::BackendOptions& options,
                        const SolveContext& context) {
  const core::TestTimeTable table(soc, width);
  CachedSolve solve;
  solve.outcome = backend.optimize(table, width, options, context);
  solve.lower_bound =
      core::testing_time_lower_bounds(table, width).combined();
  // The constraint-aware validator: a constrained request's schedule is
  // only "valid" when it honors the constraints too (the overload
  // reduces to the geometric validator for empty constraints).
  obs::SpanTimer span(context.trace, "validate");
  solve.schedule_valid =
      pack::validate_packed_schedule(table, solve.outcome.schedule,
                                     options.constraints)
          .empty();
  return solve;
}

/// Runs one validated-or-not request start to finish. Catches everything;
/// the only way out is a SolveResult. `trace`, when non-null, was
/// created at job submission — its epoch is the submit instant, so the
/// first recorded span (queue-wait) is simply [0, execution start).
/// `stored_only` runs no engine: every width comes from one
/// ResultCache::lookup, and a request that probe cannot answer whole
/// comes back without `cache: hit` (execute drops it).
SolveResult execute_impl(const SolveRequest& request, std::size_t index,
                         const CancelToken& cancel, ResultCache* cache,
                         obs::SolveTrace* trace, bool stored_only) {
  common::Stopwatch watch;
  if (trace != nullptr) trace->record("queue-wait", 0, trace->now_ns());
  SolveResult result;
  result.id = request.id.empty() ? "job-" + std::to_string(index + 1)
                                 : request.id;
  result.tag = request.tag;
  result.backend = request.backend;

  const std::string problem = validate(request);
  if (!problem.empty()) {
    result.status = Status::InvalidRequest;
    result.error = problem;
    result.wall_s = watch.elapsed_s();
    return result;
  }

  SolveContext context;
  context.cancel = cancel;
  context.trace = trace;
  if (request.deadline_s.has_value())
    context.deadline = SolveContext::deadline_after(*request.deadline_s);

  // A batch-wide cancel may land before this job ever starts.
  if (context.poll() == SolveInterrupt::Cancelled) {
    result.status = Status::Cancelled;
    result.wall_s = watch.elapsed_s();
    return result;
  }

  SocIdentity identity;
  try {
    obs::SpanTimer span(trace, "soc-resolve");
    identity = resolve_soc_identity(request);
  } catch (const std::exception& e) {
    result.status = Status::InvalidRequest;
    result.error = e.what();
    result.wall_s = watch.elapsed_s();
    return result;
  }
  const soc::Soc& soc = *identity.soc;
  result.soc_name = soc.name;
  result.core_count = soc.core_count();

  // Constraints validate against the resolved model: core indices, the
  // power vector size, and wire intervals against the narrowest swept
  // width (intervals inside [0, width) hold for every wider strip).
  if (!request.options.constraints.empty()) {
    const std::vector<std::string> issues = core::validate_constraints(
        request.options.constraints, soc.core_count(), request.width);
    if (!issues.empty()) {
      result.status = Status::InvalidRequest;
      result.error = "invalid constraints: " + issues.front() +
                     (issues.size() > 1
                          ? " (+" + std::to_string(issues.size() - 1) +
                                " more)"
                          : "");
      result.wall_s = watch.elapsed_s();
      return result;
    }
  }

  try {
    const core::OptimizerBackend& backend =
        core::BackendRegistry::instance().at(request.backend);
    const int width_last =
        request.width_max == 0 ? request.width : request.width_max;

    // Deadline-bound work returns timing-dependent best-so-far
    // incumbents, so it never reads from or writes to the cache.
    const bool cacheable =
        cache != nullptr && !request.deadline_s.has_value();
    RequestKey key;
    if (cacheable)
      key = make_request_key(identity.hash, request.width, request.backend,
                             request.options);

    std::optional<std::vector<CachedSolve>> stored;
    if (stored_only) {
      if (cacheable) {
        std::vector<RequestKey> keys(
            static_cast<std::size_t>(width_last - request.width + 1), key);
        for (std::size_t i = 0; i < keys.size(); ++i)
          keys[i].width = request.width + static_cast<int>(i);
        obs::SpanTimer lookup_span(trace, "cache-lookup");
        stored = cache->lookup(keys);
      }
      if (!stored.has_value()) return result;
    }

    std::optional<CachedSolve> best;
    int best_width = 0;
    int cache_hits = 0;
    SolveInterrupt interrupt = SolveInterrupt::None;
    for (int w = request.width; w <= width_last; ++w) {
      CachedSolve solve;
      SolveInterrupt fired = SolveInterrupt::None;
      if (stored.has_value()) {
        solve = std::move(
            (*stored)[static_cast<std::size_t>(w - request.width)]);
        ++cache_hits;
      } else if (cacheable) {
        key.width = w;
        obs::SpanTimer lookup_span(trace, "cache-lookup");
        ResultCache::Fetch fetch = cache->begin_fetch(
            key,
            [&context] { return context.poll() != SolveInterrupt::None; });
        // A lookup that blocked on another job's identical in-flight
        // solve is a different stage than a map probe — rename it so
        // traces show coalescing waits for what they are.
        if (fetch.outcome == ResultCache::FetchOutcome::Coalesced ||
            fetch.outcome == ResultCache::FetchOutcome::Interrupted)
          lookup_span.set_stage("cache-coalesce-wait");
        lookup_span.finish();
        if (fetch.outcome == ResultCache::FetchOutcome::Interrupted) {
          // Cancelled while waiting on another thread's identical solve;
          // this width was neither served nor computed.
          interrupt = context.poll();
          break;
        }
        if (fetch.value.has_value()) {
          // Served from the cache (stored entry, or an identical solve
          // another thread just finished — coalesced, never recomputed).
          solve = std::move(*fetch.value);
          ++cache_hits;
        } else {
          try {
            solve = solve_width(backend, soc, w, request.options, context);
          } catch (...) {
            cache->abandon(fetch);  // coalesced waiters must not hang
            throw;
          }
          fired = solve.outcome.interrupt;
          if (fired == SolveInterrupt::None)
            cache->publish(fetch, solve);
          else
            cache->abandon(fetch);  // interrupted incumbents are not results
        }
      } else {
        solve = solve_width(backend, soc, w, request.options, context);
        fired = solve.outcome.interrupt;
      }
      ++result.widths_tried;
      if (!best.has_value() ||
          solve.outcome.testing_time < best->outcome.testing_time) {
        best = std::move(solve);
        best_width = w;
      }
      if (fired != SolveInterrupt::None) {
        interrupt = fired;
        break;
      }
      if (w < width_last) {
        // Sweep boundary poll: the next width would start a whole new
        // search, so check the clock/token before committing to it.
        const SolveInterrupt between = context.poll();
        if (between != SolveInterrupt::None) {
          interrupt = between;
          break;
        }
      }
    }

    if (best.has_value()) {
      result.width = best_width;
      result.lower_bound = best->lower_bound;
      result.schedule_valid = best->schedule_valid;
      result.outcome = std::move(best->outcome);
    }
    if (cacheable)
      result.cache = cache_hits > 0 && cache_hits == result.widths_tried
                         ? CacheOutcome::Hit
                         : CacheOutcome::Miss;
    result.status = status_from_interrupt(interrupt);
  } catch (const core::UnsupportedConstraintError& e) {
    // A backend refusing a constraint class is a request problem (pick a
    // constraint-complete backend), not an engine failure.
    result.status = Status::InvalidRequest;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.status = Status::InternalError;
    result.error = e.what();
  } catch (...) {
    // execute()'s contract: the only way out is a SolveResult — a
    // non-std exception from an engine becomes an InternalError status.
    result.status = Status::InternalError;
    result.error = "unknown exception";
  }
  result.wall_s = watch.elapsed_s();
  return result;
}

/// One counter per value of a result enum (`kLast` is its last value),
/// named `prefix` and the value's text. Each is registered the first time
/// its value is counted, so a scrape lists only the values seen, and is
/// reached without the registry after that.
template <class Enum, Enum kLast>
class CounterPerValue {
 public:
  explicit CounterPerValue(std::string prefix) : prefix_(std::move(prefix)) {}

  void increment(Enum value) {
    Slot& slot = slots_[static_cast<std::size_t>(value)];
    std::call_once(slot.once, [&] {
      slot.counter = &obs::MetricsRegistry::instance().counter(
          prefix_ + std::string(to_string(value)));
    });
    slot.counter->increment();
  }

 private:
  struct Slot {
    std::once_flag once;
    obs::Counter* counter = nullptr;  // written once, under `once`
  };

  const std::string prefix_;
  std::array<Slot, static_cast<std::size_t>(kLast) + 1> slots_;
};

/// execute_impl plus process-wide metrics: every job — whatever its
/// status — bumps solver.requests and its per-status/per-cache-outcome
/// counters, moves the in-flight gauge, and records its latency into
/// solver.solve_ns. Recording is unconditional (it does not touch the
/// result payload); the trace, in contrast, rides only when requested.
/// A `stored_only` run that is not a hit is no job yet: nullopt, and
/// nothing recorded, since the solve that follows it records the job.
std::optional<SolveResult> execute(const SolveRequest& request,
                                   std::size_t index, const CancelToken& cancel,
                                   ResultCache* cache, obs::SolveTrace* trace,
                                   bool stored_only = false) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  static obs::Counter& requests_total = registry.counter("solver.requests");
  static obs::Gauge& inflight = registry.gauge("solver.inflight");
  static obs::Histogram& solve_hist = registry.histogram("solver.solve_ns");
  static CounterPerValue<Status, Status::Overloaded> status_counts(
      "solver.status.");
  static CounterPerValue<CacheOutcome, CacheOutcome::Hit> cache_counts(
      "solver.cache.");

  inflight.add(1);
  const common::Stopwatch watch;
  SolveResult result =
      execute_impl(request, index, cancel, cache, trace, stored_only);
  inflight.add(-1);
  if (stored_only && result.cache != CacheOutcome::Hit) return std::nullopt;
  solve_hist.record_ns(watch.elapsed_ns());
  requests_total.increment();
  status_counts.increment(result.status);
  cache_counts.increment(result.cache);
  if (trace != nullptr) result.trace = trace->spans();
  return result;
}

/// Serialized progress dispatch; a throwing callback must not take down
/// a worker thread, so failures are swallowed here.
class ProgressSink {
 public:
  explicit ProgressSink(const ProgressFn& fn) : fn_(fn) {}

  void started(std::size_t index, std::size_t total,
               const SolveRequest& request) {
    emit(ProgressEvent{ProgressEvent::Phase::Started, index, total, &request,
                       nullptr});
  }

  void finished(std::size_t index, std::size_t total,
                const SolveRequest& request, const SolveResult& result) {
    emit(ProgressEvent{ProgressEvent::Phase::Finished, index, total, &request,
                       &result});
  }

 private:
  void emit(const ProgressEvent& event) {
    if (!fn_) return;
    // The lock serializes callback invocations (the documented contract:
    // progress events are never delivered concurrently).
    const common::MutexLock lock(mutex_);
    try {
      fn_(event);
    } catch (...) {
      // Swallowed by contract: a throwing progress callback must not
      // take down the worker thread that happened to deliver the event.
    }
  }

  const ProgressFn& fn_;
  // wtam-lint: allow(unannotated-mutex) — serializes fn_ calls, no fields
  common::Mutex mutex_;
};

}  // namespace

SocIdentity resolve_soc_identity(const SolveRequest& request) {
  if (request.soc_value.has_value()) return identify(*request.soc_value);
  SocMemo& memo = SocMemo::instance();
  if (!request.soc_inline.empty()) return memo.inline_text(request.soc_inline);
  return memo.named(request.soc);
}

soc::Soc resolve_soc(const SolveRequest& request) {
  return *resolve_soc_identity(request).soc;
}

std::string_view to_string(Status status) noexcept {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::InvalidRequest: return "invalid_request";
    case Status::DeadlineExceeded: return "deadline_exceeded";
    case Status::Cancelled: return "cancelled";
    case Status::Overloaded: return "overloaded";
    case Status::InternalError: break;
  }
  return "internal_error";
}

std::optional<Status> parse_status(std::string_view text) noexcept {
  for (const Status status :
       {Status::Ok, Status::InvalidRequest, Status::DeadlineExceeded,
        Status::Cancelled, Status::InternalError, Status::Overloaded})
    if (to_string(status) == text) return status;
  return std::nullopt;
}

std::string_view to_string(CacheOutcome cache) noexcept {
  switch (cache) {
    case CacheOutcome::Hit: return "hit";
    case CacheOutcome::Miss: return "miss";
    case CacheOutcome::Bypass: break;
  }
  return "bypass";
}

std::string validate(const SolveRequest& request) {
  const int sources = (request.soc.empty() ? 0 : 1) +
                      (request.soc_inline.empty() ? 0 : 1) +
                      (request.soc_value.has_value() ? 1 : 0);
  if (sources == 0)
    return "no SOC given (set soc, soc_inline, or soc_value)";
  if (sources > 1)
    return "ambiguous SOC (set exactly one of soc, soc_inline, soc_value)";
  if (request.width < 1 || request.width > kMaxWidth)
    return "width must be in 1..256";
  if (request.width_max != 0 &&
      (request.width_max < request.width || request.width_max > kMaxWidth))
    return "width_max must be 0 or in [width, 256]";
  if (request.backend.empty() ||
      core::BackendRegistry::instance().find(request.backend) == nullptr) {
    std::string known;
    for (const auto& name : core::BackendRegistry::instance().names())
      known += " " + name;
    return "unknown backend '" + request.backend + "' (registered:" + known +
           ")";
  }
  if (request.deadline_s.has_value() && !(*request.deadline_s > 0.0))
    return "deadline_s must be > 0";
  if (request.options.threads < 0)
    return "options.threads must be >= 0 (0 = hardware threads)";
  if (request.options.min_tams < 1 ||
      request.options.max_tams < request.options.min_tams)
    return "bad TAM range (need 1 <= min_tams <= max_tams)";
  if (request.options.rectpack.local_search_iterations < 0)
    return "rectpack.local_search_iterations must be >= 0";
  if (!request.options.constraints.empty()) {
    // Structural pre-validation (negative indices/budgets, malformed
    // intervals, cycles); the model-dependent checks run after the SOC
    // resolves.
    const std::vector<std::string> issues =
        core::validate_constraints(request.options.constraints, -1, -1);
    if (!issues.empty()) return "invalid constraints: " + issues.front();
  }
  return {};
}

Solver::Solver(SolverOptions options) : options_(std::move(options)) {
  if (options_.threads < 0)
    throw std::invalid_argument("Solver: threads must be >= 0");
}

SolveResult Solver::solve(const SolveRequest& request, CancelToken cancel,
                          const ProgressFn& progress) const {
  ProgressSink sink(progress);
  sink.started(0, 1, request);
  const auto trace =
      options_.trace ? std::make_unique<obs::SolveTrace>() : nullptr;
  SolveResult result =
      *execute(request, 0, cancel, options_.cache.get(), trace.get());
  sink.finished(0, 1, request, result);
  return result;
}

std::optional<SolveResult> Solver::solve_stored(
    const SolveRequest& request) const {
  // Deadline-bound work bypasses the cache, so it can never hit.
  if (!options_.cache || request.deadline_s.has_value()) return std::nullopt;
  const auto trace =
      options_.trace ? std::make_unique<obs::SolveTrace>() : nullptr;
  return execute(request, 0, {}, options_.cache.get(), trace.get(),
                 /*stored_only=*/true);
}

std::vector<SolveResult> Solver::solve_batch(
    const std::vector<SolveRequest>& requests, CancelToken cancel,
    const ProgressFn& progress) const {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;

  // Execution order: priority descending, request order within a
  // priority. Results stay in request order either way.
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].priority > requests[b].priority;
                   });

  // One span log per job, allocated at submission so each trace's epoch
  // is the submit instant — queue-wait then falls out as the gap between
  // epoch and execution start.
  std::vector<std::unique_ptr<obs::SolveTrace>> traces;
  if (options_.trace) {
    traces.resize(requests.size());
    for (auto& trace : traces) trace = std::make_unique<obs::SolveTrace>();
  }

  ProgressSink sink(progress);
  const auto run_job = [&](std::size_t index) {
    sink.started(index, requests.size(), requests[index]);
    results[index] =
        *execute(requests[index], index, cancel, options_.cache.get(),
                 options_.trace ? traces[index].get() : nullptr);
    sink.finished(index, requests.size(), requests[index], results[index]);
  };

  const int threads = options_.threads == 0
                          ? common::ThreadPool::hardware_threads()
                          : options_.threads;
  if (threads <= 1) {
    for (const std::size_t index : order) run_job(index);
    return results;
  }

  // Declared before the pool so that even on an exceptional unwind the
  // pool's joining destructor runs first — no worker can touch the
  // latch after it is destroyed. The latch notifies under its lock, so
  // the waiter cannot wake, observe done == N, and destroy it while a
  // worker is mid-notify.
  common::CompletionLatch latch;
  common::ThreadPool pool(
      std::min(threads, static_cast<int>(requests.size())));
  for (const std::size_t index : order) {
    pool.submit([&, index] {
      run_job(index);  // execute() never throws
      latch.arrive();
    });
  }
  latch.wait(requests.size());
  return results;
}

}  // namespace wtam::api
