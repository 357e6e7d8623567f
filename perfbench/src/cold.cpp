// The cold workloads — sweep, pack, pack-power. Two closed-loop clients
// (each sends its next request once it has its reply) call one in-process
// api::Solver over a shared ResultCache, the way wtam_serve runs jobs.
// Keys are unique within a pass of the workload's pool and every pass
// gets a fresh cache, so every width misses and publishes.
//
// The untraced run measures the end-to-end metrics. The traced run solves
// each request twice — through api::Solver, and through the Solver's
// public steps one call at a time with a span around each — and then takes
// untimed probes for what the Solver does not hand back: partition
// statistics and B&B nodes (core::co_optimize with the backend's options,
// asserting the same testing time) and the rectangle-model and
// power-schedule timings.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/job_io.hpp"
#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/subprocess.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/co_optimizer.hpp"
#include "core/lower_bounds.hpp"
#include "core/power.hpp"
#include "core/test_time_table.hpp"
#include "obs/trace.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rect_model.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace wtam;

constexpr int kClients = 2;  // see README, "Design rules"
// setup_s: the median over kSetupBlocks of the fastest of kSetupsPerBlock
// consecutive launches (see setup_seconds).
constexpr int kSetupBlocks = 9;
constexpr int kSetupsPerBlock = 5;
/// No request may take more than this share of the timed work (clients x
/// seconds); traced runs at least kCapMinSeconds long assert it (the
/// benchmark runs 30 s). Shorter runs would flag the slowest sweeps on noise.
constexpr double kCapShare = 0.05;
constexpr double kCapMinSeconds = 20.0;

/// How many requests a traced run scores: its counts cover exactly the
/// first ceil(rate * seconds) requests of the run order, so they repeat
/// exactly for a seed, and its clients run past the deadline until those
/// are done. Each rate is below what a traced run completes on a 4-vCPU
/// box: sweep about 2/s, pack and pack-power 4-7/s.
std::size_t traced_scored_count(const Options& options) {
  const double rate = options.workload == "sweep" ? 0.5 : 4.0;
  return static_cast<std::size_t>(std::ceil(rate * options.seconds));
}

/// A fresh ResultCache, and a Solver over it, for each pass of the pool.
class PassCaches {
 public:
  [[nodiscard]] api::ResultCache& cache(std::size_t pass) {
    return *at(pass).cache;
  }
  [[nodiscard]] const api::Solver& solver(std::size_t pass) {
    return at(pass).solver;
  }

  [[nodiscard]] std::size_t passes() const {
    const common::MutexLock lock(mutex_);
    return passes_.size();
  }

  /// Counters summed over the passes.
  [[nodiscard]] api::ResultCacheStats stats() const {
    const common::MutexLock lock(mutex_);
    api::ResultCacheStats total;
    for (const auto& pass : passes_) {
      const api::ResultCacheStats stats = pass->cache->stats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.coalesced += stats.coalesced;
      total.evictions += stats.evictions;
    }
    return total;
  }

 private:
  struct Pass {
    std::shared_ptr<api::ResultCache> cache =
        std::make_shared<api::ResultCache>();
    api::Solver solver{api::SolverOptions::with_threads(1, cache)};
  };

  Pass& at(std::size_t pass) {
    const common::MutexLock lock(mutex_);
    while (passes_.size() <= pass) passes_.push_back(std::make_unique<Pass>());
    return *passes_[pass];
  }

  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Pass>> passes_ WTAM_GUARDED_BY(mutex_);
};

/// Runs kClients closed-loop clients over run positions 0, 1, 2, ...
/// until the deadline has passed and the first `scored` positions are
/// done; `serve(client, position)` answers one request and must not throw.
/// Returns the wall time until the last client finished.
template <typename Serve>
double run_clients(std::size_t scored, double seconds, const Serve& serve) {
  std::atomic<std::size_t> next{0};
  const common::Stopwatch clock;
  std::vector<double> finished(kClients, 0.0);
  {
    ThreadGroup clients;
    for (int client = 0; client < kClients; ++client)
      clients.threads.emplace_back([&, client] {
        for (;;) {
          const std::size_t position = next.fetch_add(1);
          if (position >= scored && clock.elapsed_s() >= seconds) break;
          serve(client, position);
        }
        finished[static_cast<std::size_t>(client)] = clock.elapsed_s();
      });
  }
  return *std::max_element(finished.begin(), finished.end());
}

/// Set-up of the system under test: launching wtam_serve with the
/// clients' two worker threads — the Solver, its ResultCache and the pool,
/// what a service or batch client starts before its first request — until
/// it answers a ping. About 2.5 ms, so many launches (see setup_seconds).
double measure_setup(const Options& options) {
  return setup_seconds(kSetupBlocks, kSetupsPerBlock, [&options] {
    const common::Stopwatch watch;
    common::Subprocess serve(
        {options.bin_dir + "/wtam_serve", "--threads", "2", "--quiet"});
    if (!serve.write_line("{\"op\": \"ping\"}") || !serve.read_line())
      throw std::runtime_error("wtam_serve did not answer its ping");
    const double seconds = watch.elapsed_s();
    serve.close_stdin();
    (void)serve.wait();
    return seconds;
  });
}

/// The output check of a cold request: check_result, and no cache hit.
std::string check_cold(const api::SolveResult& result,
                       const Expected& expected) {
  std::string problem = check_result(result, expected);
  if (problem.empty() && result.cache != api::CacheOutcome::Miss)
    problem = "cache " + std::string(api::to_string(result.cache)) +
              " on a cold workload";
  return problem;
}

void describe(Report& report, const Options& options, const Pool& pool,
              std::size_t passes) {
  report.meta("workload", options.workload);
  report.meta("seed", std::to_string(options.seed));
  report.meta("seconds", options.seconds);
  report.meta("clients", kClients);
  report.meta("outstanding", kClients);
  report.meta("pool_points", static_cast<double>(pool.items.size()));
  report.meta("cache_passes", static_cast<double>(passes));
}

// ---- untraced run ----------------------------------------------------------

/// One answered request of the untraced run.
struct Done {
  std::size_t position = 0;
  int item = 0;
  double latency_s = 0.0;
  double cpu_s = 0.0;
  bool ok = false;
  int width = 0;
  std::int64_t testing_time = 0;
  pack::PackedSchedule schedule;
};

struct ClientLog {
  Tally tally;
  std::vector<Done> done;
};

/// Re-validates every returned schedule with the constraint-aware
/// validator on tables of the benchmark's own, after the timed window.
/// One table per SOC, at the widest width it was solved at, serves all of
/// its points: T_i(w) depends only on the widths up to w. As that table
/// admits any width up to the widest, each schedule must also span exactly
/// its answer's width and end at its testing time.
void revalidate(const Pool& pool, const std::vector<Done*>& done,
                Tally& tally) {
  std::map<std::string, std::vector<const Done*>> by_soc;
  for (const Done* request : done) {
    if (!request->ok) continue;
    const api::SolveRequest& source =
        pool.items[static_cast<std::size_t>(request->item)].request;
    by_soc[source.soc + '\n' + source.soc_inline].push_back(request);
  }
  std::vector<const std::vector<const Done*>*> groups;
  for (const auto& entry : by_soc) groups.push_back(&entry.second);

  std::atomic<std::size_t> next{0};
  common::Mutex mutex;
  std::vector<std::string> problems;  // under `mutex`
  {
    ThreadGroup workers;
    for (int t = 0; t < std::max(1, common::ThreadPool::hardware_threads());
         ++t)
      workers.threads.emplace_back([&] {
        for (std::size_t g = next.fetch_add(1); g < groups.size();
             g = next.fetch_add(1)) {
          const std::vector<const Done*>& group = *groups[g];
          try {
            const soc::Soc chip = api::resolve_soc(
                pool.items[static_cast<std::size_t>(group.front()->item)]
                    .request);
            int widest = 0;
            for (const Done* request : group)
              widest = std::max(widest, request->width);
            const core::TestTimeTable table(chip, widest);
            for (const Done* request : group) {
              const api::SolveRequest& source =
                  pool.items[static_cast<std::size_t>(request->item)].request;
              std::vector<std::string> issues =
                  pack::validate_packed_schedule(table, request->schedule,
                                                 source.options.constraints);
              if (request->schedule.total_width != request->width)
                issues.push_back(
                    "the schedule spans " +
                    std::to_string(request->schedule.total_width) +
                    " wires, not the answer's " +
                    std::to_string(request->width));
              if (request->schedule.makespan != request->testing_time)
                issues.push_back(
                    "the schedule ends at " +
                    std::to_string(request->schedule.makespan) +
                    ", not at the answer's testing time " +
                    std::to_string(request->testing_time));
              if (!issues.empty()) {
                const common::MutexLock lock(mutex);
                problems.push_back(source.id + ": " + issues.front());
              }
            }
          } catch (const std::exception& e) {
            const common::MutexLock lock(mutex);
            problems.push_back(e.what());
          }
        }
      });
  }
  for (std::string& problem : problems)
    tally.fail("re-validation: " + std::move(problem));
}

int run_untraced(const Options& options, const Pool& pool,
                 const std::vector<Expected>& expected,
                 const std::vector<int>& order) {
  Report report;
  report.set("setup_s", measure_setup(options));
  PassCaches passes;
  std::vector<ClientLog> logs(kClients);
  const double wall = run_clients(
      0, options.seconds, [&](int client, std::size_t position) {
        ClientLog& log = logs[static_cast<std::size_t>(client)];
        Done done;
        done.position = position;
        done.item = order[position % order.size()];
        const api::SolveRequest& request =
            pool.items[static_cast<std::size_t>(done.item)].request;
        const api::Solver& solver = passes.solver(position / order.size());
        ++log.tally.attempted;
        const common::Stopwatch watch;
        const double cpu_start = thread_cpu_s();
        api::SolveResult result = solver.solve(request);
        done.cpu_s = thread_cpu_s() - cpu_start;
        const std::string problem =
            check_cold(result, expected[static_cast<std::size_t>(done.item)]);
        done.latency_s = watch.elapsed_s();
        if (problem.empty()) {
          done.ok = true;
          done.width = result.width;
          done.testing_time = result.outcome->testing_time;
          done.schedule = std::move(result.outcome->schedule);
        } else {
          log.tally.fail(request.id + ": " + problem);
        }
        log.done.push_back(std::move(done));
      });

  std::vector<Done*> done;
  for (ClientLog& log : logs) {
    report.tally().merge(log.tally);
    for (Done& request : log.done) done.push_back(&request);
  }
  std::sort(done.begin(), done.end(), [](const Done* a, const Done* b) {
    return a->position < b->position;
  });
  revalidate(pool, done, report.tally());

  std::vector<double> latency_ms;
  double cpu_s = 0.0;
  for (const Done* request : done) {
    latency_ms.push_back(request->latency_s * 1e3);
    cpu_s += request->cpu_s;
  }
  const auto completed = static_cast<double>(done.size());
  report.set("throughput_rps", completed / wall);
  report.set("latency_p50_ms", quantile(latency_ms, 0.5));
  report.set("latency_p90_ms", quantile(latency_ms, 0.9));
  report.set("cpu_ms_per_request", cpu_s / completed * 1e3);
  report.set("peak_rss_mb", self_peak_rss_mb());
  report.set("gap_to_lb_pct", mean_gap_pct(expected));
  const api::ResultCacheStats stats = passes.stats();
  report.require(stats.hits == 0, "the cold workload was served " +
                                      std::to_string(stats.hits) +
                                      " cache hit(s)");
  describe(report, options, pool, passes.passes());
  report.meta("setups", kSetupBlocks * kSetupsPerBlock);
  report.meta("setup_blocks", kSetupBlocks);
  return report.print(false);
}

// ---- traced run ------------------------------------------------------------

/// One swept width of a traced request: its table and the backend's answer.
struct WidthRun {
  core::TestTimeTable table;
  core::BackendOutcome outcome;
  std::int64_t lower_bound = 0;
  bool valid = false;
};

/// A traced request's products. The tables point at `chip`, so a Pipeline
/// is filled in place and never moved.
struct Pipeline {
  Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  soc::Soc chip;
  std::vector<WidthRun> widths;
  std::string json;  ///< the result line, as api::Solver writes it
  int hits = 0;
  int misses = 0;
};

/// Re-bases the engine's spans — relative to `trace`'s construction, just
/// before `parent` opened — onto the run clock under `parent`, clamped
/// inside it.
void adopt_engine_spans(SpanLog& log, int parent,
                        const obs::SolveTrace& trace) {
  const std::int64_t start = log.at(parent).start_ns;
  const std::int64_t end = log.at(parent).end_ns;
  for (const obs::TraceSpan& span : trace.spans()) {
    const std::int64_t from = std::clamp(start + span.start_ns, start, end);
    const std::int64_t to = std::clamp(from + span.duration_ns, from, end);
    log.add({span.stage, from, to, parent});
  }
}

/// One request through the Solver's public steps on its cache path —
/// resolve, key, then per width fetch, TestTimeTable, optimize, lower
/// bound, validate, publish — and result_to_json, with a span around each
/// call. The engine's own spans (partition-search, exact-step,
/// walker:<seed>) come from the obs::SolveTrace handed to the backend and
/// hang under "backend.optimize".
void traced_solve(const api::SolveRequest& request, api::ResultCache& cache,
                  SpanLog& log, Pipeline& out) {
  const int root = log.open("request", -1);
  out.chip = timed(&log, "soc.resolve", root,
                   [&] { return api::resolve_soc(request); });
  api::RequestKey key = timed(&log, "api.key", root, [&] {
    return api::make_request_key(out.chip, request.width, request.backend,
                                 request.options);
  });
  const core::OptimizerBackend& backend =
      core::BackendRegistry::instance().at(request.backend);
  const int last = request.width_max == 0 ? request.width : request.width_max;
  std::size_t best = 0;
  for (int width = request.width; width <= last; ++width) {
    key.width = width;
    const api::ResultCache::Fetch fetch =
        timed(&log, "api.cache_lookup", root,
              [&] { return cache.begin_fetch(key); });
    if (fetch.outcome != api::ResultCache::FetchOutcome::Lead) {
      ++out.hits;
      throw std::runtime_error("width " + std::to_string(width) +
                               " was served from the cache");
    }
    ++out.misses;
    std::optional<WidthRun> run;
    try {
      core::TestTimeTable table = timed(&log, "wrapper.table_build", root, [&] {
        return core::TestTimeTable(out.chip, width);
      });
      obs::SolveTrace trace;
      core::SolveContext context;
      context.trace = &trace;
      const int optimize = log.open("backend.optimize", root);
      core::BackendOutcome outcome =
          backend.optimize(table, width, request.options, context);
      log.close(optimize);
      adopt_engine_spans(log, optimize, trace);
      const std::int64_t lower_bound =
          timed(&log, "core.lower_bound", root, [&] {
            return core::testing_time_lower_bounds(table, width).combined();
          });
      const bool valid = timed(&log, "pack.validate", root, [&] {
        return pack::validate_packed_schedule(table, outcome.schedule,
                                              request.options.constraints)
            .empty();
      });
      run.emplace(WidthRun{std::move(table), std::move(outcome), lower_bound,
                           valid});
    } catch (...) {
      cache.abandon(fetch);  // nothing was published for this key
      throw;
    }
    timed(&log, "api.cache_publish", root, [&] {
      cache.publish(fetch, api::CachedSolve{run->outcome, run->lower_bound,
                                            run->valid});
      return 0;
    });
    if (!out.widths.empty() &&
        run->outcome.testing_time < out.widths[best].outcome.testing_time)
      best = out.widths.size();
    out.widths.push_back(std::move(*run));
  }

  const WidthRun& winner = out.widths[best];
  api::SolveResult result;
  result.status = api::Status::Ok;
  result.id = request.id;
  result.tag = request.tag;
  result.soc_name = out.chip.name;
  result.core_count = out.chip.core_count();
  result.backend = request.backend;
  result.width = request.width + static_cast<int>(best);
  result.widths_tried = static_cast<int>(out.widths.size());
  result.outcome = winner.outcome;
  result.lower_bound = winner.lower_bound;
  result.schedule_valid = winner.valid;
  result.cache = api::CacheOutcome::Miss;
  out.json = timed(&log, "api.json_write", root, [&] {
    return api::result_to_json(result).dump_compact_string();
  });
  log.close(root);
}

struct TracedRequest {
  std::size_t position = 0;
  int item = 0;
  bool ok = false;
  bool enumerative = false;
  bool power = false;
  std::vector<Span> spans;
  double untraced_s = 0.0;
  int tables = 0;
  int hits = 0;
  int misses = 0;
  std::size_t response_bytes = 0;
  std::int64_t enumerated = 0;
  std::int64_t evaluated = 0;
  std::int64_t exact_nodes = 0;
  std::int64_t repacks = 0;
  double rect_model_s = 0.0;
  double power_schedule_s = 0.0;
};

/// Counts and timings the Solver does not hand back, taken after the
/// request's spans closed: they are not part of its wall time.
void probe(const api::SolveRequest& request, const Pipeline& pipeline,
           TracedRequest& record) {
  const core::BackendOptions& options = request.options;
  for (const WidthRun& run : pipeline.widths) {
    const int width = run.table.max_width();
    if (record.enumerative) {
      core::CoOptimizeOptions co;
      co.search.min_tams = options.min_tams;
      co.search.max_tams = options.max_tams;
      co.search.threads = options.threads;
      co.run_final_step = options.run_final_step;
      const core::CoOptimizeResult flow =
          core::co_optimize(run.table, width, co);
      if (!run.outcome.architecture.has_value() ||
          flow.architecture.testing_time !=
              run.outcome.architecture->testing_time)
        throw std::runtime_error(
            "core::co_optimize disagrees with the enumerative backend at "
            "width " +
            std::to_string(width));
      for (const core::PartitionSearchStats& stats : flow.heuristic.per_b) {
        record.enumerated += static_cast<std::int64_t>(stats.partitions_unique);
        record.evaluated +=
            static_cast<std::int64_t>(stats.evaluated_to_completion);
      }
      record.exact_nodes += flow.final_step.nodes;
      if (record.power) {
        const common::Stopwatch watch;
        (void)core::schedule_with_power_limit(
            run.table, *run.outcome.architecture, options.constraints.power,
            options.constraints.power_budget);
        record.power_schedule_s += watch.elapsed_s();
      }
    } else {
      const common::Stopwatch watch;
      (void)pack::build_rect_model(run.table, width);
      record.rect_model_s += watch.elapsed_s();
      for (const auto& [name, value] : run.outcome.details)
        if (name == "repacks") record.repacks += std::stoll(value);
    }
  }
}

struct ClientTrace {
  Tally tally;
  std::vector<TracedRequest> requests;
};

int run_traced(const Options& options, const Pool& pool,
               const std::vector<Expected>& expected,
               const std::vector<int>& order) {
  Report report;
  const std::size_t scored = traced_scored_count(options);
  PassCaches solver_passes;
  PassCaches pipeline_passes;
  const common::Stopwatch clock;
  std::vector<ClientTrace> logs(kClients);
  (void)run_clients(
      scored, options.seconds, [&](int client, std::size_t position) {
        ClientTrace& log = logs[static_cast<std::size_t>(client)];
        TracedRequest record;
        record.position = position;
        record.item = order[position % order.size()];
        const api::SolveRequest& request =
            pool.items[static_cast<std::size_t>(record.item)].request;
        record.enumerative = request.backend == "enumerative";
        record.power = request.options.constraints.has_power();
        const std::size_t pass = position / order.size();
        ++log.tally.attempted;
        try {
          std::string solver_json;
          const auto untraced = [&] {
            const api::Solver& solver = solver_passes.solver(pass);
            const common::Stopwatch watch;
            const api::SolveResult result = solver.solve(request);
            record.untraced_s = watch.elapsed_s();
            const std::string problem = check_cold(
                result, expected[static_cast<std::size_t>(record.item)]);
            if (!problem.empty()) throw std::runtime_error(problem);
            solver_json = api::result_to_json(result).dump_compact_string();
          };
          SpanLog spans(clock);
          Pipeline pipeline;
          api::ResultCache& cache = pipeline_passes.cache(pass);
          // Alternate which path goes first, so neither always finds the
          // CPU caches warm.
          if (position % 2 == 0) {
            untraced();
            traced_solve(request, cache, spans, pipeline);
          } else {
            traced_solve(request, cache, spans, pipeline);
            untraced();
          }
          if (pipeline.json != solver_json)
            throw std::runtime_error(
                "the traced steps answered differently from api::Solver");
          probe(request, pipeline, record);
          record.spans = spans.take();
          record.tables = static_cast<int>(pipeline.widths.size());
          record.hits = pipeline.hits;
          record.misses = pipeline.misses;
          record.response_bytes = pipeline.json.size();
          record.ok = true;
        } catch (const std::exception& e) {
          log.tally.fail(request.id + ": " + e.what());
        }
        log.requests.push_back(std::move(record));
      });

  std::vector<const TracedRequest*> done;
  for (const ClientTrace& log : logs) {
    report.tally().merge(log.tally);
    for (const TracedRequest& request : log.requests)
      if (request.ok) done.push_back(&request);
  }
  std::sort(done.begin(), done.end(),
            [](const TracedRequest* a, const TracedRequest* b) {
              return a->position < b->position;
            });
  std::vector<LayerTimes> times;
  for (const TracedRequest* request : done)
    times.push_back(layer_times(request->spans));

  // Per-request medians over the requests a layer ran on; the counts
  // cover the scored requests only, so they repeat exactly for a seed.
  const auto med = [&](const auto& value, const auto& applies, bool counts) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < done.size(); ++i)
      if (applies(*done[i]) && (!counts || done[i]->position < scored))
        samples.push_back(static_cast<double>(value(*done[i], times[i])));
    return median(std::move(samples));
  };
  const auto all = [](const TracedRequest&) { return true; };
  const auto enumerative = [](const TracedRequest& r) { return r.enumerative; };
  const auto rectpack = [](const TracedRequest& r) { return !r.enumerative; };
  const auto powered = [](const TracedRequest& r) {
    return r.enumerative && r.power;
  };
  const auto in = [](const char* layer, double unit_ns) {
    return [layer, unit_ns](const TracedRequest&, const LayerTimes& t) {
      return t.get(layer) / unit_ns;
    };
  };
  const auto share = [](const char* layer) {
    return [layer](const TracedRequest&, const LayerTimes& t) {
      return 100.0 * t.get(layer) / t.wall_ns;
    };
  };
  const auto field = [](auto member) {
    return [member](const TracedRequest& r, const LayerTimes&) {
      return static_cast<double>(r.*member);
    };
  };
  constexpr double kUs = 1e3;
  constexpr double kMs = 1e6;

  std::vector<int> prefix;
  for (std::size_t p = 0; p < scored; ++p)
    prefix.push_back(order[p % order.size()]);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<double> bytes;
  for (const TracedRequest* request : done)
    if (request->position < scored) {
      hits += static_cast<std::uint64_t>(request->hits);
      misses += static_cast<std::uint64_t>(request->misses);
      bytes.push_back(static_cast<double>(request->response_bytes));
    }

  report.set("soc.resolve_us", med(in("soc.resolve", kUs), all, false));
  report.set("soc.repeated_core_share", repeated_core_share(pool, prefix));
  report.set("api.key_us", med(in("api.key", kUs), all, false));
  report.set("api.json_write_us", med(in("api.json_write", kUs), all, false));
  report.set("api.response_bytes", mean(bytes));
  report.set("api.cache_lookup_us",
             med(in("api.cache_lookup", kUs), all, false));
  report.set("api.cache_publish_us",
             med(in("api.cache_publish", kUs), all, false));
  report.set("api.cache_hits", static_cast<double>(hits));
  report.set("api.cache_misses", static_cast<double>(misses));
  report.set("api.cache_evictions",
             static_cast<double>(pipeline_passes.stats().evictions));
  report.set("api.cache_hit_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses));
  report.set("wrapper.table_build_ms",
             med(in("wrapper.table_build", kMs), all, false));
  report.set("wrapper.tables_per_request",
             med(field(&TracedRequest::tables), all, true));
  report.set("wrapper.table_share_pct",
             med(share("wrapper.table_build"), all, false));
  report.set("core.partition_search_ms",
             med(in("core.partition_search", kMs), enumerative, false));
  report.set("core.partitions_enumerated",
             med(field(&TracedRequest::enumerated), enumerative, true));
  report.set("core.partitions_evaluated",
             med(field(&TracedRequest::evaluated), enumerative, true));
  report.set("core.partition_efficiency",
             med(
                 [](const TracedRequest& r, const LayerTimes&) {
                   return r.enumerated == 0
                              ? 0.0
                              : static_cast<double>(r.evaluated) /
                                    static_cast<double>(r.enumerated);
                 },
                 enumerative, true));
  report.set("core.exact_step_ms",
             med(in("core.exact_step", kMs), enumerative, false));
  report.set("core.exact_nodes",
             med(field(&TracedRequest::exact_nodes), enumerative, true));
  report.set("core.lower_bound_us",
             med(in("core.lower_bound", kUs), all, false));
  report.set("core.power_schedule_ms",
             med(
                 [](const TracedRequest& r, const LayerTimes&) {
                   return r.power_schedule_s * 1e3;
                 },
                 powered, false));
  report.set("pack.rect_model_ms",
             med(
                 [](const TracedRequest& r, const LayerTimes&) {
                   return r.rect_model_s * 1e3;
                 },
                 rectpack, false));
  report.set("pack.walker_ms", med(in("pack.walker", kMs), rectpack, false));
  report.set("pack.walker_share_pct",
             med(share("pack.walker"), rectpack, false));
  report.set("pack.repacks", med(field(&TracedRequest::repacks), rectpack, true));
  report.set("pack.us_per_repack",
             med(
                 [](const TracedRequest& r, const LayerTimes& t) {
                   return r.repacks == 0 ? 0.0
                                         : t.get("pack.walker") / kUs /
                                               static_cast<double>(r.repacks);
                 },
                 rectpack, false));
  report.set("pack.validate_us", med(in("pack.validate", kUs), all, false));
  report.set("trace.residual_pct",
             med(
                 [](const TracedRequest&, const LayerTimes& t) {
                   return 100.0 * t.residual_ns / t.wall_ns;
                 },
                 all, false));

  double traced_ns = 0.0;
  double untraced_s = 0.0;
  double slowest = 0.0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    traced_ns += times[i].wall_ns;
    untraced_s += done[i]->untraced_s;
    slowest = std::max(slowest, done[i]->untraced_s);
  }
  report.set("trace.overhead_pct",
             untraced_s > 0.0 ? (traced_ns / 1e9 / untraced_s - 1.0) * 100.0
                              : 0.0);
  const double cap = kCapShare * kClients * options.seconds;
  if (options.seconds >= kCapMinSeconds)
    report.require(slowest <= cap,
                   "a request took " + std::to_string(slowest) + " s, over " +
                       std::to_string(cap) +
                       " s (5% of the workload's timed work)");
  report.require(
      solver_passes.stats().hits + pipeline_passes.stats().hits == 0,
      "the cold workload was served cache hits");

  std::filesystem::create_directories(options.out_dir);
  const std::string path =
      (std::filesystem::path(options.out_dir) /
       ("spans-" + options.workload + "-seed" + std::to_string(options.seed) +
        ".jsonl"))
          .string();
  std::vector<std::pair<std::size_t, const std::vector<Span>*>> dump;
  for (const TracedRequest* request : done)
    dump.emplace_back(request->position, &request->spans);
  write_spans(path, dump);
  report.meta("spans", path);
  report.meta("slowest_request_s", slowest);
  describe(report, options, pool, solver_passes.passes());
  report.meta("scored_requests", static_cast<double>(scored));
  return report.print(true);
}

}  // namespace

int run_cold(const Options& options) {
  Pool pool = make_pool(options.workload);
  const std::vector<Expected> expected =
      load_reference(options.reference_dir, pool);
  const std::vector<int> order = run_order(pool, options.seed);
  return options.trace ? run_traced(options, pool, expected, order)
                       : run_untraced(options, pool, expected, order);
}

}  // namespace perfbench
