// serve-hot: warm-cache hits through a wtam_router fleet over pipes.
//
// The fleet — wtam_router --workers 2 --worker-threads 1, both workers
// warm-booted from a --cache-file snapshot holding the whole hot set —
// answers a seeded Zipf draw (exponent 1) over the 32 hot points with 4
// requests outstanding on the one router connection, a closed loop. No
// engine runs: every job is a cache hit, so the cost is JSON parse and
// serialize, SOC parse and canonical hash, cache lookup, the worker-pool
// hand-off, the pipes and the router hop. The client and the whole fleet
// share one CPU (see pin_to_one_cpu), so throughput and latency are the
// CPU cost of that path rather than cross-CPU wake-ups.
//
// The traced run replays the first kScored lines of the same stream
// through the per-call functions (parse, resolve, key, lookup, write) and
// through an in-process serve::Service, then drives a fleet started with
// --trace for the workers' queue-wait spans.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/cache_store.hpp"
#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "perfbench.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using namespace wtam;

constexpr int kOutstanding = 4;  // see README, "Design rules"
constexpr std::uint64_t kHotOrderSeed = 1;  // ranks the hot set
// setup_s: the median over kBootBlocks of the fastest of kBootsPerBlock
// consecutive boots (see setup_seconds).
constexpr int kBootBlocks = 9;
constexpr int kBootsPerBlock = 5;
constexpr std::size_t kScored = 10000;  // stream prefix the replay covers
constexpr std::size_t kServiceLines = 4000;
constexpr std::size_t kBlock = 500;  // traced / untraced replay alternation
constexpr auto kReplyTimeout = std::chrono::seconds(30);

/// Pins the calling thread to one CPU — the highest-numbered one it may
/// run on, away from the device interrupts a VM's first CPU takes — and so
/// every thread and process it starts afterwards: the reader threads and
/// the fleet. Across CPUs, each hop of a request waits on a wake-up of
/// another CPU, which a shared host delays in bursts: unpinned, ten runs
/// of the same code spread 0.5-0.6 in throughput. Returns the CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("cannot read the CPU affinity");
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &allowed)) cpu = i;
  if (cpu < 0) throw std::runtime_error("no CPU to pin the run to");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("cannot pin the run to one CPU");
  return cpu;
}

/// A hot point on the wire: its job line after the id, and the response
/// the fleet must send back after the id.
struct HotPoint {
  std::string job_tail;
  std::string response_tail;
};

/// The rest of a compact JSON object after its leading `{"id": "...", `.
std::string after_id(const std::string& json) {
  const std::string prefix = "{\"id\": \"";
  const std::size_t close = json.find("\", ", prefix.size());
  if (json.compare(0, prefix.size(), prefix) != 0 || close == std::string::npos)
    throw std::runtime_error("expected a JSON object led by its id: " +
                             json.substr(0, 60));
  return json.substr(close + 3);
}

/// `tail` led by the id "q<n>": request n's job line or expected response.
std::string with_id(std::uint64_t n, const std::string& tail) {
  std::string line = "{\"id\": \"q";
  line += std::to_string(n);
  line += "\", ";
  line += tail;
  return line;
}

/// The seeded request stream: Zipf-distributed ranks of the hot set.
class Zipf {
 public:
  Zipf(std::size_t points, std::uint64_t seed) : rng_(seed ^ 0x7a697066ULL) {
    double total = 0.0;
    for (std::size_t rank = 1; rank <= points; ++rank) {
      total += 1.0 / static_cast<double>(rank);
      cdf_.push_back(total);
    }
    for (double& edge : cdf_) edge /= total;
  }

  [[nodiscard]] std::size_t next() {
    const double u = rng_.uniform01();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  common::Rng rng_;
  std::vector<double> cdf_;
};

/// The untimed preparation: solves the hot set cold in-process (answers
/// checked against the committed references, schedules re-validated on
/// the benchmark's own tables) and writes the warm-boot snapshot. Both
/// workers load the whole hot set, so no routing decision can miss.
std::vector<HotPoint> prepare(const Pool& pool,
                              const std::vector<Expected>& expected,
                              const std::vector<int>& hot,
                              const std::string& snapshot, Tally& tally) {
  auto cache = std::make_shared<api::ResultCache>();
  const api::Solver solver(api::SolverOptions::with_threads(3, cache));
  std::vector<api::SolveRequest> requests;
  for (const int index : hot)
    requests.push_back(pool.items[static_cast<std::size_t>(index)].request);
  std::vector<api::SolveResult> results = solver.solve_batch(requests);
  api::ResultsWriteOptions write;
  write.include_cache = true;
  std::vector<HotPoint> points;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    api::SolveResult& result = results[i];
    ++tally.attempted;
    std::string problem = check_result(
        result, expected[static_cast<std::size_t>(hot[i])]);
    if (problem.empty()) {
      const soc::Soc chip = api::resolve_soc(requests[i]);
      const core::TestTimeTable table(chip, result.width);
      const std::vector<std::string> issues = pack::validate_packed_schedule(
          table, result.outcome->schedule, requests[i].options.constraints);
      if (!issues.empty()) problem = "re-validation: " + issues.front();
    }
    if (!problem.empty()) tally.fail(requests[i].id + ": " + problem);
    HotPoint point;
    api::SolveRequest wire = requests[i];
    wire.id = "x";
    point.job_tail = after_id(api::job_to_json(wire).dump_compact_string());
    result.id = "x";
    result.cache = api::CacheOutcome::Hit;
    point.response_tail =
        after_id(api::result_to_json(result, write).dump_compact_string());
    points.push_back(std::move(point));
  }
  (void)api::save_cache_file(*cache, snapshot + ".w0");
  (void)api::save_cache_file(*cache, snapshot + ".w1");
  return points;
}

/// A wtam_router fleet driven over the router's stdin/stdout pipes. A
/// reader thread hands job responses to `on_job` and queues control-verb
/// acks for op().
class Fleet {
 public:
  using JobHandler = std::function<void(const std::string&)>;

  Fleet(std::vector<std::string> argv, JobHandler on_job)
      : on_job_(std::move(on_job)),
        process_(std::move(argv)),
        reader_([this] { read_loop(); }) {}

  ~Fleet() { stop(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] bool send(const std::string& line) {
    return process_.write_line(line);
  }

  /// Sends a control verb and returns its merged ack.
  [[nodiscard]] api::JsonValue op(const std::string& line) {
    if (!process_.write_line(line))
      throw std::runtime_error("the fleet is gone");
    std::string ack;
    {
      const common::MutexLock lock(mutex_);
      while (acks_.empty() && !eof_)
        if (!acked_.wait_for(mutex_, kReplyTimeout))
          throw std::runtime_error("no ack for " + line);
      if (acks_.empty()) throw std::runtime_error("the fleet closed its output");
      ack = std::move(acks_.front());
      acks_.pop_front();
    }
    return api::JsonValue::parse(ack);
  }

  /// EOF on the router's stdin: the fleet drains, the workers save their
  /// snapshots and every process exits. A fleet still running after 3 s
  /// is killed instead of waited on forever.
  void stop() {
    if (!reader_.joinable()) return;
    process_.close_stdin();
    for (int i = 0; i < 300 && process_.running(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    process_.kill();
    reader_.join();
    (void)process_.wait();
  }

  [[nodiscard]] pid_t pid() const noexcept { return process_.pid(); }

 private:
  void read_loop() {
    while (std::optional<std::string> line = process_.read_line()) {
      if (line->rfind("{\"id\": ", 0) == 0) {
        on_job_(*line);
        continue;
      }
      const common::MutexLock lock(mutex_);
      acks_.push_back(std::move(*line));
      acked_.notify_all();
    }
    const common::MutexLock lock(mutex_);
    eof_ = true;
    acked_.notify_all();
  }

  JobHandler on_job_;
  common::Subprocess process_;
  common::Mutex mutex_;
  common::CondVar acked_;
  std::deque<std::string> acks_ WTAM_GUARDED_BY(mutex_);
  bool eof_ WTAM_GUARDED_BY(mutex_) = false;
  std::thread reader_;  // last: started once everything it uses exists
};

/// A counter of a merged stats ack, or -1 when it is missing.
std::int64_t count(const api::JsonValue& stats, const char* section,
                   const char* key) {
  const api::JsonValue* group = stats.find(section);
  const api::JsonValue* value = group != nullptr ? group->find(key) : nullptr;
  return value != nullptr && value->kind() == api::JsonValue::Kind::Int
             ? value->as_int()
             : -1;
}

/// Boots a fleet and returns once a fanned-out stats shows both workers
/// holding the whole hot set — the end of serve-hot's set-up.
std::unique_ptr<Fleet> boot(const Options& options,
                            const std::string& snapshot, bool trace,
                            std::size_t hot_points,
                            const Fleet::JobHandler& on_job) {
  std::vector<std::string> argv = {options.bin_dir + "/wtam_router",
                                   "--workers",
                                   "2",
                                   "--worker-threads",
                                   "1",
                                   "--serve",
                                   options.bin_dir + "/wtam_serve",
                                   "--cache-file",
                                   snapshot,
                                   "--quiet"};
  if (trace) argv.emplace_back("--trace");
  auto fleet = std::make_unique<Fleet>(std::move(argv), on_job);
  const std::int64_t entries =
      count(fleet->op("{\"op\": \"stats\"}"), "cache", "entries");
  if (entries != static_cast<std::int64_t>(2 * hot_points))
    throw std::runtime_error("the warm boot loaded " + std::to_string(entries) +
                             " cache entries, not " +
                             std::to_string(2 * hot_points));
  return fleet;
}

/// The fleet self-checks: after the warm boot nothing misses, evicts,
/// sheds, respawns or replays.
void check_fleet(const api::JsonValue& stats, std::uint64_t completed,
                 Report& report) {
  report.require(count(stats, "cache", "misses") == 0,
                 "the fleet missed its cache after the warm boot");
  report.require(count(stats, "cache", "evictions") == 0,
                 "the fleet evicted cache entries");
  report.require(
      count(stats, "cache", "hits") == static_cast<std::int64_t>(completed),
      "the fleet's cache hits differ from the completed requests");
  for (const char* counter : {"shed", "respawns", "replayed"})
    report.require(count(stats, "router", counter) == 0,
                   std::string("the router reports ") + counter + " jobs");
}

/// The closed loop's state: which request each in-flight slot holds, and
/// what the reader thread recorded.
class Loop {
 public:
  Loop(const std::vector<HotPoint>& points, bool traced)
      : points_(points), traced_(traced) {}

  /// The reader thread's handler for one job response.
  void on_response(const std::string& line) noexcept {
    try {
      // {"id": "q<n>", ...
      const std::size_t close = line.find('"', 9);
      const std::uint64_t n = std::stoull(line.substr(9, close - 9));
      Slot slot;
      {
        const common::MutexLock lock(mutex_);
        const auto found = slots_.find(n);
        if (found == slots_.end())
          throw std::runtime_error("a response to an unsent request");
        slot = found->second;
        slots_.erase(found);
      }
      const std::string& expected = points_[slot.rank].response_tail;
      const std::string tail =
          close == std::string::npos ? std::string() : line.substr(close + 3);
      bool ok = tail == expected;
      double wait_us = -1.0;
      if (traced_) {
        // A traced fleet appends the job's span array after the cache field.
        const std::size_t body = expected.size() - 1;
        ok = tail.compare(0, body, expected, 0, body) == 0 &&
             tail.compare(body, 11, ", \"trace\": ") == 0;
        const api::JsonValue value = api::JsonValue::parse(line);
        if (const api::JsonValue* trace = value.find("trace"))
          for (const api::JsonValue& span : trace->elements()) {
            const api::JsonValue* stage = span.find("stage");
            const api::JsonValue* duration = span.find("duration_ns");
            if (stage != nullptr && duration != nullptr &&
                stage->as_string() == "queue-wait")
              wait_us = static_cast<double>(duration->as_int()) / 1e3;
          }
      }
      const double latency = slot.sent.elapsed_s();
      const common::MutexLock lock(mutex_);
      ++tally.attempted;
      ++completed;
      if (!ok)
        tally.fail("q" + std::to_string(n) +
                   ": the response differs from the cold solve of its key");
      latency_s.push_back(latency);
      if (wait_us >= 0.0) queue_wait_us.push_back(wait_us);
      --outstanding_;
      cv_.notify_all();
    } catch (const std::exception& e) {
      const common::MutexLock lock(mutex_);
      tally.fail(std::string("unreadable response: ") + e.what());
    }
  }

  /// Keeps kOutstanding requests in flight for `seconds`, then waits for
  /// the last replies; returns the wall time. Throws when the fleet stops
  /// answering.
  double run(Fleet& fleet, Zipf& zipf, double seconds) {
    const common::Stopwatch clock;
    for (std::uint64_t n = 0; clock.elapsed_s() < seconds; ++n) {
      const std::size_t rank = zipf.next();
      {
        const common::MutexLock lock(mutex_);
        while (outstanding_ >= kOutstanding)
          if (!cv_.wait_for(mutex_, kReplyTimeout))
            throw std::runtime_error("the fleet stopped answering");
        ++outstanding_;
        slots_[n] = Slot{rank, common::Stopwatch()};
      }
      if (!fleet.send(with_id(n, points_[rank].job_tail)))
        throw std::runtime_error("the fleet closed its input");
    }
    const common::MutexLock lock(mutex_);
    while (outstanding_ > 0)
      if (!cv_.wait_for(mutex_, kReplyTimeout))
        throw std::runtime_error("the fleet stopped answering");
    return clock.elapsed_s();
  }

  // Written by the reader thread under the lock; read once run() returned.
  Tally tally;
  std::vector<double> latency_s;
  std::vector<double> queue_wait_us;
  std::uint64_t completed = 0;

 private:
  struct Slot {
    std::size_t rank = 0;
    common::Stopwatch sent;
  };

  const std::vector<HotPoint>& points_;
  const bool traced_;
  common::Mutex mutex_;
  common::CondVar cv_;
  int outstanding_ = 0;
  std::unordered_map<std::uint64_t, Slot> slots_ WTAM_GUARDED_BY(mutex_);
};

void run_untraced(const Options& options, const std::vector<HotPoint>& points,
                  const std::string& snapshot, Report& report) {
  Loop loop(points, false);
  const Fleet::JobHandler on_job = [&loop](const std::string& line) {
    loop.on_response(line);
  };
  std::unique_ptr<Fleet> fleet;
  report.set("setup_s", setup_seconds(kBootBlocks, kBootsPerBlock, [&] {
    fleet.reset();  // stopping saves the snapshot the next boot loads
    const common::Stopwatch watch;
    fleet = boot(options, snapshot, false, points.size(), on_job);
    return watch.elapsed_s();
  }));

  std::vector<pid_t> pids = child_pids(fleet->pid());
  pids.push_back(fleet->pid());
  const auto fleet_cpu_s = [&pids] {
    double total = 0.0;
    for (const pid_t pid : pids) total += proc_usage(pid).cpu_s;
    return total;
  };
  const double cpu_before = fleet_cpu_s();
  Zipf zipf(points.size(), options.seed);
  const double wall = loop.run(*fleet, zipf, options.seconds);
  const double cpu_s = fleet_cpu_s() - cpu_before;
  double rss_mb = 0.0;
  for (const pid_t pid : pids) rss_mb += proc_usage(pid).peak_rss_mb;
  check_fleet(fleet->op("{\"op\": \"stats\"}"), loop.completed, report);
  fleet->stop();

  report.tally().merge(loop.tally);
  const auto completed = static_cast<double>(loop.completed);
  std::vector<double> latency_ms;
  for (const double seconds : loop.latency_s) latency_ms.push_back(seconds * 1e3);
  report.set("throughput_rps", completed / wall);
  report.set("latency_p50_ms", quantile(latency_ms, 0.5));
  report.set("latency_p90_ms", quantile(latency_ms, 0.9));
  report.set("cpu_ms_per_request", cpu_s / completed * 1e3);
  report.set("peak_rss_mb", rss_mb);
  report.meta("boots", kBootBlocks * kBootsPerBlock);
  report.meta("boot_blocks", kBootBlocks);
}

/// The Solver's cache-hit path for one job line, one public call at a
/// time — parse, resolve, key, lookup, write — each in a span when `log`
/// is set.
std::string replay_line(const std::string& line, api::ResultCache& cache,
                        SpanLog* log) {
  const int root = log != nullptr ? log->open("request", -1) : -1;
  const api::SolveRequest request = timed(log, "api.json_parse", root, [&] {
    return api::job_from_json(api::JsonValue::parse(line));
  });
  const soc::Soc chip = timed(log, "soc.resolve", root,
                              [&] { return api::resolve_soc(request); });
  const api::RequestKey key = timed(log, "api.key", root, [&] {
    return api::make_request_key(chip, request.width, request.backend,
                                 request.options);
  });
  api::ResultCache::Fetch fetch = timed(log, "api.cache_lookup", root,
                                        [&] { return cache.begin_fetch(key); });
  if (!fetch.value.has_value()) {
    cache.abandon(fetch);
    throw std::runtime_error(request.id + " missed the warm cache");
  }
  std::string json = timed(log, "api.json_write", root, [&] {
    api::SolveResult result;
    result.status = api::Status::Ok;
    result.id = request.id;
    result.tag = request.tag;
    result.soc_name = chip.name;
    result.core_count = chip.core_count();
    result.backend = request.backend;
    result.width = request.width;
    result.widths_tried = 1;
    result.lower_bound = fetch.value->lower_bound;
    result.schedule_valid = fetch.value->schedule_valid;
    result.outcome = std::move(fetch.value->outcome);
    result.cache = api::CacheOutcome::Hit;
    api::ResultsWriteOptions write;
    write.include_cache = true;
    return api::result_to_json(result, write).dump_compact_string();
  });
  if (log != nullptr) log->close(root);
  return json;
}

void run_traced(const Options& options, const Pool& pool,
                const std::vector<int>& hot,
                const std::vector<HotPoint>& points,
                const std::string& snapshot, Report& report) {
  const common::Stopwatch clock;
  Tally& tally = report.tally();
  Zipf zipf(points.size(), options.seed);
  std::vector<std::size_t> stream(kScored);
  for (std::size_t& rank : stream) rank = zipf.next();

  // The per-call replay, in blocks alternating with and without spans.
  api::ResultCache cache;
  (void)api::load_cache_file(cache, snapshot + ".w0");
  cache.reset_stats();
  std::vector<std::vector<Span>> spans(kScored);
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t block = 0; block < kScored; block += kBlock) {
    const std::size_t end = std::min(kScored, block + kBlock);
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == ((block / kBlock) % 2 == 0);
      const api::ResultCacheStats before = cache.stats();
      const common::Stopwatch watch;
      for (std::size_t n = block; n < end; ++n) {
        const HotPoint& point = points[stream[n]];
        SpanLog log(clock);
        if (traced) ++tally.attempted;
        try {
          const std::string response = replay_line(
              with_id(n, point.job_tail), cache, traced ? &log : nullptr);
          if (traced) {
            if (response != with_id(n, point.response_tail))
              tally.fail("replayed q" + std::to_string(n) +
                         " differs from the cold solve of its key");
            spans[n] = log.take();
          }
        } catch (const std::exception& e) {
          if (traced) tally.fail(e.what());
        }
      }
      (traced ? traced_s : untraced_s) += watch.elapsed_s();
      if (traced) {
        const api::ResultCacheStats after = cache.stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
      }
    }
  }

  // The in-process serve::Service on the same lines, one at a time.
  std::vector<double> service_us;
  {
    common::Mutex mutex;
    common::CondVar replied;
    std::optional<std::string> reply;  // under `mutex`
    const serve::Service::Sink sink = [&](const std::string& line) {
      const common::MutexLock lock(mutex);
      reply = line;
      replied.notify_all();
    };
    serve::ServiceOptions service_options;
    service_options.threads = 1;
    service_options.cache_file = snapshot + ".w0";
    serve::Service service(service_options);
    for (std::size_t n = 0; n < kServiceLines; ++n) {
      const HotPoint& point = points[stream[n]];
      const std::string line = with_id(n, point.job_tail);
      const common::Stopwatch watch;
      (void)service.handle_line(line, n + 1, sink);
      std::string response;
      {
        const common::MutexLock lock(mutex);
        while (!reply.has_value())
          if (!replied.wait_for(mutex, kReplyTimeout))
            throw std::runtime_error("serve::Service did not answer");
        response = std::move(*reply);
        reply.reset();
      }
      service_us.push_back(static_cast<double>(watch.elapsed_ns()) / 1e3);
      ++tally.attempted;
      if (response != with_id(n, point.response_tail))
        tally.fail("service q" + std::to_string(n) +
                   " differs from the cold solve of its key");
    }
  }

  // A fleet started with --trace: the workers' accept -> pickup spans.
  Loop loop(points, true);
  std::unique_ptr<Fleet> fleet =
      boot(options, snapshot, true, points.size(),
           [&loop](const std::string& line) { loop.on_response(line); });
  Zipf fleet_zipf(points.size(), options.seed);
  (void)loop.run(*fleet, fleet_zipf,
                 std::max(1.0, options.seconds - clock.elapsed_s()));
  const api::JsonValue stats = fleet->op("{\"op\": \"stats\"}");
  fleet->stop();
  check_fleet(stats, loop.completed, report);
  tally.merge(loop.tally);

  std::vector<LayerTimes> times;
  for (const std::vector<Span>& request : spans)
    if (!request.empty()) times.push_back(layer_times(request));
  const auto layer_us = [&times](const char* layer) {
    std::vector<double> samples;
    for (const LayerTimes& t : times) samples.push_back(t.get(layer) / 1e3);
    return median(std::move(samples));
  };
  std::vector<int> requested;
  for (const std::size_t rank : stream) requested.push_back(hot[rank]);
  double bytes = 0.0;
  for (std::size_t n = 0; n < kScored; ++n)
    bytes += static_cast<double>(
        with_id(n, points[stream[n]].response_tail).size());
  const double service = median(service_us);

  report.set("soc.resolve_us", layer_us("soc.resolve"));
  report.set("soc.repeated_core_share", repeated_core_share(pool, requested));
  report.set("api.key_us", layer_us("api.key"));
  report.set("api.json_parse_us", layer_us("api.json_parse"));
  report.set("api.json_write_us", layer_us("api.json_write"));
  report.set("api.response_bytes", bytes / static_cast<double>(kScored));
  report.set("api.cache_lookup_us", layer_us("api.cache_lookup"));
  report.set("api.cache_hits", static_cast<double>(hits));
  report.set("api.cache_misses", static_cast<double>(misses));
  report.set("api.cache_evictions", static_cast<double>(cache.stats().evictions));
  report.set("api.cache_hit_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses));
  report.require(misses == 0, "the replay missed the warm cache");
  report.set("serve.service_us", service);
  report.set("serve.queue_wait_us", median(loop.queue_wait_us));
  report.set("serve.transport_router_us",
             quantile(loop.latency_s, 0.5) * 1e6 - service);
  report.set("serve.router_shed",
             static_cast<double>(count(stats, "router", "shed")));
  report.set("serve.router_respawns",
             static_cast<double>(count(stats, "router", "respawns")));
  report.set("serve.router_replayed",
             static_cast<double>(count(stats, "router", "replayed")));
  std::vector<double> residual;
  for (const LayerTimes& t : times)
    residual.push_back(100.0 * t.residual_ns / t.wall_ns);
  report.set("trace.residual_pct", median(std::move(residual)));
  report.set("trace.overhead_pct",
             untraced_s > 0.0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0);

  std::filesystem::create_directories(options.out_dir);
  const std::string path =
      (std::filesystem::path(options.out_dir) /
       ("spans-serve-hot-seed" + std::to_string(options.seed) + ".jsonl"))
          .string();
  std::vector<std::pair<std::size_t, const std::vector<Span>*>> dump;
  for (std::size_t n = 0; n < kScored; ++n)
    if (!spans[n].empty()) dump.emplace_back(n, &spans[n]);
  write_spans(path, dump);
  report.meta("spans", path);
}

}  // namespace

int run_serve_hot(const Options& options) {
  Pool pool = make_pool(options.workload);
  const std::vector<Expected> expected =
      load_reference(options.reference_dir, pool);
  // The hot set in rank order: rank r is the r-th point of a fixed
  // stratified order, so every band of ranks has the same class mix. The
  // run seed draws the stream only: were it to reorder the ranks too, the
  // heaviest ranks — a quarter of all requests on rank 0 — would land on
  // cheaper or dearer points from seed to seed, and throughput with them.
  const std::vector<int> hot = run_order(pool, kHotOrderSeed);
  const std::filesystem::path run_dir =
      std::filesystem::path(options.out_dir) /
      ("serve-hot-" + std::to_string(::getpid()));
  std::filesystem::create_directories(run_dir);
  const std::string snapshot = (run_dir / "hot").string();
  Report report;
  std::exception_ptr failure;
  try {
    const std::vector<HotPoint> points =
        prepare(pool, expected, hot, snapshot, report.tally());
    report.meta("cpu", pin_to_one_cpu());
    if (options.trace) {
      run_traced(options, pool, hot, points, snapshot, report);
    } else {
      run_untraced(options, points, snapshot, report);
      // Over the hot set's points, as on the cold workloads: weighting them
      // by the Zipf draw would tie it to the rank draw, not the answers.
      report.set("gap_to_lb_pct", mean_gap_pct(expected));
    }
  } catch (...) {
    failure = std::current_exception();
  }
  std::error_code ignored;
  std::filesystem::remove_all(run_dir, ignored);
  if (failure) std::rethrow_exception(failure);
  report.meta("workload", options.workload);
  report.meta("seed", std::to_string(options.seed));
  report.meta("seconds", options.seconds);
  report.meta("clients", 1);
  report.meta("outstanding", kOutstanding);
  report.meta("hot_points", static_cast<double>(hot.size()));
  report.meta("fleet", "wtam_router --workers 2 --worker-threads 1");
  return report.print(options.trace);
}

}  // namespace perfbench
