// Shared declarations of the benchmark driver, wtam_perfbench: run
// options, the metric tables and the report whose last line is the
// benchmark's result, sample statistics, process readers, the traced
// run's spans, the workload pools with their committed reference
// answers, and the workload entry points. See perfbench/README.md.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "common/timer.hpp"

namespace perfbench {

// ---- run options and the report --------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string bin_dir;        ///< holds wtam_serve and wtam_router
  std::string reference_dir;  ///< committed reference answers (*.ref)
  std::string out_dir;        ///< span dumps and fleet snapshots
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What an untraced run (--trace 0) prints: BENCHMARK.json's end_to_end.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "req/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"cpu_ms_per_request", "ms"},
    {"peak_rss_mb", "MiB"},
    {"gap_to_lb_pct", "%"},
};

/// What a traced run (--trace 1) prints: BENCHMARK.json's per_layer. A
/// layer the workload never reaches reports 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"soc.resolve_us", "us"},
    {"soc.repeated_core_share", "ratio"},
    {"api.key_us", "us"},
    {"api.json_parse_us", "us"},
    {"api.json_write_us", "us"},
    {"api.response_bytes", "bytes"},
    {"api.cache_lookup_us", "us"},
    {"api.cache_publish_us", "us"},
    {"api.cache_hits", "count"},
    {"api.cache_misses", "count"},
    {"api.cache_evictions", "count"},
    {"api.cache_hit_ratio", "ratio"},
    {"wrapper.table_build_ms", "ms"},
    {"wrapper.tables_per_request", "count"},
    {"wrapper.table_share_pct", "%"},
    {"core.partition_search_ms", "ms"},
    {"core.partitions_enumerated", "count"},
    {"core.partitions_evaluated", "count"},
    {"core.partition_efficiency", "ratio"},
    {"core.exact_step_ms", "ms"},
    {"core.exact_nodes", "count"},
    {"core.lower_bound_us", "us"},
    {"core.power_schedule_ms", "ms"},
    {"pack.rect_model_ms", "ms"},
    {"pack.walker_ms", "ms"},
    {"pack.walker_share_pct", "%"},
    {"pack.repacks", "count"},
    {"pack.us_per_repack", "us"},
    {"pack.validate_us", "us"},
    {"serve.service_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.transport_router_us", "us"},
    {"serve.router_shed", "count"},
    {"serve.router_respawns", "count"},
    {"serve.router_replayed", "count"},
    {"trace.residual_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/// Request outcomes of one client; merged once the clients have joined.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< the first few failure reasons

  void fail(std::string why);
  void merge(const Tally& other);
};

/// A run's output: a metadata line, then the result object as the last
/// line of stdout.
class Report {
 public:
  /// Sets one metric; throws std::logic_error for a name neither table has.
  void set(const std::string& name, double value);
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);
  /// A workload self-check: a false condition fails the run.
  void require(bool condition, const std::string& what);
  [[nodiscard]] Tally& tally() noexcept { return tally_; }

  /// Prints both lines, with every metric of the run's table by name and
  /// unit, and returns the exit code: 0 when every request passed its
  /// output check and every self-check held.
  [[nodiscard]] int print(bool traced) const;

 private:
  Tally tally_;
  std::vector<std::string> broken_;
  std::vector<std::pair<std::string, std::string>> meta_;  ///< JSON-encoded
  std::map<std::string, double> values_;
};

// ---- statistics and process readers ----------------------------------------

/// Sample quantile (q in [0, 1]), linear between order statistics; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// setup_s from blocks x per_block set-ups run back to back: the median,
/// over the blocks, of each block's fastest set-up. A burst of host
/// interference on a shared box outlasts one set-up and slows a run of
/// consecutive ones; the block minimum steps past a short burst and the
/// median past the blocks a longer one covers. Work moved into set-up
/// slows every set-up, the fastest too, so it still shows.
template <typename SetUp>
[[nodiscard]] double setup_seconds(int blocks, int per_block, SetUp&& set_up) {
  std::vector<double> fastest;
  for (int block = 0; block < blocks; ++block) {
    double best = 0.0;
    for (int i = 0; i < per_block; ++i) {
      const double seconds = set_up();
      if (i == 0 || seconds < best) best = seconds;
    }
    fastest.push_back(best);
  }
  return median(std::move(fastest));
}

/// User + system CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();
/// Peak RSS of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

struct ProcUsage {
  double cpu_s = 0.0;        ///< user + system
  double peak_rss_mb = 0.0;  ///< VmHWM
};
/// A live process's usage, read from /proc.
[[nodiscard]] ProcUsage proc_usage(pid_t pid);
/// Live processes whose parent is `parent`.
[[nodiscard]] std::vector<pid_t> child_pids(pid_t parent);

/// `text` as a JSON string literal.
[[nodiscard]] std::string json_quote(const std::string& text);

/// Threads joined when the group goes out of scope, exception paths too.
struct ThreadGroup {
  std::vector<std::thread> threads;

  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() {
    for (std::thread& thread : threads)
      if (thread.joinable()) thread.join();
  }
};

// ---- spans of the traced run -----------------------------------------------

/// One call's span. A traced run keeps every request's spans in memory and
/// writes them when it ends. A layer's self time is its span minus its
/// children; request wall time outside every layer's self time is the
/// residual (see LayerTimes).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< on the run clock
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index in the request's list; -1 for the root
};

/// The spans of one request; index 0 is the root, "request".
class SpanLog {
 public:
  explicit SpanLog(const wtam::common::Stopwatch& clock) : clock_(&clock) {}

  [[nodiscard]] std::int64_t now() const { return clock_->elapsed_ns(); }
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now();
  }
  void add(Span span) { spans_.push_back(std::move(span)); }
  [[nodiscard]] const Span& at(int span) const {
    return spans_[static_cast<std::size_t>(span)];
  }
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  const wtam::common::Stopwatch* clock_;
  std::vector<Span> spans_;
};

/// Runs `call`, inside a span named `name` when `log` is set.
template <typename Call>
auto timed(SpanLog* log, const char* name, int parent, Call&& call) {
  if (log == nullptr) return call();
  const int span = log->open(name, parent);
  auto value = call();
  log->close(span);
  return value;
}

/// One request's self time per layer (engine spans folded into
/// core.partition_search, core.exact_step and pack.walker), its wall time
/// and its residual: the self time of the spans that are no layer — the
/// root "request" and "backend.optimize", whose self time is whatever the
/// backend does outside the engine's own spans.
struct LayerTimes {
  std::map<std::string, double> ns;
  double wall_ns = 0.0;
  double residual_ns = 0.0;

  [[nodiscard]] double get(const std::string& layer) const;
};
[[nodiscard]] LayerTimes layer_times(const std::vector<Span>& spans);

/// Writes one JSON line per request:
/// {"request": position, "residual_ns": ..., "spans": [...]}.
void write_spans(
    const std::string& path,
    const std::vector<std::pair<std::size_t, const std::vector<Span>*>>&
        requests);

// ---- workload inputs and reference answers ---------------------------------

/// One design point of a workload's pool.
struct Item {
  int cls = 0;  ///< index into Pool::classes
  wtam::api::SolveRequest request;
  int base = -1;  ///< pool index of the point this one is an ECO revision of
};

/// A workload's fixed pool of design points. They are generated
/// deterministically (own seeds, independent of the run seed) from the
/// four built-in SOCs and from SOCs drawn with fresh seeds from the
/// paper's published Philips ranges, and their answers are committed in
/// reference/<workload>.ref, so every run checks every answer against a
/// stored value whatever its seed.
struct Pool {
  std::string workload;
  std::vector<std::string> classes;
  /// Class of each slot of one interleaving cycle (see run_order).
  std::vector<int> pattern;
  std::vector<Item> items;
};

/// The pool of sweep, pack, pack-power or serve-hot; throws
/// std::invalid_argument for other names.
[[nodiscard]] Pool make_pool(const std::string& workload);

/// The order a run draws the pool in, a permutation of its indices: one
/// seeded permutation per class, interleaved by Pool::pattern, so every
/// prefix of the run has the pool's class mix; an ECO revision comes
/// after its base.
[[nodiscard]] std::vector<int> run_order(const Pool& pool, std::uint64_t seed);

/// The committed answer of one pool point.
struct Expected {
  int width = 0;
  std::int64_t testing_time = 0;
  std::int64_t lower_bound = 0;
};

/// The committed answer of every pool point, in pool order; empty for a
/// point the workload excludes (its cold solve exceeded the per-request
/// cap when the exclusions were last decided).
using Answers = std::vector<std::optional<Expected>>;

/// Reads reference/<workload>.ref: one line per pool point, in pool order,
/// "index width testing_time lower_bound" or "index excluded". Throws when
/// the file is missing or malformed, or does not list exactly the pool's
/// points.
[[nodiscard]] Answers read_reference(const std::string& dir, const Pool& pool);
/// read_reference, then keeps in `pool` only the points not excluded and
/// returns their answers in pool order. Throws when an ECO revision of an
/// excluded point is not excluded too.
[[nodiscard]] std::vector<Expected> load_reference(const std::string& dir,
                                                   Pool& pool);
void save_reference(const std::string& dir, const Pool& pool,
                    const Answers& answers);

/// gap_to_lb_pct: the mean of (T - LB) / LB over `answers`, in %. Every
/// answer a run returns must equal its reference, so this is the mean over
/// the workload's points, whatever the seed samples.
[[nodiscard]] double mean_gap_pct(const std::vector<Expected>& answers);

/// The output check of one answer: status ok, the Solver's
/// constraint-aware validator passed, LB <= T, and width, testing time and
/// lower bound equal to the reference. Empty when it passes, else why not.
[[nodiscard]] std::string check_result(const wtam::api::SolveResult& result,
                                       const Expected& expected);

/// Share of the cores of `items` (pool indices, in request order) whose
/// test data — not their name — already appeared in an earlier request.
[[nodiscard]] double repeated_core_share(const Pool& pool,
                                         const std::vector<int>& items);

// ---- workloads ---------------------------------------------------------------

/// sweep, pack, pack-power: an in-process closed loop over api::Solver.
[[nodiscard]] int run_cold(const Options& options);
/// serve-hot: warm-cache hits through a wtam_router fleet.
[[nodiscard]] int run_serve_hot(const Options& options);
/// Solves the pool's points cold and writes reference/<workload>.ref for
/// options.workload (every workload when empty), keeping the exclusions of
/// the reference it replaces; only a workload without one has its
/// exclusions decided from this run's solve times.
[[nodiscard]] int write_references(const Options& options);

}  // namespace perfbench
