// Micro benchmarks for the paper's CPU-time claims, plus the serial-vs-
// parallel partition-search throughput that tracks the scaling work:
//   * Core_assign runs ~2 orders of magnitude faster than an exact solve
//     of the same P_AW instance (§2);
//   * Design_wrapper is cheap enough to evaluate thousands of times;
//   * partition enumeration is negligible next to evaluation;
//   * partition_evaluate at 1/2/4/8 threads returns bit-identical results
//     while the wall clock drops with available cores;
//   * a rectpack walker repack costs microseconds (per-repack kernels);
//   * a cache hit costs a wtam_serve worker microseconds (stored-hit
//     kernels).
//
// Results are printed as a table and written to BENCH_micro.json so the
// performance trajectory is machine-readable across PRs.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/job_io.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/assignment_exact.hpp"
#include "core/co_optimizer.hpp"
#include "core/core_assign.hpp"
#include "core/partition_evaluate.hpp"
#include "core/power.hpp"
#include "core/test_time_table.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "pack/rectpack.hpp"
#include "pack/skyline.hpp"
#include "partition/partition.hpp"
#include "serve/service.hpp"
#include "soc/benchmarks.hpp"
#include "soc/soc_io.hpp"
#include "wrapper/wrapper.hpp"

namespace {

using namespace wtam;

struct Measurement {
  std::string name;
  std::int64_t iterations = 0;
  double seconds = 0.0;
  [[nodiscard]] double per_iteration_us() const {
    return iterations == 0 ? 0.0 : seconds / static_cast<double>(iterations) * 1e6;
  }
};

/// Runs `body` repeatedly until at least `min_seconds` of wall clock or
/// `min_iterations` calls, whichever bound is reached last.
template <typename Body>
Measurement measure(const std::string& name, const Body& body,
                    double min_seconds = 0.2,
                    std::int64_t min_iterations = 3) {
  Measurement result;
  result.name = name;
  common::Stopwatch watch;
  do {
    body();
    ++result.iterations;
    result.seconds = watch.elapsed_s();
  } while (result.seconds < min_seconds ||
           result.iterations < min_iterations);
  return result;
}

struct SearchSample {
  int threads = 0;
  double seconds = 0.0;
  double partitions_per_s = 0.0;
  double speedup_vs_serial = 1.0;
  bool identical_to_serial = true;
};

/// Serial-vs-parallel partition_evaluate on one SOC; verifies the
/// parallel contract (bit-identical best + per-B stats) while timing it.
struct SearchComparison {
  std::string soc;
  int width = 0;
  int max_tams = 0;
  std::uint64_t partitions = 0;
  std::int64_t best_time = 0;
  std::vector<SearchSample> samples;  // first entry is serial (threads=1)
};

bool same_results(const core::PartitionEvaluateResult& a,
                  const core::PartitionEvaluateResult& b) {
  if (a.best.widths != b.best.widths ||
      a.best.assignment != b.best.assignment ||
      a.best.testing_time != b.best.testing_time || a.best_tams != b.best_tams)
    return false;
  if (a.per_b.size() != b.per_b.size()) return false;
  for (std::size_t i = 0; i < a.per_b.size(); ++i) {
    const auto& sa = a.per_b[i];
    const auto& sb = b.per_b[i];
    if (sa.partitions_unique != sb.partitions_unique ||
        sa.evaluated_to_completion != sb.evaluated_to_completion ||
        sa.aborted_by_tau != sb.aborted_by_tau ||
        sa.best_time != sb.best_time ||
        sa.best_partition != sb.best_partition)
      return false;
  }
  return true;
}

SearchComparison compare_search(const std::string& soc_name,
                                const core::TestTimeTable& table, int width,
                                int max_tams) {
  SearchComparison comparison;
  comparison.soc = soc_name;
  comparison.width = width;
  comparison.max_tams = max_tams;

  core::PartitionEvaluateOptions options;
  options.max_tams = max_tams;

  const auto run = [&](int threads) {
    core::PartitionEvaluateOptions run_options = options;
    run_options.threads = threads;
    common::Stopwatch watch;
    const auto result = core::partition_evaluate(table, width, run_options);
    const double elapsed = watch.elapsed_s();
    return std::pair(result, elapsed);
  };

  const auto [serial, serial_s] = run(1);
  comparison.best_time = serial.best.testing_time;
  for (const auto& stats : serial.per_b)
    comparison.partitions += stats.partitions_unique;

  for (const int threads : {1, 2, 4, 8}) {
    const auto [result, elapsed] = threads == 1 ? std::pair(serial, serial_s)
                                                : run(threads);
    SearchSample sample;
    sample.threads = threads;
    sample.seconds = elapsed;
    sample.partitions_per_s =
        elapsed > 0 ? static_cast<double>(comparison.partitions) / elapsed
                    : 0.0;
    sample.speedup_vs_serial = elapsed > 0 ? serial_s / elapsed : 0.0;
    sample.identical_to_serial = same_results(serial, result);
    comparison.samples.push_back(sample);
  }
  return comparison;
}

}  // namespace

int main() {
  const soc::Soc d695 = soc::d695();
  const soc::Soc p93791 = soc::p93791();
  const core::TestTimeTable d695_table(d695, 64);
  const core::TestTimeTable p93791_table(p93791, 64);

  // --- kernel micro timings ------------------------------------------------
  std::vector<Measurement> measurements;

  measurements.push_back(measure("design_wrapper_d695_core4_w1to32", [&] {
    for (int w = 1; w <= 32; ++w)
      (void)wrapper::design_wrapper(d695.cores[4], w).test_time;
  }));

  const soc::Soc p21241 = soc::p21241();
  const soc::Soc p31108 = soc::p31108();
  for (const soc::Soc* soc : {&d695, &p21241, &p31108, &p93791})
    measurements.push_back(
        measure("test_time_table_build_" + soc->name + "_w64", [soc] {
          core::TestTimeTable table(*soc, 64);
          (void)table.time(0, 1);
        }));

  const std::vector<int> kWidths916_23 = {9, 16, 23};
  measurements.push_back(measure("core_assign_d695_B3", [&] {
    (void)core::core_assign(d695_table, kWidths916_23).architecture
        .testing_time;
  }));
  measurements.push_back(measure("core_assign_p93791_B3", [&] {
    (void)core::core_assign(p93791_table, kWidths916_23).architecture
        .testing_time;
  }));

  measurements.push_back(measure("exact_assign_bb_d695_B3", [&] {
    (void)core::solve_assignment_exact(d695_table, kWidths916_23, {})
        .architecture.testing_time;
  }));
  // Unequal TAM widths, where the test-data-volume bound prunes: the
  // exact step of the free-B flow on p93791 at W = 16.
  const std::vector<int> kWidths3_3_4_6 = {3, 3, 4, 6};
  std::int64_t p93791_b4_nodes = 0;
  measurements.push_back(measure("exact_assign_bb_p93791_B4", [&] {
    p93791_b4_nodes =
        core::solve_assignment_exact(p93791_table, kWidths3_3_4_6, {}).nodes;
  }));

  const std::vector<int> kWidths6_10 = {6, 10};
  measurements.push_back(measure("exact_assign_ilp_d695_B2", [&] {
    core::ExactOptions options;
    options.engine = core::ExactEngine::Ilp;
    (void)core::solve_assignment_exact(d695_table, kWidths6_10, options)
        .architecture.testing_time;
  }));

  measurements.push_back(measure("partition_enumeration_w64_B6", [&] {
    (void)partition::for_each_partition(
        64, 6, [](std::span<const int>) { return true; });
  }));

  // The end-to-end two-step flow (Partition_evaluate + final exact solve),
  // so regressions in the orchestration glue stay visible in the trend.
  measurements.push_back(measure("co_optimize_d695_w48_B6", [&] {
    core::CoOptimizeOptions options;
    options.search.max_tams = 6;
    (void)core::co_optimize(d695_table, 48, options).architecture.testing_time;
  }));
  measurements.push_back(measure("co_optimize_p93791_w48_B6", [&] {
    core::CoOptimizeOptions options;
    options.search.max_tams = 6;
    (void)core::co_optimize(p93791_table, 48, options)
        .architecture.testing_time;
  }));

  measurements.push_back(measure("simplex_lp_relaxation_d695_B2", [&] {
    const ilp::Problem problem =
        core::build_assignment_ilp(d695_table, kWidths6_10);
    (void)lp::solve(problem.lp).objective;
  }));

  // The shared power-window feasibility kernel: the inner check of every
  // power-budgeted placement (skyline + hole filling), pinned so the
  // extraction into core/power stays as cheap as the packers' former
  // inlined loops. 64 spans ~ a large SOC's placement count; the probe
  // sweeps starts so both accept and reject paths are exercised.
  {
    std::vector<core::PowerSpan> power_spans;
    for (std::int64_t i = 0; i < 64; ++i)
      power_spans.push_back({i * 3, i * 3 + 40, 1 + (i % 7)});
    constexpr std::int64_t kWindowOps = 256;
    std::int64_t fits = 0;
    Measurement m = measure("power_window_fits_64spans", [&] {
      for (std::int64_t op = 0; op < kWindowOps; ++op)
        fits += core::power_window_fits(power_spans, op, 25, 3, 20) ? 1 : 0;
    });
    if (fits < 0) std::abort();  // keep the result observable
    m.iterations *= kWindowOps;
    measurements.push_back(m);
  }

  // The incremental power timeline that replaced per-query span rescans
  // on the constrained packing path (ISSUE-10). Two kernels: profile
  // maintenance (add over a long pack's worth of spans, then clear) and
  // the constrained spot search on a skyline seeded with ~1k placed
  // spans — the shape the d695/csynth power sweeps hammer.
  {
    core::PowerTimeline timeline;
    constexpr std::int64_t kTimelineSpans = 1024;
    Measurement m = measure("power_timeline_update_1kspans", [&] {
      timeline.clear();
      for (std::int64_t i = 0; i < kTimelineSpans; ++i)
        timeline.add((i * 37) % 4096, (i * 37) % 4096 + 64 + i % 96,
                     1 + i % 7);
      if (timeline.peak() <= 0) std::abort();  // keep the result observable
    });
    m.iterations *= kTimelineSpans;
    measurements.push_back(m);
  }
  {
    pack::Skyline skyline(64);
    std::int64_t budget = 0;
    for (std::int64_t i = 0; i < 1024; ++i) {
      const int wire = static_cast<int>((i * 11) % 56);
      const std::int64_t start = skyline.free_time(wire);
      const std::int64_t power = 1 + i % 7;
      skyline.place(wire, 8, start, start + 48 + i % 64, power);
      budget = std::max(budget, power);
    }
    budget += 6;  // headroom for the probe draw, still often contended
    pack::Skyline::SpotQuery query;
    query.width = 8;
    query.duration = 96;
    query.power = 4;
    query.power_budget = budget;
    constexpr std::int64_t kSpotOps = 64;
    std::int64_t starts = 0;
    Measurement m = measure("constrained_best_spot_1kspans", [&] {
      for (std::int64_t op = 0; op < kSpotOps; ++op) {
        query.min_start = op * 17;
        const auto spot = skyline.best_spot(query);
        if (!spot.has_value()) std::abort();
        starts += spot->start;
      }
    });
    if (starts < 0) std::abort();  // keep the result observable
    m.iterations *= kSpotOps;
    measurements.push_back(m);
  }

  // The rectpack walkers, per repack: one default solve per call, scaled
  // by its deterministic repack count (initial, every local-search move,
  // compaction) so the column reads as the average cost of one pack. A
  // full second each, since one p93791 solve takes tens of milliseconds.
  // The spot search is O(W) per placement, so the widest strip `pack`
  // solves gets a kernel too, and `pack-power`'s constrained placements
  // (a budget probe per candidate, precedence floors) get their own.
  const auto per_repack = [&](const std::string& name,
                              const core::TestTimeTable& table, int width,
                              const pack::RectPackOptions& options) {
    int repacks = 0;
    Measurement m = measure(
        name,
        [&] {
          repacks = pack::rectpack_schedule(table, width, options).repacks;
        },
        1.0);
    m.iterations *= repacks;
    measurements.push_back(m);
  };
  per_repack("rectpack_d695_w32", d695_table, 32, {});
  per_repack("rectpack_p93791_w32", p93791_table, 32, {});
  per_repack("rectpack_p93791_w64", p93791_table, 64, {});
  {
    // Scan-activity powers under 0.4 of their sum, plus a few edges.
    pack::RectPackOptions options;
    options.constraints.power = core::scan_activity_power(p93791);
    std::int64_t total_power = 0;
    for (const std::int64_t p : options.constraints.power) {
      total_power += p;
      options.constraints.power_budget =
          std::max(options.constraints.power_budget, p);
    }
    options.constraints.power_budget =
        std::max(options.constraints.power_budget, total_power * 2 / 5);
    options.constraints.precedence = {{0, 6}, {3, 6}, {6, 17}, {11, 25}};
    per_repack("rectpack_power_p93791_w32", p93791_table, 32, options);
  }

  // Observability overhead: the price a hot path pays to bump a counter
  // or record a histogram sample (one uncontended mutex acquire). Bodies
  // run kObsOps operations per call so the per-call column reads as
  // per-operation cost — the instrumented solver paths budget low
  // double-digit nanoseconds here.
  constexpr std::int64_t kObsOps = 4096;
  obs::MetricsRegistry obs_registry;  // local, not the process instance
  obs::Counter& obs_counter = obs_registry.counter("bench.counter");
  obs::Histogram& obs_histogram = obs_registry.histogram("bench.histogram");
  {
    Measurement m = measure("metrics_counter_increment", [&] {
      for (std::int64_t op = 0; op < kObsOps; ++op) obs_counter.increment();
    });
    m.iterations *= kObsOps;
    measurements.push_back(m);
  }
  {
    Measurement m = measure("metrics_histogram_record", [&] {
      for (std::int64_t op = 0; op < kObsOps; ++op) obs_histogram.record(op);
    });
    m.iterations *= kObsOps;
    measurements.push_back(m);
  }

  // A stored hit, as a wtam_serve worker answers it on its reading
  // thread: parse the job line, resolve the SOC, key it, probe the cache,
  // count the job and write the answer line. In-process, so no pipe or
  // router hop is timed. One cold solve fills the cache first; the sink
  // keeps the last answer, which must be a hit.
  std::string missed_hit;
  {
    serve::ServiceOptions options;
    options.threads = 1;
    serve::Service service(options);
    std::string last_answer;
    const serve::Service::Sink sink = [&last_answer](const std::string& line) {
      last_answer = line;
    };
    api::SolveRequest job;
    job.id = "hit";
    job.soc = "d695";
    job.width = 32;
    const std::string builtin_line =
        api::job_to_json(job).dump_compact_string();
    job.soc.clear();
    job.soc_inline = soc::write_soc_string(d695);
    const std::string inline_line =
        api::job_to_json(job).dump_compact_string();
    for (const auto& [name, line] :
         {std::pair{"serve_stored_hit_builtin", &builtin_line},
          std::pair{"serve_stored_hit_inline", &inline_line}}) {
      (void)service.handle_line(*line, 1, sink);
      service.drain_and_save();  // the first ask solves in the pool
      measurements.push_back(measure(
          name, [&] { (void)service.handle_line(*line, 1, sink); }));
      if (last_answer.find(R"("cache": "hit")") == std::string::npos)
        missed_hit = name;
    }
  }

  common::TextTable micro_table("Micro benchmarks (per-call wall clock)");
  micro_table.set_header({"benchmark", "iterations", "total (s)", "per call (us)"},
                         {common::Align::Left, common::Align::Right,
                          common::Align::Right, common::Align::Right});
  for (const auto& m : measurements)
    micro_table.add_row({m.name, std::to_string(m.iterations),
                         common::format_fixed(m.seconds, 3),
                         common::format_fixed(m.per_iteration_us(), 2)});
  std::cout << micro_table << "exact_assign_bb_p93791_B4 searches "
            << p93791_b4_nodes << " B&B nodes\n\n";

  // --- serial vs parallel partition search ---------------------------------
  const std::vector<SearchComparison> comparisons = {
      compare_search("d695", d695_table, 64, 6),
      compare_search("p93791", p93791_table, 64, 6),
  };

  for (const auto& comparison : comparisons) {
    common::TextTable table("partition_evaluate scaling on " + comparison.soc +
                            " (W=" + std::to_string(comparison.width) +
                            ", B<=" + std::to_string(comparison.max_tams) +
                            ", " + std::to_string(comparison.partitions) +
                            " partitions)");
    table.set_header(
        {"threads", "wall (s)", "partitions/s", "speedup", "identical"},
        {common::Align::Right, common::Align::Right, common::Align::Right,
         common::Align::Right, common::Align::Right});
    for (const auto& sample : comparison.samples)
      table.add_row({std::to_string(sample.threads),
                     common::format_fixed(sample.seconds, 3),
                     common::format_fixed(sample.partitions_per_s, 0),
                     common::format_fixed(sample.speedup_vs_serial, 2) + "x",
                     sample.identical_to_serial ? "yes" : "NO"});
    std::cout << table << '\n';
  }

  // --- machine-readable artifact -------------------------------------------
  bench::Json document = bench::Json::object();
  document.set("bench", bench::Json::string("micro"));
  document.set("hardware_threads",
               bench::Json::number(static_cast<std::int64_t>(
                   common::ThreadPool::hardware_threads())));

  bench::Json kernels = bench::Json::array();
  for (const auto& m : measurements) {
    bench::Json entry = bench::Json::object();
    entry.set("name", bench::Json::string(m.name));
    entry.set("iterations", bench::Json::number(m.iterations));
    entry.set("total_s", bench::Json::number(m.seconds));
    entry.set("per_call_us", bench::Json::number(m.per_iteration_us()));
    kernels.push(std::move(entry));
  }
  document.set("kernels", std::move(kernels));

  bench::Json searches = bench::Json::array();
  for (const auto& comparison : comparisons) {
    bench::Json entry = bench::Json::object();
    entry.set("soc", bench::Json::string(comparison.soc));
    entry.set("width", bench::Json::number(
                           static_cast<std::int64_t>(comparison.width)));
    entry.set("max_tams", bench::Json::number(
                              static_cast<std::int64_t>(comparison.max_tams)));
    entry.set("partitions",
              bench::Json::number(
                  static_cast<std::int64_t>(comparison.partitions)));
    entry.set("best_testing_time", bench::Json::number(comparison.best_time));
    bench::Json samples = bench::Json::array();
    for (const auto& sample : comparison.samples) {
      bench::Json row = bench::Json::object();
      row.set("threads", bench::Json::number(
                             static_cast<std::int64_t>(sample.threads)));
      row.set("wall_s", bench::Json::number(sample.seconds));
      row.set("partitions_per_s", bench::Json::number(sample.partitions_per_s));
      row.set("speedup_vs_serial",
              bench::Json::number(sample.speedup_vs_serial));
      row.set("identical_to_serial",
              bench::Json::boolean(sample.identical_to_serial));
      samples.push(std::move(row));
    }
    entry.set("samples", std::move(samples));
    searches.push(std::move(entry));
  }
  document.set("partition_search", std::move(searches));

  const std::string path = "BENCH_micro.json";
  bench::write_json_file(path, document);
  std::cout << "wrote " << path << "\n";

  if (!missed_hit.empty()) {
    std::cerr << "FATAL: " << missed_hit
              << " timed jobs that missed the cache\n";
    return 1;
  }
  // Parallel correctness is part of this bench's contract: fail loudly if
  // any thread count diverged from serial.
  for (const auto& comparison : comparisons)
    for (const auto& sample : comparison.samples)
      if (!sample.identical_to_serial) {
        std::cerr << "FATAL: parallel result diverged from serial on "
                  << comparison.soc << " with " << sample.threads
                  << " threads\n";
        return 1;
      }
  return 0;
}
