// wtam_opt — command-line wrapper/TAM co-optimizer.
//
//   wtam_opt --soc d695 --width 32
//   wtam_opt --soc d695 --width 32 --backend rectpack --gantt
//   wtam_opt --soc p93791 --width 48 --deadline 2.5
//   wtam_opt --batch examples/jobs.json --threads 4 --out results.json
//
// Options (single-job mode):
//   --soc NAME|FILE   built-in benchmark (d695, p21241, p31108, p93791) or
//                     a .soc file in the documented dialect
//   --width W         total TAM width (required)
//   --backend NAME    optimizer backend (default enumerative); see
//                     --list-backends
//   --list-backends   print the registered backends and exit
//   --max-tams B      search B in [1, B] (default 10)
//   --fixed-tams B    pin the number of TAMs (overrides --max-tams)
//   --threads N       worker threads for the partition search and the
//                     rectpack walkers (default 1 = serial; 0 = one per
//                     hardware thread); results are identical to serial
//                     at any thread count
//   --constraints F   JSON file with a scenario-constraints object
//                     (power/power_budget/precedence/fixed/forbidden/
//                     earliest_start — the jobs-file "constraints" block;
//                     see README "Constraints"). rectpack honors every
//                     class; enumerative honors the power budget and
//                     rejects the rest as invalid_request
//   --deadline S      wall-clock budget; an expired job returns its
//                     best-so-far schedule with status deadline_exceeded
//   --no-final-ilp    skip the exact re-optimization step
//   --exhaustive      also run the exhaustive baseline of [8] (serial)
//   --budget S        wall-clock budget for --exhaustive (default 30)
//   --gantt           print the test schedule as a Gantt chart
//   --quiet           only print the testing time (scripting)
//
// Batch mode (runs jobs concurrently through the api::Solver):
//   --batch FILE      jobs JSON (see src/api/job_io.hpp for the format)
//   --threads N       concurrent jobs (default 1; 0 = hardware threads)
//   --out FILE        write the results JSON there (default: stdout)
//   --timing          include cpu_s/wall_s in the results JSON (off by
//                     default so results are byte-identical across runs)
//   --quiet           suppress the per-job progress lines on stderr
//
// Either mode:
//   --metrics         after the run, print the process metrics snapshot
//                     (Prometheus text) on stderr — counters, gauges,
//                     and stage histograms. Results output is unchanged
//   --trace           collect per-solve stage spans and print them on
//                     stderr per job (queue-wait, soc-resolve,
//                     cache-lookup, walkers, exact step, validation).
//                     Results output is unchanged
//   --cache           memoize results (api::ResultCache): repeated
//                     identical (SOC, width, backend, options) points are
//                     served from the cache, byte-identical to the cold
//                     run; concurrent duplicates coalesce. Results JSON
//                     is unchanged by the cache (provenance is off the
//                     canonical bytes); a batch summary goes to stderr
//   --cache-mb M      cache byte budget in MiB (default 64; implies
//                     --cache unless M is 0)
//
// Exit status: 0 on success (deadline_exceeded is a success: a valid
// best-so-far schedule was produced), 1 on runtime errors (bad .soc
// files, unreadable jobs files, invalid/failed jobs in a batch), 2 on
// usage errors (unknown flags, missing/invalid values).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flag_value.hpp"
#include "wtam.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: wtam_opt --soc NAME|FILE --width W [--backend NAME]\n"
               "                [--list-backends] [--max-tams B] [--fixed-tams B]\n"
               "                [--threads N] [--constraints FILE] [--deadline S]\n"
               "                [--no-final-ilp] [--exhaustive] [--budget S]\n"
               "                [--gantt] [--quiet]\n"
               "       wtam_opt --batch jobs.json [--threads N] [--out FILE]\n"
               "                [--timing] [--quiet]\n"
               "       either mode also takes [--cache] [--cache-mb M]\n"
               "                              [--metrics] [--trace]\n"
               "built-in SOCs:";
  for (const std::string_view name : wtam::soc::builtin_soc_names())
    std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

// --trace report for one solve: the stage spans, ordered by start time,
// in microseconds relative to the job's submission. Stderr only — the
// results JSON/stdout contract is untouched.
void report_trace(const wtam::api::SolveResult& result) {
  if (result.trace.empty()) return;
  std::cerr << "trace " << (result.id.empty() ? "(job)" : result.id) << ":\n";
  for (const auto& span : result.trace)
    std::cerr << "  " << span.stage << "  +" << span.start_ns / 1000 << "us  "
              << span.duration_ns / 1000 << "us\n";
}

// --metrics report: the process-wide registry snapshot in Prometheus text
// exposition, the same bytes the wtam_serve `metrics` verb serves.
void report_metrics() {
  std::cerr << "metrics:\n"
            << wtam::obs::to_prometheus(
                   wtam::obs::MetricsRegistry::instance().snapshot());
}

[[noreturn]] void list_backends() {
  const auto backends = wtam::core::BackendRegistry::instance().backends();
  std::size_t name_width = 0;
  for (const auto* backend : backends)
    name_width = std::max(name_width, backend->name().size());
  for (const auto* backend : backends) {
    std::string name(backend->name());
    name.resize(name_width + 2, ' ');
    std::cout << name << backend->description() << "\n";
  }
  std::exit(0);
}

int run_batch(const std::string& jobs_path, int threads,
              const std::string& out_path, bool include_timing, bool quiet,
              bool metrics, bool trace,
              std::shared_ptr<wtam::api::ResultCache> cache) {
  using namespace wtam;
  try {
    const std::vector<api::SolveRequest> jobs =
        api::load_jobs_file(jobs_path);
    if (jobs.empty()) {
      std::cerr << "error: " << jobs_path << " contains no jobs\n";
      return 1;
    }

    api::ProgressFn progress;
    if (!quiet)
      progress = [](const api::ProgressEvent& event) {
        if (event.phase != api::ProgressEvent::Phase::Finished) return;
        const api::SolveResult& result = *event.result;
        std::cerr << "[" << event.index + 1 << "/" << event.total << "] "
                  << result.id << ": " << api::to_string(result.status);
        if (result.has_outcome())
          std::cerr << " (" << result.outcome->testing_time << " cycles, W="
                    << result.width << ")";
        if (!result.error.empty()) std::cerr << " — " << result.error;
        std::cerr << "\n";
      };

    api::SolverOptions solver_options =
        api::SolverOptions::with_threads(threads, cache);
    solver_options.trace = trace;
    api::Solver solver(solver_options);
    const std::vector<api::SolveResult> results =
        solver.solve_batch(jobs, {}, progress);

    if (trace)
      for (const auto& result : results) report_trace(result);
    if (metrics) report_metrics();

    if (cache != nullptr && !quiet) {
      const api::ResultCacheStats stats = cache->stats();
      std::cerr << "cache: " << stats.hits << " hits, " << stats.misses
                << " misses, " << stats.entries << " entries ("
                << stats.bytes / 1024 << " KiB)\n";
    }

    api::ResultsWriteOptions write_options;
    write_options.include_timing = include_timing;
    if (out_path.empty())
      std::cout << api::results_to_json(results, write_options) << "\n";
    else
      api::write_results_file(out_path, results, write_options);

    int failed = 0;
    for (const auto& result : results)
      if (result.status == api::Status::InvalidRequest ||
          result.status == api::Status::InternalError ||
          (result.has_outcome() && !result.schedule_valid))
        ++failed;
    if (failed != 0) {
      std::cerr << "error: " << failed << " of " << results.size()
                << " jobs failed (see results JSON)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wtam;

  std::string soc_name;
  std::string backend = "enumerative";
  std::string batch_path;
  std::string out_path;
  std::string constraints_path;
  int width = 0;
  int max_tams = 10;
  std::optional<int> fixed_tams;
  int threads = 1;
  std::optional<double> deadline_s;
  bool final_ilp = true;
  bool exhaustive = false;
  bool timing = false;
  double budget = 30.0;
  bool gantt = false;
  bool quiet = false;
  bool metrics = false;
  bool trace = false;
  bool use_cache = false;
  int cache_mb = 64;
  // Flags only the enumerative backend honors; remembered so selecting
  // another backend warns instead of silently ignoring them.
  std::vector<std::string> enumerative_flags;
  // Flags meaningless in batch mode, for the same kind of warning.
  std::vector<std::string> single_only_flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--soc") {
      soc_name = value();
    } else if (arg == "--width") {
      width = cli::parse_flag_value<int>(arg, value(), usage);
    } else if (arg == "--backend") {
      backend = value();
      single_only_flags.push_back(arg);
    } else if (arg == "--list-backends") {
      list_backends();
    } else if (arg == "--batch") {
      batch_path = value();
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--max-tams") {
      max_tams = cli::parse_flag_value<int>(arg, value(), usage);
      enumerative_flags.push_back(arg);
      single_only_flags.push_back(arg);
    } else if (arg == "--fixed-tams") {
      fixed_tams = cli::parse_flag_value<int>(arg, value(), usage);
      enumerative_flags.push_back(arg);
      single_only_flags.push_back(arg);
    } else if (arg == "--threads") {
      // Honored by every backend (partition search, rectpack walkers),
      // so no backend-mismatch warning.
      threads = cli::parse_flag_value<int>(arg, value(), usage);
    } else if (arg == "--constraints") {
      constraints_path = value();
      single_only_flags.push_back(arg);
    } else if (arg == "--deadline") {
      deadline_s = cli::parse_flag_value<double>(arg, value(), usage);
      single_only_flags.push_back(arg);
    } else if (arg == "--no-final-ilp") {
      final_ilp = false;
      enumerative_flags.push_back(arg);
      single_only_flags.push_back(arg);
    } else if (arg == "--exhaustive") {
      exhaustive = true;
      single_only_flags.push_back(arg);
    } else if (arg == "--budget") {
      budget = cli::parse_flag_value<double>(arg, value(), usage);
      single_only_flags.push_back(arg);
    } else if (arg == "--gantt") {
      gantt = true;
      single_only_flags.push_back(arg);
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--cache") {
      use_cache = true;
    } else if (arg == "--cache-mb") {
      cache_mb = cli::parse_flag_value<int>(arg, value(), usage);
      use_cache = cache_mb > 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  if (cache_mb < 0) usage("--cache-mb must be >= 0 (0 disables the cache)");
  std::shared_ptr<api::ResultCache> cache;
  if (use_cache) {
    api::ResultCacheOptions cache_options;
    cache_options.max_bytes = static_cast<std::size_t>(cache_mb) << 20;
    cache = std::make_shared<api::ResultCache>(cache_options);
  }

  if (!batch_path.empty()) {
    if (!soc_name.empty() || width != 0)
      usage("--batch cannot be combined with --soc/--width (configure jobs "
            "in the jobs file)");
    if (!single_only_flags.empty())
      usage(("--batch cannot be combined with " + single_only_flags.front() +
             " (configure jobs in the jobs file)")
                .c_str());
    if (threads < 0) usage("--threads must be >= 0 (0 = hardware threads)");
    return run_batch(batch_path, threads, out_path, timing, quiet, metrics,
                     trace, std::move(cache));
  }
  if (!out_path.empty()) usage("--out requires --batch");
  if (timing) usage("--timing requires --batch");

  if (soc_name.empty()) usage("--soc is required");
  if (width < 1 || width > 256) usage("--width must be in 1..256");
  if (fixed_tams && (*fixed_tams < 1 || *fixed_tams > width))
    usage("--fixed-tams out of range");
  if (threads < 0) usage("--threads must be >= 0 (0 = hardware threads)");
  if (deadline_s && !(*deadline_s > 0.0)) usage("--deadline must be > 0");
  if (core::BackendRegistry::instance().find(backend) == nullptr)
    usage(("unknown backend " + backend + " (see --list-backends)").c_str());
  if (backend != "enumerative")
    for (const auto& flag : enumerative_flags) {
      // --max-tams/--fixed-tams still drive the --exhaustive baseline;
      // only --no-final-ilp is enumerative-only regardless.
      if (exhaustive && flag != "--no-final-ilp") continue;
      std::cerr << "warning: " << flag << " is ignored by the " << backend
                << " backend\n";
    }

  try {
    const soc::Soc soc = soc::load_by_name_or_path(soc_name);

    api::SolveRequest request;
    request.soc_value = soc;
    request.width = width;
    request.backend = backend;
    request.options.max_tams = fixed_tams ? *fixed_tams : max_tams;
    request.options.min_tams = fixed_tams ? *fixed_tams : 1;
    request.options.threads = threads;
    request.options.run_final_step = final_ilp;
    request.deadline_s = deadline_s;
    if (!constraints_path.empty()) {
      std::ifstream in(constraints_path, std::ios::binary);
      if (!in)
        throw std::runtime_error("cannot open constraints file " +
                                 constraints_path);
      std::ostringstream text;
      text << in.rdbuf();
      request.options.constraints =
          api::constraints_from_json(api::JsonValue::parse(text.str()));
    }

    api::SolverOptions solver_options =
        api::SolverOptions::with_threads(1, std::move(cache));
    solver_options.trace = trace;
    const api::SolveResult result = api::Solver(solver_options).solve(request);
    if (trace) report_trace(result);
    if (metrics) report_metrics();
    if (result.status == api::Status::InvalidRequest ||
        result.status == api::Status::InternalError || !result.has_outcome()) {
      std::cerr << "error: "
                << (result.error.empty() ? "solver produced no outcome"
                                         : result.error)
                << "\n";
      return 1;
    }
    if (!result.schedule_valid) {
      // A backend emitting a geometrically invalid schedule is a runtime
      // error, not a result.
      std::cerr << "error: backend " << request.backend
                << " produced an invalid schedule\n";
      return 1;
    }
    const core::BackendOutcome& outcome = *result.outcome;

    if (quiet) {
      std::cout << outcome.testing_time << "\n";
      return 0;
    }

    // Align every "key: value" line on the longest key the backend emits
    // ("testing time" is the longest fixed label).
    std::size_t key_width = std::string("testing time").size();
    for (const auto& [key, detail] : outcome.details)
      key_width = std::max(key_width, key.size());
    const auto label = [key_width](std::string key) {
      key += ':';
      key.resize(key_width + 2, ' ');
      return key;
    };

    std::cout << "SOC " << soc.name << " (" << soc.core_count()
              << " cores), total TAM width " << width << "\n"
              << label("backend") << outcome.backend << "\n";
    if (result.status != api::Status::Ok)
      std::cout << label("status") << api::to_string(result.status)
                << " (best-so-far result)\n";
    if (result.cache != api::CacheOutcome::Bypass)
      std::cout << label("cache") << api::to_string(result.cache) << "\n";
    if (outcome.architecture)
      std::cout << label("architecture") << outcome.architecture->tam_count()
                << " TAMs\n";
    for (const auto& [key, detail] : outcome.details)
      std::cout << label(key) << detail << "\n";
    std::cout << label("testing time") << outcome.testing_time << " cycles ("
              << common::format_fixed(outcome.cpu_s, 3) << " s CPU)\n";

    std::cout << label("lower bound") << result.lower_bound << " cycles (gap "
              << common::format_fixed(result.optimality_gap() * 100.0, 2)
              << "%)\n";

    if (exhaustive) {
      // The table the Solver built internally is not exposed, so the
      // baseline (already budget-bound, off the common path) rebuilds it.
      const core::TestTimeTable table(soc, width);
      core::ExhaustiveOptions ex;
      ex.time_budget_s = budget;
      // --deadline bounds the whole invocation: the baseline stops at
      // whichever of --budget and the remaining deadline fires first.
      core::SolveContext deadline_context;
      if (deadline_s) {
        deadline_context = core::SolveContext::with_deadline(
            std::max(0.0, *deadline_s - result.wall_s));
        ex.context = &deadline_context;
      }
      const auto baseline =
          core::exhaustive_pnpaw(table, width, request.options.max_tams, ex);
      if (baseline.completed) {
        std::cout << label("exhaustive") << baseline.best.testing_time
                  << " cycles, partition "
                  << core::format_partition(baseline.best.widths) << " ("
                  << common::format_fixed(baseline.cpu_s, 3) << " s)\n";
      } else if (ex.context != nullptr &&
                 ex.context->poll() != core::SolveInterrupt::None) {
        std::cout << label("exhaustive") << "stopped by --deadline ("
                  << baseline.partitions_solved << "/"
                  << baseline.partitions_total << " partitions)\n";
      } else {
        std::cout << label("exhaustive") << "did not complete within "
                  << common::format_fixed(budget, 0) << " s ("
                  << baseline.partitions_solved << "/"
                  << baseline.partitions_total << " partitions)\n";
      }
    }

    if (gantt)
      std::cout << "\n" << pack::render_packed_gantt(outcome.schedule, soc, 64);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    // CLI exit contract: runtime failures — even non-std exceptions —
    // must end as exit 1 with a message, never a terminate() crash.
    std::cerr << "error: unknown exception\n";
    return 1;
  }
  return 0;
}
