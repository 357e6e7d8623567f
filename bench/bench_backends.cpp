// Backend shoot-out: every registered optimizer backend on every
// benchmark SOC (the four built-ins plus seeded synthetic SOCs) across
// total TAM widths 16..64 — now a thin client of the job-oriented
// api::Solver: one SolveRequest per (SOC, width, backend), executed as a
// parallel batch with deterministic result ordering. For each run the
// testing time, the CPU time, and the gap to the architecture-independent
// lower bound are recorded; for rectpack the delta against the
// enumerative flow is reported (the ISSUE-2 acceptance asks it to stay
// within +5% on d695 at W=32/64 — negative deltas mean rectangle packing
// reclaimed idle wires the test bus could not). Results are printed as
// tables and written to BENCH_backends.json so the backend-quality
// trajectory is machine-readable across PRs.
//
// Exit status: 1 when any job fails, any schedule is invalid, a cache
// hit differs from its cold result, or a constrained point's cpu_s
// exceeds kConstrainedCpuCeilingS (skipped under sanitizers); else 0.
//
// Environment knobs (see bench_util.hpp): WTAM_BENCH_THREADS — here the
// number of concurrently executing jobs (each job runs its engine
// serially, so results are identical at any thread count).

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/job_io.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/backend.hpp"
#include "core/constraints.hpp"
#include "core/power.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"

namespace {

using namespace wtam;

constexpr int kWidths[] = {16, 24, 32, 40, 48, 56, 64};

/// Per-point CPU ceiling for the constrained scenarios: a cliff detector
/// for the 2-10x constrained-vs-unconstrained gap the incremental power
/// timeline removed, loose enough for noisy CI runners.
constexpr double kConstrainedCpuCeilingS = 2.5;

soc::Soc synthetic(std::uint64_t seed) {
  soc::SyntheticSpec spec;
  spec.name = "synth" + std::to_string(seed);
  spec.seed = seed;
  spec.logic_cores = 10 + static_cast<int>(seed % 5);
  spec.logic.patterns = {20, 400};
  spec.logic.ios = {10, 180};
  spec.logic.chains = {1, 12};
  spec.logic.chain_len = {20, 180};
  spec.memory_cores = 4 + static_cast<int>(seed % 3);
  spec.memory.patterns = {100, 2500};
  spec.memory.ios = {8, 50};
  return soc::generate_soc(spec);
}

}  // namespace

int main() {
  const int threads = bench::bench_threads();

  std::vector<soc::Soc> socs = {soc::d695(), soc::p21241(), soc::p31108(),
                                soc::p93791()};
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL})
    socs.push_back(synthetic(seed));

  const auto backends = core::BackendRegistry::instance().names();

  // One job per (SOC, width, backend), in the order the report tables
  // iterate — solve_batch returns results in exactly this order.
  std::vector<api::SolveRequest> jobs;
  for (const soc::Soc& soc : socs)
    for (const int width : kWidths)
      for (const auto& name : backends) {
        api::SolveRequest request;
        request.id = soc.name + "-w" + std::to_string(width) + "-" + name;
        request.soc_value = soc;
        request.width = width;
        request.backend = name;
        jobs.push_back(std::move(request));
      }

  const api::Solver solver(api::SolverOptions::with_threads(threads));
  const std::vector<api::SolveResult> results = solver.solve_batch(jobs);

  std::size_t next = 0;
  bool all_ok = true;
  bench::Json runs = bench::Json::array();
  for (const soc::Soc& soc : socs) {
    common::TextTable table("Backends on " + soc.name + " (" +
                            std::to_string(soc.core_count()) + " cores)");
    table.set_header({"W", "backend", "T (cycles)", "LB", "gap %", "CPU s",
                      "vs enum %"},
                     {common::Align::Right, common::Align::Left,
                      common::Align::Right, common::Align::Right,
                      common::Align::Right, common::Align::Right,
                      common::Align::Right});

    for (const int width : kWidths) {
      std::map<std::string, std::int64_t> per_backend;
      for (const auto& name : backends) {
        const api::SolveResult& result = results[next++];
        if (result.status != api::Status::Ok || !result.has_outcome()) {
          std::cerr << "error: job " << result.id << " ended "
                    << api::to_string(result.status) << " " << result.error
                    << "\n";
          all_ok = false;
          // Keep the runs array positionally complete — downstream
          // tooling aligns runs across PRs by (soc, width, backend).
          bench::Json entry = bench::Json::object();
          entry.set("soc", bench::Json::string(soc.name));
          entry.set("width",
                    bench::Json::number(static_cast<std::int64_t>(width)));
          entry.set("backend", bench::Json::string(name));
          entry.set("status", bench::Json::string(
                                  std::string(api::to_string(result.status))));
          entry.set("error", bench::Json::string(result.error));
          entry.set("schedule_valid", bench::Json::boolean(false));
          runs.push(std::move(entry));
          continue;
        }
        const core::BackendOutcome& outcome = *result.outcome;
        const double gap = result.optimality_gap();
        per_backend[name] = outcome.testing_time;
        all_ok = all_ok && result.schedule_valid;

        std::string vs_enum = "-";
        if (name != "enumerative" && per_backend.count("enumerative") != 0) {
          const auto reference =
              static_cast<double>(per_backend.at("enumerative"));
          vs_enum = common::format_signed_percent(
              (static_cast<double>(outcome.testing_time) - reference) /
              reference * 100.0);
        }
        table.add_row({std::to_string(width), name,
                       std::to_string(outcome.testing_time),
                       std::to_string(result.lower_bound),
                       common::format_fixed(gap * 100.0, 2),
                       common::format_fixed(outcome.cpu_s, 3), vs_enum});

        bench::Json entry = bench::Json::object();
        entry.set("soc", bench::Json::string(soc.name));
        entry.set("width",
                  bench::Json::number(static_cast<std::int64_t>(width)));
        entry.set("backend", bench::Json::string(name));
        entry.set("testing_time", bench::Json::number(outcome.testing_time));
        entry.set("cpu_s", bench::Json::number(outcome.cpu_s));
        entry.set("lower_bound", bench::Json::number(result.lower_bound));
        entry.set("gap", bench::Json::number(gap));
        entry.set("schedule_valid",
                  bench::Json::boolean(result.schedule_valid));
        runs.push(std::move(entry));
      }
      table.add_separator();
    }
    std::cout << table << "\n";
  }

  // ---- cache replay: the same sweep twice through one ResultCache -------
  // Models the service workload (bench reruns, Pareto exploration,
  // wtam_serve traffic re-asking known points): the cold pass populates
  // the cache, the warm pass must be all hits and near-zero wall time.
  const auto cache = std::make_shared<api::ResultCache>();
  const api::Solver cached_solver(
      api::SolverOptions::with_threads(threads, cache));
  std::vector<api::SolveRequest> replay_jobs;
  for (const int width : kWidths)
    for (const auto& name : backends) {
      api::SolveRequest request;
      request.id = "replay-d695-w" + std::to_string(width) + "-" + name;
      request.soc_value = socs.front();  // d695
      request.width = width;
      request.backend = name;
      replay_jobs.push_back(std::move(request));
    }
  common::Stopwatch cold_watch;
  const auto cold_results = cached_solver.solve_batch(replay_jobs);
  const double cold_wall_s = cold_watch.elapsed_s();
  common::Stopwatch warm_watch;
  const auto warm_results = cached_solver.solve_batch(replay_jobs);
  const double warm_wall_s = warm_watch.elapsed_s();
  std::size_t warm_hits = 0;
  for (std::size_t i = 0; i < warm_results.size(); ++i) {
    if (warm_results[i].cache == api::CacheOutcome::Hit) ++warm_hits;
    // Byte-identity contract: a hit reproduces the cold result exactly.
    all_ok = all_ok &&
             api::result_to_json(warm_results[i]).dump_string() ==
                 api::result_to_json(cold_results[i]).dump_string();
  }
  const api::ResultCacheStats cache_stats = cache->stats();
  std::cout << "cache replay on d695: cold "
            << common::format_fixed(cold_wall_s, 3) << " s, warm "
            << common::format_fixed(warm_wall_s, 3) << " s (" << warm_hits
            << "/" << warm_results.size() << " hits, hit rate "
            << common::format_fixed(cache_stats.hit_rate() * 100.0, 1)
            << "%)\n";

  // ---- constrained scenarios --------------------------------------------
  // The same points under scenario constraints (ISSUE-5): d695 with
  // scan-activity powers plus two seeded synthetic constrained SOCs,
  // each at {no constraints, power budget, power + precedence}, W=32,
  // and d695 and csynth7 also at power + wires (fixed windows and
  // forbidden intervals on four cores under the power budget, the masked
  // spot search). Records the testing-time inflation each constraint
  // level costs over the unconstrained baseline of the same (SOC,
  // backend). rectpack runs every level; enumerative skips
  // power+precedence and power+wires (it reports unsupported_constraint
  // for both by contract).
  struct ConstrainedPoint {
    std::string soc_label;
    std::string backend;
    std::string variant;
    const soc::Soc* soc;
    core::ScheduleConstraints constraints;
  };
  std::vector<ConstrainedPoint> points;

  soc::Soc d695_soc = socs.front();
  core::ScheduleConstraints d695_power;
  d695_power.power = core::scan_activity_power(d695_soc);
  for (const std::int64_t p : d695_power.power)
    d695_power.power_budget = std::max(d695_power.power_budget, p);
  core::ScheduleConstraints d695_power_prec = d695_power;
  d695_power_prec.precedence = {{0, 5}, {1, 5}, {5, 9}};

  std::vector<soc::ConstrainedScenario> scenarios;
  for (const std::uint64_t seed : {7ULL, 19ULL}) {
    soc::ConstrainedScenarioSpec spec;
    spec.soc.name = "csynth" + std::to_string(seed);
    spec.soc.seed = seed;
    spec.soc.logic_cores = 9;
    spec.soc.logic.patterns = {20, 400};
    spec.soc.logic.ios = {10, 150};
    spec.soc.logic.chains = {1, 10};
    spec.soc.logic.chain_len = {20, 160};
    spec.soc.memory_cores = 4;
    spec.soc.memory.patterns = {100, 2000};
    spec.soc.memory.ios = {8, 40};
    spec.seed = seed;
    spec.power_budget_fraction = 0.35;
    spec.precedence_edges = 6;
    scenarios.push_back(soc::generate_constrained_scenario(spec));
  }

  const auto add_points = [&points](const std::string& label,
                                    const soc::Soc& soc,
                                    const core::ScheduleConstraints& power,
                                    const core::ScheduleConstraints& full,
                                    bool wires) {
    for (const auto& backend : {std::string("enumerative"),
                                std::string("rectpack")}) {
      points.push_back({label, backend, "none", &soc, {}});
      points.push_back({label, backend, "power", &soc, power});
      if (backend != "rectpack") continue;  // unsupported by contract
      points.push_back({label, backend, "power+precedence", &soc, full});
      if (!wires) continue;
      core::ScheduleConstraints masked = power;
      masked.fixed = {{1, {0, 16}}, {4, {8, 32}}};
      masked.forbidden = {
          {1, {4, 6}}, {2, {8, 16}}, {5, {0, 4}}, {5, {28, 32}}};
      points.push_back({label, backend, "power+wires", &soc, masked});
    }
  };
  add_points("d695", d695_soc, d695_power, d695_power_prec, true);
  for (const auto& scenario : scenarios) {
    core::ScheduleConstraints power_only;
    power_only.power = scenario.constraints.power;
    power_only.power_budget = scenario.constraints.power_budget;
    add_points(scenario.soc.name, scenario.soc, power_only,
               scenario.constraints, scenario.soc.name == "csynth7");
  }

  std::vector<api::SolveRequest> constrained_jobs;
  for (const ConstrainedPoint& point : points) {
    api::SolveRequest request;
    request.id = point.soc_label + "-" + point.backend + "-" + point.variant;
    request.soc_value = *point.soc;
    request.width = 32;
    request.backend = point.backend;
    request.options.constraints = point.constraints;
    constrained_jobs.push_back(std::move(request));
  }
  const auto constrained_results = solver.solve_batch(constrained_jobs);

  common::TextTable constrained_table(
      "Constrained scenarios (W=32, vs unconstrained baseline)");
  constrained_table.set_header(
      {"soc", "backend", "variant", "T (cycles)", "inflation %"},
      {common::Align::Left, common::Align::Left, common::Align::Left,
       common::Align::Right, common::Align::Right});
  bench::Json constrained_runs = bench::Json::array();
  std::map<std::string, std::int64_t> baselines;  // (soc, backend) -> T
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ConstrainedPoint& point = points[i];
    const api::SolveResult& result = constrained_results[i];
    bench::Json entry = bench::Json::object();
    entry.set("soc", bench::Json::string(point.soc_label));
    entry.set("backend", bench::Json::string(point.backend));
    entry.set("variant", bench::Json::string(point.variant));
    if (result.status != api::Status::Ok || !result.has_outcome()) {
      std::cerr << "error: constrained job " << result.id << " ended "
                << api::to_string(result.status) << " " << result.error
                << "\n";
      all_ok = false;
      entry.set("status", bench::Json::string(
                              std::string(api::to_string(result.status))));
      constrained_runs.push(std::move(entry));
      continue;
    }
    if (!result.schedule_valid) {
      std::cerr << "error: constrained job " << result.id
                << " produced an invalid schedule\n";
      all_ok = false;
    }
#if !defined(WTAM_UNDER_SANITIZERS)
    if (result.outcome->cpu_s > kConstrainedCpuCeilingS) {
      std::cerr << "error: constrained job " << result.id << " took "
                << common::format_fixed(result.outcome->cpu_s, 3)
                << " s CPU, over the " << kConstrainedCpuCeilingS
                << " s ceiling\n";
      all_ok = false;
    }
#endif
    const std::int64_t time = result.outcome->testing_time;
    const std::string baseline_key = point.soc_label + "/" + point.backend;
    if (point.variant == "none") baselines[baseline_key] = time;
    const auto baseline_it = baselines.find(baseline_key);
    const std::int64_t baseline =
        baseline_it != baselines.end() ? baseline_it->second : 0;
    const double inflation =
        baseline > 0 ? (static_cast<double>(time) -
                        static_cast<double>(baseline)) /
                           static_cast<double>(baseline) * 100.0
                     : 0.0;
    constrained_table.add_row(
        {point.soc_label, point.backend, point.variant, std::to_string(time),
         common::format_signed_percent(inflation)});
    entry.set("testing_time", bench::Json::number(time));
    entry.set("inflation_pct", bench::Json::number(inflation));
    entry.set("schedule_valid", bench::Json::boolean(result.schedule_valid));
    entry.set("cpu_s", bench::Json::number(result.outcome->cpu_s));
    constrained_runs.push(std::move(entry));
  }
  std::cout << constrained_table << "\n";

  // ---- machine-readable artifact ----------------------------------------
  bench::Json document = bench::Json::object();
  document.set("bench", bench::Json::string("backends"));
  document.set("threads",
               bench::Json::number(static_cast<std::int64_t>(threads)));
  bench::Json backend_names = bench::Json::array();
  for (const auto& name : backends)
    backend_names.push(bench::Json::string(name));
  document.set("backends", std::move(backend_names));

  bench::Json cache_json = bench::Json::object();
  cache_json.set("soc", bench::Json::string("d695"));
  cache_json.set("jobs", bench::Json::number(
                             static_cast<std::int64_t>(replay_jobs.size())));
  cache_json.set("cold_wall_s", bench::Json::number(cold_wall_s));
  cache_json.set("warm_wall_s", bench::Json::number(warm_wall_s));
  cache_json.set("warm_hits",
                 bench::Json::number(static_cast<std::int64_t>(warm_hits)));
  cache_json.set("hits", bench::Json::number(
                             static_cast<std::int64_t>(cache_stats.hits)));
  cache_json.set("misses", bench::Json::number(
                               static_cast<std::int64_t>(cache_stats.misses)));
  cache_json.set("hit_rate", bench::Json::number(cache_stats.hit_rate()));
  cache_json.set("entries", bench::Json::number(
                                static_cast<std::int64_t>(cache_stats.entries)));
  cache_json.set("bytes", bench::Json::number(
                              static_cast<std::int64_t>(cache_stats.bytes)));
  document.set("cache_replay", std::move(cache_json));
  document.set("constrained", std::move(constrained_runs));

  document.set("runs", std::move(runs));

  bench::write_json_file("BENCH_backends.json", document);
  std::cout << "wrote BENCH_backends.json (" << results.size() << " runs)\n";
  if (!all_ok) {
    std::cerr << "error: at least one job failed, produced an invalid "
                 "schedule, or ran over its CPU ceiling\n";
    return 1;
  }
  return 0;
}
