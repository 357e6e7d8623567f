#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/job_io.hpp"
#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "core/assignment_exact.hpp"
#include "core/backend.hpp"
#include "core/partition_evaluate.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rectpack.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::api {
namespace {

SolveRequest d695_request(int width, const std::string& backend) {
  SolveRequest request;
  request.soc = "d695";
  request.width = width;
  request.backend = backend;
  return request;
}

// ---- request validation ---------------------------------------------------

TEST(SolverValidation, RejectsMalformedRequestsWithoutExecuting) {
  const auto expect_invalid = [](SolveRequest request,
                                 const std::string& fragment) {
    const std::string problem = validate(request);
    EXPECT_NE(problem.find(fragment), std::string::npos) << problem;
    const SolveResult result = Solver().solve(request);
    EXPECT_EQ(result.status, Status::InvalidRequest);
    EXPECT_EQ(result.error, problem);
    EXPECT_FALSE(result.has_outcome());
  };

  expect_invalid(SolveRequest{}, "no SOC");
  {
    SolveRequest both = d695_request(16, "enumerative");
    both.soc_inline = "soc x\ncore a patterns=1 inputs=1 outputs=1 scan=\n";
    expect_invalid(both, "ambiguous SOC");
  }
  expect_invalid(d695_request(0, "enumerative"), "width must be in");
  expect_invalid(d695_request(300, "enumerative"), "width must be in");
  {
    SolveRequest bad_sweep = d695_request(32, "enumerative");
    bad_sweep.width_max = 16;
    expect_invalid(bad_sweep, "width_max");
  }
  expect_invalid(d695_request(16, "no-such-backend"), "unknown backend");
  {
    SolveRequest bad_deadline = d695_request(16, "enumerative");
    bad_deadline.deadline_s = 0.0;
    expect_invalid(bad_deadline, "deadline_s");
  }
  {
    SolveRequest bad_tams = d695_request(16, "enumerative");
    bad_tams.options.min_tams = 5;
    bad_tams.options.max_tams = 2;
    expect_invalid(bad_tams, "TAM range");
  }
  EXPECT_TRUE(validate(d695_request(16, "rectpack")).empty());
}

TEST(SolverValidation, UnreadableSocFileIsInvalidRequest) {
  SolveRequest request = d695_request(16, "enumerative");
  request.soc = "/no/such/dir/missing.soc";
  const SolveResult result = Solver().solve(request);
  EXPECT_EQ(result.status, Status::InvalidRequest);
  EXPECT_NE(result.error.find("cannot open soc file"), std::string::npos);
}

// ---- single solves --------------------------------------------------------

TEST(Solver, OkSolveMatchesTheRawBackendSeam) {
  const soc::Soc soc = soc::d695();
  const core::TestTimeTable table(soc, 32);
  const auto reference = core::BackendRegistry::instance()
                             .at("enumerative")
                             .optimize(table, 32, {});

  const SolveResult result = Solver().solve(d695_request(32, "enumerative"));
  ASSERT_EQ(result.status, Status::Ok);
  ASSERT_TRUE(result.has_outcome());
  EXPECT_EQ(result.outcome->testing_time, reference.testing_time);
  EXPECT_EQ(result.soc_name, "d695");
  EXPECT_EQ(result.core_count, 10);
  EXPECT_EQ(result.width, 32);
  EXPECT_EQ(result.widths_tried, 1);
  EXPECT_TRUE(result.schedule_valid);
  EXPECT_GT(result.lower_bound, 0);
  EXPECT_LE(result.lower_bound, result.outcome->testing_time);
}

TEST(Solver, InlineSocTextSolves) {
  SolveRequest request;
  request.soc_inline =
      "soc tiny\n"
      "core a patterns=10 inputs=4 outputs=4 scan=8,8\n"
      "core b patterns=20 inputs=2 outputs=3 scan=\n";
  request.width = 8;
  request.backend = "rectpack";
  const SolveResult result = Solver().solve(request);
  ASSERT_EQ(result.status, Status::Ok);
  EXPECT_EQ(result.soc_name, "tiny");
  EXPECT_EQ(result.core_count, 2);
  EXPECT_TRUE(result.schedule_valid);
}

TEST(Solver, WidthSweepPicksTheBestWidth) {
  SolveRequest sweep = d695_request(16, "enumerative");
  sweep.width_max = 24;
  sweep.options.max_tams = 4;
  const SolveResult result = Solver().solve(sweep);
  ASSERT_EQ(result.status, Status::Ok);
  EXPECT_EQ(result.widths_tried, 9);

  // The best of the sweep is no worse than any endpoint solved alone.
  for (const int width : {16, 24}) {
    SolveRequest single = d695_request(width, "enumerative");
    single.options.max_tams = 4;
    const SolveResult one = Solver().solve(single);
    ASSERT_EQ(one.status, Status::Ok);
    EXPECT_LE(result.outcome->testing_time, one.outcome->testing_time);
  }
  EXPECT_GE(result.width, 16);
  EXPECT_LE(result.width, 24);
  EXPECT_TRUE(result.schedule_valid);
}

TEST(Solver, InternalErrorCapturesBackendExceptions) {
  class Throwing final : public core::OptimizerBackend {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "test-throw";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
      return "always throws (solver error-path probe)";
    }
    [[nodiscard]] core::BackendOutcome optimize(
        const core::TestTimeTable&, int, const core::BackendOptions&,
        const core::SolveContext&) const override {
      throw std::runtime_error("engine exploded");
    }
  };
  core::BackendRegistry::instance().register_backend(
      std::make_unique<Throwing>());

  const SolveResult result = Solver().solve(d695_request(16, "test-throw"));
  EXPECT_EQ(result.status, Status::InternalError);
  EXPECT_EQ(result.error, "engine exploded");
  EXPECT_FALSE(result.has_outcome());
}

// ---- deadlines ------------------------------------------------------------

TEST(SolverDeadline, ExpiredDeadlineReturnsValidBestSoFar) {
  // p93791 at W=48 with a large TAM range cannot finish in 10 ms, so the
  // deadline must fire — and the result must still be a complete,
  // validator-clean schedule (the best-so-far incumbent).
  SolveRequest request;
  request.soc = "p93791";
  request.width = 48;
  request.backend = "enumerative";
  request.options.max_tams = 16;
  request.deadline_s = 0.01;
  const SolveResult result = Solver().solve(request);
  EXPECT_EQ(result.status, Status::DeadlineExceeded);
  ASSERT_TRUE(result.has_outcome());
  EXPECT_EQ(result.outcome->interrupt, SolveInterrupt::DeadlineExceeded);
  EXPECT_GT(result.outcome->testing_time, 0);
  EXPECT_TRUE(result.schedule_valid);
}

TEST(SolverDeadline, RectpackHonorsDeadlines) {
  SolveRequest request;
  request.soc = "p93791";
  request.width = 32;
  request.backend = "rectpack";
  request.options.rectpack.local_search_iterations = 2'000'000;
  request.deadline_s = 0.02;
  const SolveResult result = Solver().solve(request);
  EXPECT_EQ(result.status, Status::DeadlineExceeded);
  ASSERT_TRUE(result.has_outcome());
  EXPECT_TRUE(result.schedule_valid);
}

// ---- cancellation ---------------------------------------------------------

TEST(SolverCancel, PreCancelledTokenShortCircuits) {
  CancelToken cancel;
  cancel.request_cancel();
  const SolveResult result =
      Solver().solve(d695_request(32, "enumerative"), cancel);
  EXPECT_EQ(result.status, Status::Cancelled);
  EXPECT_FALSE(result.has_outcome());
}

TEST(SolverCancel, EnginesObserveCancellationWithinOnePollInterval) {
  // Engine-level contract, deterministic (no timing): a context that is
  // already cancelled stops the search at its first poll — after exactly
  // one evaluated candidate — and returns a complete incumbent.
  const soc::Soc soc = soc::d695();
  const core::TestTimeTable table(soc, 32);
  core::SolveContext context;
  context.cancel.request_cancel();

  core::PartitionEvaluateOptions search;
  search.context = &context;
  const auto heuristic = core::partition_evaluate(table, 32, search);
  EXPECT_EQ(heuristic.interrupt, SolveInterrupt::Cancelled);
  // B=1 has the single partition [32] (always evaluated — the guaranteed
  // incumbent); B=2 stops at its first poll with nothing enumerated.
  std::uint64_t enumerated = 0;
  for (const auto& stats : heuristic.per_b)
    enumerated += stats.partitions_unique;
  EXPECT_EQ(enumerated, 1u);
  EXPECT_FALSE(heuristic.best.widths.empty());
  EXPECT_GT(heuristic.best.testing_time, 0);

  pack::RectPackOptions packing;
  packing.context = &context;
  const auto packed = pack::rectpack_schedule(table, 32, packing);
  EXPECT_EQ(packed.interrupt, SolveInterrupt::Cancelled);
  EXPECT_EQ(packed.schedule.placements.size(),
            static_cast<std::size_t>(soc.core_count()));
  EXPECT_TRUE(pack::validate_packed_schedule(table, packed.schedule).empty());
}

TEST(SolverCancel, ExactSolverHonorsTheContext) {
  // The final-optimization engines stop on a fired context like a
  // node/time limit: optimality unproven, heuristic incumbent returned.
  // The ILP engine polls every node, so a pre-cancelled context is
  // observed before the first branch — fully deterministic.
  const soc::Soc soc = soc::d695();
  const core::TestTimeTable table(soc, 32);
  core::SolveContext context;
  context.cancel.request_cancel();
  core::ExactOptions exact;
  exact.engine = core::ExactEngine::Ilp;
  exact.context = &context;
  const std::vector<int> widths = {10, 10, 12};
  const auto solved = core::solve_assignment_exact(table, widths, exact);
  EXPECT_FALSE(solved.proven_optimal);
  EXPECT_GT(solved.architecture.testing_time, 0);  // the warm-start incumbent
}

TEST(SolverCancel, CancellationFromAnotherThreadStopsALongJob) {
  SolveRequest request;
  request.soc = "p93791";
  request.width = 64;
  request.backend = "enumerative";
  request.options.max_tams = 16;  // astronomically large search space

  CancelToken cancel;
  std::thread canceller([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.request_cancel();
  });
  const SolveResult result = Solver().solve(request, cancel);
  canceller.join();
  EXPECT_EQ(result.status, Status::Cancelled);
  ASSERT_TRUE(result.has_outcome());
  EXPECT_TRUE(result.schedule_valid);
}

// ---- batches --------------------------------------------------------------

std::vector<SolveRequest> mixed_batch() {
  std::vector<SolveRequest> jobs;
  jobs.push_back(d695_request(16, "enumerative"));
  jobs.back().options.max_tams = 4;
  jobs.push_back(d695_request(16, "rectpack"));
  jobs.push_back(d695_request(24, "rectpack"));
  jobs.push_back(d695_request(24, "enumerative"));
  jobs.back().options.max_tams = 4;
  SolveRequest invalid;  // exercises per-job failure isolation
  invalid.soc = "d695";
  invalid.width = 0;
  jobs.push_back(invalid);
  return jobs;
}

TEST(SolverBatch, ResultsAreInRequestOrderAndThreadCountInvariant) {
  const std::vector<SolveRequest> jobs = mixed_batch();
  const std::vector<SolveResult> serial = Solver(SolverOptions::with_threads(1)).solve_batch(jobs);
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].status, Status::Ok) << i;
    EXPECT_EQ(serial[i].id, "job-" + std::to_string(i + 1));
    EXPECT_EQ(serial[i].backend, jobs[i].backend);
  }
  EXPECT_EQ(serial.back().status, Status::InvalidRequest);

  // Byte-identical results JSON at any thread count — the batch
  // determinism contract `--batch` relies on.
  const std::string reference = results_to_json(serial);
  for (const int threads : {2, 4, 0}) {
    const std::vector<SolveResult> parallel =
        Solver(SolverOptions::with_threads(threads)).solve_batch(jobs);
    EXPECT_EQ(results_to_json(parallel), reference) << threads;
  }
}

TEST(SolverBatch, HigherPriorityJobsStartFirst) {
  std::vector<SolveRequest> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(d695_request(8, "rectpack"));
  jobs[0].priority = -1;
  jobs[1].priority = 5;
  jobs[2].priority = 0;

  std::vector<std::size_t> started;
  const auto progress = [&](const ProgressEvent& event) {
    if (event.phase == ProgressEvent::Phase::Started)
      started.push_back(event.index);
  };
  const auto results = Solver(SolverOptions::with_threads(1)).solve_batch(jobs, {}, progress);
  ASSERT_EQ(results.size(), 3u);
  // Execution order: priority descending; results stay in request order.
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 2, 0}));
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].id, "job-" + std::to_string(i + 1));
}

TEST(SolverBatch, BatchWideCancelMarksUnstartedJobsCancelled) {
  std::vector<SolveRequest> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(d695_request(16, "rectpack"));
  CancelToken cancel;
  cancel.request_cancel();
  const auto results = Solver(SolverOptions::with_threads(2)).solve_batch(jobs, cancel);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results)
    EXPECT_EQ(result.status, Status::Cancelled);
}

TEST(SolverBatch, ProgressReportsStartAndFinishForEveryJob) {
  const std::vector<SolveRequest> jobs = {d695_request(8, "rectpack"),
                                          d695_request(8, "rectpack")};
  std::atomic<int> starts{0};
  std::atomic<int> finishes{0};
  const auto progress = [&](const ProgressEvent& event) {
    if (event.phase == ProgressEvent::Phase::Started) {
      ++starts;
      EXPECT_EQ(event.result, nullptr);
    } else {
      ++finishes;
      ASSERT_NE(event.result, nullptr);
      EXPECT_EQ(event.result->status, Status::Ok);
    }
    EXPECT_EQ(event.total, 2u);
  };
  (void)Solver(SolverOptions::with_threads(2)).solve_batch(jobs, {}, progress);
  EXPECT_EQ(starts.load(), 2);
  EXPECT_EQ(finishes.load(), 2);
}

// ---- result cache ---------------------------------------------------------

TEST(SolverCache, RepeatedRequestIsServedFromCacheByteIdentically) {
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));
  SolveRequest request = d695_request(32, "enumerative");

  const SolveResult cold = solver.solve(request);
  ASSERT_EQ(cold.status, Status::Ok);
  EXPECT_EQ(cold.cache, CacheOutcome::Miss);

  const SolveResult warm = solver.solve(request);
  ASSERT_EQ(warm.status, Status::Ok);
  EXPECT_EQ(warm.cache, CacheOutcome::Hit);

  // Byte-identical canonical result bytes (timing and cache provenance
  // are opt-in, exactly so this holds).
  EXPECT_EQ(result_to_json(warm).dump_string(),
            result_to_json(cold).dump_string());
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().insertions, 1u);
}

TEST(SolverCache, AMissAndItsCacheEntryShareOnePlacementList) {
  // A miss publishes the placement list its answer holds, and every hit,
  // stored or probed, hands that list out again instead of a copy.
  for (const std::string backend : {"rectpack", "enumerative"}) {
    const auto cache = std::make_shared<ResultCache>();
    const Solver solver(SolverOptions::with_threads(1, cache));
    const SolveRequest request = d695_request(24, backend);
    const SolveResult cold = solver.solve(request);
    ASSERT_EQ(cold.status, Status::Ok) << backend;
    ASSERT_EQ(cold.cache, CacheOutcome::Miss) << backend;
    const pack::PlacementList& list = cold.outcome->schedule.placements;
    ASSERT_FALSE(list.empty()) << backend;

    const auto stored = cache->lookup(request_keys(request));
    ASSERT_TRUE(stored.has_value()) << backend;
    EXPECT_EQ(stored->front().outcome.schedule.placements.data(), list.data())
        << backend;
    const SolveResult warm = solver.solve(request);
    ASSERT_EQ(warm.cache, CacheOutcome::Hit) << backend;
    EXPECT_EQ(warm.outcome->schedule.placements.data(), list.data())
        << backend;
    const std::optional<SolveResult> inline_hit = solver.solve_stored(request);
    ASSERT_TRUE(inline_hit.has_value()) << backend;
    EXPECT_EQ(inline_hit->outcome->schedule.placements.data(), list.data())
        << backend;
  }
}

TEST(SolverCache, EqualWorkHitsAcrossDifferentSocPhrasings) {
  // A request phrased with an in-memory SOC warms the cache for the same
  // point phrased by built-in name — canonical identity at work.
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));

  SolveRequest by_value;
  by_value.soc_value = soc::d695();
  by_value.width = 24;
  by_value.backend = "rectpack";
  ASSERT_EQ(solver.solve(by_value).cache, CacheOutcome::Miss);

  const SolveResult warm = solver.solve(d695_request(24, "rectpack"));
  EXPECT_EQ(warm.cache, CacheOutcome::Hit);
}

TEST(SolverCache, SweepAndSingleWidthShareEntries) {
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));

  SolveRequest sweep = d695_request(16, "rectpack");
  sweep.width_max = 20;
  const SolveResult cold = solver.solve(sweep);
  ASSERT_EQ(cold.status, Status::Ok);
  EXPECT_EQ(cold.cache, CacheOutcome::Miss);
  EXPECT_EQ(cold.widths_tried, 5);

  // Every width of the sweep is now cached individually.
  for (const int width : {16, 17, 18, 19, 20})
    EXPECT_EQ(solver.solve(d695_request(width, "rectpack")).cache,
              CacheOutcome::Hit)
        << width;

  // And the whole sweep replays as a pure hit, same bytes.
  const SolveResult warm = solver.solve(sweep);
  EXPECT_EQ(warm.cache, CacheOutcome::Hit);
  EXPECT_EQ(result_to_json(warm).dump_string(),
            result_to_json(cold).dump_string());
}

TEST(SolverCache, BatchResultsAreByteIdenticalWithCacheOnAndOff) {
  // The satellite contract: a batch (with internal repetition) produces
  // the identical results document with caching enabled or disabled.
  std::vector<SolveRequest> jobs = mixed_batch();
  jobs.push_back(d695_request(16, "rectpack"));  // duplicate of job 2
  jobs.push_back(d695_request(16, "enumerative"));
  jobs.back().options.max_tams = 4;  // duplicate of job 1

  const std::vector<SolveResult> uncached =
      Solver(SolverOptions::with_threads(2)).solve_batch(jobs);
  const auto cache = std::make_shared<ResultCache>();
  const std::vector<SolveResult> cached =
      Solver(SolverOptions::with_threads(2, cache)).solve_batch(jobs);
  EXPECT_EQ(results_to_json(cached), results_to_json(uncached));

  // Every cacheable job was consulted; the invalid job (index 4 from
  // mixed_batch) bypassed.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == 4) continue;
    EXPECT_NE(cached[i].cache, CacheOutcome::Bypass) << i;
  }
  EXPECT_EQ(cached[4].cache, CacheOutcome::Bypass);  // invalid request
  // The duplicates were served from the cache at least once (exact
  // hit/miss split depends on scheduling at 2 threads — coalesced
  // duplicates also count as hits).
  EXPECT_GE(cache->stats().hits, 2u);
}

TEST(SolverCache, ConstrainedAndUnconstrainedRequestsNeverConflate) {
  // Same SOC/width/backend; the constrained ask must be its own cache
  // entry (distinct RequestKey), and a warm constrained re-ask must be
  // byte-identical to its cold run.
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));

  SolveRequest plain = d695_request(16, "rectpack");
  SolveRequest constrained = plain;
  constrained.options.constraints.power.assign(10, 100);
  constrained.options.constraints.power_budget = 200;

  const SolveResult plain_cold = solver.solve(plain);
  ASSERT_EQ(plain_cold.status, Status::Ok);
  EXPECT_EQ(plain_cold.cache, CacheOutcome::Miss);

  const SolveResult constrained_cold = solver.solve(constrained);
  ASSERT_EQ(constrained_cold.status, Status::Ok);
  EXPECT_EQ(constrained_cold.cache, CacheOutcome::Miss)
      << "constrained ask must not hit the unconstrained entry";
  EXPECT_TRUE(constrained_cold.schedule_valid);
  EXPECT_GE(constrained_cold.outcome->testing_time,
            plain_cold.outcome->testing_time);

  const SolveResult constrained_warm = solver.solve(constrained);
  EXPECT_EQ(constrained_warm.cache, CacheOutcome::Hit);
  EXPECT_EQ(result_to_json(constrained_warm).dump_string(),
            result_to_json(constrained_cold).dump_string());
  const SolveResult plain_warm = solver.solve(plain);
  EXPECT_EQ(plain_warm.cache, CacheOutcome::Hit);
  EXPECT_EQ(result_to_json(plain_warm).dump_string(),
            result_to_json(plain_cold).dump_string());
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST(SolverApi, InvalidConstraintsAreAnInvalidRequest) {
  SolveRequest request = d695_request(16, "rectpack");
  request.options.constraints.power.assign(3, 10);  // 3 entries, 10 cores
  request.options.constraints.power_budget = 20;
  const SolveResult result = Solver().solve(request);
  EXPECT_EQ(result.status, Status::InvalidRequest);
  EXPECT_NE(result.error.find("invalid constraints"), std::string::npos);
  EXPECT_FALSE(result.has_outcome());

  // Structural problems are caught by validate() before any SOC loads.
  SolveRequest cyclic = d695_request(16, "rectpack");
  cyclic.options.constraints.precedence = {{0, 0}};
  EXPECT_NE(validate(cyclic).find("invalid constraints"), std::string::npos);

  // A lone negative budget is rejected, not silently unconstrained.
  SolveRequest negative = d695_request(16, "rectpack");
  negative.options.constraints.power_budget = -5;
  EXPECT_NE(validate(negative).find("power_budget must be >= 0"),
            std::string::npos);
}

TEST(SolverCache, DeadlineBoundRequestsBypassTheCache) {
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));

  SolveRequest request;
  request.soc = "p93791";
  request.width = 48;
  request.backend = "enumerative";
  request.options.max_tams = 16;
  request.deadline_s = 0.01;
  const SolveResult result = solver.solve(request);
  EXPECT_EQ(result.status, Status::DeadlineExceeded);
  EXPECT_EQ(result.cache, CacheOutcome::Bypass);
  EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u);
  EXPECT_EQ(cache->stats().entries, 0u);
}

TEST(SolverCache, CancelledSolvesAreNotCached) {
  const auto cache = std::make_shared<ResultCache>();
  const Solver solver(SolverOptions::with_threads(1, cache));

  SolveRequest request = d695_request(32, "enumerative");
  request.options.max_tams = 16;
  CancelToken cancel;
  std::thread canceller([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.request_cancel();
  });
  const SolveResult result = solver.solve(request, cancel);
  canceller.join();
  if (result.status == Status::Cancelled) {
    // The interrupted best-so-far incumbent must not poison the cache.
    EXPECT_EQ(cache->stats().entries, 0u);
  } else {
    // The solve beat the canceller — then and only then it was cached.
    EXPECT_EQ(result.status, Status::Ok);
  }
}

}  // namespace
}  // namespace wtam::api
