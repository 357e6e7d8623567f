// Concurrency stress suite — the dynamic cross-check of the static
// -Wthread-safety model (src/common/thread_annotations.hpp).
//
// These tests are sized to find interleaving bugs, not to prove
// throughput: many threads, many rounds, small work items, run under
// ThreadSanitizer in CI (WTAM_SANITIZE=thread; ctest label
// `concurrency`). Each scenario targets one protocol the serving stack
// depends on:
//   * ResultCache coalescing under contention (many threads, few keys);
//   * the abandoned-lead handoff (the trickiest protocol state: a leader
//     gives up and exactly one waiter must re-lead, the rest re-wait);
//   * Solver batches with cross-thread cancellation mid-flight;
//   * a wtam_serve-shaped worker pool hammering one request key through
//     a shared Solver + cache;
//   * stats() snapshot consistency while writers are hot;
//   * ThreadPool/OrderedChunkPipeline shutdown and error paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/thread_pool.hpp"

namespace wtam {
namespace {

// TSan multiplies every synchronization operation's cost; keep wall
// clock in check by shrinking rounds there (the interleaving coverage
// per round is what matters, not the total count).
#if defined(WTAM_UNDER_TSAN)
constexpr int kRounds = 8;
#elif defined(WTAM_UNDER_ASAN)
constexpr int kRounds = 12;
#else
constexpr int kRounds = 25;
#endif

api::RequestKey stress_key(int width) {
  api::RequestKey key;
  key.soc_hash = common::stable_hash_128("concurrency-stress-soc");
  key.width = width;
  key.backend = "rectpack";
  key.options = "stress=1";
  return key;
}

api::CachedSolve stress_solve(std::int64_t testing_time) {
  api::CachedSolve solve;
  solve.outcome.backend = "rectpack";
  solve.outcome.testing_time = testing_time;
  solve.outcome.details.emplace_back("pad", std::string(128, 'x'));
  solve.lower_bound = testing_time / 2;
  solve.schedule_valid = true;
  return solve;
}

/// The two-core SOC every solver-level stress test uses: cheap enough to
/// solve in well under a millisecond, so the contention dominates.
api::SolveRequest tiny_request(int width) {
  api::SolveRequest request;
  request.soc_inline =
      "soc stress\n"
      "core a patterns=10 inputs=4 outputs=4 scan=8,8\n"
      "core b patterns=20 inputs=2 outputs=3 scan=\n";
  request.width = width;
  request.backend = "rectpack";
  return request;
}

TEST(ConcurrencyStress, CacheCoalescingUnderContention) {
  // 6 threads hammer 3 keys for kRounds rounds. Whoever leads computes
  // and publishes; everyone else must be served the published value.
  // Between rounds the cache is cleared, so every round replays the
  // whole miss -> in-flight -> coalesce protocol.
  api::ResultCache cache;

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&cache, &mismatches, t] {
        for (int k = 0; k < 3; ++k) {
          const api::RequestKey key = stress_key(16 + k);
          const api::ResultCache::Fetch fetch = cache.begin_fetch(key);
          if (fetch.outcome == api::ResultCache::FetchOutcome::Lead) {
            // Stretch the in-flight window so followers really block.
            if (t % 2 == 0) std::this_thread::yield();
            cache.publish(fetch, stress_solve(1000 + k));
          } else if (!fetch.value.has_value() ||
                     fetch.value->outcome.testing_time != 1000 + k) {
            ++mismatches;
          }
        }
      });
    for (auto& thread : threads) thread.join();
    cache.clear();
  }
  EXPECT_EQ(mismatches.load(), 0);

  const api::ResultCacheStats stats = cache.stats();
  // Every fetch resolved as exactly one of hit (stored or coalesced) or
  // miss (lead) — the counters must account for all of them.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kRounds * kThreads * 3));
  // Exactly one thread leads (and publishes) each round/key; everyone
  // else coalesces onto the in-flight entry or hits the stored one.
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kRounds * 3));
}

TEST(ConcurrencyStress, AbandonedLeadHandoffUnderContention) {
  // Regression for the trickiest protocol state: the first leader of
  // each round abandons; of the threads blocked on it, exactly one must
  // re-lead (and publish) while the rest re-wait and get served. Run
  // many rounds so TSan sees the abandon/re-lead/notify interleavings.
  api::ResultCache cache;
  constexpr int kThreads = 5;

  for (int round = 0; round < kRounds; ++round) {
    const api::RequestKey key = stress_key(round % 7);
    std::atomic<int> leads{0};
    std::atomic<int> served{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&cache, &key, &leads, &served] {
        const api::ResultCache::Fetch fetch = cache.begin_fetch(key);
        if (fetch.outcome == api::ResultCache::FetchOutcome::Lead) {
          if (leads.fetch_add(1) == 0) {
            // First leader: give followers time to pile up, then walk
            // away. The handoff must elect exactly one new leader.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            cache.abandon(fetch);
          } else {
            cache.publish(fetch, stress_solve(4242));
          }
        } else {
          ASSERT_TRUE(fetch.value.has_value());
          EXPECT_EQ(fetch.value->outcome.testing_time, 4242);
          ++served;
        }
      });
    for (auto& thread : threads) thread.join();

    // The abandoned round must still converge: either a re-leader
    // published (normal) or every other thread raced past the in-flight
    // window and led after the value was stored (then hits served them).
    ASSERT_GE(leads.load(), 1);
    if (leads.load() >= 2) {
      const auto hit = cache.lookup({key});
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->front().outcome.testing_time, 4242);
    }
    cache.clear();
  }
}

TEST(ConcurrencyStress, BatchSolvesWithCrossThreadCancellation) {
  // A 12-job batch on 4 workers with the cancel token fired from outside
  // mid-flight: jobs must come back Ok (finished before the token) or
  // Cancelled (with or without a best-so-far incumbent) — never hang,
  // never crash, never corrupt a result slot.
  auto cache = std::make_shared<api::ResultCache>();
  const api::Solver solver(api::SolverOptions::with_threads(4, cache));

  std::vector<api::SolveRequest> jobs;
  for (int i = 0; i < 12; ++i) {
    api::SolveRequest job = tiny_request(4 + (i % 5));
    job.id = "stress-" + std::to_string(i);
    jobs.push_back(std::move(job));
  }

  api::CancelToken cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    cancel.request_cancel();
  });
  const std::vector<api::SolveResult> results =
      solver.solve_batch(jobs, cancel);
  canceller.join();

  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, jobs[i].id);
    EXPECT_TRUE(results[i].status == api::Status::Ok ||
                results[i].status == api::Status::Cancelled)
        << to_string(results[i].status);
    if (results[i].status == api::Status::Ok) {
      EXPECT_TRUE(results[i].schedule_valid);
    }
  }
}

TEST(ConcurrencyStress, ServeStylePoolHammersOneKeyThroughSharedSolver) {
  // The wtam_serve shape: one shared Solver + cache, a worker pool, and
  // a burst of identical single-solve jobs racing on one request key.
  // The cache must compute the engine result exactly once per clear and
  // serve everyone byte-identical values.
  auto cache = std::make_shared<api::ResultCache>();
  const api::Solver solver(api::SolverOptions::with_threads(1, cache));
  constexpr int kJobs = 16;

  std::vector<api::SolveResult> results(kJobs);
  {
    common::CompletionLatch latch;
    common::ThreadPool pool(4);
    for (int i = 0; i < kJobs; ++i)
      pool.submit([&solver, &results, &latch, i] {
        results[static_cast<std::size_t>(i)] = solver.solve(tiny_request(8));
        // Publication of the slot to the main thread rides the latch's
        // lock hand-off, exactly like the rectpack walker join.
        latch.arrive();
      });
    latch.wait(kJobs);
  }

  for (const api::SolveResult& result : results) {
    ASSERT_EQ(result.status, api::Status::Ok);
    ASSERT_TRUE(result.has_outcome());
    EXPECT_EQ(result.outcome->testing_time, results[0].outcome->testing_time);
    EXPECT_TRUE(result.schedule_valid);
  }
  const api::ResultCacheStats stats = cache->stats();
  EXPECT_EQ(stats.insertions, 1u) << "identical jobs must coalesce";
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kJobs));
}

TEST(ConcurrencyStress, StatsSnapshotsStayConsistentUnderWrites) {
  // Readers poll stats() while writers publish/look up. Each snapshot
  // must be internally coherent: totals never run backwards between
  // consecutive snapshots (monotone counters), the gauges stay within
  // the configured budget, and the derived hit rate stays in [0, 1].
  api::ResultCacheOptions options;
  options.max_bytes = 1 << 20;
  api::ResultCache cache(options);

  std::atomic<bool> stop{false};
  std::thread reader([&cache, &stop] {
    std::uint64_t last_lookups = 0;
    std::uint64_t last_insertions = 0;
    while (!stop.load()) {
      const api::ResultCacheStats stats = cache.stats();
      const std::uint64_t lookups = stats.hits + stats.misses;
      EXPECT_GE(lookups, last_lookups);
      EXPECT_GE(stats.insertions, last_insertions);
      EXPECT_LE(stats.bytes, stats.max_bytes);
      EXPECT_GE(stats.hit_rate(), 0.0);
      EXPECT_LE(stats.hit_rate(), 1.0);
      last_lookups = lookups;
      last_insertions = stats.insertions;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int t = 0; t < 3; ++t)
    writers.emplace_back([&cache, t] {
      for (int round = 0; round < kRounds * 4; ++round) {
        const api::RequestKey key = stress_key((t * 31 + round) % 11);
        const api::ResultCache::Fetch fetch = cache.begin_fetch(key);
        if (fetch.outcome == api::ResultCache::FetchOutcome::Lead)
          cache.publish(fetch, stress_solve(round));
        (void)cache.lookup({key});
      }
    });
  for (auto& writer : writers) writer.join();
  stop = true;
  reader.join();
}

TEST(ConcurrencyStress, ThreadPoolDrainsQueuedTasksOnShutdown) {
  // The pool's contract: tasks already queued when the destructor runs
  // still execute (workers drain the queue before exiting). A count
  // mismatch here means tasks were dropped — or TSan flags the
  // stop/drain handshake.
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    common::ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&ran] { ++ran; });
    // Destructor joins here with most tasks still queued.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ConcurrencyStress, OrderedPipelineKeepsOrderAndReportsOneError) {
  // The pipeline under parallel stress: outcomes must merge strictly in
  // push order, and a mid-stream process error must surface exactly once
  // from finish() while later chunks still advance the merge cursor.
  common::ThreadPool pool(4);
  {
    std::vector<int> merged;
    common::OrderedChunkPipeline<int, int> pipeline(
        pool, [](const int& chunk) { return chunk * 2; },
        [&merged](int&& outcome) { merged.push_back(outcome); },
        /*max_in_flight=*/4);
    for (int i = 0; i < kRounds * 4; ++i) ASSERT_TRUE(pipeline.push(i));
    pipeline.finish();
    ASSERT_EQ(merged.size(), static_cast<std::size_t>(kRounds * 4));
    for (int i = 0; i < kRounds * 4; ++i) EXPECT_EQ(merged[i], i * 2);
  }
  {
    common::OrderedChunkPipeline<int, int> failing(
        pool,
        [](const int& chunk) {
          if (chunk == 5) throw std::runtime_error("chunk 5 failed");
          return chunk;
        },
        [](int&&) {}, /*max_in_flight=*/2);
    bool accepted = true;
    for (int i = 0; i < 32 && accepted; ++i) accepted = failing.push(i);
    EXPECT_THROW(failing.finish(), std::runtime_error);
    failing.finish();  // second finish: error already consumed, no rethrow
  }
}

}  // namespace
}  // namespace wtam
