// ResultCache contract: LRU eviction under a byte budget, hit/miss
// accounting, and cross-thread coalescing of identical in-flight work.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/request_key.hpp"
#include "api/result_cache.hpp"

namespace wtam::api {
namespace {

RequestKey key_for(int width) {
  RequestKey key;
  key.soc_hash = common::stable_hash_128("result-cache-test-soc");
  key.width = width;
  key.backend = "enumerative";
  key.options = "max_tams=10,min_tams=1,run_final_step=1";
  return key;
}

/// A CachedSolve whose charge is dominated by `payload` bytes of detail
/// text, so tests can reason about the byte budget.
CachedSolve solve_of_size(std::int64_t testing_time, std::size_t payload) {
  CachedSolve solve;
  solve.outcome.backend = "enumerative";
  solve.outcome.testing_time = testing_time;
  solve.outcome.details.emplace_back("pad", std::string(payload, 'x'));
  solve.lower_bound = testing_time / 2;
  solve.schedule_valid = true;
  return solve;
}

/// begin_fetch that must lead (test invariant), then publish `solve`.
void lead_and_publish(ResultCache& cache, const RequestKey& key,
                      CachedSolve solve) {
  const ResultCache::Fetch fetch = cache.begin_fetch(key);
  ASSERT_EQ(fetch.outcome, ResultCache::FetchOutcome::Lead);
  cache.publish(fetch, std::move(solve));
}

TEST(ResultCache, StoresAndServesByteEqualEntries) {
  ResultCache cache;
  const RequestKey key = key_for(32);
  EXPECT_FALSE(cache.lookup({key}).has_value());

  lead_and_publish(cache, key, solve_of_size(21566, 64));
  const auto hit = cache.lookup({key});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front().outcome.testing_time, 21566);
  EXPECT_EQ(hit->front().lower_bound, 21566 / 2);
  EXPECT_TRUE(hit->front().schedule_valid);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  // The Lead fetch; a probe that answers nothing counts nothing.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, ProbeAnswersAllKeysOrNothing) {
  // A sweep's probe: every width stored, or no answer. A partial sweep
  // returns nothing and counts nothing, and leaves recency as it was; an
  // answered probe counts one hit per key.
  ResultCache cache;
  for (const int width : {16, 17})
    lead_and_publish(cache, key_for(width), solve_of_size(width, 64));
  const ResultCacheStats before = cache.stats();

  EXPECT_FALSE(
      cache.lookup({key_for(16), key_for(17), key_for(18)}).has_value());
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, before.hits);
  EXPECT_EQ(stats.misses, before.misses);
  EXPECT_EQ(cache.export_entries().back().first, key_for(17));

  const auto answered = cache.lookup({key_for(17), key_for(16)});
  ASSERT_TRUE(answered.has_value());
  ASSERT_EQ(answered->size(), 2u);
  EXPECT_EQ((*answered)[0].outcome.testing_time, 17);
  EXPECT_EQ((*answered)[1].outcome.testing_time, 16);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, before.hits + 2);
  EXPECT_EQ(stats.misses, before.misses);
  EXPECT_EQ(cache.export_entries().back().first, key_for(16));

  // A key still in flight is not stored: the probe neither waits for it
  // nor joins it.
  const ResultCache::Fetch lead = cache.begin_fetch(key_for(18));
  ASSERT_EQ(lead.outcome, ResultCache::FetchOutcome::Lead);
  EXPECT_FALSE(cache.lookup({key_for(16), key_for(18)}).has_value());
  EXPECT_EQ(cache.stats().coalesced, 0u);
  cache.abandon(lead);
}

TEST(ResultCache, LruEvictionUnderATightByteBudget) {
  // A budget that holds exactly 3 of the equal-size entries: inserting
  // the fourth must evict the least recently used, only that.
  const std::size_t entry_bytes =
      ResultCache::charge(key_for(1), solve_of_size(1, 1024));
  ResultCacheOptions options;
  options.max_bytes = 3 * entry_bytes + entry_bytes / 2;
  ResultCache cache(options);

  for (const int width : {1, 2, 3})
    lead_and_publish(cache, key_for(width), solve_of_size(width, 1024));
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch 1 and 3 so 2 is the LRU entry.
  EXPECT_TRUE(cache.lookup({key_for(1)}).has_value());
  EXPECT_TRUE(cache.lookup({key_for(3)}).has_value());

  lead_and_publish(cache, key_for(4), solve_of_size(4, 1024));
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, options.max_bytes);

  EXPECT_FALSE(cache.lookup({key_for(2)}).has_value())
      << "LRU entry survived";
  EXPECT_TRUE(cache.lookup({key_for(1)}).has_value());
  EXPECT_TRUE(cache.lookup({key_for(3)}).has_value());
  EXPECT_TRUE(cache.lookup({key_for(4)}).has_value());
}

TEST(ResultCache, OversizedEntriesAreNotStored) {
  ResultCacheOptions options;
  options.max_bytes = 4096;
  ResultCache cache(options);
  lead_and_publish(cache, key_for(1), solve_of_size(1, 1 << 20));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup({key_for(1)}).has_value());
}

TEST(ResultCache, TheByteBudgetCoversTheWholeCache) {
  // A budget of exactly 8 charges holds 8 entries whose keys differ only
  // in width: eviction is cache-wide, never within a slice of the budget.
  // The 9th evicts one, the least recently used.
  const std::size_t entry_bytes =
      ResultCache::charge(key_for(1), solve_of_size(1, 512));
  ResultCacheOptions options;
  options.max_bytes = 8 * entry_bytes;
  ResultCache cache(options);
  for (int width = 1; width <= 8; ++width)
    lead_and_publish(cache, key_for(width), solve_of_size(width, 512));
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, options.max_bytes);

  lead_and_publish(cache, key_for(9), solve_of_size(9, 512));
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, options.max_bytes);
  EXPECT_FALSE(cache.lookup({key_for(1)}).has_value());
  EXPECT_TRUE(cache.lookup({key_for(9)}).has_value());
}

TEST(ResultCache, TheChargeCountsTheKeyAndTheNodes) {
  // Beyond the value and its payload, an entry is charged for its key,
  // its key's text and its list and index nodes.
  const CachedSolve solve = solve_of_size(1, 512);
  const std::size_t entry_bytes = ResultCache::charge(key_for(1), solve);
  EXPECT_GT(entry_bytes, sizeof(CachedSolve) + 512 + sizeof(RequestKey) +
                             4 * sizeof(void*));
  RequestKey longer = key_for(1);
  longer.options += std::string(100, 'x');
  EXPECT_EQ(ResultCache::charge(longer, solve), entry_bytes + 100);
  // The placements count in full: the entry keeps them alive, whichever
  // answers also hold them.
  CachedSolve placed = solve;
  placed.outcome.schedule.placements =
      pack::PlacementList(std::vector<pack::PackedPlacement>(10));
  EXPECT_EQ(ResultCache::charge(key_for(1), placed),
            entry_bytes + 10 * sizeof(pack::PackedPlacement));
}

TEST(ResultCache, AnEntryWithinTheBudgetIsStored) {
  // Only an entry that alone exceeds the budget is refused.
  const CachedSolve solve = solve_of_size(1, 512);
  ResultCacheOptions options;
  options.max_bytes = 2 * ResultCache::charge(key_for(1), solve);
  ResultCache cache(options);
  cache.insert(key_for(1), solve);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(cache.lookup({key_for(1)}).has_value());
}

TEST(ResultCache, ClearDropsEverything) {
  ResultCache cache;
  for (const int width : {1, 2, 3})
    lead_and_publish(cache, key_for(width), solve_of_size(width, 64));
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.clear();
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(cache.lookup({key_for(1)}).has_value());
}

TEST(ResultCache, IdenticalInFlightRequestsCoalesceAcrossThreads) {
  ResultCache cache;
  const RequestKey key = key_for(32);

  // The leader claims the key, then holds the computation open while the
  // followers arrive; they must block and then receive the published
  // value — not recompute.
  const ResultCache::Fetch lead = cache.begin_fetch(key);
  ASSERT_EQ(lead.outcome, ResultCache::FetchOutcome::Lead);

  std::atomic<int> arrived{0};
  std::atomic<int> served{0};
  std::vector<std::thread> followers;
  followers.reserve(4);
  for (int i = 0; i < 4; ++i)
    followers.emplace_back([&cache, &key, &arrived, &served] {
      ++arrived;
      const ResultCache::Fetch fetch = cache.begin_fetch(key);
      // Never Lead: the key is claimed for the follower's whole
      // lifetime. (Coalesced normally; a maximally delayed follower may
      // observe the already-published entry as a Hit.)
      EXPECT_NE(fetch.outcome, ResultCache::FetchOutcome::Lead);
      ASSERT_TRUE(fetch.value.has_value());
      EXPECT_EQ(fetch.value->outcome.testing_time, 777);
      ++served;
    });

  // Publish only after every follower is at most one statement away from
  // the fetch, so they (virtually always) block on the in-flight entry.
  while (arrived.load() < 4) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.publish(lead, solve_of_size(777, 64));
  for (auto& follower : followers) follower.join();

  EXPECT_EQ(served.load(), 4);
  const ResultCacheStats stats = cache.stats();
  EXPECT_GE(stats.coalesced, 1u);   // at least one genuinely blocked wait
  EXPECT_EQ(stats.hits, 4u);        // every follower served without compute
  EXPECT_EQ(stats.misses, 1u);      // the single Lead
  EXPECT_EQ(stats.insertions, 1u);  // computed exactly once
}

TEST(ResultCache, CoalescedWaitsHonorTheInterruptPoll) {
  // A cancelled caller must not ride out the leader's whole solve: the
  // interrupt callback is polled during the wait and ends it.
  ResultCache cache;
  const RequestKey key = key_for(64);
  const ResultCache::Fetch lead = cache.begin_fetch(key);
  ASSERT_EQ(lead.outcome, ResultCache::FetchOutcome::Lead);

  std::atomic<bool> cancelled{false};
  std::thread waiter([&cache, &key, &cancelled] {
    const ResultCache::Fetch fetch =
        cache.begin_fetch(key, [&cancelled] { return cancelled.load(); });
    EXPECT_EQ(fetch.outcome, ResultCache::FetchOutcome::Interrupted);
    EXPECT_FALSE(fetch.value.has_value());
    EXPECT_EQ(fetch.ticket, nullptr);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancelled = true;
  waiter.join();  // returns promptly even though the lead is still open
  cache.abandon(lead);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, AbandonedLeadHandsTheKeyToAWaiter) {
  ResultCache cache;
  const RequestKey key = key_for(48);

  const ResultCache::Fetch lead = cache.begin_fetch(key);
  ASSERT_EQ(lead.outcome, ResultCache::FetchOutcome::Lead);

  std::thread waiter([&cache, &key] {
    // Blocks on the doomed leader, then must become the new leader and
    // complete the work itself.
    const ResultCache::Fetch fetch = cache.begin_fetch(key);
    EXPECT_EQ(fetch.outcome, ResultCache::FetchOutcome::Lead);
    cache.publish(fetch, solve_of_size(123, 64));
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.abandon(lead);
  waiter.join();

  const auto hit = cache.lookup({key});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front().outcome.testing_time, 123);
  // Nothing was stored by the abandoned lead.
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ResultCache, ResetStatsZeroesCountersButKeepsGauges) {
  ResultCache cache;
  lead_and_publish(cache, key_for(32), solve_of_size(100, 64));
  lead_and_publish(cache, key_for(33), solve_of_size(200, 64));
  (void)cache.lookup({key_for(32)});
  ASSERT_GT(cache.stats().hits, 0u);
  ASSERT_GT(cache.stats().misses, 0u);

  cache.reset_stats();
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  // Gauges describe live state, not history: entries survive the reset.
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  // Counting restarts cleanly from zero.
  (void)cache.lookup({key_for(32)});
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCache, InsertAndExportRoundTrip) {
  ResultCache cache;
  cache.insert(key_for(32), solve_of_size(100, 64));
  cache.insert(key_for(33), solve_of_size(200, 64));
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // insert replaces in place (no duplicate entries, bytes stay sane).
  cache.insert(key_for(32), solve_of_size(300, 64));
  EXPECT_EQ(cache.stats().entries, 2u);
  const auto replaced = cache.lookup({key_for(32)});
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->front().outcome.testing_time, 300);

  const auto entries = cache.export_entries();
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& [key, value] : entries) {
    const auto direct = cache.lookup({key});
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(direct->front().outcome.testing_time, value.outcome.testing_time);
  }

  // A fresh cache populated from the export serves the same values —
  // the persistence layer's save/load contract in miniature.
  ResultCache copy;
  for (const auto& [key, value] : entries) copy.insert(key, value);
  const auto from_copy = copy.lookup({key_for(33)});
  ASSERT_TRUE(from_copy.has_value());
  EXPECT_EQ(from_copy->front().outcome.testing_time, 200);
}

TEST(ResultCache, PublishReplacesAnEntryStoredMeanwhile) {
  // A key inserted while its leader computes is replaced by the publish:
  // one entry, the published value, and only its bytes on the gauge.
  ResultCache cache;
  const ResultCache::Fetch fetch = cache.begin_fetch(key_for(32));
  ASSERT_EQ(fetch.outcome, ResultCache::FetchOutcome::Lead);
  cache.insert(key_for(32), solve_of_size(100, 4096));
  cache.insert(key_for(33), solve_of_size(200, 64));
  const CachedSolve published = solve_of_size(300, 64);
  const std::size_t expected_bytes =
      ResultCache::charge(key_for(32), published) +
      ResultCache::charge(key_for(33), solve_of_size(200, 64));
  cache.publish(fetch, published);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, expected_bytes);
  const auto hit = cache.lookup({key_for(32)});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front().outcome.testing_time, 300);
  // The publish made 32 the most recent entry, and the lookup kept it so.
  const auto entries = cache.export_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, key_for(33));
  EXPECT_EQ(entries[1].first, key_for(32));
}

TEST(ResultCache, InsertRespectsBudgetAndOversizeRules) {
  ResultCacheOptions options;
  options.max_bytes = 4096;
  ResultCache cache(options);
  // An entry bigger than the whole budget is not stored.
  cache.insert(key_for(1), solve_of_size(1, 1 << 20));
  EXPECT_EQ(cache.stats().entries, 0u);
  // Filling past the budget evicts LRU tails.
  for (int w = 2; w < 12; ++w) cache.insert(key_for(w), solve_of_size(w, 800));
  const ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
}

}  // namespace
}  // namespace wtam::api
