// Memoizing result cache for the Solver, keyed by canonical RequestKeys.
//
// The co-optimization is expensive per (SOC, width, backend, options)
// point, but real workloads — bench sweeps, Pareto exploration, repeated
// service traffic — re-ask the same points constantly. The cache stores
// the per-width solve product (BackendOutcome + lower bound + validation
// verdict) under its RequestKey so an identical request is served
// byte-identically in O(1):
//
//   * one lock: one mutex guards the LRU list, the key index, the
//     in-flight map and the counters, held for a probe and a copy (whose
//     placements are the stored list, shared) and never across a solve;
//   * bounded: one byte budget for the whole cache, each entry charged
//     for its value, its key and its list and index nodes (charge()),
//     enforced by cache-wide LRU eviction; only an entry that alone
//     exceeds it is refused;
//   * coalescing: a second identical request arriving while the first is
//     still computing blocks on the in-flight entry and receives the
//     leader's published result instead of recomputing (begin_fetch /
//     publish / abandon protocol);
//   * observable: hit/miss/eviction/coalesce counters plus live
//     entry/byte gauges (stats, one consistent snapshot), and clear()
//     for the server's cache_clear verb;
//   * machine-checked: every cache and in-flight field is
//     WTAM_GUARDED_BY its mutex (common/thread_annotations.hpp), so
//     Clang's -Wthread-safety proves the coalescing protocol's locking.
//
// Only completed, uninterrupted solves are published; deadline-bound or
// cancelled work is timing-dependent and bypasses the cache entirely
// (the Solver reports that as `cache: bypass`).

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/request_key.hpp"
#include "common/thread_annotations.hpp"
#include "core/backend.hpp"

namespace wtam::api {

/// The memoized product of solving one RequestKey: everything the Solver
/// derives from a width that does not depend on when/how it ran.
struct CachedSolve {
  core::BackendOutcome outcome;
  std::int64_t lower_bound = 0;
  bool schedule_valid = false;
};

struct ResultCacheOptions {
  /// Byte budget of the whole cache (the sum of its entries' charges).
  std::size_t max_bytes = 64u << 20;
};

struct ResultCacheStats {
  std::uint64_t hits = 0;        ///< keys served: stored or coalesced
  std::uint64_t misses = 0;      ///< fetches that had to lead (Lead)
  std::uint64_t coalesced = 0;   ///< waits resolved by an in-flight leader
  std::uint64_t insertions = 0;  ///< entries published
  std::uint64_t evictions = 0;   ///< entries dropped to fit the budget
  std::uint64_t entries = 0;     ///< live entries (gauge)
  std::uint64_t bytes = 0;       ///< live entries' charges (gauge)
  std::uint64_t max_bytes = 0;   ///< configured budget

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// How a fetch was resolved (Fetch::outcome below).
  enum class FetchOutcome {
    Hit,         ///< value filled from a stored entry
    Coalesced,   ///< value filled by waiting on another thread's solve
    Lead,        ///< nothing stored or in flight — caller must compute,
                 ///< then publish() or abandon() the ticket
    Interrupted, ///< the caller's `interrupt` poll fired during a
                 ///< coalesced wait; no value, no ticket
  };

  struct Fetch {
    FetchOutcome outcome = FetchOutcome::Lead;
    std::optional<CachedSolve> value;  ///< set for Hit and Coalesced
    /// Opaque in-flight handle; non-null iff outcome == Lead.
    std::shared_ptr<void> ticket;
  };

  /// Polled during coalesced waits; return true to stop waiting (the
  /// fetch comes back Interrupted). Lets a cancelled/deadlined caller
  /// stay responsive instead of blocking until the leader finishes.
  using InterruptFn = std::function<bool()>;

  /// Looks `key` up; on a miss with no in-flight computation, the caller
  /// becomes the leader (Lead + ticket). On a miss with the same key in
  /// flight, blocks until the leader publishes or abandons; an abandoned
  /// wait degrades to Lead so exactly one thread retries the compute.
  /// A non-empty `interrupt` is polled (~10 ms cadence) while blocked.
  [[nodiscard]] Fetch begin_fetch(const RequestKey& key,
                                  const InterruptFn& interrupt = {});

  /// The request-level probe: the stored entry of every key, in key
  /// order, or nullopt when any key has none (a key still in flight has
  /// none). All or nothing, and never blocks, joins or creates an
  /// in-flight computation. Counts one hit per key when it answers and
  /// nothing when it does not: the fetches that follow a failed probe
  /// count its keys, so a cold job's misses are not counted twice.
  [[nodiscard]] std::optional<std::vector<CachedSolve>> lookup(
      const std::vector<RequestKey>& keys);

  /// Leader completion: stores `value` (evicting LRU entries to fit) and
  /// wakes every coalesced waiter with a copy. The ticket is consumed.
  void publish(const Fetch& fetch, CachedSolve value);

  /// Leader failure (interrupted/errored solve — nothing cacheable):
  /// wakes waiters empty-handed; one of them re-leads. The ticket is
  /// consumed. Safe to call with a Hit/Coalesced fetch (no-op).
  void abandon(const Fetch& fetch);

  /// Drops every stored entry (in-flight computations are unaffected).
  void clear();

  /// Zeroes the hit/miss/coalesce/insert/evict counters (gauges — live
  /// entries and bytes — are untouched: they describe state, not
  /// history). Backs the server's cache_clear verb, whose post-clear
  /// scrapes must read deterministically from zero.
  void reset_stats();

  /// Direct insertion, the persistence load path: stores `value` under
  /// `key` with the usual LRU eviction and oversized-entry rules, no
  /// in-flight protocol involved. Replaces an existing entry in place.
  void insert(const RequestKey& key, CachedSolve value);

  /// Every stored entry, least- to most-recently used, so re-inserting
  /// the sequence reproduces the recency order — the persistence save
  /// path. Copies; the cache stays usable concurrently.
  [[nodiscard]] std::vector<std::pair<RequestKey, CachedSolve>>
  export_entries() const;

  [[nodiscard]] ResultCacheStats stats() const;

  /// What storing `value` under `key` costs the byte budget, approximately:
  /// the value and its heap payload, the key and its text, the LRU-list
  /// node and the index node with its bucket slot.
  [[nodiscard]] static std::size_t charge(const RequestKey& key,
                                          const CachedSolve& value) noexcept;

 private:
  struct InFlight;
  struct Entry {
    const RequestKey* key = nullptr;  ///< its key, held by its index_ node
    CachedSolve value;
    std::size_t bytes = 0;  ///< charge(key, value)
  };
  struct KeyHash {
    std::size_t operator()(const RequestKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };

  /// Stores `value` under `key`, replacing an entry already there and
  /// evicting least recently used entries to fit the budget. An entry
  /// whose charge exceeds the whole budget is not stored: evicting the
  /// entire cache for one oversized result would turn it into a one-slot
  /// buffer.
  void store(const RequestKey& key, CachedSolve value) WTAM_REQUIRES(mutex_);

  const std::size_t max_bytes_;
  /// Never held together with a flight's mutex: publish/abandon update
  /// the cache first, then the flight, in disjoint critical sections.
  mutable common::Mutex mutex_;
  /// front = most recently used
  std::list<Entry> lru_ WTAM_GUARDED_BY(mutex_);
  /// Holds every stored key once. Its nodes never move, so an entry's
  /// key pointer is valid for as long as the entry is in `lru_`.
  std::unordered_map<RequestKey, std::list<Entry>::iterator, KeyHash> index_
      WTAM_GUARDED_BY(mutex_);
  std::unordered_map<RequestKey, std::shared_ptr<InFlight>, KeyHash>
      inflight_ WTAM_GUARDED_BY(mutex_);
  std::size_t bytes_ WTAM_GUARDED_BY(mutex_) = 0;
  /// The counters; stats() fills in the gauges and the budget.
  ResultCacheStats counts_ WTAM_GUARDED_BY(mutex_);
};

}  // namespace wtam::api
