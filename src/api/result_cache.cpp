#include "api/result_cache.hpp"

#include <chrono>
#include <utility>

#include "common/thread_annotations.hpp"

namespace wtam::api {

namespace {

struct KeyHash {
  std::size_t operator()(const RequestKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash());
  }
};

/// The LRU index is keyed by the address of its entry's own key, which a
/// list node keeps in place for its lifetime, so every stored key is held
/// once; a lookup passes the address of the caller's key. The hash reads
/// the key itself, so an index entry must be erased before its list node.
struct KeyPtrHash {
  std::size_t operator()(const RequestKey* key) const noexcept {
    return static_cast<std::size_t>(key->hash());
  }
};

struct KeyPtrEqual {
  bool operator()(const RequestKey* a, const RequestKey* b) const noexcept {
    return *a == *b;
  }
};

}  // namespace

std::size_t CachedSolve::approx_bytes() const noexcept {
  std::size_t bytes = sizeof(CachedSolve);
  bytes += outcome.backend.capacity();
  bytes += outcome.schedule.placements.capacity() *
           sizeof(pack::PackedPlacement);
  if (outcome.architecture.has_value()) {
    bytes += outcome.architecture->widths.capacity() * sizeof(int);
    bytes += outcome.architecture->assignment.capacity() * sizeof(int);
    bytes += outcome.architecture->tam_times.capacity() * sizeof(std::int64_t);
  }
  for (const auto& [key, detail] : outcome.details)
    bytes += sizeof(key) + key.capacity() + sizeof(detail) + detail.capacity();
  return bytes;
}

/// A computation in flight: the leader fills `value` under `mutex`, sets
/// `done`, and notifies; coalesced waiters block on `cv`. `published`
/// distinguishes a real result from an abandoned one. `key` is set once
/// at creation (under the shard lock) and immutable afterwards, so it is
/// deliberately unguarded.
struct ResultCache::InFlight {
  RequestKey key;
  common::Mutex mutex;
  common::CondVar cv;
  bool done WTAM_GUARDED_BY(mutex) = false;
  bool published WTAM_GUARDED_BY(mutex) = false;
  CachedSolve value WTAM_GUARDED_BY(mutex);
};

/// One shard: an LRU list of stored entries + an index into it keyed by
/// the entries' own keys (KeyPtrHash above), the in-flight map
/// for the coalescing protocol, and this shard's slice of the stats
/// counters — all under one mutex, so any multi-field read taken inside
/// a single critical section is a consistent snapshot. Lock ordering:
/// the shard mutex and a flight mutex are never held together (publish/
/// abandon update the shard map first, then the flight, in disjoint
/// critical sections).
struct ResultCache::Shard {
  struct Entry {
    RequestKey key;
    CachedSolve value;
    std::size_t bytes = 0;
  };

  mutable common::Mutex mutex;
  /// front = most recently used
  std::list<Entry> lru WTAM_GUARDED_BY(mutex);
  std::unordered_map<const RequestKey*, std::list<Entry>::iterator,
                     KeyPtrHash, KeyPtrEqual>
      index WTAM_GUARDED_BY(mutex);
  std::unordered_map<RequestKey, std::shared_ptr<InFlight>, KeyHash> inflight
      WTAM_GUARDED_BY(mutex);
  std::size_t bytes WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t hits WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t misses WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t coalesced WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t insertions WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions WTAM_GUARDED_BY(mutex) = 0;
};

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  // Per-shard budget; at least one shard must be able to hold an entry,
  // so the division never rounds the budget away entirely.
  shard_budget_ = options_.max_bytes / static_cast<std::size_t>(options_.shards);
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::shard_for(const RequestKey& key) noexcept {
  return *shards_[static_cast<std::size_t>(key.hash()) %
                  shards_.size()];
}

ResultCache::Fetch ResultCache::begin_fetch(const RequestKey& key,
                                            const InterruptFn& interrupt) {
  Shard& shard = shard_for(key);
  for (;;) {
    std::shared_ptr<InFlight> flight;
    {
      const common::MutexLock lock(shard.mutex);
      if (const auto it = shard.index.find(&key); it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        Fetch fetch;
        fetch.outcome = FetchOutcome::Hit;
        fetch.value = it->second->value;
        return fetch;
      }
      if (const auto it = shard.inflight.find(key);
          it != shard.inflight.end()) {
        flight = it->second;
      } else {
        flight = std::make_shared<InFlight>();
        flight->key = key;
        shard.inflight.emplace(key, flight);
        ++shard.misses;
        Fetch fetch;
        fetch.outcome = FetchOutcome::Lead;
        fetch.ticket = std::static_pointer_cast<void>(flight);
        return fetch;
      }
    }
    // Someone else is computing this key right now: wait for them —
    // with the caller's interrupt polled so a cancelled/deadlined
    // request stays responsive instead of riding out the whole solve.
    bool published = false;
    Fetch fetch;
    {
      const common::MutexLock wait_lock(flight->mutex);
      while (!flight->done) {
        if (interrupt) {
          flight->cv.wait_for(flight->mutex, std::chrono::milliseconds(10));
          if (!flight->done && interrupt()) {
            fetch.outcome = FetchOutcome::Interrupted;
            return fetch;
          }
        } else {
          flight->cv.wait(flight->mutex);
        }
      }
      published = flight->published;
      if (published) {
        fetch.outcome = FetchOutcome::Coalesced;
        fetch.value = flight->value;
      }
    }
    if (published) {
      const common::MutexLock lock(shard.mutex);
      ++shard.hits;
      ++shard.coalesced;
      return fetch;
    }
    // The leader abandoned (interrupted solve); loop so exactly one of
    // the waiters re-leads the computation.
  }
}

std::optional<std::vector<CachedSolve>> ResultCache::lookup(
    const std::vector<RequestKey>& keys) {
  std::vector<CachedSolve> values;
  values.reserve(keys.size());
  for (const RequestKey& key : keys) {
    Shard& shard = shard_for(key);
    const common::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(&key);
    if (it == shard.index.end()) return std::nullopt;
    values.push_back(it->second->value);
  }
  // Every key answered: only now refresh recency and count, so a probe
  // that answers nothing leaves the cache as it found it. An entry evicted
  // in between still served its copy, which is a hit.
  for (const RequestKey& key : keys) {
    Shard& shard = shard_for(key);
    const common::MutexLock lock(shard.mutex);
    if (const auto it = shard.index.find(&key); it != shard.index.end())
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
  }
  return values;
}

void ResultCache::publish(const Fetch& fetch, CachedSolve value) {
  if (fetch.ticket == nullptr) return;
  const auto flight = std::static_pointer_cast<InFlight>(fetch.ticket);
  Shard& shard = shard_for(flight->key);
  {
    const common::MutexLock lock(shard.mutex);
    shard.inflight.erase(flight->key);
    const std::size_t bytes = value.approx_bytes();
    if (const auto it = shard.index.find(&flight->key);
        it != shard.index.end()) {
      // A clear()+recompute race can re-publish a key; replace in place.
      const auto entry = it->second;
      shard.bytes -= entry->bytes;
      shard.index.erase(it);
      shard.lru.erase(entry);
    }
    if (bytes <= shard_budget_) {
      while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
        shard.bytes -= shard.lru.back().bytes;
        shard.index.erase(&shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.evictions;
      }
      shard.lru.push_front(Shard::Entry{flight->key, value, bytes});
      shard.index.emplace(&shard.lru.front().key, shard.lru.begin());
      shard.bytes += bytes;
      ++shard.insertions;
    }
    // An entry larger than a whole shard's budget is simply not stored:
    // evicting the entire shard for one oversized result would turn the
    // cache into a one-slot buffer.
  }
  {
    const common::MutexLock lock(flight->mutex);
    flight->done = true;
    flight->published = true;
    flight->value = std::move(value);
  }
  flight->cv.notify_all();
}

void ResultCache::abandon(const Fetch& fetch) {
  if (fetch.ticket == nullptr) return;
  const auto flight = std::static_pointer_cast<InFlight>(fetch.ticket);
  Shard& shard = shard_for(flight->key);
  {
    const common::MutexLock lock(shard.mutex);
    shard.inflight.erase(flight->key);
  }
  {
    const common::MutexLock lock(flight->mutex);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    const common::MutexLock lock(shard->mutex);
    shard->index.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

void ResultCache::reset_stats() {
  for (const auto& shard : shards_) {
    const common::MutexLock lock(shard->mutex);
    shard->hits = 0;
    shard->misses = 0;
    shard->coalesced = 0;
    shard->insertions = 0;
    shard->evictions = 0;
  }
}

void ResultCache::insert(const RequestKey& key, CachedSolve value) {
  Shard& shard = shard_for(key);
  const common::MutexLock lock(shard.mutex);
  const std::size_t bytes = value.approx_bytes();
  if (const auto it = shard.index.find(&key); it != shard.index.end()) {
    const auto entry = it->second;
    shard.bytes -= entry->bytes;
    shard.index.erase(it);
    shard.lru.erase(entry);
  }
  // Same storage rules as publish(): evict LRU tails to fit, and never
  // store an entry bigger than the whole shard budget.
  if (bytes > shard_budget_) return;
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    shard.bytes -= shard.lru.back().bytes;
    shard.index.erase(&shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Shard::Entry{key, std::move(value), bytes});
  shard.index.emplace(&shard.lru.front().key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
}

std::vector<std::pair<RequestKey, CachedSolve>> ResultCache::export_entries()
    const {
  std::vector<std::pair<RequestKey, CachedSolve>> entries;
  for (const auto& shard : shards_) {
    const common::MutexLock lock(shard->mutex);
    // Least-recently-used first: re-insert()ing the sequence into a
    // fresh cache reproduces each shard's recency order exactly, which
    // makes save -> load -> save byte-identical (pinned by tests).
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it)
      entries.emplace_back(it->key, it->value);
  }
  return entries;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats total;
  total.max_bytes = options_.max_bytes;
  // One critical section per shard: each shard's counters and gauges are
  // read as a consistent snapshot (no torn multi-field reads), then the
  // per-shard snapshots sum.
  for (const auto& shard : shards_) {
    const common::MutexLock lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.coalesced += shard->coalesced;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

}  // namespace wtam::api
