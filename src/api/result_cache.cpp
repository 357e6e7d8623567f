#include "api/result_cache.hpp"

#include <chrono>
#include <utility>

#include "common/thread_annotations.hpp"

namespace wtam::api {

namespace {

/// A key and its hash(), which each call computes once: it picks the
/// shard and the index bucket both. The index and the in-flight map are
/// keyed by the address of a key they hold in place (a list node's or a
/// flight's, for as long as that lives), so every stored key is held
/// once; a lookup passes the address of the caller's key.
struct HashedKey {
  const RequestKey* key;
  std::uint64_t hash;
};

struct HashedKeyHash {
  std::size_t operator()(const HashedKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

struct HashedKeyEqual {
  bool operator()(const HashedKey& a, const HashedKey& b) const noexcept {
    return a.hash == b.hash && *a.key == *b.key;
  }
};

template <class Value>
using HashedKeyMap =
    std::unordered_map<HashedKey, Value, HashedKeyHash, HashedKeyEqual>;

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
  std::uint64_t hash = 0;  ///< key.hash()
  common::Mutex mutex;
  common::CondVar cv;
  bool done WTAM_GUARDED_BY(mutex) = false;
  bool published WTAM_GUARDED_BY(mutex) = false;
  CachedSolve value WTAM_GUARDED_BY(mutex);
};

/// One shard: an LRU list of stored entries + an index into it keyed by
/// the entries' own keys (HashedKey above), the in-flight map
/// for the coalescing protocol, and this shard's slice of the stats
/// counters — all under one mutex, so any multi-field read taken inside
/// a single critical section is a consistent snapshot. Lock ordering:
/// the shard mutex and a flight mutex are never held together (publish/
/// abandon update the shard map first, then the flight, in disjoint
/// critical sections).
struct ResultCache::Shard {
  struct Entry {
    RequestKey key;
    std::uint64_t hash = 0;  ///< key.hash()
    CachedSolve value;
    std::size_t bytes = 0;
  };

  mutable common::Mutex mutex;
  /// front = most recently used
  std::list<Entry> lru WTAM_GUARDED_BY(mutex);
  HashedKeyMap<std::list<Entry>::iterator> index WTAM_GUARDED_BY(mutex);
  HashedKeyMap<std::shared_ptr<InFlight>> inflight WTAM_GUARDED_BY(mutex);
  std::size_t bytes WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t hits WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t misses WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t coalesced WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t insertions WTAM_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions WTAM_GUARDED_BY(mutex) = 0;

  /// Stores `value`, whose approx_bytes() is `size`, under `key`,
  /// replacing an entry already there and evicting least recently used
  /// entries to fit `budget`. An entry larger than the whole budget is
  /// not stored: evicting the entire shard for one oversized result would
  /// turn the cache into a one-slot buffer.
  void store(const HashedKey& key, CachedSolve value, std::size_t size,
             std::size_t budget) WTAM_REQUIRES(mutex) {
    if (const auto it = index.find(key); it != index.end()) {
      const auto entry = it->second;
      bytes -= entry->bytes;
      index.erase(it);
      lru.erase(entry);
    }
    if (size > budget) return;
    while (bytes + size > budget && !lru.empty()) {
      const Entry& oldest = lru.back();
      bytes -= oldest.bytes;
      index.erase({&oldest.key, oldest.hash});  // before the node it names
      lru.pop_back();
      ++evictions;
    }
    lru.push_front(Entry{*key.key, key.hash, std::move(value), size});
    index.emplace(HashedKey{&lru.front().key, key.hash}, lru.begin());
    bytes += size;
    ++insertions;
  }
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

ResultCache::Shard& ResultCache::shard_for(std::uint64_t hash) noexcept {
  return *shards_[static_cast<std::size_t>(hash) % shards_.size()];
}

ResultCache::Fetch ResultCache::begin_fetch(const RequestKey& key,
                                            const InterruptFn& interrupt) {
  const HashedKey hashed{&key, key.hash()};
  Shard& shard = shard_for(hashed.hash);
  for (;;) {
    std::shared_ptr<InFlight> flight;
    {
      const common::MutexLock lock(shard.mutex);
      if (const auto it = shard.index.find(hashed); it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        Fetch fetch;
        fetch.outcome = FetchOutcome::Hit;
        fetch.value = it->second->value;
        return fetch;
      }
      if (const auto it = shard.inflight.find(hashed);
          it != shard.inflight.end()) {
        flight = it->second;
      } else {
        flight = std::make_shared<InFlight>();
        flight->key = key;
        flight->hash = hashed.hash;
        shard.inflight.emplace(HashedKey{&flight->key, hashed.hash}, flight);
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
  std::vector<HashedKey> hashed;
  hashed.reserve(keys.size());
  std::vector<CachedSolve> values;
  values.reserve(keys.size());
  for (const RequestKey& key : keys) {
    hashed.push_back({&key, key.hash()});
    Shard& shard = shard_for(hashed.back().hash);
    const common::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(hashed.back());
    if (it == shard.index.end()) return std::nullopt;
    values.push_back(it->second->value);
  }
  // Every key answered: only now refresh recency and count, so a probe
  // that answers nothing leaves the cache as it found it. An entry evicted
  // in between still served its copy, which is a hit.
  for (const HashedKey& key : hashed) {
    Shard& shard = shard_for(key.hash);
    const common::MutexLock lock(shard.mutex);
    if (const auto it = shard.index.find(key); it != shard.index.end())
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
  }
  return values;
}

void ResultCache::publish(const Fetch& fetch, CachedSolve value) {
  if (fetch.ticket == nullptr) return;
  const auto flight = std::static_pointer_cast<InFlight>(fetch.ticket);
  const HashedKey hashed{&flight->key, flight->hash};
  Shard& shard = shard_for(hashed.hash);
  {
    const common::MutexLock lock(shard.mutex);
    shard.inflight.erase(hashed);
    // A clear()+recompute race can re-publish a key; it is replaced.
    const std::size_t size = value.approx_bytes();
    shard.store(hashed, value, size, shard_budget_);
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
  Shard& shard = shard_for(flight->hash);
  {
    const common::MutexLock lock(shard.mutex);
    shard.inflight.erase({&flight->key, flight->hash});
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
  const HashedKey hashed{&key, key.hash()};
  Shard& shard = shard_for(hashed.hash);
  const std::size_t size = value.approx_bytes();
  const common::MutexLock lock(shard.mutex);
  shard.store(hashed, std::move(value), size, shard_budget_);
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
