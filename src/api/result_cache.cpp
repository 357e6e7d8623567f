#include "api/result_cache.hpp"

#include <chrono>
#include <utility>

namespace wtam::api {

/// A computation in flight: the leader fills `value` under `mutex`, sets
/// `done`, and notifies; coalesced waiters block on `cv`. `published`
/// distinguishes a real result from an abandoned one. `key` is set once
/// at creation (under the cache lock) and immutable afterwards, so it is
/// deliberately unguarded.
struct ResultCache::InFlight {
  RequestKey key;
  common::Mutex mutex;
  common::CondVar cv;
  bool done WTAM_GUARDED_BY(mutex) = false;
  bool published WTAM_GUARDED_BY(mutex) = false;
  CachedSolve value WTAM_GUARDED_BY(mutex);
};

ResultCache::ResultCache(ResultCacheOptions options)
    : max_bytes_(options.max_bytes) {}

ResultCache::~ResultCache() = default;

std::size_t ResultCache::charge(const RequestKey& key,
                               const CachedSolve& value) noexcept {
  // The list node: two links and the Entry, which holds the value. The
  // index node: a link, the key and the list iterator, plus one bucket
  // pointer. The key's text is counted by length, which a copy keeps
  // where its capacity may not.
  std::size_t bytes = 2 * sizeof(void*) + sizeof(Entry) + sizeof(void*) +
                      sizeof(RequestKey) +
                      sizeof(std::list<Entry>::iterator) + sizeof(void*) +
                      key.backend.size() + key.options.size();
  const core::BackendOutcome& outcome = value.outcome;
  bytes += outcome.backend.capacity();
  // The placements count in full: the entry keeps its list alive, however
  // many answers share it.
  bytes += outcome.schedule.placements.size() *
           sizeof(pack::PackedPlacement);
  if (outcome.architecture.has_value()) {
    bytes += outcome.architecture->widths.capacity() * sizeof(int);
    bytes += outcome.architecture->assignment.capacity() * sizeof(int);
    bytes += outcome.architecture->tam_times.capacity() * sizeof(std::int64_t);
  }
  for (const auto& [name, detail] : outcome.details)
    bytes += sizeof(name) + name.capacity() + sizeof(detail) + detail.capacity();
  return bytes;
}

void ResultCache::store(const RequestKey& key, CachedSolve value) {
  const std::size_t size = charge(key, value);
  const auto [it, added] = index_.try_emplace(key);
  if (!added) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
  }
  if (size > max_bytes_) {
    index_.erase(it);
    return;
  }
  while (bytes_ + size > max_bytes_) {
    const Entry& oldest = lru_.back();
    bytes_ -= oldest.bytes;
    index_.erase(index_.find(*oldest.key));
    lru_.pop_back();
    ++counts_.evictions;
  }
  lru_.push_front(Entry{&it->first, std::move(value), size});
  it->second = lru_.begin();
  bytes_ += size;
  ++counts_.insertions;
}

ResultCache::Fetch ResultCache::begin_fetch(const RequestKey& key,
                                            const InterruptFn& interrupt) {
  for (;;) {
    std::shared_ptr<InFlight> flight;
    {
      const common::MutexLock lock(mutex_);
      if (const auto it = index_.find(key); it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++counts_.hits;
        Fetch fetch;
        fetch.outcome = FetchOutcome::Hit;
        fetch.value = it->second->value;
        return fetch;
      }
      const auto [it, leads] = inflight_.try_emplace(key);
      if (leads) {
        it->second = std::make_shared<InFlight>();
        it->second->key = key;
        ++counts_.misses;
        Fetch fetch;
        fetch.outcome = FetchOutcome::Lead;
        fetch.ticket = std::static_pointer_cast<void>(it->second);
        return fetch;
      }
      flight = it->second;
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
      const common::MutexLock lock(mutex_);
      ++counts_.hits;
      ++counts_.coalesced;
      return fetch;
    }
    // The leader abandoned (interrupted solve); loop so exactly one of
    // the waiters re-leads the computation.
  }
}

std::optional<std::vector<CachedSolve>> ResultCache::lookup(
    const std::vector<RequestKey>& keys) {
  std::vector<std::list<Entry>::iterator> found;
  found.reserve(keys.size());
  std::vector<CachedSolve> values;
  values.reserve(keys.size());
  const common::MutexLock lock(mutex_);
  for (const RequestKey& key : keys) {
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    found.push_back(it->second);
  }
  // Every key answered: only now refresh recency and count, so a probe
  // that answers nothing leaves the cache as it found it.
  for (const auto entry : found) {
    lru_.splice(lru_.begin(), lru_, entry);
    values.push_back(entry->value);
  }
  counts_.hits += keys.size();
  return values;
}

void ResultCache::publish(const Fetch& fetch, CachedSolve value) {
  if (fetch.ticket == nullptr) return;
  const auto flight = std::static_pointer_cast<InFlight>(fetch.ticket);
  {
    const common::MutexLock lock(mutex_);
    inflight_.erase(flight->key);
    // A clear()+recompute race can re-publish a key; it is replaced.
    store(flight->key, value);
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
  {
    const common::MutexLock lock(mutex_);
    inflight_.erase(flight->key);
  }
  {
    const common::MutexLock lock(flight->mutex);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void ResultCache::clear() {
  const common::MutexLock lock(mutex_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

void ResultCache::reset_stats() {
  const common::MutexLock lock(mutex_);
  counts_ = {};
}

void ResultCache::insert(const RequestKey& key, CachedSolve value) {
  const common::MutexLock lock(mutex_);
  store(key, std::move(value));
}

std::vector<std::pair<RequestKey, CachedSolve>> ResultCache::export_entries()
    const {
  std::vector<std::pair<RequestKey, CachedSolve>> entries;
  const common::MutexLock lock(mutex_);
  entries.reserve(lru_.size());
  // Least-recently-used first: re-insert()ing the sequence into a fresh
  // cache reproduces the recency order exactly, which makes save -> load
  // -> save byte-identical (pinned by tests).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
    entries.emplace_back(*it->key, it->value);
  return entries;
}

ResultCacheStats ResultCache::stats() const {
  const common::MutexLock lock(mutex_);
  // One critical section: counters and gauges are one consistent
  // snapshot, never torn multi-field reads.
  ResultCacheStats stats = counts_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  stats.max_bytes = max_bytes_;
  return stats;
}

}  // namespace wtam::api
