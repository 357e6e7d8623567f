// A deliberately simple fixed-size thread pool, a fan-out/join latch and
// an ordered chunk pipeline — the concurrency substrate for the parallel
// partition search, the rectpack walkers and Solver batches.
//
// Design notes:
//   * no work stealing, no per-thread queues: every task is large next to
//     one mutex round-trip, so a single locked deque is not a bottleneck;
//   * the rectpack walkers and Solver::solve_batch submit N tasks to a
//     ThreadPool and wait for all N on a CompletionLatch;
//   * OrderedChunkPipeline serves only the partition search: a producer
//     enumerates work into chunks, workers process chunks concurrently,
//     and outcomes are merged strictly in submission order. In-order
//     merging is what lets the search reproduce the serial algorithm's
//     statistics bit for bit (see partition_evaluate.cpp). The producer
//     blocks once `max_in_flight` chunks are outstanding, so enumeration
//     never races ahead of evaluation by more than a bounded amount of
//     memory.
//
// All shared state is annotated for Clang's -Wthread-safety analysis
// (see common/thread_annotations.hpp for the locking discipline).

#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace wtam::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(int threads) {
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      const MutexLock lock(mutex_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues a task. Tasks must not throw through the pool; wrap
  /// exception-prone work (CompletionLatch::record_error and
  /// OrderedChunkPipeline carry the error to the owner).
  void submit(std::function<void()> task) {
    {
      const MutexLock lock(mutex_);
      queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
  }

  /// Number of hardware threads, never reported as less than 1.
  [[nodiscard]] static int hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        const MutexLock lock(mutex_);
        while (!stopping_ && queue_.empty()) task_ready_.wait(mutex_);
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mutex_;
  CondVar task_ready_;
  std::deque<std::function<void()>> queue_ WTAM_GUARDED_BY(mutex_);
  bool stopping_ WTAM_GUARDED_BY(mutex_) = false;
  // Written by the constructor, joined and destroyed by the destructor —
  // owner-thread-only by construction, so deliberately unguarded.
  std::vector<std::thread> workers_;
};

/// Fan-out/join accounting for "submit N tasks, wait for all N" call
/// sites (parallel rectpack walkers, Solver batches). Each task calls
/// arrive() exactly once — record_error() first if it failed; the owner
/// blocks in wait() and rethrows the first recorded error afterwards via
/// take_error(). Notifying under the lock is deliberate: the waiter
/// cannot wake, see the final count, and destroy the latch while a
/// worker is still inside notify.
class CompletionLatch {
 public:
  void arrive() {
    const MutexLock lock(mutex_);
    ++done_;
    done_changed_.notify_all();
  }

  /// Records the first failure; later ones are dropped (one owner, one
  /// rethrow).
  void record_error(std::exception_ptr error) {
    const MutexLock lock(mutex_);
    if (!error_) error_ = std::move(error);
  }

  /// Blocks until arrive() has been called `expected` times.
  void wait(std::size_t expected) {
    const MutexLock lock(mutex_);
    while (done_ < expected) done_changed_.wait(mutex_);
  }

  /// The first recorded error (null if none); call after wait().
  [[nodiscard]] std::exception_ptr take_error() {
    const MutexLock lock(mutex_);
    std::exception_ptr error = error_;
    error_ = nullptr;
    return error;
  }

 private:
  Mutex mutex_;
  CondVar done_changed_;
  std::size_t done_ WTAM_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ WTAM_GUARDED_BY(mutex_);
};

/// Producer/worker/merger pipeline with strictly ordered merging.
///
/// The producer push()es chunks from its own thread; each chunk is
/// processed concurrently by `process` on the pool, and `merge` sees the
/// outcomes in exactly the order the chunks were pushed (the merger runs
/// under an internal lock on whichever thread deposits the next-in-order
/// outcome). At most `max_in_flight` chunks are unmerged at any time, so
/// the producer never races ahead by more than bounded memory. Exceptions
/// from any stage are rethrown from finish() on the producer's thread.
template <typename Chunk, typename Outcome>
class OrderedChunkPipeline {
 public:
  OrderedChunkPipeline(ThreadPool& pool,
                       std::function<Outcome(const Chunk&)> process,
                       std::function<void(Outcome&&)> merge,
                       std::size_t max_in_flight)
      : pool_(pool),
        process_(std::move(process)),
        merge_(std::move(merge)),
        max_in_flight_(max_in_flight < 1 ? 1 : max_in_flight) {}

  OrderedChunkPipeline(const OrderedChunkPipeline&) = delete;
  OrderedChunkPipeline& operator=(const OrderedChunkPipeline&) = delete;

  /// finish() must have run before destruction; it is called here as a
  /// safety net for exception paths on the producer side.
  ~OrderedChunkPipeline() {
    try {
      finish();
    } catch (...) {
      // finish() already ran and rethrew once, or the producer is
      // unwinding; either way the error has an owner.
    }
  }

  /// Submits a chunk; blocks while `max_in_flight` chunks are unmerged.
  /// Returns false once any stage has failed — the producer should stop.
  bool push(Chunk chunk) {
    std::uint64_t seq = 0;
    {
      const MutexLock lock(mutex_);
      while (in_flight_ >= max_in_flight_ && !error_)
        space_or_done_.wait(mutex_);
      if (error_) return false;
      ++in_flight_;
      seq = sequence_++;
    }
    // The chunk is moved into the task; the outcome is deposited under
    // the lock and merged in order by whichever worker closes the gap.
    // The task notifies under the lock and touches no member afterwards,
    // so finish()+destruction cannot race a late member access.
    pool_.submit([this, seq, work = std::move(chunk)]() mutable {
      Outcome outcome{};
      std::exception_ptr process_error;
      try {
        outcome = process_(work);
      } catch (...) {
        // Deposited into error_ below so finish() rethrows it on the
        // producer's thread; the (empty) outcome slot still advances
        // the merge order.
        process_error = std::current_exception();
      }
      const MutexLock lock(mutex_);
      if (process_error && !error_) error_ = process_error;
      pending_.emplace(seq, std::move(outcome));
      drain_merges();
      space_or_done_.notify_all();
    });
    return true;
  }

  /// Waits until every pushed chunk is merged; rethrows the first error.
  void finish() {
    std::exception_ptr error;
    {
      const MutexLock lock(mutex_);
      while (in_flight_ != 0) space_or_done_.wait(mutex_);
      error = error_;
      error_ = nullptr;  // rethrow exactly once
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  /// Merges every ready outcome in submission order; merging is expected
  /// to be cheap next to processing.
  void drain_merges() WTAM_REQUIRES(mutex_) {
    for (auto it = pending_.find(next_merge_); it != pending_.end();
         it = pending_.find(next_merge_)) {
      Outcome outcome = std::move(it->second);
      pending_.erase(it);
      if (!error_) {
        try {
          merge_(std::move(outcome));
        } catch (...) {
          // First merge failure wins; kept for finish() to rethrow.
          error_ = std::current_exception();
        }
      }
      ++next_merge_;
      --in_flight_;
    }
  }

  ThreadPool& pool_;
  const std::function<Outcome(const Chunk&)> process_;
  const std::function<void(Outcome&&)> merge_;
  const std::size_t max_in_flight_;

  Mutex mutex_;
  CondVar space_or_done_;
  /// Processed, not yet merged.
  std::map<std::uint64_t, Outcome> pending_ WTAM_GUARDED_BY(mutex_);
  std::uint64_t next_merge_ WTAM_GUARDED_BY(mutex_) = 0;
  /// Pushed, not yet merged.
  std::size_t in_flight_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t sequence_ WTAM_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ WTAM_GUARDED_BY(mutex_);
};

}  // namespace wtam::common
