#include "core/partition_evaluate.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"

namespace wtam::core {

namespace {

constexpr std::int64_t kInfinity = std::numeric_limits<std::int64_t>::max();

/// Sentinel in ChunkOutcome::full_time: the worker's pruned run aborted,
/// so the partition's full time is >= the tau it ran against — and that
/// tau is never tighter than the serial tau at the partition's position,
/// so the serial run would have aborted it too.
constexpr std::int64_t kWorkerAborted = -1;

/// A block of consecutively enumerated partitions, flattened:
/// `widths[i*parts .. (i+1)*parts)` is partition i of the chunk.
struct PartitionChunk {
  std::vector<int> widths;
  int parts = 0;
};

/// Worker output for one chunk. The widths ride along so the ordered
/// merge can reconstruct best_partition without re-enumerating.
struct ChunkOutcome {
  std::vector<int> widths;
  int parts = 0;
  std::vector<std::int64_t> full_time;  ///< per partition; kWorkerAborted
};

/// Serial search over one B — the reference implementation the parallel
/// engine must reproduce bit for bit. Returns the stats and updates the
/// global incumbent/result exactly as Figure 3 does.
void search_b_serial(const TestTimeTable& table, int total_width, int b,
                     const PartitionEvaluateOptions& options,
                     std::int64_t& global_best,
                     PartitionEvaluateResult& result) {
  PartitionSearchStats stats;
  stats.tams = b;
  common::Stopwatch b_watch;
  // Figure 3 Line 6 resets tau per B; the ablation variant carries the
  // global best across B values.
  std::int64_t tau = options.reset_tau_per_b ? kInfinity : global_best;

  partition::for_each_partition(
      total_width, b, [&](std::span<const int> widths) {
        // Poll for cancellation/deadline once an incumbent exists (the
        // very first partition is always evaluated so an interrupted
        // search still returns a complete best-so-far architecture).
        if (options.context != nullptr && global_best != kInfinity) {
          const SolveInterrupt fired = options.context->poll();
          if (fired != SolveInterrupt::None) {
            result.interrupt = fired;
            return false;
          }
        }
        ++stats.partitions_unique;
        CoreAssignOptions assign_options;
        assign_options.best_known = options.prune_with_tau ? tau : kInfinity;
        assign_options.widest_tam_tiebreak = options.widest_tam_tiebreak;
        assign_options.next_tam_core_tiebreak = options.next_tam_core_tiebreak;
        const CoreAssignResult assigned =
            core_assign(table, widths, assign_options);
        if (assigned.aborted) {
          ++stats.aborted_by_tau;
          return true;
        }
        ++stats.evaluated_to_completion;
        const std::int64_t time = assigned.architecture.testing_time;
        if (time < tau) {
          tau = time;
          stats.best_time = time;
          stats.best_partition.assign(widths.begin(), widths.end());
          if (time < global_best) {
            global_best = time;
            result.best = assigned.architecture;
            result.best_tams = b;
          }
        }
        return true;
      });

  stats.best_time = tau == kInfinity ? 0 : tau;
  stats.cpu_s = b_watch.elapsed_s();
  result.per_b.push_back(std::move(stats));
}

/// Parallel search over one B. Chunks are evaluated concurrently against
/// a shared atomic tau that only ever holds the merged-prefix incumbent;
/// the ordered merge then replays the serial tau trajectory, which is
/// possible because a partition aborts serially iff its full evaluation
/// time is >= the serial tau at its position (TAM loads only grow during
/// Core_assign, so the final makespan bounds every intermediate load).
void search_b_parallel(const TestTimeTable& table, int total_width, int b,
                       const PartitionEvaluateOptions& options,
                       common::ThreadPool& pool, std::int64_t& global_best,
                       PartitionEvaluateResult& result) {
  PartitionSearchStats stats;
  stats.tams = b;
  common::Stopwatch b_watch;
  const std::int64_t initial_tau =
      options.reset_tau_per_b ? kInfinity : global_best;

  // Merged-prefix incumbent, read by workers for pruning. It can lag the
  // serial tau (in-flight chunks are not yet merged) but never undercuts
  // it, which keeps worker aborts a subset-consistent signal.
  std::atomic<std::int64_t> shared_tau{initial_tau};
  // The serial tau trajectory, advanced only inside the ordered merge.
  std::int64_t merge_tau = initial_tau;

  const auto process = [&](const PartitionChunk& chunk) {
    ChunkOutcome out;
    out.widths = chunk.widths;
    out.parts = chunk.parts;
    const auto parts = static_cast<std::size_t>(chunk.parts);
    const std::size_t count = chunk.widths.size() / parts;
    out.full_time.reserve(count);
    // The worker's pruning bound: the merged-prefix tau joined with full
    // times completed earlier in this same chunk — both are evaluations
    // that precede every remaining partition of the chunk in enumeration
    // order, so the bound stays >= the serial tau at each position.
    std::int64_t local_tau = shared_tau.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const int> widths(chunk.widths.data() + i * parts,
                                        parts);
      CoreAssignOptions assign_options;
      if (options.prune_with_tau) {
        local_tau = std::min(local_tau,
                             shared_tau.load(std::memory_order_acquire));
        assign_options.best_known = local_tau;
      }
      assign_options.widest_tam_tiebreak = options.widest_tam_tiebreak;
      assign_options.next_tam_core_tiebreak = options.next_tam_core_tiebreak;
      const CoreAssignResult assigned =
          core_assign(table, widths, assign_options);
      if (assigned.aborted) {
        out.full_time.push_back(kWorkerAborted);
      } else {
        const std::int64_t time = assigned.architecture.testing_time;
        out.full_time.push_back(time);
        local_tau = std::min(local_tau, time);
      }
    }
    return out;
  };

  const auto merge = [&](ChunkOutcome&& outcome) {
    const auto parts = static_cast<std::size_t>(outcome.parts);
    for (std::size_t i = 0; i < outcome.full_time.size(); ++i) {
      ++stats.partitions_unique;
      const std::int64_t full_time = outcome.full_time[i];
      if (options.prune_with_tau &&
          (full_time == kWorkerAborted || full_time >= merge_tau)) {
        // Exactly the partitions the serial run aborts: their full time
        // reaches the serial tau, so Lines 18-20 would have fired.
        ++stats.aborted_by_tau;
        continue;
      }
      ++stats.evaluated_to_completion;
      if (full_time < merge_tau) {
        merge_tau = full_time;
        stats.best_time = full_time;
        const int* first = outcome.widths.data() + i * parts;
        stats.best_partition.assign(first, first + parts);
        shared_tau.store(merge_tau, std::memory_order_release);
      }
    }
  };

  common::OrderedChunkPipeline<PartitionChunk, ChunkOutcome> pipeline(
      pool, process, merge,
      /*max_in_flight=*/static_cast<std::size_t>(pool.size()) * 4);

  const auto chunk_capacity =
      static_cast<std::size_t>(options.chunk_size) *
      static_cast<std::size_t>(b);
  PartitionChunk current;
  current.parts = b;
  current.widths.reserve(chunk_capacity);
  // Cancellation/deadline polling happens on the producer: enumeration
  // stops, already-pushed chunks drain through the ordered merge, and the
  // merged prefix is the best-so-far incumbent. At least one partition is
  // always enumerated first (and the leading partition of the first B
  // never tau-aborts), so an interrupted run still has a complete best.
  std::uint64_t enumerated = 0;
  partition::for_each_partition(
      total_width, b, [&](std::span<const int> widths) {
        if (options.context != nullptr &&
            (enumerated > 0 || global_best != kInfinity)) {
          const SolveInterrupt fired = options.context->poll();
          if (fired != SolveInterrupt::None) {
            result.interrupt = fired;
            return false;
          }
        }
        ++enumerated;
        current.widths.insert(current.widths.end(), widths.begin(),
                              widths.end());
        if (current.widths.size() < chunk_capacity) return true;
        const bool ok = pipeline.push(std::move(current));
        current = PartitionChunk{};
        current.parts = b;
        current.widths.reserve(chunk_capacity);
        return ok;
      });
  if (!current.widths.empty()) pipeline.push(std::move(current));
  pipeline.finish();

  stats.best_time = merge_tau == kInfinity ? 0 : merge_tau;
  if (merge_tau < global_best) {
    global_best = merge_tau;
    // Re-run the winning partition unpruned to materialize the full
    // architecture. Core_assign's decisions do not depend on best_known
    // (the bound only gates the abort check), so this reproduces the
    // exact architecture the serial run stored when it first reached the
    // incumbent.
    CoreAssignOptions assign_options;
    assign_options.widest_tam_tiebreak = options.widest_tam_tiebreak;
    assign_options.next_tam_core_tiebreak = options.next_tam_core_tiebreak;
    result.best = core_assign(table, stats.best_partition, assign_options)
                      .architecture;
    result.best_tams = b;
  }
  stats.cpu_s = b_watch.elapsed_s();
  result.per_b.push_back(std::move(stats));
}

}  // namespace

PartitionEvaluateResult partition_evaluate(
    const TestTimeTable& table, int total_width,
    const PartitionEvaluateOptions& options) {
  if (total_width < 1 || total_width > table.max_width())
    throw std::invalid_argument(
        "partition_evaluate: total_width outside table range");
  if (options.min_tams < 1 || options.max_tams < options.min_tams)
    throw std::invalid_argument("partition_evaluate: bad TAM range");
  if (options.min_tams > total_width)
    throw std::invalid_argument(
        "partition_evaluate: min_tams exceeds total width");
  if (options.threads < 0)
    throw std::invalid_argument("partition_evaluate: threads must be >= 0");
  if (options.chunk_size < 1)
    throw std::invalid_argument("partition_evaluate: chunk_size must be >= 1");

  const int threads = options.threads == 0
                          ? common::ThreadPool::hardware_threads()
                          : options.threads;

  // Total search time both reported (cpu_s) and recorded process-wide,
  // so scrapes can see heuristic-search cost without per-job tracing.
  static obs::Histogram& search_hist =
      obs::MetricsRegistry::instance().histogram("core.partition_search_ns");
  common::ScopedTimer<obs::Histogram> total_watch(&search_hist);
  PartitionEvaluateResult result;
  std::int64_t global_best = kInfinity;

  // One pool for the whole search; B values still run in sequence so the
  // carried-tau ablation (reset_tau_per_b = false) stays well-defined.
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);

  for (int b = options.min_tams; b <= options.max_tams; ++b) {
    if (b > total_width) break;  // no partition of W into more than W parts
    if (pool)
      search_b_parallel(table, total_width, b, options, *pool, global_best,
                        result);
    else
      search_b_serial(table, total_width, b, options, global_best, result);
    if (result.interrupt != SolveInterrupt::None) break;
  }

  if (global_best == kInfinity)
    throw std::logic_error("partition_evaluate: no partition evaluated");
  result.cpu_s = total_watch.elapsed_s();
  return result;
}

}  // namespace wtam::core
