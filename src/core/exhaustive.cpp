#include "core/exhaustive.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "partition/partition.hpp"

namespace wtam::core {

namespace {

constexpr std::int64_t kNoIncumbent =
    std::numeric_limits<std::int64_t>::max();

/// True once the wall-clock budget is spent or the caller's context fired
/// (cancellation/deadline) — the two stop conditions behave identically.
bool budget_expired(const common::Stopwatch& watch,
                    const ExhaustiveOptions& options) {
  if (watch.elapsed_s() > options.time_budget_s) return true;
  return options.context != nullptr &&
         options.context->poll() != SolveInterrupt::None;
}

/// Remaining per-solve time: the budget remainder clamped by the
/// context's deadline, never negative (see the clamp note below).
double remaining_budget_s(const common::Stopwatch& watch,
                          const ExhaustiveOptions& options) {
  double remaining =
      std::max(0.0, options.time_budget_s - watch.elapsed_s());
  if (options.context != nullptr)
    remaining = std::min(remaining, options.context->remaining_s());
  return remaining;
}

void solve_all_partitions_serial(const TestTimeTable& table,
                                 int total_width, int tams,
                                 const ExhaustiveOptions& options,
                                 const common::Stopwatch& watch,
                                 ExhaustiveResult& result) {
  partition::for_each_partition(
      total_width, tams, [&](std::span<const int> widths) {
        if (budget_expired(watch, options)) return false;
        ExactOptions exact;
        exact.engine = options.engine;
        exact.context = options.context;
        // Leave the per-partition solve unbounded in nodes; the outer
        // budget is the only cutoff, like the original runs. The budget
        // check above ran on an earlier clock reading, so clamp the
        // remainder: a solver handed a (slightly) negative limit near the
        // deadline would misbehave.
        exact.time_limit_s = remaining_budget_s(watch, options);
        if (options.share_incumbent && !result.best.widths.empty())
          exact.upper_bound_hint = result.best.testing_time;
        ExactResult solved = solve_assignment_exact(table, widths, exact);
        if (!solved.proven_optimal) return false;  // budget expired mid-solve
        ++result.partitions_solved;
        if (result.best.widths.empty() ||
            solved.architecture.testing_time < result.best.testing_time)
          result.best = std::move(solved.architecture);
        return true;
      });
}

/// A block of consecutively enumerated partitions, flattened.
struct SolveChunk {
  std::vector<int> widths;
  int parts = 0;
};

struct SolveOutcome {
  std::vector<ExactResult> solved;  ///< one per partition, chunk order
};

void solve_all_partitions_parallel(const TestTimeTable& table,
                                   int total_width, int tams,
                                   const ExhaustiveOptions& options,
                                   const common::Stopwatch& watch,
                                   common::ThreadPool& pool,
                                   ExhaustiveResult& result) {
  // Merged-prefix incumbent for the share_incumbent ablation. Like the
  // serial hint it only ever tightens in enumeration order, so the final
  // best (first minimum in enumeration order) is unchanged.
  std::atomic<std::int64_t> shared_incumbent{
      result.best.widths.empty() ? kNoIncumbent : result.best.testing_time};
  bool merge_hit_cutoff = false;

  const auto process = [&](const SolveChunk& chunk) {
    SolveOutcome out;
    const auto parts = static_cast<std::size_t>(chunk.parts);
    const std::size_t count = chunk.widths.size() / parts;
    out.solved.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (budget_expired(watch, options)) {
        // Default ExactResult: proven_optimal = false. The ordered merge
        // treats it as the budget cutoff, exactly like the serial loop.
        out.solved.resize(count);
        return out;
      }
      const std::span<const int> widths(chunk.widths.data() + i * parts,
                                        parts);
      ExactOptions exact;
      exact.engine = options.engine;
      exact.context = options.context;
      exact.time_limit_s = remaining_budget_s(watch, options);
      if (options.share_incumbent) {
        const std::int64_t hint =
            shared_incumbent.load(std::memory_order_acquire);
        if (hint != kNoIncumbent) exact.upper_bound_hint = hint;
      }
      out.solved.push_back(solve_assignment_exact(table, widths, exact));
    }
    return out;
  };

  const auto merge = [&](SolveOutcome&& outcome) {
    for (ExactResult& solved : outcome.solved) {
      if (merge_hit_cutoff) return;
      if (!solved.proven_optimal) {
        merge_hit_cutoff = true;
        return;
      }
      ++result.partitions_solved;
      if (result.best.widths.empty() ||
          solved.architecture.testing_time < result.best.testing_time) {
        result.best = std::move(solved.architecture);
        shared_incumbent.store(result.best.testing_time,
                               std::memory_order_release);
      }
    }
  };

  common::OrderedChunkPipeline<SolveChunk, SolveOutcome> pipeline(
      pool, process, merge,
      /*max_in_flight=*/static_cast<std::size_t>(pool.size()) * 4);

  const auto chunk_capacity = static_cast<std::size_t>(options.chunk_size) *
                              static_cast<std::size_t>(tams);
  SolveChunk current;
  current.parts = tams;
  current.widths.reserve(chunk_capacity);
  partition::for_each_partition(
      total_width, tams, [&](std::span<const int> widths) {
        if (budget_expired(watch, options)) return false;
        current.widths.insert(current.widths.end(), widths.begin(),
                              widths.end());
        if (current.widths.size() < chunk_capacity) return true;
        const bool ok = pipeline.push(std::move(current));
        current = SolveChunk{};
        current.parts = tams;
        current.widths.reserve(chunk_capacity);
        return ok;
      });
  if (!current.widths.empty()) pipeline.push(std::move(current));
  pipeline.finish();
}

void solve_all_partitions(const TestTimeTable& table, int total_width,
                          int tams, const ExhaustiveOptions& options,
                          const common::Stopwatch& watch,
                          common::ThreadPool* pool, ExhaustiveResult& result) {
  result.partitions_total += partition::count_exact(total_width, tams);
  if (pool)
    solve_all_partitions_parallel(table, total_width, tams, options, watch,
                                  *pool, result);
  else
    solve_all_partitions_serial(table, total_width, tams, options, watch,
                                result);
}

std::unique_ptr<common::ThreadPool> make_pool(const ExhaustiveOptions& options,
                                              const char* who) {
  if (options.threads < 0)
    throw std::invalid_argument(std::string(who) + ": threads must be >= 0");
  if (options.chunk_size < 1)
    throw std::invalid_argument(std::string(who) +
                                ": chunk_size must be >= 1");
  const int threads = options.threads == 0
                          ? common::ThreadPool::hardware_threads()
                          : options.threads;
  if (threads <= 1) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

}  // namespace

ExhaustiveResult exhaustive_paw(const TestTimeTable& table, int total_width,
                                int tams, const ExhaustiveOptions& options) {
  if (tams < 1) throw std::invalid_argument("exhaustive_paw: tams must be >= 1");
  const auto pool = make_pool(options, "exhaustive_paw");
  common::Stopwatch watch;
  ExhaustiveResult result;
  solve_all_partitions(table, total_width, tams, options, watch, pool.get(),
                       result);
  result.completed = result.partitions_solved == result.partitions_total;
  result.cpu_s = watch.elapsed_s();
  return result;
}

ExhaustiveResult exhaustive_pnpaw(const TestTimeTable& table, int total_width,
                                  int max_tams,
                                  const ExhaustiveOptions& options) {
  if (max_tams < 1)
    throw std::invalid_argument("exhaustive_pnpaw: max_tams must be >= 1");
  const auto pool = make_pool(options, "exhaustive_pnpaw");
  common::Stopwatch watch;
  ExhaustiveResult result;
  for (int b = 1; b <= max_tams && b <= total_width; ++b)
    solve_all_partitions(table, total_width, b, options, watch, pool.get(),
                         result);
  result.completed = result.partitions_solved == result.partitions_total;
  result.cpu_s = watch.elapsed_s();
  return result;
}

}  // namespace wtam::core
