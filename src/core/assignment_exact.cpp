#include "core/assignment_exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/math_util.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace wtam::core {

namespace {

/// Depth-first branch & bound for min-makespan assignment.
class CombinatorialSearch {
 public:
  CombinatorialSearch(const TestTimeTable& table, std::span<const int> widths,
                      const ExactOptions& options)
      : table_(table), options_(options) {
    for (const int w : widths) {
      columns_.push_back(static_cast<std::size_t>(w - 1));
      total_width_ += w;
    }
    const auto n = static_cast<std::size_t>(table_.core_count());
    // Best-case (minimum over the TAMs) time and test-data volume (wires
    // times cycles) of every core.
    std::vector<std::int64_t> row_min(n,
                                      std::numeric_limits<std::int64_t>::max());
    std::vector<std::int64_t> area_min(n,
                                       std::numeric_limits<std::int64_t>::max());
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = table_.row(static_cast<int>(i));
      for (std::size_t j = 0; j < columns_.size(); ++j) {
        row_min[i] = std::min(row_min[i], row[columns_[j]]);
        area_min[i] = std::min(area_min[i], row[columns_[j]] * widths[j]);
      }
    }
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    // Hardest cores first: by decreasing best-case (minimum) time.
    std::stable_sort(order_.begin(), order_.end(),
                     [&row_min](std::size_t a, std::size_t b) {
                       return row_min[a] > row_min[b];
                     });
    // Suffix sums of best-case times and volumes for the lower bounds.
    suffix_min_.assign(n + 1, 0);
    suffix_area_.assign(n + 1, 0);
    for (std::size_t k = n; k-- > 0;) {
      suffix_min_[k] = suffix_min_[k + 1] + row_min[order_[k]];
      suffix_area_[k] = suffix_area_[k + 1] + area_min[order_[k]];
    }
    tam_order_.resize(n * columns_.size());
  }

  /// `incumbent` holds the heuristic assignment on entry and
  /// `incumbent_time` its testing time; the assignment is replaced
  /// whenever the search finds a strictly better one. Returns false when
  /// a node/time limit fired.
  bool run(std::vector<int>& incumbent, std::int64_t incumbent_time,
           std::int64_t& nodes) {
    best_ = &incumbent;
    best_time_ = incumbent_time;
    loads_.assign(columns_.size(), 0);
    area_ = 0;
    current_.assign(order_.size(), -1);
    limit_hit_ = false;
    dfs(0, nodes);
    return !limit_hit_;
  }

 private:
  void dfs(std::size_t depth, std::int64_t& nodes) {
    if (limit_hit_) return;
    if (++nodes >= options_.max_nodes ||
        ((nodes & 0x3ff) == 0 &&
         (watch_.elapsed_s() > options_.time_limit_s ||
          (options_.context != nullptr &&
           options_.context->poll() != SolveInterrupt::None)))) {
      limit_hit_ = true;
      return;
    }
    if (depth == order_.size()) return;  // all pruning happened at edges

    const std::size_t core = order_[depth];
    // The core's time on TAM j is row[columns_[j]].
    const auto row = table_.row(static_cast<int>(core));

    // Try TAMs in ascending resulting-load order for good incumbents early.
    const std::span<int> tams(tam_order_.data() + depth * columns_.size(),
                              columns_.size());
    std::iota(tams.begin(), tams.end(), 0);
    std::sort(tams.begin(), tams.end(), [&](int a, int b) {
      return loads_[static_cast<std::size_t>(a)] +
                 row[columns_[static_cast<std::size_t>(a)]] <
             loads_[static_cast<std::size_t>(b)] +
                 row[columns_[static_cast<std::size_t>(b)]];
    });

    for (std::size_t pick = 0; pick < tams.size(); ++pick) {
      const int j = tams[static_cast<std::size_t>(pick)];
      // Symmetry break: among TAMs with identical width and identical
      // current load, only the first is worth trying.
      bool duplicate = false;
      for (std::size_t prev = 0; prev < pick; ++prev) {
        const int k = tams[prev];
        if (columns_[static_cast<std::size_t>(k)] ==
                columns_[static_cast<std::size_t>(j)] &&
            loads_[static_cast<std::size_t>(k)] == loads_[static_cast<std::size_t>(j)]) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;

      const std::int64_t time = row[columns_[static_cast<std::size_t>(j)]];
      if (loads_[static_cast<std::size_t>(j)] + time >= best_time_) continue;

      const std::int64_t area =
          time * static_cast<std::int64_t>(
                     columns_[static_cast<std::size_t>(j)] + 1);
      loads_[static_cast<std::size_t>(j)] += time;
      area_ += area;
      current_[core] = j;

      if (depth + 1 == order_.size()) {
        const std::int64_t makespan =
            *std::max_element(loads_.begin(), loads_.end());
        if (makespan < best_time_) {
          best_time_ = makespan;
          *best_ = std::vector<int>(current_.begin(), current_.end());
        }
      } else if (lower_bound(depth + 1) < best_time_) {
        dfs(depth + 1, nodes);
      }

      loads_[static_cast<std::size_t>(j)] -= time;
      area_ -= area;
      current_[core] = -1;
      if (limit_hit_) return;
    }
  }

  /// The makespan of any completion is at least the current maximum load,
  /// the assigned plus best-case remaining time spread over the TAMs, and
  /// the assigned plus best-case remaining test-data volume spread over
  /// the wires (every TAM's load is at most the makespan).
  [[nodiscard]] std::int64_t lower_bound(std::size_t depth) const {
    const std::int64_t current_max =
        *std::max_element(loads_.begin(), loads_.end());
    const std::int64_t total_load =
        std::accumulate(loads_.begin(), loads_.end(), std::int64_t{0});
    const std::int64_t spread = common::ceil_div(
        total_load + suffix_min_[depth], static_cast<std::int64_t>(loads_.size()));
    const std::int64_t volume =
        common::ceil_div(area_ + suffix_area_[depth], total_width_);
    return std::max({current_max, spread, volume});
  }

  const TestTimeTable& table_;
  /// Table column (width - 1) of each TAM; equal columns, equal widths.
  std::vector<std::size_t> columns_;
  std::int64_t total_width_ = 0;
  const ExactOptions& options_;
  common::Stopwatch watch_;
  std::vector<std::size_t> order_;
  std::vector<std::int64_t> suffix_min_;
  std::vector<std::int64_t> suffix_area_;
  /// The TAM try order of each depth, B entries per depth.
  std::vector<int> tam_order_;
  std::vector<std::int64_t> loads_;
  /// Sum over the TAMs of load times width: the assigned test-data volume.
  std::int64_t area_ = 0;
  std::vector<int> current_;
  std::vector<int>* best_ = nullptr;
  std::int64_t best_time_ = 0;
  bool limit_hit_ = false;
};

ExactResult finish_result(const TestTimeTable& table, std::span<const int> widths,
                          std::vector<int> assignment) {
  ExactResult out;
  auto& arch = out.architecture;
  arch.widths.assign(widths.begin(), widths.end());
  arch.assignment = std::move(assignment);
  arch.tam_times.assign(widths.size(), 0);
  for (int i = 0; i < table.core_count(); ++i) {
    const int j = arch.assignment[static_cast<std::size_t>(i)];
    arch.tam_times[static_cast<std::size_t>(j)] +=
        table.time(i, widths[static_cast<std::size_t>(j)]);
  }
  arch.testing_time =
      *std::max_element(arch.tam_times.begin(), arch.tam_times.end());
  return out;
}

}  // namespace

ilp::Problem build_assignment_ilp(const TestTimeTable& table,
                                  std::span<const int> widths) {
  table.require_widths(widths, "build_assignment_ilp");
  const int n = table.core_count();
  const int b = static_cast<int>(widths.size());

  const int tau = n * b;  // makespan variable index
  ilp::Problem problem;
  problem.lp = lp::Problem::with_vars(n * b + 1);
  problem.is_integer.assign(static_cast<std::size_t>(n * b + 1), true);
  problem.is_integer[static_cast<std::size_t>(tau)] = false;
  problem.lp.objective[static_cast<std::size_t>(tau)] = 1.0;

  for (int i = 0; i < n; ++i)
    for (int j = 0; j < b; ++j)
      problem.lp.upper[static_cast<std::size_t>(i * b + j)] = 1.0;

  // tau >= sum_i T_i(w_j) x_ij  for every TAM j (constraint 1).
  for (int j = 0; j < b; ++j) {
    lp::Row row;
    row.sense = lp::RowSense::LessEqual;
    row.rhs = 0.0;
    const auto column =
        static_cast<std::size_t>(widths[static_cast<std::size_t>(j)] - 1);
    for (int i = 0; i < n; ++i)
      row.coeffs.emplace_back(i * b + j,
                              static_cast<double>(table.row(i)[column]));
    row.coeffs.emplace_back(tau, -1.0);
    problem.lp.rows.push_back(std::move(row));
  }
  // Every core on exactly one TAM (constraint 2).
  for (int i = 0; i < n; ++i) {
    lp::Row row;
    row.sense = lp::RowSense::Equal;
    row.rhs = 1.0;
    for (int j = 0; j < b; ++j) row.coeffs.emplace_back(i * b + j, 1.0);
    problem.lp.rows.push_back(std::move(row));
  }
  return problem;
}

ExactResult solve_assignment_exact(const TestTimeTable& table,
                                   std::span<const int> widths,
                                   const ExactOptions& options) {
  // Exact-step cost is both reported per call (cpu_s) and recorded
  // process-wide so scrapes can see it without per-job tracing.
  static obs::Histogram& exact_hist =
      obs::MetricsRegistry::instance().histogram("core.exact_step_ns");
  common::ScopedTimer<obs::Histogram> watch(&exact_hist);
  const int n = table.core_count();
  const int b = static_cast<int>(widths.size());

  // Warm start from the heuristic (paper: the final ILP refines the
  // Partition_evaluate assignment).
  const CoreAssignResult heuristic = core_assign(table, widths);

  if (options.engine == ExactEngine::BranchAndBound) {
    std::vector<int> assignment = heuristic.architecture.assignment;
    CombinatorialSearch search(table, widths, options);
    std::int64_t nodes = 0;
    const bool complete =
        search.run(assignment, heuristic.architecture.testing_time, nodes);
    ExactResult out = finish_result(table, widths, std::move(assignment));
    out.proven_optimal = complete;
    out.nodes = nodes;
    out.cpu_s = watch.elapsed_s();
    return out;
  }

  // ILP engine.
  ilp::Problem problem = build_assignment_ilp(table, widths);
  ilp::Options ilp_options;
  ilp_options.time_limit_s = options.time_limit_s;
  ilp_options.max_nodes = options.max_nodes;
  ilp_options.objective_is_integral = true;
  if (options.context != nullptr)
    ilp_options.interrupt = [context = options.context] {
      return context->poll() != SolveInterrupt::None;
    };
  std::vector<double> hint(static_cast<std::size_t>(n * b + 1), 0.0);
  for (int i = 0; i < n; ++i) {
    const int j = heuristic.architecture.assignment[static_cast<std::size_t>(i)];
    hint[static_cast<std::size_t>(i * b + j)] = 1.0;
  }
  hint[static_cast<std::size_t>(n * b)] =
      static_cast<double>(heuristic.architecture.testing_time);
  ilp_options.incumbent_hint = std::move(hint);

  const ilp::Solution solution = ilp::solve(problem, ilp_options);
  std::vector<int> assignment = heuristic.architecture.assignment;
  if (!solution.x.empty()) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < b; ++j)
        if (solution.x[static_cast<std::size_t>(i * b + j)] > 0.5)
          assignment[static_cast<std::size_t>(i)] = j;
  }
  ExactResult out = finish_result(table, widths, std::move(assignment));
  out.proven_optimal = solution.status == ilp::Status::Optimal;
  out.nodes = solution.nodes;
  out.cpu_s = watch.elapsed_s();
  return out;
}

}  // namespace wtam::core
