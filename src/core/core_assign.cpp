#include "core/core_assign.hpp"

#include <algorithm>

namespace wtam::core {

CoreAssignResult core_assign(const TestTimeTable& table,
                             std::span<const int> widths,
                             const CoreAssignOptions& options) {
  table.require_widths(widths, "core_assign");
  const int num_tams = static_cast<int>(widths.size());
  const int num_cores = table.core_count();

  CoreAssignResult result;
  auto& arch = result.architecture;
  arch.widths.assign(widths.begin(), widths.end());
  arch.assignment.assign(static_cast<std::size_t>(num_cores), -1);
  arch.tam_times.assign(static_cast<std::size_t>(num_tams), 0);

  // Lines 4-6: the testing time of core i on TAM j, read off its row.
  const auto time_on = [&table, widths](int core, int tam) {
    return table.row(core)[static_cast<std::size_t>(
        widths[static_cast<std::size_t>(tam)] - 1)];
  };

  // For the core tie-break: the widest TAM strictly narrower than a given
  // TAM (Line 15). -1 when none exists.
  const auto next_narrower_tam = [&widths, num_tams](int tam) {
    int best = -1;
    for (int k = 0; k < num_tams; ++k) {
      if (k == tam) continue;
      if (widths[static_cast<std::size_t>(k)] >
          widths[static_cast<std::size_t>(tam)])
        continue;
      if (best < 0 || widths[static_cast<std::size_t>(k)] >
                          widths[static_cast<std::size_t>(best)])
        best = k;
    }
    return best;
  };

  for (int step = 0; step < num_cores; ++step) {
    // Lines 10-12: minimally loaded TAM; ties go to the widest.
    int tam = 0;
    for (int j = 1; j < num_tams; ++j) {
      const auto tj = arch.tam_times[static_cast<std::size_t>(j)];
      const auto tb = arch.tam_times[static_cast<std::size_t>(tam)];
      if (tj < tb) {
        tam = j;
      } else if (tj == tb && options.widest_tam_tiebreak &&
                 widths[static_cast<std::size_t>(j)] >
                     widths[static_cast<std::size_t>(tam)]) {
        tam = j;
      }
    }

    // Lines 13-16: the first unassigned core, in index order, with the
    // largest time on `tam`; ties are broken by the time on the
    // next-narrower TAM (the same first-largest rule on the pair).
    const int ref_tam =
        options.next_tam_core_tiebreak ? next_narrower_tam(tam) : -1;
    int core = -1;
    std::int64_t max_time = -1;
    std::int64_t max_ref = -1;
    for (int i = 0; i < num_cores; ++i) {
      if (arch.assignment[static_cast<std::size_t>(i)] >= 0) continue;
      const std::int64_t t = time_on(i, tam);
      if (t < max_time) continue;
      const std::int64_t ref = ref_tam >= 0 ? time_on(i, ref_tam) : 0;
      if (t > max_time || ref > max_ref) {
        core = i;
        max_time = t;
        max_ref = ref;
      }
    }

    // Line 17: assign.
    arch.assignment[static_cast<std::size_t>(core)] = tam;
    auto& load = arch.tam_times[static_cast<std::size_t>(tam)];
    load += max_time;

    // Lines 18-20: abort once any TAM reaches the best-known time. Only
    // `tam` grew and every other TAM is still below tau, so `tam` holds
    // the maximum whenever this fires.
    if (load >= options.best_known) {
      arch.testing_time = load;
      result.aborted = true;
      return result;
    }
  }

  arch.testing_time =
      *std::max_element(arch.tam_times.begin(), arch.tam_times.end());
  return result;
}

}  // namespace wtam::core
