#include "wrapper/wrapper.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/math_util.hpp"

namespace wtam::wrapper {

namespace {

/// Chain indices sorted by decreasing length, ties in index order: the
/// order BFD takes the internal chains in.
std::vector<int> decreasing_order(const std::vector<int>& lengths) {
  std::vector<int> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&lengths](int a, int b) {
    return lengths[static_cast<std::size_t>(a)] >
           lengths[static_cast<std::size_t>(b)];
  });
  return order;
}

/// Phase 1: Best-Fit-Decreasing packing of the core's internal chains,
/// taken in `order` (decreasing_order), into at most `width` bins; see
/// the header for the capacity jump. On return loads[b] is bin b's load,
/// one entry per opened bin, and bin_of[k] is the bin of order[k].
void pack_chains(const soc::Core& core, const std::vector<int>& order,
                 int width, std::vector<std::int64_t>& loads,
                 std::vector<int>& bin_of) {
  const std::vector<int>& lengths = core.scan_chains;
  // Start at the scheduling lower bound: no packing into `width` bins
  // does better.
  std::int64_t capacity = std::max<std::int64_t>(
      core.longest_scan_chain(),
      common::ceil_div(core.total_scan_bits(), width));
  bin_of.resize(order.size());
  for (;;) {
    loads.clear();
    std::int64_t next_capacity = std::numeric_limits<std::int64_t>::max();
    std::size_t k = 0;
    for (; k < order.size(); ++k) {
      const std::int64_t length = lengths[static_cast<std::size_t>(order[k])];
      // Best fit: the fullest bin that still has room.
      int best = -1;
      std::int64_t best_load = -1;
      for (std::size_t b = 0; b < loads.size(); ++b) {
        const std::int64_t load = loads[b];
        if (load + length > capacity) {
          next_capacity = std::min(next_capacity, load + length);
        } else if (load > best_load) {
          best = static_cast<int>(b);
          best_load = load;
        }
      }
      if (best < 0) {
        if (static_cast<int>(loads.size()) == width) break;
        best = static_cast<int>(loads.size());
        loads.push_back(0);
      }
      bin_of[k] = best;
      loads[static_cast<std::size_t>(best)] += length;
    }
    if (k == order.size()) return;
    capacity = next_capacity;
  }
}

/// Phase 2's water level for `cells` cells on chains of the lengths in
/// `sorted` (ascending, non-empty); see the header.
struct WaterLevel {
  std::int64_t level = 0;  ///< T
  std::size_t raised = 0;  ///< chains that end at T or T + 1: length <= T
  std::int64_t rest = 0;   ///< cells at T + 1, on the lowest-index of them
};

WaterLevel water_level(const std::vector<std::int64_t>& sorted,
                       std::int64_t cells) {
  cells = std::max<std::int64_t>(cells, 0);  // a negative count places none
  // The shortest j chains rise together while the next one is in reach.
  std::size_t j = 1;
  std::int64_t sum = sorted[0];
  while (j < sorted.size() &&
         static_cast<std::int64_t>(j) * sorted[j] - sum <= cells) {
    sum += sorted[j];
    ++j;
  }
  const auto raised = static_cast<std::int64_t>(j);
  const std::int64_t level = (cells + sum) / raised;
  return {level, j, cells + sum - level * raised};
}

/// Water-fills `cells` onto the chains' lengths `length_of`; add_cells(c,
/// n) lengthens chain c by n. `sorted` is scratch.
template <typename LengthFn, typename AddFn>
void distribute_cells(std::vector<WrapperChain>& chains, std::int64_t cells,
                      LengthFn length_of, AddFn add_cells,
                      std::vector<std::int64_t>& sorted) {
  if (cells <= 0) return;
  sorted.clear();
  for (const auto& chain : chains) sorted.push_back(length_of(chain));
  std::sort(sorted.begin(), sorted.end());
  const WaterLevel fill = water_level(sorted, cells);
  std::int64_t rest = fill.rest;
  for (auto& chain : chains) {
    const std::int64_t length = length_of(chain);
    if (length > fill.level) continue;
    add_cells(chain, fill.level - length + (rest > 0 ? 1 : 0));
    if (rest > 0) --rest;
  }
}

/// Sets si, so and T from the finished wrapper chains.
void measure(const soc::Core& core, WrapperDesign& design) {
  for (const auto& chain : design.chains) {
    design.scan_in_length = std::max(design.scan_in_length, chain.scan_in_length());
    design.scan_out_length =
        std::max(design.scan_out_length, chain.scan_out_length());
  }
  design.test_time = test_time_formula(core.test_patterns,
                                       design.scan_in_length,
                                       design.scan_out_length);
}

}  // namespace

WrapperDesign design_wrapper(const soc::Core& core, int width) {
  if (width < 1)
    throw std::invalid_argument("design_wrapper: width must be >= 1");

  WrapperDesign design;
  design.tam_width = width;
  design.chains.resize(static_cast<std::size_t>(width));

  // --- Phase 1: partition internal scan chains (BFD bin packing). -------
  const std::vector<int> order = decreasing_order(core.scan_chains);
  std::vector<std::int64_t> loads;
  std::vector<int> bin_of;
  pack_chains(core, order, width, loads, bin_of);
  for (std::size_t k = 0; k < order.size(); ++k)
    design.chains[static_cast<std::size_t>(bin_of[k])]
        .internal_chain_indices.push_back(order[k]);
  for (std::size_t b = 0; b < loads.size(); ++b)
    design.chains[b].scan_bits = loads[b];

  // --- Phase 2: distribute wrapper cells (water-filling). ---------------
  // Bidir cells first (they load both sides), then inputs on the scan-in
  // lengths, then outputs on the scan-out lengths.
  std::vector<std::int64_t> sorted;
  distribute_cells(
      design.chains, core.num_bidirs,
      [](const WrapperChain& c) {
        return std::max(c.scan_in_length(), c.scan_out_length());
      },
      [](WrapperChain& c, std::int64_t n) { c.bidir_cells += n; }, sorted);
  distribute_cells(
      design.chains, core.num_inputs,
      [](const WrapperChain& c) { return c.scan_in_length(); },
      [](WrapperChain& c, std::int64_t n) { c.input_cells += n; }, sorted);
  distribute_cells(
      design.chains, core.num_outputs,
      [](const WrapperChain& c) { return c.scan_out_length(); },
      [](WrapperChain& c, std::int64_t n) { c.output_cells += n; }, sorted);

  measure(core, design);
  return design;
}

std::int64_t test_time(const soc::Core& core, int width) {
  return WrapperTimer(core).test_time(width);
}

WrapperTimer::WrapperTimer(const soc::Core& core)
    : core_(core), order_(decreasing_order(core.scan_chains)) {}

std::int64_t WrapperTimer::test_time(int width) {
  if (width < 1)
    throw std::invalid_argument("WrapperTimer: width must be >= 1");
  pack_chains(core_, order_, width, loads_, bin_of_);

  // The wrapper chains' lengths in ascending order; unopened bins are
  // empty. Only the multiset of lengths decides si and so.
  const std::size_t empty = static_cast<std::size_t>(width) - loads_.size();
  levels_.assign(empty, 0);
  levels_.insert(levels_.end(), loads_.begin(), loads_.end());
  std::sort(levels_.begin() + static_cast<std::ptrdiff_t>(empty),
            levels_.end());

  // Bidir cells lengthen both sides; the first `raised` lengths become
  // T, the last `rest` of them T + 1, and the order stays ascending.
  const WaterLevel bidir = water_level(levels_, core_.num_bidirs);
  const std::size_t rest = static_cast<std::size_t>(bidir.rest);
  std::fill_n(levels_.begin(), bidir.raised - rest, bidir.level);
  std::fill_n(levels_.begin() + static_cast<std::ptrdiff_t>(bidir.raised - rest),
              rest, bidir.level + 1);

  // Inputs then fill the scan-in side and outputs the scan-out side, each
  // from these lengths; a fill's longest chain is the longer of the
  // untouched longest and the water level.
  const auto filled_max = [this](std::int64_t cells) {
    const WaterLevel fill = water_level(levels_, cells);
    return std::max(levels_.back(), fill.level + (fill.rest > 0 ? 1 : 0));
  };
  return test_time_formula(core_.test_patterns, filled_max(core_.num_inputs),
                           filled_max(core_.num_outputs));
}

WrapperDesign best_design(const soc::Core& core, int width) {
  WrapperDesign best = design_wrapper(core, 1);
  for (int w = 2; w <= width; ++w) {
    // Stop early once the absolute lower bound has been reached.
    if (best.test_time <= soc::min_test_time_bound(core)) break;
    WrapperDesign candidate = design_wrapper(core, w);
    if (candidate.test_time < best.test_time) best = std::move(candidate);
  }
  return best;
}

WrapperDesign design_wrapper_naive(const soc::Core& core, int width) {
  if (width < 1)
    throw std::invalid_argument("design_wrapper_naive: width must be >= 1");

  WrapperDesign design;
  design.tam_width = width;
  design.chains.resize(static_cast<std::size_t>(width));

  // Round-robin the internal chains in declaration order.
  for (std::size_t c = 0; c < core.scan_chains.size(); ++c) {
    auto& chain = design.chains[c % static_cast<std::size_t>(width)];
    chain.internal_chain_indices.push_back(static_cast<int>(c));
    chain.scan_bits += core.scan_chains[c];
  }
  // Split cells evenly by index, ignoring the scan imbalance.
  for (int cell = 0; cell < core.num_bidirs; ++cell)
    ++design.chains[static_cast<std::size_t>(cell % width)].bidir_cells;
  for (int cell = 0; cell < core.num_inputs; ++cell)
    ++design.chains[static_cast<std::size_t>(cell % width)].input_cells;
  for (int cell = 0; cell < core.num_outputs; ++cell)
    ++design.chains[static_cast<std::size_t>(cell % width)].output_cells;

  measure(core, design);
  return design;
}

std::vector<int> pareto_widths(const soc::Core& core, int max_width) {
  WrapperTimer timer(core);
  std::vector<int> widths;
  std::int64_t last = -1;
  for (int w = 1; w <= max_width; ++w) {
    const std::int64_t t = timer.test_time(w);
    if (last < 0 || t < last) {
      widths.push_back(w);
      last = t;
    }
  }
  return widths;
}

}  // namespace wtam::wrapper
