#include "wrapper/wrapper.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "common/math_util.hpp"

namespace wtam::wrapper {

namespace {

/// Best-Fit-Decreasing pack of the internal scan chains into bins of the
/// given capacity; returns one vector of chain indices per opened bin.
/// `order` holds chain indices sorted by decreasing length.
std::vector<std::vector<int>> bfd_pack(const std::vector<int>& lengths,
                                       const std::vector<int>& order,
                                       std::int64_t capacity) {
  std::vector<std::vector<int>> bins;
  std::vector<std::int64_t> loads;
  for (const int idx : order) {
    const std::int64_t len = lengths[static_cast<std::size_t>(idx)];
    // Best fit: the fullest bin that still has room.
    int best = -1;
    std::int64_t best_load = -1;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (loads[b] + len <= capacity && loads[b] > best_load) {
        best = static_cast<int>(b);
        best_load = loads[b];
      }
    }
    if (best < 0) {
      bins.emplace_back();
      loads.push_back(0);
      best = static_cast<int>(bins.size()) - 1;
    }
    bins[static_cast<std::size_t>(best)].push_back(idx);
    loads[static_cast<std::size_t>(best)] += len;
  }
  return bins;
}

/// Greedy water-filling: place `cells` one at a time on the wrapper chain
/// whose relevant length (selected by `length_of`) is currently minimal;
/// ties go to the lowest index. This minimizes the resulting maximum.
template <typename LengthFn, typename AddFn>
void distribute_cells(std::vector<WrapperChain>& chains, std::int64_t cells,
                      LengthFn length_of, AddFn add_cell) {
  if (cells <= 0 || chains.empty()) return;
  using Entry = std::pair<std::int64_t, int>;  // (length, chain index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < chains.size(); ++i)
    heap.emplace(length_of(chains[i]), static_cast<int>(i));
  for (std::int64_t c = 0; c < cells; ++c) {
    const auto [len, idx] = heap.top();
    heap.pop();
    add_cell(chains[static_cast<std::size_t>(idx)]);
    heap.emplace(length_of(chains[static_cast<std::size_t>(idx)]), idx);
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
  const auto& lengths = core.scan_chains;
  if (!lengths.empty()) {
    std::vector<int> order(lengths.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&lengths](int a, int b) {
      return lengths[static_cast<std::size_t>(a)] >
             lengths[static_cast<std::size_t>(b)];
    });

    // Start at the scheduling lower bound and relax the capacity until the
    // packing fits in `width` bins (dual bin-packing approximation).
    std::int64_t capacity = std::max<std::int64_t>(
        core.longest_scan_chain(),
        common::ceil_div(core.total_scan_bits(), width));
    std::vector<std::vector<int>> bins;
    for (;;) {
      bins = bfd_pack(lengths, order, capacity);
      if (static_cast<int>(bins.size()) <= width) break;
      ++capacity;
    }
    for (std::size_t b = 0; b < bins.size(); ++b) {
      auto& chain = design.chains[b];
      chain.internal_chain_indices = std::move(bins[b]);
      for (const int idx : chain.internal_chain_indices)
        chain.scan_bits += lengths[static_cast<std::size_t>(idx)];
    }
  }

  // --- Phase 2: distribute wrapper cells (water-filling). ---------------
  // Bidir cells first (they load both sides), then inputs on the scan-in
  // lengths, then outputs on the scan-out lengths.
  distribute_cells(
      design.chains, core.num_bidirs,
      [](const WrapperChain& c) {
        return std::max(c.scan_in_length(), c.scan_out_length());
      },
      [](WrapperChain& c) { ++c.bidir_cells; });
  distribute_cells(
      design.chains, core.num_inputs,
      [](const WrapperChain& c) { return c.scan_in_length(); },
      [](WrapperChain& c) { ++c.input_cells; });
  distribute_cells(
      design.chains, core.num_outputs,
      [](const WrapperChain& c) { return c.scan_out_length(); },
      [](WrapperChain& c) { ++c.output_cells; });

  measure(core, design);
  return design;
}

std::int64_t test_time(const soc::Core& core, int width) {
  return design_wrapper(core, width).test_time;
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
  std::vector<int> widths;
  std::int64_t last = -1;
  for (int w = 1; w <= max_width; ++w) {
    const std::int64_t t = test_time(core, w);
    if (last < 0 || t < last) {
      widths.push_back(w);
      last = t;
    }
  }
  return widths;
}

}  // namespace wtam::wrapper
