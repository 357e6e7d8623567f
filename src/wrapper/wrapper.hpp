// P_W: test wrapper design for a single embedded core (paper §2, and [8]).
//
// A wrapper connects a core's functional terminals and internal scan chains
// to `width` TAM wires by building at most `width` *wrapper scan chains*.
// Internal scan chains are indivisible; wrapper input/output cells are
// appended to the wrapper chains. With
//   si = length of the longest wrapper scan-IN chain,
//   so = length of the longest wrapper scan-OUT chain,
// the core testing time for p patterns is
//   T = (1 + max(si, so)) * p + min(si, so)
// (pipeline: shift-in overlapped with shift-out of the previous pattern,
// plus one final scan-out).
//
// Design_wrapper has two priorities (paper §2): (i) minimize T, which means
// balancing wrapper chain lengths, and (ii) minimize the TAM width actually
// used, via a built-in reluctance to open new wrapper chains. We implement
// (i) with Best-Fit-Decreasing bin packing of the internal scan chains
// (capacity = the bin-packing lower bound, relaxed until <= width bins
// suffice) followed by water-filling of the I/O cells. (ii) is read off
// the testing times' monotone envelope (`best_design`, `pareto_widths`,
// core::TestTimeTable): a width that does not strictly lower T is never
// worth its wires.

#pragma once

#include <cstdint>
#include <vector>

#include "soc/core.hpp"

namespace wtam::wrapper {

/// One wrapper scan chain: which internal chains it carries plus cell counts.
struct WrapperChain {
  std::vector<int> internal_chain_indices;  ///< indices into Core::scan_chains
  std::int64_t scan_bits = 0;               ///< summed internal chain length
  std::int64_t input_cells = 0;
  std::int64_t output_cells = 0;
  std::int64_t bidir_cells = 0;  ///< counted on both the in- and out-side

  [[nodiscard]] std::int64_t scan_in_length() const noexcept {
    return scan_bits + input_cells + bidir_cells;
  }
  [[nodiscard]] std::int64_t scan_out_length() const noexcept {
    return scan_bits + output_cells + bidir_cells;
  }
};

/// Result of designing a wrapper at a given TAM width.
struct WrapperDesign {
  int tam_width = 0;  ///< width the wrapper was designed for
  std::int64_t scan_in_length = 0;   ///< si
  std::int64_t scan_out_length = 0;  ///< so
  std::int64_t test_time = 0;        ///< T
  std::vector<WrapperChain> chains;  ///< exactly tam_width entries
};

/// Core testing-time formula of [8].
[[nodiscard]] constexpr std::int64_t test_time_formula(std::int64_t patterns,
                                                       std::int64_t si,
                                                       std::int64_t so) noexcept {
  const std::int64_t longer = si > so ? si : so;
  const std::int64_t shorter = si > so ? so : si;
  return (1 + longer) * patterns + shorter;
}

/// Designs a wrapper using exactly `width` wires (Design_wrapper of [8]).
/// Throws std::invalid_argument for width < 1.
[[nodiscard]] WrapperDesign design_wrapper(const soc::Core& core, int width);

/// Testing time of `core` wrapped at exactly `width` (no envelope).
[[nodiscard]] std::int64_t test_time(const soc::Core& core, int width);

/// A TAM of width w can always leave wires idle, so the *effective* testing
/// time at width w is the minimum over all widths <= w. This returns the
/// best design with tam_width <= width (the monotone envelope used by all
/// optimization algorithms; its tam_width is the winning width).
[[nodiscard]] WrapperDesign best_design(const soc::Core& core, int width);

/// Widths 1..max_width at which the effective testing time strictly
/// improves — the "Pareto-optimal" TAM widths for this core. Assigning the
/// core to a wider TAM than the last entry only wastes wires (paper §1's
/// idle-TAM-wire argument).
[[nodiscard]] std::vector<int> pareto_widths(const soc::Core& core,
                                             int max_width);

/// Ablation baseline: a naive wrapper that round-robins internal scan
/// chains over the wires in input order (no BFD balancing) and splits
/// I/O cells evenly. Quantifies what Design_wrapper's balancing buys
/// (priority (i) of P_W). Same result structure as design_wrapper.
[[nodiscard]] WrapperDesign design_wrapper_naive(const soc::Core& core,
                                                 int width);

}  // namespace wtam::wrapper
