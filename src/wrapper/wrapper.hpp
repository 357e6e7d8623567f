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
//
// Both phases are computed in closed form, exactly equal to their
// one-step definitions (relax the capacity by one, place one cell at a
// time), which tests/test_wrapper.cpp keeps as its reference:
//
//   * BFD's bins depend on the capacity only through its fit tests
//     `load + length <= capacity`. A pass that needs a bin past `width`
//     stops there, and the capacity jumps to the smallest `load + length`
//     that failed a test: every capacity below that passes and fails the
//     same tests, so it would fail the same way. The first capacity that
//     fits is the one relaxing by +1 reaches, and its bins are the same.
//   * Water-filling places the cells one at a time on the chain of least
//     (length, index); each cell lengthens its chain by one. A chain
//     below a level is always chosen before any chain at it, so the
//     cells raise every chain to the largest level T with
//     sum_i max(0, T - L_i) <= cells. The r cells left (fewer than the
//     chains at T) go to the lowest-index chains at T, which is the
//     order the one-at-a-time fill takes them in, since each then sits
//     at T + 1.

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

/// design_wrapper(core, w).test_time for one core at many widths, without
/// building a WrapperDesign per width: the chain order is sorted once and
/// the scratch is reused from call to call. Holds a reference to `core`,
/// which must outlive it.
class WrapperTimer {
 public:
  explicit WrapperTimer(const soc::Core& core);

  /// Throws std::invalid_argument for width < 1.
  [[nodiscard]] std::int64_t test_time(int width);

 private:
  const soc::Core& core_;
  std::vector<int> order_;  ///< chain indices by decreasing length
  std::vector<std::int64_t> loads_;   ///< the wrapper chains' scan bits
  std::vector<int> bin_of_;           ///< wrapper chain of order_[k]
  std::vector<std::int64_t> levels_;  ///< the chains' lengths, ascending
};

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
