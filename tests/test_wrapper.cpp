#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <span>
#include <string>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"
#include "wrapper/wrapper.hpp"

namespace wtam::wrapper {
namespace {

soc::Core make_core(std::string name, std::int64_t patterns, int in, int out,
                    std::vector<int> chains, int bidirs = 0) {
  soc::Core core;
  core.name = std::move(name);
  core.test_patterns = patterns;
  core.num_inputs = in;
  core.num_outputs = out;
  core.num_bidirs = bidirs;
  core.scan_chains = std::move(chains);
  return core;
}

TEST(TestTimeFormula, MatchesPaperDefinition) {
  // T = (1 + max(si,so)) * p + min(si,so).
  EXPECT_EQ(test_time_formula(105, 54, 54), (1 + 54) * 105 + 54);
  EXPECT_EQ(test_time_formula(10, 3, 7), (1 + 7) * 10 + 3);
  EXPECT_EQ(test_time_formula(10, 7, 3), (1 + 7) * 10 + 3);
  EXPECT_EQ(test_time_formula(0, 5, 5), 5);
  EXPECT_EQ(test_time_formula(7, 0, 0), 7);
}

TEST(DesignWrapper, RejectsNonPositiveWidth) {
  const soc::Core core = make_core("x", 1, 1, 1, {});
  EXPECT_THROW((void)design_wrapper(core, 0), std::invalid_argument);
}

TEST(DesignWrapper, S9234ReachesKnownMinimum) {
  // The well-known d695 anchor: s9234 bottoms out at 5829 cycles.
  const soc::Core s9234 = soc::d695().cores[3];
  EXPECT_EQ(test_time(s9234, 8), 5829);
  EXPECT_EQ(test_time(s9234, 16), 5829);
  EXPECT_EQ(best_design(s9234, 64).test_time, 5829);
}

TEST(DesignWrapper, CombinationalCoreScalesWithWidth) {
  const soc::Core c6288 = soc::d695().cores[0];  // 12 patterns, 32 in, 32 out
  // At width 8: si = so = ceil(32/8) = 4 -> (1+4)*12 + 4 = 64.
  EXPECT_EQ(test_time(c6288, 8), 64);
  // At width 32: one cell per chain -> (1+1)*12 + 1 = 25.
  EXPECT_EQ(test_time(c6288, 32), 25);
}

TEST(DesignWrapper, SingleChainCoreIsFlat) {
  // s838: one internal chain of 32 dominates at any width >= 2.
  const soc::Core s838 = soc::d695().cores[2];
  const std::int64_t floor_time = soc::min_test_time_bound(s838);
  EXPECT_EQ(test_time(s838, 8), floor_time);
  EXPECT_EQ(test_time(s838, 64), floor_time);
}

TEST(DesignWrapper, ScanInDominatedByLongestChain) {
  const soc::Core core = make_core("c", 10, 5, 5, {100, 30, 30, 30});
  for (int w = 1; w <= 8; ++w) {
    const WrapperDesign design = design_wrapper(core, w);
    EXPECT_GE(design.scan_in_length, 100) << "w=" << w;
    EXPECT_GE(design.scan_out_length, 100) << "w=" << w;
  }
}

TEST(DesignWrapper, WidthOneConcatenatesEverything) {
  const soc::Core core = make_core("c", 4, 3, 2, {5, 6});
  const WrapperDesign design = design_wrapper(core, 1);
  EXPECT_EQ(design.scan_in_length, 5 + 6 + 3);
  EXPECT_EQ(design.scan_out_length, 5 + 6 + 2);
}

TEST(DesignWrapper, CellsAreConserved) {
  const soc::Core core = make_core("c", 4, 13, 7, {9, 4, 4}, 3);
  const WrapperDesign design = design_wrapper(core, 5);
  std::int64_t in = 0;
  std::int64_t out = 0;
  std::int64_t bid = 0;
  for (const auto& chain : design.chains) {
    in += chain.input_cells;
    out += chain.output_cells;
    bid += chain.bidir_cells;
  }
  EXPECT_EQ(in, 13);
  EXPECT_EQ(out, 7);
  EXPECT_EQ(bid, 3);
}

TEST(DesignWrapper, InternalChainsAssignedExactlyOnce) {
  const soc::Core core = make_core("c", 4, 2, 2, {9, 4, 4, 7, 1});
  const WrapperDesign design = design_wrapper(core, 3);
  std::vector<int> seen;
  for (const auto& chain : design.chains) {
    std::int64_t bits = 0;
    for (const int idx : chain.internal_chain_indices) {
      seen.push_back(idx);
      bits += core.scan_chains[static_cast<std::size_t>(idx)];
    }
    EXPECT_EQ(bits, chain.scan_bits);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DesignWrapper, SiSoAreTheChainMaxima) {
  const soc::Core core = make_core("c", 4, 10, 20, {8, 8});
  const WrapperDesign design = design_wrapper(core, 4);
  std::int64_t max_in = 0;
  std::int64_t max_out = 0;
  for (const auto& chain : design.chains) {
    max_in = std::max(max_in, chain.scan_in_length());
    max_out = std::max(max_out, chain.scan_out_length());
  }
  EXPECT_EQ(design.scan_in_length, max_in);
  EXPECT_EQ(design.scan_out_length, max_out);
}

TEST(DesignWrapper, BidirCellsCountOnBothSides) {
  const soc::Core core = make_core("c", 1, 0, 0, {}, 12);
  const WrapperDesign design = design_wrapper(core, 4);
  EXPECT_EQ(design.scan_in_length, 3);   // ceil(12/4)
  EXPECT_EQ(design.scan_out_length, 3);
}

TEST(DesignWrapper, WideWrapperScanInIsTheLongestChain) {
  // One long chain and shorter ones that fit under it.
  const soc::Core core = make_core("c", 10, 0, 0, {100, 30, 30, 30});
  const WrapperDesign design = design_wrapper(core, 16);
  EXPECT_EQ(design.scan_in_length, 100);
}

TEST(DesignWrapper, ZeroPatternCore) {
  const soc::Core core = make_core("z", 0, 4, 4, {8});
  const WrapperDesign design = design_wrapper(core, 2);
  EXPECT_EQ(design.test_time, design.scan_in_length < design.scan_out_length
                                  ? design.scan_in_length
                                  : design.scan_out_length);
}

TEST(BestDesign, MonotoneEnvelope) {
  const soc::Core core = soc::d695().cores[5];  // s13207
  std::int64_t previous = -1;
  for (int w = 1; w <= 64; ++w) {
    const std::int64_t t = best_design(core, w).test_time;
    if (previous >= 0) {
      EXPECT_LE(t, previous) << "w=" << w;
    }
    previous = t;
  }
}

TEST(BestDesign, ReachesFloorAtLargeWidth) {
  // The floor needs enough width for one cell per wrapper chain on the
  // I/O-heaviest core (c7552 has 207 inputs), so test beyond that.
  for (const auto& core : soc::d695().cores) {
    EXPECT_EQ(best_design(core, 300).test_time, soc::min_test_time_bound(core))
        << core.name;
  }
}

TEST(ParetoWidths, StrictlyDecreasingTimes) {
  const soc::Core core = soc::d695().cores[9];  // s38417
  const std::vector<int> widths = pareto_widths(core, 64);
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), 1);
  std::int64_t previous = -1;
  for (const int w : widths) {
    const std::int64_t t = test_time(core, w);
    if (previous >= 0) {
      EXPECT_LT(t, previous);
    }
    previous = t;
  }
}

TEST(ParetoWidths, FlatCoreHasSingleEntryAfterSaturation) {
  // s838 saturates immediately at width 2 (chain 32 + 34 inputs).
  const soc::Core s838 = soc::d695().cores[2];
  const std::vector<int> widths = pareto_widths(s838, 64);
  EXPECT_LE(widths.size(), 4u);
  EXPECT_LE(widths.back(), 4);
}

TEST(DesignWrapper, BfdCapacityRelaxation) {
  // {5,4,3,3,3} into 3 wrapper chains: the scheduling lower bound is
  // max(5, ceil(18/3)) = 6, but no 3-bin packing with capacity 6 exists
  // for BFD here — the loop must relax to 7 and still use 3 chains.
  const soc::Core core = make_core("relax", 10, 0, 0, {5, 4, 3, 3, 3});
  const WrapperDesign design = design_wrapper(core, 3);
  EXPECT_EQ(design.scan_in_length, 7);
  int non_empty = 0;
  for (const auto& chain : design.chains)
    if (chain.scan_in_length() + chain.scan_out_length() > 0) ++non_empty;
  EXPECT_EQ(non_empty, 3);
}

TEST(DesignWrapperNaive, NeverBeatsBalancedDesign) {
  for (const auto& core : soc::d695().cores) {
    for (const int w : {2, 4, 8, 16}) {
      EXPECT_GE(design_wrapper_naive(core, w).test_time,
                design_wrapper(core, w).test_time)
          << core.name << " w=" << w;
    }
  }
}

TEST(DesignWrapperNaive, RoundRobinShape) {
  const soc::Core core = make_core("rr", 5, 4, 4, {10, 20, 30});
  const WrapperDesign design = design_wrapper_naive(core, 2);
  // Chains 0,2 -> wire 0 (10+30), chain 1 -> wire 1 (20).
  EXPECT_EQ(design.chains[0].scan_bits, 40);
  EXPECT_EQ(design.chains[1].scan_bits, 20);
  // Cells split evenly: 2 inputs + 2 outputs per wire.
  EXPECT_EQ(design.chains[0].input_cells, 2);
  EXPECT_EQ(design.chains[1].input_cells, 2);
  EXPECT_EQ(design.scan_in_length, 42);
  EXPECT_EQ(design.test_time,
            test_time_formula(5, 42, 42));
}

TEST(DesignWrapperNaive, PenaltyOnImbalancedChains) {
  // One long chain + shorts: round-robin stacks them badly at width 2.
  const soc::Core core = make_core("imb", 10, 0, 0, {100, 10, 90, 10});
  const auto balanced = design_wrapper(core, 2);
  const auto naive = design_wrapper_naive(core, 2);
  EXPECT_EQ(balanced.scan_in_length, 110);  // {100,10} | {90,10}
  EXPECT_EQ(naive.scan_in_length, 190);     // {100,90} | {10,10}
  EXPECT_GT(naive.test_time, balanced.test_time);
}

TEST(DesignWrapperNaive, RejectsNonPositiveWidth) {
  const soc::Core core = make_core("x", 1, 1, 1, {});
  EXPECT_THROW((void)design_wrapper_naive(core, 0), std::invalid_argument);
}

// ---- differential test against the one-step Design_wrapper ---------------

/// Design_wrapper as it was before its closed forms: BFD relaxing the
/// capacity by one until `width` bins suffice, and water-filling one cell
/// at a time from a heap. The closed forms must reproduce it exactly.
namespace reference {

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

WrapperDesign design_wrapper(const soc::Core& core, int width) {
  WrapperDesign design;
  design.tam_width = width;
  design.chains.resize(static_cast<std::size_t>(width));

  const auto& lengths = core.scan_chains;
  if (!lengths.empty()) {
    std::vector<int> order(lengths.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&lengths](int a, int b) {
      return lengths[static_cast<std::size_t>(a)] >
             lengths[static_cast<std::size_t>(b)];
    });
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

  for (const auto& chain : design.chains) {
    design.scan_in_length =
        std::max(design.scan_in_length, chain.scan_in_length());
    design.scan_out_length =
        std::max(design.scan_out_length, chain.scan_out_length());
  }
  design.test_time = test_time_formula(
      core.test_patterns, design.scan_in_length, design.scan_out_length);
  return design;
}

}  // namespace reference

/// Empty when the two designs agree in every field, else the first field
/// that differs.
std::string first_difference(const WrapperDesign& got,
                             const WrapperDesign& want) {
  if (got.tam_width != want.tam_width) return "tam_width";
  if (got.scan_in_length != want.scan_in_length) return "si";
  if (got.scan_out_length != want.scan_out_length) return "so";
  if (got.test_time != want.test_time) return "T";
  if (got.chains.size() != want.chains.size()) return "chain count";
  for (std::size_t c = 0; c < got.chains.size(); ++c) {
    const WrapperChain& a = got.chains[c];
    const WrapperChain& b = want.chains[c];
    const std::string at = "chain " + std::to_string(c) + ": ";
    if (a.internal_chain_indices != b.internal_chain_indices)
      return at + "internal chains";
    if (a.scan_bits != b.scan_bits) return at + "scan bits";
    if (a.bidir_cells != b.bidir_cells) return at + "bidir cells";
    if (a.input_cells != b.input_cells) return at + "input cells";
    if (a.output_cells != b.output_cells) return at + "output cells";
  }
  return "";
}

/// Compares design_wrapper, WrapperTimer and the TestTimeTable row of
/// every core of `soc` with the reference at widths 1..max_width.
void expect_matches_reference(const soc::Soc& soc, int max_width) {
  const core::TestTimeTable table(soc, max_width);
  for (std::size_t i = 0; i < soc.cores.size(); ++i) {
    const soc::Core& core = soc.cores[i];
    WrapperTimer timer(core);
    // The envelope as TestTimeTable has always built it, from the
    // reference's raw times.
    const std::int64_t floor_time = soc::min_test_time_bound(core);
    std::int64_t best = -1;
    const std::span<const std::int64_t> row =
        table.row(static_cast<int>(i));
    for (int w = 1; w <= max_width; ++w) {
      const WrapperDesign want = reference::design_wrapper(core, w);
      ASSERT_EQ(first_difference(design_wrapper(core, w), want), "")
          << soc.name << " core " << i << " w=" << w;
      ASSERT_EQ(timer.test_time(w), want.test_time)
          << soc.name << " core " << i << " w=" << w;
      if (best < 0 || (best > floor_time && want.test_time < best))
        best = want.test_time;
      ASSERT_EQ(row[static_cast<std::size_t>(w - 1)], best)
          << soc.name << " core " << i << " w=" << w;
    }
  }
}

TEST(DesignWrapperDifferential, BuiltInSocsMatchTheReference) {
  for (const soc::Soc& soc :
       {soc::d695(), soc::p21241(), soc::p31108(), soc::p93791()})
    expect_matches_reference(soc, 256);
}

TEST(DesignWrapperDifferential, GeneratedSocsMatchTheReference) {
  for (soc::SyntheticSpec spec :
       {soc::p21241_spec(), soc::p31108_spec(), soc::p93791_spec()}) {
    spec.seed = 11;
    spec.name += "-seed11";
    expect_matches_reference(soc::generate_soc(spec), 256);
  }
}

TEST(DesignWrapperDifferential, SeededCoresWithTiesMatchTheReference) {
  // Short chains from a narrow range make BFD's fit tests and the fills'
  // levels tie often; bidir cells exercise the first fill, which no
  // built-in or generated core has.
  common::Rng rng(29);
  soc::Soc soc;
  soc.name = "seeded";
  for (int c = 0; c < 200; ++c) {
    soc::Core core;
    core.name = "core" + std::to_string(c);
    core.test_patterns = rng.uniform_int(1, 50);
    core.num_inputs = static_cast<int>(rng.uniform_int(0, 60));
    core.num_outputs = static_cast<int>(rng.uniform_int(0, 60));
    core.num_bidirs = static_cast<int>(rng.uniform_int(0, 12));
    const int chains = static_cast<int>(rng.uniform_int(0, 16));
    for (int k = 0; k < chains; ++k)
      core.scan_chains.push_back(static_cast<int>(rng.uniform_int(1, 9)));
    if (core.functional_ios() == 0 && core.scan_chains.empty())
      core.num_inputs = 1;
    soc.cores.push_back(std::move(core));
  }
  expect_matches_reference(soc, 40);
}

/// Property sweep over random cores: structural invariants at many widths.
class WrapperRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(WrapperRandomTest, InvariantsHoldAcrossWidths) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  soc::Core core;
  core.name = "random";
  core.test_patterns = rng.uniform_int(1, 500);
  core.num_inputs = static_cast<int>(rng.uniform_int(0, 120));
  core.num_outputs = static_cast<int>(rng.uniform_int(0, 120));
  core.num_bidirs = static_cast<int>(rng.uniform_int(0, 10));
  const int chains = static_cast<int>(rng.uniform_int(0, 12));
  for (int c = 0; c < chains; ++c)
    core.scan_chains.push_back(static_cast<int>(rng.uniform_int(1, 200)));
  if (core.functional_ios() == 0 && core.scan_chains.empty())
    core.num_inputs = 1;

  const std::int64_t total_bits = core.total_scan_bits();
  const int longest = core.longest_scan_chain();
  for (int w = 1; w <= 24; ++w) {
    const WrapperDesign design = design_wrapper(core, w);
    // si/so dominate the longest indivisible chain...
    EXPECT_GE(design.scan_in_length, longest);
    EXPECT_GE(design.scan_out_length, longest);
    // ...and the perfect-balance lower bounds.
    EXPECT_GE(design.scan_in_length,
              common::ceil_div(total_bits + core.num_inputs + core.num_bidirs, w));
    EXPECT_GE(design.scan_out_length,
              common::ceil_div(total_bits + core.num_outputs + core.num_bidirs, w));
    EXPECT_EQ(design.test_time,
              test_time_formula(core.test_patterns, design.scan_in_length,
                                design.scan_out_length));
    EXPECT_EQ(static_cast<int>(design.chains.size()), w);
  }
  // The envelope respects the absolute floor.
  EXPECT_GE(best_design(core, 24).test_time,
            std::min(soc::min_test_time_bound(core),
                     best_design(core, 24).test_time));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrapperRandomTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace wtam::wrapper
