#include <gtest/gtest.h>

#include "soc/benchmarks.hpp"
#include "soc/soc.hpp"

namespace wtam::soc {
namespace {

Core make_core(std::string name, std::int64_t patterns, int in, int out,
               std::vector<int> chains) {
  Core core;
  core.name = std::move(name);
  core.test_patterns = patterns;
  core.num_inputs = in;
  core.num_outputs = out;
  core.scan_chains = std::move(chains);
  return core;
}

TEST(Core, TotalsAndAccessors) {
  const Core core = make_core("c", 10, 3, 4, {5, 7, 2});
  EXPECT_EQ(core.total_scan_bits(), 14);
  EXPECT_EQ(core.longest_scan_chain(), 7);
  EXPECT_EQ(core.functional_ios(), 7);
  EXPECT_TRUE(core.is_scan_testable());
}

TEST(Core, CombinationalCore) {
  const Core core = make_core("comb", 12, 32, 32, {});
  EXPECT_EQ(core.total_scan_bits(), 0);
  EXPECT_EQ(core.longest_scan_chain(), 0);
  EXPECT_FALSE(core.is_scan_testable());
}

TEST(Core, ValidateAcceptsGoodCore) {
  EXPECT_NO_THROW(make_core("ok", 5, 1, 1, {3}).validate());
}

TEST(Core, ValidateRejectsEmptyName) {
  Core core = make_core("x", 5, 1, 1, {});
  core.name.clear();
  EXPECT_THROW(core.validate(), std::invalid_argument);
}

TEST(Core, ValidateRejectsNegativePatterns) {
  EXPECT_THROW(make_core("x", -1, 1, 1, {}).validate(), std::invalid_argument);
}

TEST(Core, ValidateRejectsNegativeTerminals) {
  EXPECT_THROW(make_core("x", 1, -1, 1, {}).validate(), std::invalid_argument);
}

TEST(Core, ValidateRejectsNonPositiveChain) {
  EXPECT_THROW(make_core("x", 1, 1, 1, {0}).validate(), std::invalid_argument);
}

TEST(Core, ValidateRejectsMemoryWithScan) {
  Core core = make_core("m", 1, 1, 1, {4});
  core.kind = CoreKind::Memory;
  EXPECT_THROW(core.validate(), std::invalid_argument);
}

TEST(Core, ValidateRejectsUntestableCore) {
  // Patterns but no terminals and no scan: nothing to shift.
  EXPECT_THROW(make_core("x", 3, 0, 0, {}).validate(), std::invalid_argument);
}

TEST(Core, MinTestTimeBoundScanCore) {
  // Longest chain 7 dominates: (1+7)*10 + 7 = 87.
  const Core core = make_core("c", 10, 3, 4, {5, 7, 2});
  EXPECT_EQ(min_test_time_bound(core), 87);
}

TEST(Core, MinTestTimeBoundCombinational) {
  // si/so can shrink to one cell: (1+1)*12 + 1 = 25.
  const Core core = make_core("comb", 12, 32, 32, {});
  EXPECT_EQ(min_test_time_bound(core), 25);
}

TEST(Soc, ValidateRejectsEmpty) {
  Soc soc;
  soc.name = "empty";
  EXPECT_THROW(soc.validate(), std::invalid_argument);
}

TEST(Soc, TestComplexityIsVolumeOverThousand) {
  Soc soc;
  soc.name = "s";
  soc.cores = {make_core("a", 100, 10, 10, {30, 50}),  // 100*(20+80)=10000
               make_core("b", 50, 5, 5, {})};          // 50*10 = 500
  EXPECT_EQ(test_complexity(soc), 10);                 // (10000+500)/1000
}

TEST(Soc, D695HasTenLogicCores) {
  const Soc soc = d695();
  EXPECT_EQ(soc.core_count(), 10);
  for (const auto& core : soc.cores) EXPECT_EQ(core.kind, CoreKind::Logic);
}

TEST(Soc, D695KnownCoreData) {
  const Soc soc = d695();
  const Core& s9234 = soc.cores[3];
  EXPECT_EQ(s9234.name, "s9234");
  EXPECT_EQ(s9234.test_patterns, 105);
  EXPECT_EQ(s9234.total_scan_bits(), 212);
  EXPECT_EQ(s9234.longest_scan_chain(), 54);
  const Core& s35932 = soc.cores[8];
  EXPECT_EQ(s35932.scan_chains.size(), 32u);
  EXPECT_EQ(s35932.total_scan_bits(), 1728);
}

TEST(Soc, D695ComplexityOrderOfMagnitude) {
  // Our volume formula yields ~669 on d695 (name says 695); see README,
  // "What is reconstructed, and why".
  const auto complexity = test_complexity(d695());
  EXPECT_GT(complexity, 600);
  EXPECT_LT(complexity, 800);
}

TEST(Soc, BalancedScanChains) {
  const auto chains = balanced_scan_chains(638, 16);
  ASSERT_EQ(chains.size(), 16u);
  std::int64_t total = 0;
  int lo = chains[0];
  int hi = chains[0];
  for (const int len : chains) {
    total += len;
    lo = std::min(lo, len);
    hi = std::max(hi, len);
  }
  EXPECT_EQ(total, 638);
  EXPECT_LE(hi - lo, 1);
}

TEST(Soc, BalancedScanChainsRejectsBadArgs) {
  EXPECT_THROW((void)balanced_scan_chains(10, 0), std::invalid_argument);
  EXPECT_THROW((void)balanced_scan_chains(3, 4), std::invalid_argument);
}

TEST(Soc, CoreDataRangesSeparatesKinds) {
  Soc soc;
  soc.name = "mix";
  Core logic = make_core("l", 100, 10, 20, {40, 10});
  Core memory = make_core("m", 5000, 30, 30, {});
  memory.kind = CoreKind::Memory;
  soc.cores = {logic, memory};

  const CoreDataRanges logic_ranges = core_data_ranges(soc, CoreKind::Logic);
  EXPECT_EQ(logic_ranges.core_count, 1);
  EXPECT_EQ(logic_ranges.test_patterns, (Range{100, 100}));
  EXPECT_EQ(logic_ranges.functional_ios, (Range{30, 30}));
  EXPECT_EQ(logic_ranges.scan_chain_count, (Range{2, 2}));
  ASSERT_TRUE(logic_ranges.scan_lengths.has_value());
  EXPECT_EQ(*logic_ranges.scan_lengths, (Range{10, 40}));

  const CoreDataRanges mem_ranges = core_data_ranges(soc, CoreKind::Memory);
  EXPECT_EQ(mem_ranges.core_count, 1);
  EXPECT_EQ(mem_ranges.test_patterns, (Range{5000, 5000}));
  EXPECT_FALSE(mem_ranges.scan_lengths.has_value());
}

}  // namespace
}  // namespace wtam::soc
