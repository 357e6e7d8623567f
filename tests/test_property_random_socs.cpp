// Cross-module property tests on randomized synthetic SOCs: for every
// seed, generate a small SOC and check end-to-end invariants that tie
// the wrapper model, the heuristics, the exact solvers, the scheduler
// and the bounds together.

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "core/co_optimizer.hpp"
#include "core/exhaustive.hpp"
#include "core/lower_bounds.hpp"
#include "core/power.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rectpack.hpp"
#include "soc/generator.hpp"
#include "soc/soc_io.hpp"

namespace wtam {
namespace {

soc::Soc random_soc(std::uint64_t seed) {
  common::Rng rng(seed * 6364136223846793005ULL + 1);
  soc::SyntheticSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.seed = seed;
  spec.logic_cores = static_cast<int>(rng.uniform_int(2, 6));
  spec.logic.patterns = {rng.uniform_int(1, 20), rng.uniform_int(50, 400)};
  spec.logic.ios = {rng.uniform_int(2, 20), rng.uniform_int(30, 200)};
  spec.logic.chains = {1, rng.uniform_int(2, 10)};
  spec.logic.chain_len = {rng.uniform_int(1, 10), rng.uniform_int(20, 150)};
  spec.memory_cores = static_cast<int>(rng.uniform_int(0, 4));
  spec.memory.patterns = {rng.uniform_int(50, 200), rng.uniform_int(300, 3000)};
  spec.memory.ios = {rng.uniform_int(2, 10), rng.uniform_int(12, 60)};
  return soc::generate_soc(spec);
}

class RandomSocTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSocTest, ParserRoundTripIsIdentity) {
  const soc::Soc original = random_soc(static_cast<std::uint64_t>(GetParam()));
  const soc::Soc parsed = soc::parse_soc_string(soc::write_soc_string(original));
  ASSERT_EQ(parsed.core_count(), original.core_count());
  for (int i = 0; i < original.core_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(parsed.cores[idx].name, original.cores[idx].name);
    EXPECT_EQ(parsed.cores[idx].test_patterns, original.cores[idx].test_patterns);
    EXPECT_EQ(parsed.cores[idx].num_inputs, original.cores[idx].num_inputs);
    EXPECT_EQ(parsed.cores[idx].num_outputs, original.cores[idx].num_outputs);
    EXPECT_EQ(parsed.cores[idx].scan_chains, original.cores[idx].scan_chains);
  }
}

TEST_P(RandomSocTest, TableIsMonotoneAndPositive) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const core::TestTimeTable table(soc, 20);
  for (int i = 0; i < table.core_count(); ++i) {
    for (int w = 2; w <= 20; ++w) {
      EXPECT_LE(table.time(i, w), table.time(i, w - 1));
      EXPECT_GE(table.time(i, w), soc::min_test_time_bound(
                                      soc.cores[static_cast<std::size_t>(i)]));
    }
  }
}

TEST_P(RandomSocTest, FlowInvariants) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const core::TestTimeTable table(soc, 16);
  core::CoOptimizeOptions options;
  options.search.max_tams = 4;
  const auto result = core::co_optimize(table, 16, options);
  const auto& arch = result.architecture;

  // Final step never loses to the heuristic.
  EXPECT_LE(arch.testing_time, result.heuristic.best.testing_time);
  // Width conserved, everyone assigned.
  EXPECT_EQ(arch.total_width(), 16);
  ASSERT_EQ(static_cast<int>(arch.assignment.size()), soc.core_count());
  std::vector<std::int64_t> loads(arch.widths.size(), 0);
  for (int i = 0; i < soc.core_count(); ++i) {
    const int tam = arch.assignment[static_cast<std::size_t>(i)];
    ASSERT_GE(tam, 0);
    ASSERT_LT(tam, arch.tam_count());
    loads[static_cast<std::size_t>(tam)] +=
        table.time(i, arch.widths[static_cast<std::size_t>(tam)]);
  }
  EXPECT_EQ(loads, arch.tam_times);
}

TEST_P(RandomSocTest, HeuristicSandwichedByExactAndBound) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const core::TestTimeTable table(soc, 12);
  const auto exact = core::exhaustive_pnpaw(table, 12, 3, {});
  ASSERT_TRUE(exact.completed);

  core::CoOptimizeOptions options;
  options.search.max_tams = 3;
  const auto flow = core::co_optimize(table, 12, options);
  const auto bounds = core::testing_time_lower_bounds(table, 12);

  EXPECT_GE(flow.heuristic.best.testing_time, exact.best.testing_time);
  EXPECT_GE(flow.architecture.testing_time, exact.best.testing_time);
  EXPECT_GE(exact.best.testing_time, bounds.combined());
}

TEST_P(RandomSocTest, ScheduleAndPowerInvariants) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const core::TestTimeTable table(soc, 12);
  const auto arch = core::co_optimize(table, 12, {}).architecture;
  const auto schedule = pack::from_architecture(table, arch);
  EXPECT_EQ(schedule.makespan, arch.testing_time);

  const core::PowerVector power = core::scan_activity_power(soc);
  const std::int64_t peak = pack::packed_peak_power(schedule, power);
  const std::int64_t total =
      std::accumulate(power.begin(), power.end(), std::int64_t{0});
  EXPECT_LE(peak, total);

  // A budget at the unconstrained peak changes nothing.
  const auto same = core::schedule_with_power_limit(table, arch, power, peak);
  ASSERT_TRUE(same.feasible);
  EXPECT_EQ(same.schedule.makespan, schedule.makespan);
  EXPECT_EQ(same.idle_cycles, 0);

  // A tighter budget keeps the peak under it and never speeds the test up.
  const std::int64_t largest = *std::max_element(power.begin(), power.end());
  if (largest < peak) {
    const auto tight = core::schedule_with_power_limit(table, arch, power, largest);
    ASSERT_TRUE(tight.feasible);
    EXPECT_LE(tight.peak, largest);
    EXPECT_GE(tight.schedule.makespan, schedule.makespan);
  }
}

TEST_P(RandomSocTest, RectPackScheduleValidAndAboveLowerBound) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const int width = 8 + GetParam() % 9;  // sweep strip widths 8..16
  const core::TestTimeTable table(soc, width);

  pack::RectPackOptions options;
  options.local_search_iterations = 200;  // keep the fuzz sweep fast
  options.seed = static_cast<std::uint64_t>(GetParam());
  const auto result = pack::rectpack_schedule(table, width, options);

  // The strict geometric validator accepts the packing...
  const auto issues = pack::validate_packed_schedule(table, result.schedule);
  EXPECT_TRUE(issues.empty()) << soc.name << " W=" << width << ": "
                              << (issues.empty() ? "" : issues.front());

  // ...and the makespan respects the §3 architecture-independent bound
  // LB = max(max_c T_c(W), ceil(sum_c area_c / W)).
  const auto bounds = core::testing_time_lower_bounds(table, width);
  EXPECT_GE(result.makespan, bounds.combined()) << soc.name << " W=" << width;
}

TEST_P(RandomSocTest, PartitionEvaluateStatsConsistent) {
  const soc::Soc soc = random_soc(static_cast<std::uint64_t>(GetParam()));
  const core::TestTimeTable table(soc, 14);
  core::PartitionEvaluateOptions options;
  options.max_tams = 4;
  const auto result = core::partition_evaluate(table, 14, options);
  for (const auto& stats : result.per_b) {
    EXPECT_EQ(stats.evaluated_to_completion + stats.aborted_by_tau,
              stats.partitions_unique);
    if (stats.tams == result.best_tams) {
      EXPECT_LE(result.best.testing_time, stats.best_time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSocTest, ::testing::Range(1, 26));

}  // namespace
}  // namespace wtam
