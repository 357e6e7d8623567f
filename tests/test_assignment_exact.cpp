#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/assignment_exact.hpp"
#include "core/core_assign.hpp"
#include "core/test_time_table.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"

namespace wtam::core {
namespace {

/// Brute-force optimal makespan for an explicit matrix (n <= ~10).
std::int64_t brute_force(const TestTimeTable& table,
                         const std::vector<int>& widths) {
  const int n = table.core_count();
  const int b = static_cast<int>(widths.size());
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::vector<int> assignment(static_cast<std::size_t>(n), 0);
  std::int64_t combos = 1;
  for (int i = 0; i < n; ++i) combos *= b;
  for (std::int64_t code = 0; code < combos; ++code) {
    std::int64_t rest = code;
    std::vector<std::int64_t> loads(static_cast<std::size_t>(b), 0);
    for (int i = 0; i < n; ++i) {
      const int j = static_cast<int>(rest % b);
      rest /= b;
      loads[static_cast<std::size_t>(j)] +=
          table.time(i, widths[static_cast<std::size_t>(j)]);
    }
    best = std::min(best, *std::max_element(loads.begin(), loads.end()));
  }
  return best;
}

TestTimeTable figure2_matrix() {
  return TestTimeTable({32, 16, 8}, {
                                        {50, 100, 200},
                                        {75, 95, 200},
                                        {90, 100, 150},
                                        {60, 75, 80},
                                        {120, 120, 125},
                                    });
}

TEST(AssignmentExact, Figure2Optimum) {
  const TestTimeTable matrix = figure2_matrix();
  const std::vector<int> widths = {32, 16, 8};
  const std::int64_t expected = brute_force(matrix, widths);
  // The exact step improves Core_assign's 200 cycles (Figure 2(b)).
  EXPECT_EQ(expected, 170);
  for (const auto engine : {ExactEngine::BranchAndBound, ExactEngine::Ilp}) {
    ExactOptions options;
    options.engine = engine;
    const ExactResult result = solve_assignment_exact(matrix, widths, options);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.architecture.testing_time, expected);
  }
}

TEST(AssignmentExact, NeverWorseThanHeuristic) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 32);
  for (const auto& widths :
       {std::vector<int>{8, 8}, {6, 10}, {4, 12, 16}, {8, 8, 8, 8}}) {
    const auto heuristic = core_assign(table, widths);
    const auto exact = solve_assignment_exact(table, widths);
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_LE(exact.architecture.testing_time,
              heuristic.architecture.testing_time);
  }
}

TEST(AssignmentExact, TamTimesConsistent) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  const std::vector<int> widths = {6, 10};
  const auto result = solve_assignment_exact(table, widths);
  std::vector<std::int64_t> recomputed(widths.size(), 0);
  for (int i = 0; i < table.core_count(); ++i) {
    const int j = result.architecture.assignment[static_cast<std::size_t>(i)];
    recomputed[static_cast<std::size_t>(j)] +=
        table.time(i, widths[static_cast<std::size_t>(j)]);
  }
  EXPECT_EQ(recomputed, result.architecture.tam_times);
  EXPECT_EQ(result.architecture.testing_time,
            *std::max_element(recomputed.begin(), recomputed.end()));
}

TEST(AssignmentExact, NodeLimitReportsNotProven) {
  // Instance where the heuristic is provably suboptimal (LPT's classic
  // {3,3,2,2,2}-on-2-machines miss: heuristic 7, optimum 6), so the search
  // must recurse — and a 2-node limit cuts it off before it can prove
  // anything.
  const TestTimeTable matrix({8, 9}, {{3, 3},
                                      {3, 3},
                                      {2, 2},
                                      {2, 2},
                                      {2, 2}});
  ExactOptions options;
  options.max_nodes = 2;
  const auto result =
      solve_assignment_exact(matrix, std::vector<int>{8, 9}, options);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_GT(result.architecture.testing_time, 0);  // heuristic still returned

  // Sanity: without the limit the optimum of 6 is found and proven.
  const auto full = solve_assignment_exact(matrix, std::vector<int>{8, 9}, {});
  EXPECT_TRUE(full.proven_optimal);
  EXPECT_EQ(full.architecture.testing_time, 6);
}

TEST(AssignmentExact, NodeCountsStayUnderTheirCeilings) {
  // Two p93791 partitions of unequal widths, the exact step of
  // test_paper_tables' W = 16 rows (fixed B = 3, and free B). The
  // test-data-volume bound prunes them to these node counts; the
  // max-load and spread bounds alone search 662,672 and 4,821,983 nodes.
  // A change that weakens a bound fails here instead of running slower.
  struct Ceiling {
    std::vector<int> widths;
    std::int64_t testing_time;
    std::int64_t max_nodes;
  };
  const TestTimeTable table(soc::p93791(), 16);
  for (const auto& [widths, testing_time, max_nodes] :
       {Ceiling{{5, 5, 6}, 1594197, 32'736},
        Ceiling{{3, 3, 4, 6}, 1592380, 120'916}}) {
    const ExactResult result = solve_assignment_exact(table, widths);
    const std::string where = format_partition(widths);
    EXPECT_TRUE(result.proven_optimal) << where;
    EXPECT_EQ(result.architecture.testing_time, testing_time) << where;
    EXPECT_LE(result.nodes, max_nodes) << where;
  }
}

TEST(BuildAssignmentIlp, ModelShape) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  const std::vector<int> widths = {6, 10};
  const ilp::Problem problem = build_assignment_ilp(table, widths);
  const int n = table.core_count();
  // N*B binaries + tau.
  EXPECT_EQ(problem.lp.num_vars, n * 2 + 1);
  EXPECT_FALSE(problem.is_integer[static_cast<std::size_t>(n * 2)]);
  // B makespan rows + N assignment rows (complexity O(N) as in §3.2).
  EXPECT_EQ(problem.lp.rows.size(), static_cast<std::size_t>(2 + n));
}

TEST(BuildAssignmentIlp, RejectsEmptyWidths) {
  const soc::Soc soc = soc::d695();
  const TestTimeTable table(soc, 16);
  EXPECT_THROW((void)build_assignment_ilp(table, std::vector<int>{}),
               std::invalid_argument);
}

/// Both engines prove the brute-force optimum of `table` at `widths`.
void expect_engines_match_brute_force(const TestTimeTable& table,
                                      const std::vector<int>& widths) {
  const std::int64_t expected = brute_force(table, widths);
  for (const auto engine : {ExactEngine::BranchAndBound, ExactEngine::Ilp}) {
    ExactOptions options;
    options.engine = engine;
    const ExactResult result = solve_assignment_exact(table, widths, options);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.architecture.testing_time, expected)
        << "engine=" << static_cast<int>(engine);
  }
}

/// Property sweep: both engines match brute force on random instances.
class ExactRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactRandomTest, EnginesMatchBruteForce) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  const int b = static_cast<int>(rng.uniform_int(2, 3));
  std::vector<int> widths(static_cast<std::size_t>(b));
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(n));
  // Distinct widths 4, 8, 12...
  for (int j = 0; j < b; ++j) widths[static_cast<std::size_t>(j)] = 4 * (j + 1);
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(b));
    // Non-increasing in width to mimic real T(w) tables: fill from the
    // widest TAM backwards, adding a non-negative increment each step.
    std::int64_t t = rng.uniform_int(50, 400);
    for (int j = b - 1; j >= 0; --j) {
      row[static_cast<std::size_t>(j)] = t;
      t += rng.uniform_int(0, 150);
    }
  }
  expect_engines_match_brute_force(TestTimeTable(widths, rows), widths);
}

TEST_P(ExactRandomTest, EnginesMatchBruteForceOnGeneratedSocs) {
  // Real T(w) staircases from a generated SOC of 5-8 cores, read at TAM
  // widths that all differ.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  common::Rng rng(seed * 2654435761u + 7);
  soc::SyntheticSpec spec;
  spec.name = "exact" + std::to_string(seed);
  spec.seed = seed;
  spec.memory_cores = static_cast<int>(rng.uniform_int(0, 2));
  spec.logic_cores =
      static_cast<int>(rng.uniform_int(5, 8)) - spec.memory_cores;
  spec.logic.patterns = {5, 300};
  spec.logic.ios = {4, 120};
  spec.logic.chains = {1, 8};
  spec.logic.chain_len = {5, 120};
  spec.memory.patterns = {100, 2000};
  spec.memory.ios = {4, 40};
  const soc::Soc chip = soc::generate_soc(spec);
  const TestTimeTable table(chip, 14);
  for (const auto& widths : {std::vector<int>{3, 7, 14}, {5, 9}, {2, 4, 6}})
    expect_engines_match_brute_force(table, widths);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactRandomTest, ::testing::Range(1, 26));

}  // namespace
}  // namespace wtam::core
