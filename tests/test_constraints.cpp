// core::ScheduleConstraints: the model (normalization, canonical form,
// validation), the end-to-end constrained golden run on d695, the honest
// unsupported_constraint contract of the enumerative backend, and the
// whole answer of its power path.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/job_io.hpp"
#include "api/solver.hpp"
#include "core/backend.hpp"
#include "core/constraints.hpp"
#include "core/power.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rectpack.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::core {
namespace {

ScheduleConstraints sample() {
  ScheduleConstraints constraints;
  constraints.power = {10, 20, 30};
  constraints.power_budget = 40;
  constraints.precedence = {{1, 2}, {0, 2}, {1, 2}};
  constraints.fixed = {{2, {0, 8}}};
  constraints.forbidden = {{1, {12, 16}}, {1, {4, 8}}};
  constraints.earliest = {{0, 100}};
  return constraints;
}

TEST(ScheduleConstraints, EmptyDetection) {
  EXPECT_TRUE(ScheduleConstraints{}.empty());
  EXPECT_FALSE(sample().empty());
  ScheduleConstraints only_precedence;
  only_precedence.precedence = {{0, 1}};
  EXPECT_FALSE(only_precedence.empty());
}

TEST(ScheduleConstraints, NormalizationSortsAndDedupes) {
  const ScheduleConstraints normal = normalized(sample());
  ASSERT_EQ(normal.precedence.size(), 2u);  // the duplicate collapsed
  EXPECT_EQ(normal.precedence[0], (PrecedencePair{0, 2}));
  EXPECT_EQ(normal.precedence[1], (PrecedencePair{1, 2}));
  ASSERT_EQ(normal.forbidden.size(), 2u);
  EXPECT_EQ(normal.forbidden[0].wires.lo, 4);  // sorted by (core, lo)
  EXPECT_EQ(normal.forbidden[1].wires.lo, 12);
}

TEST(ScheduleConstraints, CanonicalFormIsPinned) {
  // The canonical string feeds RequestKey hashes — a persistence format.
  EXPECT_EQ(canonical_constraints(ScheduleConstraints{}), "");
  EXPECT_EQ(canonical_constraints(sample()),
            "power=10:20:30;budget=40;prec=0>2,1>2;fixed=2@0-8;"
            "forbid=1@4-8,1@12-16;earliest=0@100");
  // Phrasing order does not matter: permuted inputs render identically.
  ScheduleConstraints permuted = sample();
  std::reverse(permuted.precedence.begin(), permuted.precedence.end());
  std::reverse(permuted.forbidden.begin(), permuted.forbidden.end());
  EXPECT_EQ(canonical_constraints(permuted), canonical_constraints(sample()));
}

TEST(ScheduleConstraints, ValidationAcceptsTheSample) {
  EXPECT_TRUE(validate_constraints(sample(), 3, 16).empty());
  // Structural-only validation (no model yet) also passes.
  EXPECT_TRUE(validate_constraints(sample(), -1, -1).empty());
}

TEST(ScheduleConstraints, ValidationCatchesEveryClass) {
  const auto issues_contain = [](const std::vector<std::string>& issues,
                                 const std::string& needle) {
    return std::any_of(issues.begin(), issues.end(),
                       [&](const std::string& issue) {
                         return issue.find(needle) != std::string::npos;
                       });
  };

  ScheduleConstraints bad = sample();
  bad.power_budget = 0;
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16),
                             "without a positive power_budget"));

  bad = sample();
  bad.power = {10, 20};  // wrong length
  EXPECT_TRUE(
      issues_contain(validate_constraints(bad, 3, 16), "entries for 3 cores"));

  bad = sample();
  bad.power[1] = 99;  // exceeds the budget alone
  EXPECT_TRUE(
      issues_contain(validate_constraints(bad, 3, 16), "exceeds the budget"));

  bad = sample();
  bad.precedence.push_back({2, 2});
  EXPECT_TRUE(
      issues_contain(validate_constraints(bad, 3, 16), "self-dependency"));

  bad = sample();
  bad.precedence.push_back({2, 0});  // 0>2 exists, 2>0 closes a cycle
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16), "cycle"));

  bad = sample();
  bad.precedence.push_back({0, 7});
  EXPECT_TRUE(
      issues_contain(validate_constraints(bad, 3, 16), "unknown core"));

  bad = sample();
  bad.fixed.push_back({0, {8, 4}});  // lo >= hi
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16),
                             "0 <= lo < hi <= total width"));

  bad = sample();
  bad.fixed.push_back({2, {0, 4}});  // second fixed interval for core 2
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16),
                             "more than one fixed interval"));

  bad = sample();
  bad.forbidden.push_back({2, {0, 16}});  // covers core 2's fixed window
  EXPECT_TRUE(
      issues_contain(validate_constraints(bad, 3, 16), "no allowed wires"));

  bad = sample();
  bad.earliest.push_back({1, -5});
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16), "negative"));

  bad = sample();
  bad.earliest.push_back({0, 200});
  EXPECT_TRUE(issues_contain(validate_constraints(bad, 3, 16),
                             "more than one earliest_start"));
}

// ---- the ISSUE-5 acceptance golden: constrained d695 ------------------------

TEST(ConstrainedGolden, D695PowerBudgetRunIsValidAndSlower) {
  // Scan-activity powers with a budget that genuinely binds (exactly the
  // largest single core's draw, so the scan-heavy cores fully serialize):
  // the packer must produce a validator-clean schedule whose
  // instantaneous power never exceeds the budget, and it cannot beat the
  // unconstrained golden pin (22270 at W=32,
  // tests/test_golden_backends.cpp).
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  ScheduleConstraints constraints;
  constraints.power = scan_activity_power(soc_data);
  std::int64_t largest = 0;
  for (const std::int64_t p : constraints.power)
    largest = std::max(largest, p);
  constraints.power_budget = largest;

  pack::RectPackOptions options;
  options.constraints = constraints;
  const auto result = pack::rectpack_schedule(table, 32, options);

  const auto issues =
      pack::validate_packed_schedule(table, result.schedule, constraints);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
  EXPECT_LE(pack::packed_peak_power(result.schedule, constraints.power),
            constraints.power_budget);
  EXPECT_GE(result.makespan, 22270);
}

TEST(ConstrainedGolden, EnumerativeHonorsThePowerBudget) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  ScheduleConstraints constraints;
  constraints.power = scan_activity_power(soc_data);
  std::int64_t largest = 0;
  for (const std::int64_t p : constraints.power)
    largest = std::max(largest, p);
  constraints.power_budget = largest + largest / 2;

  BackendOptions options;
  options.constraints = constraints;
  const BackendOutcome outcome =
      BackendRegistry::instance().at("enumerative").optimize(table, 32,
                                                             options);
  const auto issues =
      pack::validate_packed_schedule(table, outcome.schedule, constraints);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
  EXPECT_LE(pack::packed_peak_power(outcome.schedule, constraints.power),
            constraints.power_budget);
  // The power-blind pin, delayed: never faster than the unconstrained run.
  EXPECT_GE(outcome.testing_time, 21566);
}

TEST(ConstrainedGolden, EnumerativeRejectsUnsupportedClassesHonestly) {
  BackendOptions options;
  options.constraints.precedence = {{0, 1}};
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 16);
  EXPECT_THROW((void)BackendRegistry::instance().at("enumerative").optimize(
                   table, 16, options),
               UnsupportedConstraintError);

  // Through the Solver the refusal is an invalid_request whose error
  // names the contract, never a silently unconstrained answer.
  api::SolveRequest request;
  request.soc = "d695";
  request.width = 16;
  request.backend = "enumerative";
  request.options.constraints.precedence = {{0, 1}};
  const api::SolveResult result = api::Solver().solve(request);
  EXPECT_EQ(result.status, api::Status::InvalidRequest);
  EXPECT_NE(result.error.find("unsupported_constraint"), std::string::npos);
  EXPECT_NE(result.error.find("precedence"), std::string::npos);
}

// ---- the power path, pinned whole -------------------------------------------
//
// Under a power budget the enumerative backend delays the TAM lanes of the
// architecture its power-blind search chose (core/power.hpp). Its answer
// line (with the "peak power" and "power idle cycles" details) and every
// placement are pinned on d695 and p93791, and so is the raw scheduler on
// the same architectures around the largest single draw and at the summed
// draws.

enum class Budget {
  LargestMinusOne,
  Largest,
  LargestAndAHalf,
  HalfTotal,
  Total,
};

std::int64_t budget_of(const PowerVector& power, Budget budget) {
  std::int64_t largest = 0;
  std::int64_t total = 0;
  for (const std::int64_t p : power) {
    largest = std::max(largest, p);
    total += p;
  }
  switch (budget) {
    case Budget::LargestMinusOne: return largest - 1;
    case Budget::Largest: return largest;
    case Budget::LargestAndAHalf: return largest + largest / 2;
    case Budget::HalfTotal: return total / 2;
    case Budget::Total: return total;
  }
  return 0;
}

/// The enumerative answer to `soc_name` at `width` under scan-activity
/// powers and `budget`.
api::SolveResult enumerative_under_budget(const std::string& soc_name,
                                          int width, Budget budget) {
  api::SolveRequest request;
  request.soc = soc_name;
  request.width = width;
  request.backend = "enumerative";
  request.id = soc_name + "/W" + std::to_string(width);
  request.options.constraints.power =
      scan_activity_power(api::resolve_soc(request));
  request.options.constraints.power_budget =
      budget_of(request.options.constraints.power, budget);
  return api::Solver().solve(request);
}

std::string placement_row(const pack::PackedSchedule& schedule) {
  std::string row;
  for (const pack::PackedPlacement& p : schedule.placements)
    row += std::to_string(p.core) + ',' + std::to_string(p.width) + ',' +
           std::to_string(p.wire) + ',' + std::to_string(p.start) + ',' +
           std::to_string(p.end) + ';';
  return row;
}

struct PowerAnswerPin {
  const char* soc;
  int width;
  Budget budget;
  const char* line;        ///< api::result_line bytes
  const char* placements;  ///< core,width,wire,start,end; per placement
};

constexpr PowerAnswerPin kPowerAnswerPins[] = {
    {"d695", 32, Budget::Largest,
     "{\"id\": \"d695/W32\", \"status\": \"ok\", \"soc\": \"d695\", "
     "\"core_count\": 10, \"backend\": \"enumerative\", \"width\": 32, "
     "\"widths_tried\": 1, \"testing_time\": 70204, \"lower_bound\": 20619, "
     "\"gap\": 2.40482079635, \"tam_count\": 5, \"schedule_valid\": true, "
     "\"details\": {\"partition\": \"4+4+6+9+9\", "
     "\"assignment\": \"(1,1,2,2,4,5,1,2,2,3)\", "
     "\"heuristic time\": \"21566\", \"power budget\": \"2083\", "
     "\"peak power\": \"2083\", \"power idle cycles\": \"151210\"}}",
     "0,4,0,0,116;2,4,4,0,2507;9,6,8,0,21182;3,4,4,2507,9289;7,4,4,9289,14969;"
     "1,4,0,21182,25078;4,9,14,21182,42701;6,4,0,42701,59194;"
     "5,9,23,42701,63607;8,4,4,63607,70204;"},
    {"d695", 32, Budget::LargestAndAHalf,
     "{\"id\": \"d695/W32\", \"status\": \"ok\", \"soc\": \"d695\", "
     "\"core_count\": 10, \"backend\": \"enumerative\", \"width\": 32, "
     "\"widths_tried\": 1, \"testing_time\": 49298, \"lower_bound\": 20619, "
     "\"gap\": 1.39090159562, \"tam_count\": 5, \"schedule_valid\": true, "
     "\"details\": {\"partition\": \"4+4+6+9+9\", "
     "\"assignment\": \"(1,1,2,2,4,5,1,2,2,3)\", "
     "\"heuristic time\": \"21566\", \"power budget\": \"3124\", "
     "\"peak power\": \"3004\", \"power idle cycles\": \"50886\"}}",
     "0,4,0,0,116;2,4,4,0,2507;9,6,8,0,21182;5,9,23,0,20906;1,4,0,116,4012;"
     "3,4,4,4012,10794;7,4,4,10794,16474;6,4,0,20906,37399;8,4,4,21182,27779;"
     "4,9,14,27779,49298;"},
    {"d695", 32, Budget::HalfTotal,
     "{\"id\": \"d695/W32\", \"status\": \"ok\", \"soc\": \"d695\", "
     "\"core_count\": 10, \"backend\": \"enumerative\", \"width\": 32, "
     "\"widths_tried\": 1, \"testing_time\": 42088, \"lower_bound\": 20619, "
     "\"gap\": 1.04122411368, \"tam_count\": 5, \"schedule_valid\": true, "
     "\"details\": {\"partition\": \"4+4+6+9+9\", "
     "\"assignment\": \"(1,1,2,2,4,5,1,2,2,3)\", "
     "\"heuristic time\": \"21566\", \"power budget\": \"4115\", "
     "\"peak power\": \"3920\", \"power idle cycles\": \"44902\"}}",
     "0,4,0,0,116;2,4,4,0,2507;9,6,8,0,21182;4,9,14,0,21519;1,4,0,116,4012;"
     "3,4,4,4012,10794;7,4,4,10794,16474;6,4,0,21182,37675;5,9,23,21182,42088;"
     "8,4,4,21519,28116;"},
    {"p93791", 48, Budget::HalfTotal,
     "{\"id\": \"p93791/W48\", \"status\": \"ok\", \"soc\": \"p93791\", "
     "\"core_count\": 32, \"backend\": \"enumerative\", \"width\": 48, "
     "\"widths_tried\": 1, \"testing_time\": 811421, \"lower_bound\": 529316, "
     "\"gap\": 0.532961406797, \"tam_count\": 7, \"schedule_valid\": true, "
     "\"details\": {\"partition\": \"4+4+5+5+6+6+18\", "
     "\"assignment\": "
     "\"(2,4,5,5,7,6,7,4,1,1,4,2,3,1,4,3,2,7,6,2,3,7,4,1,6,5,1,2,1,6,5,6)\", "
     "\"heuristic time\": \"538121\", \"power budget\": \"50734\", "
     "\"peak power\": \"50469\", \"power idle cycles\": \"278324\"}}",
     "8,4,0,0,32885;0,4,4,0,171;12,5,8,0,4974;1,5,13,0,138861;2,6,18,0,6275;"
     "5,6,24,0,171;4,18,30,0,508622;11,4,4,171,482844;18,6,24,171,449848;"
     "15,5,8,4974,462771;3,6,18,6275,7174;25,6,18,7174,532145;"
     "9,4,0,32885,458071;7,5,13,138861,147228;10,5,13,147228,167173;"
     "14,5,13,167173,171524;22,5,13,449848,811421;24,6,24,449848,450465;"
     "29,6,24,450465,482848;13,4,0,458071,522500;20,5,8,462771,533148;"
     "16,4,4,482844,520979;31,6,24,482848,533144;6,18,30,508622,527343;"
     "19,4,4,520979,522820;23,4,0,522500,525810;27,4,4,522820,532929;"
     "26,4,0,525810,527852;17,18,30,527343,530749;28,4,0,527852,533203;"
     "21,18,30,530749,533166;30,6,18,532145,533214;"},
};
TEST(PowerPath, EnumerativeAnswersArePinned) {
  for (const PowerAnswerPin& pin : kPowerAnswerPins) {
    const api::SolveResult result =
        enumerative_under_budget(pin.soc, pin.width, pin.budget);
    ASSERT_TRUE(result.has_outcome()) << result.error;
    EXPECT_EQ(api::result_line(result), pin.line);
    EXPECT_EQ(placement_row(result.outcome->schedule), pin.placements)
        << result.id;
  }
}

struct SchedulerPin {
  const char* soc;
  int width;
  Budget budget;
  const char* row;  ///< feasible peak idle_cycles makespan
};

constexpr SchedulerPin kSchedulerPins[] = {
    {"d695", 32, Budget::LargestMinusOne, "0 0 0 0"},
    {"d695", 32, Budget::Largest, "1 2083 151210 70204"},
    {"d695", 32, Budget::Total, "1 7234 0 21566"},
    {"p93791", 48, Budget::LargestMinusOne, "0 0 0 0"},
    {"p93791", 48, Budget::Largest, "1 13817 7645291 2505733"},
    {"p93791", 48, Budget::Total, "1 52899 0 533214"},
};

TEST(PowerPath, SchedulerFieldsArePinned) {
  for (const SchedulerPin& pin : kSchedulerPins) {
    // The architecture the enumerative backend delays: its power-blind
    // choice, the same under every budget.
    const api::SolveResult answer =
        enumerative_under_budget(pin.soc, pin.width, Budget::Total);
    ASSERT_TRUE(answer.has_outcome()) << answer.error;
    ASSERT_TRUE(answer.outcome->architecture.has_value());
    api::SolveRequest request;
    request.soc = pin.soc;
    const soc::Soc soc_data = api::resolve_soc(request);
    const TestTimeTable table(soc_data, pin.width);
    const PowerVector power = scan_activity_power(soc_data);
    const PowerConstrainedResult result =
        schedule_with_power_limit(table, *answer.outcome->architecture, power,
                                  budget_of(power, pin.budget));
    EXPECT_EQ(std::to_string(static_cast<int>(result.feasible)) + ' ' +
                  std::to_string(result.peak) + ' ' +
                  std::to_string(result.idle_cycles) + ' ' +
                  std::to_string(result.schedule.makespan),
              pin.row)
        << answer.id << " budget " << budget_of(power, pin.budget);
  }
}

}  // namespace
}  // namespace wtam::core
