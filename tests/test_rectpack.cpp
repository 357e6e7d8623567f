#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/lower_bounds.hpp"
#include "core/test_time_table.hpp"
#include "obs/metrics.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rectpack.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"

namespace wtam::pack {
namespace {

TEST(RectPack, ValidAndBoundedOnAllBuiltInSocs) {
  for (const soc::Soc& soc :
       {soc::d695(), soc::p21241(), soc::p31108(), soc::p93791()}) {
    for (const int width : {16, 32}) {
      const core::TestTimeTable table(soc, width);
      const auto result = rectpack_schedule(table, width);
      EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty())
          << soc.name << " W=" << width;
      EXPECT_EQ(result.makespan, result.schedule.makespan);
      EXPECT_GE(result.makespan,
                core::testing_time_lower_bounds(table, width).combined())
          << soc.name << " W=" << width;
      EXPECT_FALSE(result.seed_ordering.empty());
      EXPECT_GT(result.repacks, 0);
    }
  }
}

TEST(RectPack, DeterministicForAFixedSeed) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  const auto a = rectpack_schedule(table, 32);
  const auto b = rectpack_schedule(table, 32);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.schedule.placements.size(), b.schedule.placements.size());
  for (std::size_t i = 0; i < a.schedule.placements.size(); ++i) {
    EXPECT_EQ(a.schedule.placements[i].core, b.schedule.placements[i].core);
    EXPECT_EQ(a.schedule.placements[i].wire, b.schedule.placements[i].wire);
    EXPECT_EQ(a.schedule.placements[i].start, b.schedule.placements[i].start);
  }
}

TEST(RectPack, LargerSearchBudgetNeverHurts) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions small;
  small.local_search_iterations = 100;
  RectPackOptions large;
  large.local_search_iterations = 2000;
  // Walkers use per-seed RNG streams, so a bigger budget only extends
  // trajectories and the walk-phase best is monotone; this deterministic
  // pair of budgets pins that the end-of-walk hole-fill compaction does
  // not break it here.
  EXPECT_GE(rectpack_schedule(table, 32, small).makespan,
            rectpack_schedule(table, 32, large).makespan);
}

TEST(RectPack, GreedyOnlyModeStillValid) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  RectPackOptions options;
  options.local_search_iterations = 0;
  const auto result = rectpack_schedule(table, 24, options);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty());
}

TEST(RectPack, NarrowStripDegeneratesGracefully) {
  // W=1: every rectangle is 1 wide; the packing is a single serial lane.
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 1);
  const auto result = rectpack_schedule(table, 1);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty());
  std::int64_t serial = 0;
  for (int i = 0; i < table.core_count(); ++i) serial += table.time(i, 1);
  EXPECT_EQ(result.makespan, serial);
}

TEST(RectPack, RejectsWidthOutsideTableRange) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 16);
  EXPECT_THROW((void)rectpack_schedule(table, 17), std::invalid_argument);
}

void expect_identical_schedules(const RectPackResult& a,
                                const RectPackResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.seed_ordering, b.seed_ordering);
  EXPECT_EQ(a.repacks, b.repacks);
  ASSERT_EQ(a.schedule.placements.size(), b.schedule.placements.size());
  for (std::size_t i = 0; i < a.schedule.placements.size(); ++i) {
    EXPECT_EQ(a.schedule.placements[i].core, b.schedule.placements[i].core);
    EXPECT_EQ(a.schedule.placements[i].width, b.schedule.placements[i].width);
    EXPECT_EQ(a.schedule.placements[i].wire, b.schedule.placements[i].wire);
    EXPECT_EQ(a.schedule.placements[i].start, b.schedule.placements[i].start);
    EXPECT_EQ(a.schedule.placements[i].end, b.schedule.placements[i].end);
  }
}

TEST(RectPack, ParallelWalkersBitIdenticalToSerial) {
  // The per-seed walkers run on a ThreadPool with a deterministic
  // seed-order merge — the same contract as the parallel partition
  // search: any thread count, byte-identical schedules.
  const soc::Soc soc_data = soc::d695();
  for (const int width : {24, 32}) {
    const core::TestTimeTable table(soc_data, width);
    RectPackOptions serial;
    serial.threads = 1;
    // A reduced budget keeps the sanitizer runs fast; the identity
    // contract is budget-independent (same walkers, same merge).
    serial.local_search_iterations = 400;
    const auto reference = rectpack_schedule(table, width, serial);
    for (const int threads : {2, 4, 0 /* hardware */}) {
      RectPackOptions parallel = serial;
      parallel.threads = threads;
      const auto result = rectpack_schedule(table, width, parallel);
      SCOPED_TRACE("W=" + std::to_string(width) +
                   " threads=" + std::to_string(threads));
      expect_identical_schedules(reference, result);
    }
  }
}

TEST(RectPack, ParallelConstrainedAlsoBitIdentical) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions serial;
  serial.local_search_iterations = 400;
  serial.constraints.power.assign(10, 100);
  serial.constraints.power_budget = 250;
  serial.constraints.precedence = {{0, 5}, {1, 5}};
  RectPackOptions parallel = serial;
  parallel.threads = 4;
  expect_identical_schedules(rectpack_schedule(table, 32, serial),
                             rectpack_schedule(table, 32, parallel));
}

TEST(RectPack, PreCancelledRunBitIdenticalAcrossThreadCounts) {
  // A context cancelled before the run is the one deterministic
  // interrupt case: every walker stops after its first greedy pack, and
  // the parallel merge must mirror the serial loop (stop at the first
  // interrupted walker) so results stay byte-identical.
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  core::SolveContext context;
  context.cancel.request_cancel();
  RectPackOptions serial;
  serial.context = &context;
  RectPackOptions parallel = serial;
  parallel.threads = 4;
  const auto a = rectpack_schedule(table, 24, serial);
  const auto b = rectpack_schedule(table, 24, parallel);
  EXPECT_EQ(a.interrupt, core::SolveInterrupt::Cancelled);
  EXPECT_EQ(b.interrupt, core::SolveInterrupt::Cancelled);
  expect_identical_schedules(a, b);
}

TEST(RectPack, PowerBudgetCapsConcurrency) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions options;
  options.constraints.power.assign(10, 100);
  options.constraints.power_budget = 200;  // at most two cores at once
  const auto result = rectpack_schedule(table, 32, options);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule,
                                       options.constraints)
                  .empty());
  EXPECT_LE(packed_peak_power(result.schedule, options.constraints.power),
            options.constraints.power_budget);
  // Two-at-a-time cannot beat the unconstrained packer.
  const auto unconstrained = rectpack_schedule(table, 32);
  EXPECT_GE(result.makespan, unconstrained.makespan);
}

/// One constraint of every class on d695 at W=24.
core::ScheduleConstraints every_class_constraints() {
  core::ScheduleConstraints constraints;
  constraints.power.assign(10, 50);
  constraints.power_budget = 160;
  constraints.precedence = {{2, 7}, {0, 7}, {7, 9}};
  constraints.fixed = {{4, {0, 12}}};
  constraints.forbidden = {{5, {0, 6}}, {5, {20, 24}}};
  constraints.earliest = {{3, 4000}};
  return constraints;
}

TEST(RectPack, HonorsEveryConstraintClassAtOnce) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  RectPackOptions options;
  options.constraints = every_class_constraints();
  const auto& constraints = options.constraints;
  const auto result = rectpack_schedule(table, 24, options);
  const auto issues =
      validate_packed_schedule(table, result.schedule, constraints);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());

  // Spot-check the classes directly, not only through the validator.
  const PackedPlacement* placements[10] = {};
  for (const auto& p : result.schedule.placements)
    placements[p.core] = &p;
  EXPECT_GE(placements[7]->start, placements[2]->end);
  EXPECT_GE(placements[7]->start, placements[0]->end);
  EXPECT_GE(placements[9]->start, placements[7]->end);
  EXPECT_GE(placements[4]->wire, 0);
  EXPECT_LE(placements[4]->wire + placements[4]->width, 12);
  EXPECT_TRUE(placements[5]->wire >= 6 &&
              placements[5]->wire + placements[5]->width <= 20);
  EXPECT_GE(placements[3]->start, 4000);
}

TEST(RectPack, RejectsInvalidConstraints) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 16);
  RectPackOptions cyclic;
  cyclic.constraints.precedence = {{0, 1}, {1, 0}};
  EXPECT_THROW((void)rectpack_schedule(table, 16, cyclic),
               std::invalid_argument);
  RectPackOptions hot;
  hot.constraints.power.assign(10, 100);
  hot.constraints.power_budget = 50;  // a single core exceeds the budget
  EXPECT_THROW((void)rectpack_schedule(table, 16, hot),
               std::invalid_argument);
}

TEST(RectPack, MoveOutcomeCountersSplitEveryWalkMove) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter& noop = registry.counter("pack.moves_noop");
  obs::Counter& accepted = registry.counter("pack.moves_accepted");
  obs::Counter& rejected = registry.counter("pack.moves_rejected");
  const std::int64_t noop_before = noop.value();
  const std::int64_t accepted_before = accepted.value();
  const std::int64_t rejected_before = rejected.value();
  const auto result = rectpack_schedule(table, 32);  // serial
  const std::int64_t noop_moves = noop.value() - noop_before;
  const std::int64_t accepted_moves = accepted.value() - accepted_before;
  const std::int64_t rejected_moves = rejected.value() - rejected_before;
  // Every repack but the four walkers' first packs and their two
  // compaction packs each is a walk move.
  EXPECT_EQ(noop_moves + accepted_moves + rejected_moves,
            result.repacks - 4 - 8);
  EXPECT_GT(noop_moves, 0);
  EXPECT_GT(accepted_moves, 0);
  EXPECT_GT(rejected_moves, 0);
}

// ---- whole-result pins ------------------------------------------------------
//
// The engine's whole answer for default options, recorded from the
// from-scratch repack engine: makespan, repacks, the winning seed ordering
// and one digest over every placement. A walker that resumed or skipped a
// pack wrongly would move a placement (or the repack count) even where
// the makespan happens to survive.

struct PinCase {
  std::string label;
  soc::Soc soc;
  int width = 0;
  core::ScheduleConstraints constraints;
};

/// A synthetic SOC with a power budget and `edges` precedence pairs.
soc::ConstrainedScenario pin_scenario(std::uint64_t seed, int logic_cores,
                                      double budget_fraction, int edges) {
  soc::ConstrainedScenarioSpec spec;
  spec.soc.name = "csynth" + std::to_string(seed);
  spec.soc.seed = seed;
  spec.soc.logic_cores = logic_cores;
  spec.soc.logic.patterns = {20, 400};
  spec.soc.logic.ios = {10, 150};
  spec.soc.logic.chains = {1, 10};
  spec.soc.logic.chain_len = {20, 160};
  spec.soc.memory_cores = logic_cores / 2;
  spec.soc.memory.patterns = {100, 2000};
  spec.soc.memory.ios = {8, 40};
  spec.seed = seed;
  spec.power_budget_fraction = budget_fraction;
  spec.precedence_edges = edges;
  return soc::generate_constrained_scenario(spec);
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (const soc::Soc& soc :
       {soc::d695(), soc::p21241(), soc::p31108(), soc::p93791()})
    for (const int width : {16, 40, 64})
      cases.push_back(
          {soc.name + "/W" + std::to_string(width), soc, width, {}});
  struct ScenarioPoint {
    std::uint64_t seed;
    int logic_cores;
    double budget_fraction;
    int edges;
    int width;
  };
  for (const ScenarioPoint& point : {ScenarioPoint{7, 9, 0.35, 6, 24},
                                     ScenarioPoint{19, 9, 0.3, 4, 16},
                                     ScenarioPoint{23, 12, 0.45, 8, 32},
                                     ScenarioPoint{41, 16, 0.5, 10, 40},
                                     ScenarioPoint{57, 20, 0.6, 12, 48},
                                     ScenarioPoint{88, 24, 0.7, 16, 64}}) {
    const soc::ConstrainedScenario scenario =
        pin_scenario(point.seed, point.logic_cores, point.budget_fraction,
                     point.edges);
    core::ScheduleConstraints power_only;
    power_only.power = scenario.constraints.power;
    power_only.power_budget = scenario.constraints.power_budget;
    const std::string label =
        scenario.soc.name + "/W" + std::to_string(point.width);
    cases.push_back({label + "/power", scenario.soc, point.width, power_only});
    cases.push_back({label + "/power+precedence", scenario.soc, point.width,
                     scenario.constraints});
  }
  cases.push_back({"d695/W24/every-class", soc::d695(), 24,
                   every_class_constraints()});
  return cases;
}

/// The pinned fields of one result on one line, so a mismatch prints the
/// whole observed row.
std::string pinned_row(const RectPackResult& result) {
  std::string placements;
  for (const PackedPlacement& p : result.schedule.placements)
    placements += std::to_string(p.core) + ',' + std::to_string(p.width) +
                  ',' + std::to_string(p.wire) + ',' +
                  std::to_string(p.start) + ',' + std::to_string(p.end) + ';';
  return std::to_string(result.makespan) + ' ' +
         std::to_string(result.repacks) + ' ' + result.seed_ordering + ' ' +
         common::stable_hash_128(placements).hex();
}

struct Pin {
  const char* label;
  const char* row;  ///< makespan repacks seed_ordering placements-digest
};

constexpr Pin kPins[] = {
    {"d695/W16",
     "42792 2012 time-decreasing dd10406f232efa42643f0734da168065"},
    {"d695/W40",
     "18098 2012 diagonal-decreasing 07f96ebc9837645455557b0e2f433238"},
    {"d695/W64",
     "11050 2012 time-decreasing 173f18930196f9ce38653ff946d4b8c4"},
    {"p21241/W16",
     "382323 2012 area-decreasing 07a595146d07c97f5fd870b6b36d0bc4"},
    {"p21241/W40",
     "159442 2012 diagonal-decreasing 4b37fcb4fa752ef5f3c1bf84e2c03370"},
    {"p21241/W64",
     "149339 2012 area-decreasing 483bb558b8b0da172bd90768987f187d"},
    {"p31108/W16",
     "1088412 2012 area-decreasing 76cef71f8aaccdb033f4f16e220abce5"},
    {"p31108/W40",
     "544579 2012 area-decreasing 9aac4fa5da9c66a5604f1f6166526d68"},
    {"p31108/W64",
     "544579 2012 area-decreasing ca6825b5cbcd7ecb68dd4e05d44ab10e"},
    {"p93791/W16",
     "1661708 2012 time-decreasing 7aa661055ffe2fde64c32540de6b0524"},
    {"p93791/W40",
     "665644 2012 time-decreasing 19857e6bd5fdf42833ef8f9f23b6a386"},
    {"p93791/W64",
     "447343 2012 area-decreasing 7c48c939a452b2a74788e76e86aad165"},
    {"csynth7/W24/power",
     "42906 2012 area-decreasing 0c46d1c29e18031dc4365e7846294587"},
    {"csynth7/W24/power+precedence",
     "77663 2012 area-decreasing ad166e6a12f3c45bfbb6b4089b7b74df"},
    {"csynth19/W16/power",
     "55337 2012 area-decreasing e7b1448dcc2e7c8fbfe23f083694429f"},
    {"csynth19/W16/power+precedence",
     "66552 2012 area-decreasing 459294b47a7977c1c05d776aa164de04"},
    {"csynth23/W32/power",
     "63357 2012 area-decreasing 17d19f3d8355c2845efb235c5e3d0bbe"},
    {"csynth23/W32/power+precedence",
     "63357 2012 area-decreasing 76bbece958a8c24dba618e075976fa0f"},
    {"csynth41/W40/power",
     "58144 2012 area-decreasing 03d5e4ee4e31b1bdb0602877a2d1f6a5"},
    {"csynth41/W40/power+precedence",
     "58144 2012 area-decreasing 0b3ffadf782f195abe405eecec5693a1"},
    {"csynth57/W48/power",
     "55583 2012 area-decreasing 47881e0b6be346721351820adc8d2abf"},
    {"csynth57/W48/power+precedence",
     "57493 2012 area-decreasing 94abab31998c60f8725da960aee1ccef"},
    {"csynth88/W64/power",
     "56315 2012 area-decreasing d3130c5e38ba2da5cde2ffd16039a7ef"},
    {"csynth88/W64/power+precedence",
     "62173 2012 area-decreasing bb8f44c5abe23f817fde039cc7c307fb"},
    {"d695/W24/every-class",
     "29317 2012 area-decreasing e205e36ecc7900a486d92a31b19eb252"},
};

/// Every case's whole result at threads 1 and 4 against its pinned row.
template <std::size_t N>
void expect_pinned(const std::vector<PinCase>& cases, const Pin (&pins)[N]) {
  ASSERT_EQ(cases.size(), N);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PinCase& pin_case = cases[i];
    ASSERT_EQ(pin_case.label, pins[i].label);
    const core::TestTimeTable table(pin_case.soc, pin_case.width);
    for (const int threads : {1, 4}) {
      RectPackOptions options;
      options.threads = threads;
      options.constraints = pin_case.constraints;
      EXPECT_EQ(pinned_row(rectpack_schedule(table, pin_case.width, options)),
                pins[i].row)
          << pin_case.label << " threads=" << threads;
    }
  }
}

TEST(RectPack, WholeResultPinnedAtAnyThreadCount) {
  expect_pinned(pin_cases(), kPins);
}

// ---- wire-constrained pins --------------------------------------------------
//
// The masked spot search (fixed windows and forbidden intervals), which no
// pin above and no benchmark workload reaches beyond a single d695 point:
// two generated SOCs at W 16/32/64, each under wire constraints plus
// precedence, without and with a power budget of a fifth of the total
// draw (tight enough to change the result at every point). Recorded from
// the per-candidate SpotQuery search.

/// Fixed windows on cores 1 and 4 and forbidden intervals on cores 1, 2
/// and 5, scaled to the strip: core 1's window is split in two by its
/// forbidden interval, core 5 may use neither edge of the strip.
core::ScheduleConstraints with_wire_constraints(
    core::ScheduleConstraints constraints, int width) {
  constraints.fixed = {{1, {0, width / 2}}, {4, {width / 4, width}}};
  constraints.forbidden = {{1, {width / 8, width / 8 + 2}},
                           {2, {width / 4, width / 2}},
                           {5, {0, width / 8}},
                           {5, {width - width / 8, width}}};
  return constraints;
}

std::vector<PinCase> wire_pin_cases() {
  std::vector<PinCase> cases;
  for (const soc::ConstrainedScenario& scenario :
       {pin_scenario(23, 12, 0.2, 8), pin_scenario(88, 24, 0.2, 16)})
    for (const int width : {16, 32, 64}) {
      core::ScheduleConstraints precedence;
      precedence.precedence = scenario.constraints.precedence;
      const std::string label =
          scenario.soc.name + "/W" + std::to_string(width);
      cases.push_back({label + "/wires+precedence", scenario.soc, width,
                       with_wire_constraints(precedence, width)});
      cases.push_back({label + "/wires+power+precedence", scenario.soc, width,
                       with_wire_constraints(scenario.constraints, width)});
    }
  return cases;
}

constexpr Pin kWirePins[] = {
    {"csynth23/W16/wires+precedence",
     "85750 2012 area-decreasing 23cef281a2f7e5e7f6ad21a182d5215a"},
    {"csynth23/W16/wires+power+precedence",
     "90206 2012 time-decreasing 08b3d5987f1bb12a8c3cc31a7e4990b6"},
    {"csynth23/W32/wires+precedence",
     "63357 2012 area-decreasing e6b1bba1dc027ad1237efa7a2ac627f2"},
    {"csynth23/W32/wires+power+precedence",
     "78057 2012 diagonal-decreasing b9feddf4b321e739a76dee963b030db2"},
    {"csynth23/W64/wires+precedence",
     "63357 2012 area-decreasing 57d6c587abb61169b36ef9023ed83f47"},
    {"csynth23/W64/wires+power+precedence",
     "78057 2012 area-decreasing bb2d58571a567b0a17eb7fe03ce17428"},
    {"csynth88/W16/wires+precedence",
     "126022 2012 area-decreasing d74aa64428ac6fe6fc4e6fa739927c61"},
    {"csynth88/W16/wires+power+precedence",
     "127003 2012 width-decreasing 9459c4254eae790f68749abd4252b803"},
    {"csynth88/W32/wires+precedence",
     "72477 2012 diagonal-decreasing 2853397ee1ea73a29b4a937d74984b33"},
    {"csynth88/W32/wires+power+precedence",
     "77570 2012 area-decreasing a638f4153f6434cf55fdcad5d5c93b5f"},
    {"csynth88/W64/wires+precedence",
     "62173 2012 area-decreasing a17939b42d6fd06eb83fd21931c569f5"},
    {"csynth88/W64/wires+power+precedence",
     "72052 2012 width-decreasing 4d626d79b12fc6452666c869ee175b45"},
};

TEST(RectPack, WireConstrainedResultPinnedAtAnyThreadCount) {
  expect_pinned(wire_pin_cases(), kWirePins);
}

}  // namespace
}  // namespace wtam::pack
