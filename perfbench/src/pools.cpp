#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"
#include "soc/soc_io.hpp"

namespace perfbench {

namespace {

using namespace wtam;

/// Pool points whose cold solve takes longer than this are left out of
/// the reference, and so of the workload (see write_references).
constexpr double kPointCapSeconds = 0.8;

enum class Family { P21241, P31108, P93791 };

/// A spec drawn with a fresh seed from one Philips family's published
/// ranges (the paper's Tables 4, 8 and 14), under a name of its own.
soc::SyntheticSpec drawn_spec(Family family, common::Rng& rng, int serial) {
  soc::SyntheticSpec spec = family == Family::P21241   ? soc::p21241_spec()
                            : family == Family::P31108 ? soc::p31108_spec()
                                                       : soc::p93791_spec();
  spec.seed = rng();
  spec.name += "-g" + std::to_string(serial);
  return spec;
}

soc::Soc drawn_soc(Family family, common::Rng& rng, int serial) {
  return soc::generate_soc(drawn_spec(family, rng, serial));
}

/// An "ECO revision": `base` with one core's test data changed, so every
/// other core repeats bytes an earlier request already sent.
soc::Soc eco_revision(const soc::Soc& base, common::Rng& rng) {
  soc::Soc revised = base;
  revised.name += "-eco";
  soc::Core& core = revised.cores[static_cast<std::size_t>(
      rng.uniform_int(0, revised.core_count() - 1))];
  core.test_patterns += 1 + core.test_patterns / 8;
  return revised;
}

int draw(common::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// A point on a built-in SOC, sent by name.
Item named(int cls, const std::string& soc, int width, int width_max,
           const std::string& backend) {
  Item item;
  item.cls = cls;
  item.request.soc = soc;
  item.request.width = width;
  item.request.width_max = width_max;
  item.request.backend = backend;
  return item;
}

/// A point on a generated SOC, sent as inline .soc text.
Item inline_point(int cls, const soc::Soc& chip, int width, int width_max,
                  const std::string& backend, int base = -1) {
  Item item = named(cls, "", width, width_max, backend);
  item.request.soc_inline = soc::write_soc_string(chip);
  item.base = base;
  return item;
}

/// sweep: enumerative sweeps over 8 consecutive widths, the paper's own
/// experiment. Each drawn family sits in classes of one fixed window, so
/// the points of a class cost alike and the stratified order keeps the
/// seed-to-seed spread low; every other drawn p21241-/p93791-like point
/// also gets an ECO revision, a quarter of the pool.
Pool sweep_pool() {
  constexpr int kSpan = 8;
  constexpr int kCycles = 12;
  Pool pool;
  pool.workload = "sweep";
  pool.classes = {"builtin",         "p21241-like-w20", "p21241-like-w28",
                  "p31108-like-w20", "p93791-like-w24", "p93791-like-w32",
                  "eco"};
  pool.pattern = {4, 1, 6, 5, 2, 6, 3, 0, 4, 1, 6, 5, 2, 6, 3, 3};
  common::Rng rng(0x7377656570ULL);

  // The built-ins over disjoint windows: no (SOC, width) key repeats
  // within a pass of the pool.
  const std::pair<const char*, int> windows[] = {
      {"d695", 8},    {"d695", 16},   {"d695", 24},   {"d695", 32},
      {"d695", 40},   {"p21241", 20}, {"p21241", 28}, {"p31108", 16},
      {"p31108", 24}, {"p31108", 32}, {"p93791", 24}, {"p93791", 32}};
  for (const auto& [name, lo] : windows)
    pool.items.push_back(named(0, name, lo, lo + kSpan - 1, "enumerative"));

  struct Drawn {
    int cls;
    Family family;
    int lo;
    int count;
  };
  const Drawn drawn[] = {{1, Family::P21241, 20, 2 * kCycles},
                         {2, Family::P21241, 28, 2 * kCycles},
                         {3, Family::P31108, 20, 3 * kCycles},
                         {4, Family::P93791, 24, 2 * kCycles},
                         {5, Family::P93791, 32, 2 * kCycles}};
  std::vector<std::pair<soc::Soc, int>> bases;
  int serial = 0;
  for (const Drawn& group : drawn)
    for (int i = 0; i < group.count; ++i) {
      const soc::Soc chip = drawn_soc(group.family, rng, ++serial);
      if (group.family != Family::P31108 && i % 2 == 0)
        bases.emplace_back(chip, static_cast<int>(pool.items.size()));
      pool.items.push_back(inline_point(group.cls, chip, group.lo,
                                        group.lo + kSpan - 1, "enumerative"));
    }
  for (const auto& [chip, index] : bases) {
    const int lo = pool.items[static_cast<std::size_t>(index)].request.width;
    pool.items.push_back(inline_point(6, eco_revision(chip, rng), lo,
                                      lo + kSpan - 1, "enumerative", index));
  }
  return pool;
}

/// pack: unconstrained rectpack at single widths 16..64. Every SOC is
/// packed at four widths, one from each quarter of the range; where a
/// (SOC, width) point repeats, the rectpack seed differs.
Pool pack_pool() {
  constexpr int kCycles = 128;
  constexpr int kWidths = 4;  // per SOC
  Pool pool;
  pool.workload = "pack";
  pool.classes = {"builtin", "p21241-like", "p31108-like", "p93791-like",
                  "eco"};
  pool.pattern = {0, 3, 1, 4, 0, 3, 2, 1};
  common::Rng rng(0x7061636bULL);
  std::map<std::pair<std::string, int>, std::uint64_t> repeats;
  const auto add = [&](Item item, const std::string& soc_name) {
    item.request.options.rectpack.seed =
        ++repeats[{soc_name, item.request.width}];
    pool.items.push_back(std::move(item));
  };
  const auto quarter_width = [&rng](int quarter) {
    return draw(rng, 16 + 12 * quarter, quarter == 3 ? 64 : 27 + 12 * quarter);
  };

  const char* const builtins[] = {"d695", "p21241", "p31108", "p93791"};
  for (int i = 0; i < 2 * kCycles; ++i) {
    const std::string name = builtins[i % 4];
    add(named(0, name, quarter_width((i / 4) % kWidths), 0, "rectpack"), name);
  }
  struct Drawn {
    int cls;
    Family family;
    int socs;
  };
  const Drawn drawn[] = {{1, Family::P21241, 2 * kCycles / kWidths},
                         {2, Family::P31108, kCycles / kWidths},
                         {3, Family::P93791, 2 * kCycles / kWidths}};
  std::vector<std::pair<soc::Soc, int>> bases;
  int serial = 0;
  for (const Drawn& group : drawn)
    for (int s = 0; s < group.socs; ++s) {
      const soc::Soc chip = drawn_soc(group.family, rng, ++serial);
      if (group.family != Family::P31108 && s % 4 == 0)
        bases.emplace_back(chip, static_cast<int>(pool.items.size()));
      for (int k = 0; k < kWidths; ++k)
        add(inline_point(group.cls, chip, quarter_width(k), 0, "rectpack"),
            chip.name);
    }
  for (const auto& [chip, index] : bases) {
    const soc::Soc revised = eco_revision(chip, rng);
    for (int k = 0; k < kWidths; ++k)
      add(inline_point(4, revised, quarter_width(k), 0, "rectpack", index),
          revised.name);
  }
  return pool;
}

/// pack-power: scenarios from soc::generate_constrained_scenario —
/// rectpack under a power budget, rectpack under power + precedence, and
/// (one slot in six) the enumerative backend under the power budget
/// alone, the one constraint class it supports.
Pool pack_power_pool() {
  constexpr int kCycles = 160;
  Pool pool;
  pool.workload = "pack-power";
  pool.classes = {"rectpack-power", "rectpack-power-precedence",
                  "enumerative-power"};
  pool.pattern = {0, 1, 0, 1, 0, 2};
  common::Rng rng(0x706f776572ULL);
  const Family families[] = {Family::P21241, Family::P31108, Family::P93791};
  int serial = 0;
  const auto add = [&](int cls, const char* backend, int width, int edges) {
    soc::ConstrainedScenarioSpec spec;
    spec.soc = drawn_spec(families[serial % 3], rng, serial + 1);
    ++serial;
    spec.seed = rng();
    spec.power_budget_fraction = 0.3 + 0.4 * rng.uniform01();
    spec.precedence_edges = edges;
    const soc::ConstrainedScenario scenario =
        soc::generate_constrained_scenario(spec);
    Item item = inline_point(cls, scenario.soc, width, 0, backend);
    item.request.options.constraints = scenario.constraints;
    pool.items.push_back(std::move(item));
  };
  for (int i = 0; i < 3 * kCycles; ++i) {
    const int width = draw(rng, 16, 64);
    add(0, "rectpack", width, 0);
  }
  for (int i = 0; i < 2 * kCycles; ++i) {
    const int width = draw(rng, 16, 64);
    const int edges = draw(rng, 2, 10);
    add(1, "rectpack", width, edges);
  }
  for (int i = 0; i < kCycles; ++i) {
    const int width = draw(rng, 16, 32);
    add(2, "enumerative", width, 0);
  }
  return pool;
}

/// serve-hot: the hot set — 32 single-width points, four per class, half
/// the classes naming a built-in SOC and half sending inline .soc text.
Pool serve_pool() {
  constexpr int kPerClass = 4;
  Pool pool;
  pool.workload = "serve-hot";
  pool.classes = {"d695",   "inline-p93791-like", "p21241",
                  "inline-p21241-like", "p93791", "inline-p31108-like",
                  "p31108", "inline-d695-eco"};
  pool.pattern = {0, 1, 2, 3, 4, 5, 6, 7};
  common::Rng rng(0x686f74ULL);
  const soc::Soc d695 = soc::d695();
  int serial = 0;
  for (int cls = 0; cls < static_cast<int>(pool.classes.size()); ++cls) {
    std::set<std::pair<int, bool>> used;  // (width, rectpack): distinct keys
    for (int k = 0; k < kPerClass; ++k) {
      const bool rectpack = k % 2 == 0;
      int width = 0;
      do {
        width = rectpack ? draw(rng, 16, 48) : draw(rng, 12, 24);
      } while (!used.insert({width, rectpack}).second);
      const std::string backend = rectpack ? "rectpack" : "enumerative";
      if (cls % 2 == 0) {
        pool.items.push_back(named(
            cls, pool.classes[static_cast<std::size_t>(cls)], width, 0,
            backend));
        continue;
      }
      const soc::Soc chip =
          cls == 1   ? drawn_soc(Family::P93791, rng, ++serial)
          : cls == 3 ? drawn_soc(Family::P21241, rng, ++serial)
          : cls == 5 ? drawn_soc(Family::P31108, rng, ++serial)
                     : eco_revision(d695, rng);
      pool.items.push_back(inline_point(cls, chip, width, 0, backend));
    }
  }
  return pool;
}

std::string reference_path(const std::string& dir, const Pool& pool) {
  return (std::filesystem::path(dir) / (pool.workload + ".ref")).string();
}

/// A core's test data without its name: what a per-core memo keys on.
std::string fingerprint(const soc::Core& core) {
  std::string print = core.kind == soc::CoreKind::Logic ? "L" : "M";
  for (const std::int64_t value :
       {core.test_patterns, std::int64_t{core.num_inputs},
        std::int64_t{core.num_outputs}, std::int64_t{core.num_bidirs}})
    print += ' ' + std::to_string(value);
  for (const int chain : core.scan_chains) print += ',' + std::to_string(chain);
  return print;
}

}  // namespace

Pool make_pool(const std::string& workload) {
  Pool pool;
  if (workload == "sweep")
    pool = sweep_pool();
  else if (workload == "pack")
    pool = pack_pool();
  else if (workload == "pack-power")
    pool = pack_power_pool();
  else if (workload == "serve-hot")
    pool = serve_pool();
  else
    throw std::invalid_argument("unknown workload '" + workload + "'");
  for (std::size_t i = 0; i < pool.items.size(); ++i)
    pool.items[i].request.id = workload + "-" + std::to_string(i);
  return pool;
}

std::vector<int> run_order(const Pool& pool, std::uint64_t seed) {
  const std::size_t classes = pool.classes.size();
  std::vector<std::vector<int>> members(classes);
  std::vector<std::vector<int>> revisions(pool.items.size());
  std::vector<bool> revision_class(classes, false);
  for (std::size_t i = 0; i < pool.items.size(); ++i) {
    const Item& item = pool.items[i];
    const auto cls = static_cast<std::size_t>(item.cls);
    if (item.base >= 0) {
      revision_class[cls] = true;
      revisions[static_cast<std::size_t>(item.base)].push_back(
          static_cast<int>(i));
    } else {
      members[cls].push_back(static_cast<int>(i));
    }
  }
  common::Rng rng(seed ^ 0x6f72646572ULL);  // "order"
  for (std::vector<int>& list : members)
    for (std::size_t i = list.size(); i > 1; --i)
      std::swap(list[i - 1],
                list[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

  std::vector<std::size_t> next(classes, 0);
  std::deque<int> ready;  // revisions whose base has been emitted
  std::vector<int> order;
  order.reserve(pool.items.size());
  const auto emit = [&](int index) {
    order.push_back(index);
    for (const int revision : revisions[static_cast<std::size_t>(index)])
      ready.push_back(revision);
  };
  while (order.size() < pool.items.size()) {
    const std::size_t before = order.size();
    for (const int slot : pool.pattern) {
      const auto cls = static_cast<std::size_t>(slot);
      if (revision_class[cls]) {
        if (!ready.empty()) {
          emit(ready.front());
          ready.pop_front();
        }
      } else if (next[cls] < members[cls].size()) {
        emit(members[cls][next[cls]++]);
      }
    }
    if (order.size() == before)
      throw std::logic_error("run_order: the pattern cannot place every point of " +
                             pool.workload);
  }
  return order;
}

Answers read_reference(const std::string& dir, const Pool& pool) {
  const std::string path = reference_path(dir, pool);
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot read " + path +
                             " (write it with --write-reference)");
  Answers answers;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in_line(line);
    std::vector<std::string> fields;
    for (std::string field; in_line >> field;) fields.push_back(field);
    try {
      if (fields.size() < 2 || std::stoull(fields[0]) != answers.size())
        throw std::invalid_argument("index out of order");
      if (fields.size() == 2 && fields[1] == "excluded") {
        answers.emplace_back();
      } else if (fields.size() == 4) {
        answers.emplace_back(Expected{std::stoi(fields[1]),
                                      std::stoll(fields[2]),
                                      std::stoll(fields[3])});
      } else {
        throw std::invalid_argument("wrong field count");
      }
    } catch (const std::logic_error&) {
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    }
  }
  if (answers.size() != pool.items.size())
    throw std::runtime_error(path + " lists " + std::to_string(answers.size()) +
                             " points; the " + pool.workload + " pool has " +
                             std::to_string(pool.items.size()));
  return answers;
}

std::vector<Expected> load_reference(const std::string& dir, Pool& pool) {
  const Answers answers = read_reference(dir, pool);
  // Keep the points not excluded, in pool order, renumbering the bases of
  // ECO revisions.
  std::vector<int> renumbered(pool.items.size(), -1);
  std::vector<Item> kept;
  std::vector<Expected> expected;
  for (std::size_t index = 0; index < pool.items.size(); ++index) {
    Item item = pool.items[index];
    if (!answers[index].has_value()) continue;
    if (item.base >= 0) {
      item.base = renumbered[static_cast<std::size_t>(item.base)];
      if (item.base < 0)
        throw std::runtime_error(pool.workload + " point " +
                                 std::to_string(index) +
                                 " revises an excluded point but is not "
                                 "excluded itself");
    }
    renumbered[index] = static_cast<int>(kept.size());
    kept.push_back(std::move(item));
    expected.push_back(*answers[index]);
  }
  if (kept.empty())
    throw std::runtime_error(reference_path(dir, pool) +
                             " excludes every pool point");
  pool.items = std::move(kept);
  return expected;
}

void save_reference(const std::string& dir, const Pool& pool,
                    const Answers& answers) {
  std::filesystem::create_directories(dir);
  const std::string path = reference_path(dir, pool);
  const auto kept = std::count_if(answers.begin(), answers.end(),
                                  [](const auto& a) { return a.has_value(); });
  std::ofstream out(path);
  out << "# wtam perfbench reference answers: " << pool.workload << ", "
      << kept << " of " << pool.items.size()
      << " pool points (the rest are excluded: over the per-request cap)\n"
      << "# index width testing_time lower_bound, or index excluded\n";
  for (std::size_t index = 0; index < answers.size(); ++index) {
    out << index;
    if (const std::optional<Expected>& answer = answers[index])
      out << ' ' << answer->width << ' ' << answer->testing_time << ' '
          << answer->lower_bound << '\n';
    else
      out << " excluded\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

double mean_gap_pct(const std::vector<Expected>& answers) {
  std::vector<double> gaps;
  for (const Expected& answer : answers)
    gaps.push_back(answer.lower_bound <= 0
                       ? 0.0
                       : 100.0 *
                             static_cast<double>(answer.testing_time -
                                                 answer.lower_bound) /
                             static_cast<double>(answer.lower_bound));
  return mean(gaps);
}

std::string check_result(const api::SolveResult& result,
                         const Expected& expected) {
  if (result.status != api::Status::Ok)
    return "status " + std::string(api::to_string(result.status)) + " " +
           result.error;
  if (!result.has_outcome()) return "no outcome";
  if (!result.schedule_valid)
    return "the schedule fails the constraint-aware validator";
  const std::int64_t time = result.outcome->testing_time;
  if (result.lower_bound > time)
    return "testing time " + std::to_string(time) + " below the lower bound " +
           std::to_string(result.lower_bound);
  if (result.width != expected.width || time != expected.testing_time ||
      result.lower_bound != expected.lower_bound)
    return "answer w" + std::to_string(result.width) + " T=" +
           std::to_string(time) + " LB=" + std::to_string(result.lower_bound) +
           " differs from the reference w" + std::to_string(expected.width) +
           " T=" + std::to_string(expected.testing_time) +
           " LB=" + std::to_string(expected.lower_bound);
  return {};
}

double repeated_core_share(const Pool& pool, const std::vector<int>& items) {
  std::map<int, std::vector<std::string>> cores_of;
  std::set<std::string> seen;
  std::size_t cores = 0;
  std::size_t repeated = 0;
  for (const int index : items) {
    auto it = cores_of.find(index);
    if (it == cores_of.end()) {
      const soc::Soc chip =
          api::resolve_soc(pool.items[static_cast<std::size_t>(index)].request);
      std::vector<std::string> prints;
      for (const soc::Core& core : chip.cores)
        prints.push_back(fingerprint(core));
      it = cores_of.emplace(index, std::move(prints)).first;
    }
    for (const std::string& print : it->second) {
      ++cores;
      if (seen.count(print) != 0) ++repeated;
    }
    seen.insert(it->second.begin(), it->second.end());
  }
  return cores == 0 ? 0.0
                    : static_cast<double>(repeated) /
                          static_cast<double>(cores);
}

int write_references(const Options& options) {
  std::vector<std::string> workloads = {"sweep", "pack", "pack-power",
                                        "serve-hot"};
  if (!options.workload.empty()) workloads = {options.workload};
  for (const std::string& workload : workloads) {
    const Pool pool = make_pool(workload);
    // Which points the workload excludes is committed: a regeneration
    // keeps it, so that timing noise cannot change a workload's point set.
    // Only a new workload (or one whose reference was deleted because its
    // pool changed) has it decided from this run's solve times.
    const bool decide = !std::filesystem::exists(
        reference_path(options.reference_dir, pool));
    std::vector<bool> excluded(pool.items.size(), false);
    if (!decide) {
      const Answers committed = read_reference(options.reference_dir, pool);
      for (std::size_t i = 0; i < committed.size(); ++i)
        excluded[i] = !committed[i].has_value();
    }
    std::vector<std::size_t> solved;
    std::vector<api::SolveRequest> requests;
    for (std::size_t i = 0; i < pool.items.size(); ++i)
      if (!excluded[i]) {
        solved.push_back(i);
        requests.push_back(pool.items[i].request);
      }
    const api::Solver solver(api::SolverOptions::with_threads(3));
    const std::vector<api::SolveResult> results = solver.solve_batch(requests);
    Answers answers(pool.items.size());
    std::vector<std::vector<double>> seconds(pool.classes.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
      const std::size_t i = solved[k];
      const api::SolveResult& result = results[k];
      if (result.status != api::Status::Ok || !result.has_outcome() ||
          !result.schedule_valid ||
          result.lower_bound > result.outcome->testing_time)
        throw std::runtime_error(requests[k].id + ": no valid answer (" +
                                 std::string(api::to_string(result.status)) +
                                 " " + result.error + ")");
      // The per-request cap: a point whose cold solve takes longer (the
      // exact step explodes on a few drawn SOCs) would own too much of a
      // run, so it is excluded, and its ECO revisions with it.
      const int base = pool.items[i].base;
      if (decide &&
          (result.wall_s > kPointCapSeconds ||
           (base >= 0 && !answers[static_cast<std::size_t>(base)].has_value())))
        continue;
      answers[i] = Expected{result.width, result.outcome->testing_time,
                            result.lower_bound};
      seconds[static_cast<std::size_t>(pool.items[i].cls)].push_back(
          result.wall_s);
    }
    save_reference(options.reference_dir, pool, answers);
    // Calibration: solve time per class (3 jobs at a time), and the mean
    // per request of the class pattern.
    std::cerr << workload << ": " << pool.items.size() << " points\n";
    double per_cycle = 0.0;
    for (const int cls : pool.pattern)
      per_cycle += mean(seconds[static_cast<std::size_t>(cls)]);
    for (std::size_t c = 0; c < pool.classes.size(); ++c)
      std::cerr << "  " << pool.classes[c] << ": " << seconds[c].size()
                << " points, median " << median(seconds[c]) << " s, p90 "
                << quantile(seconds[c], 0.9) << " s, max "
                << quantile(seconds[c], 1.0) << " s\n";
    std::cerr << "  mean solve time per request: "
              << per_cycle / static_cast<double>(pool.pattern.size())
              << " s\n";
  }
  return 0;
}

}  // namespace perfbench
