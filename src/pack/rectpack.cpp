#include "pack/rectpack.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/power.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pack/skyline.hpp"

namespace wtam::pack {

namespace {

/// A packing decision: the order cores are placed in, plus the smallest
/// candidate index each core may use (forcing a core to wider/faster
/// rectangles is the width-adjust move of the local search).
struct PackState {
  std::vector<int> order;
  std::vector<int> min_candidate;
};

/// core::ScheduleConstraints lowered to the per-core lookups the packing
/// loops consume. `any == false` means the engines take their original
/// unconstrained code paths, byte for byte.
struct ConstraintPlan {
  bool any = false;
  std::vector<std::vector<int>> preds;              ///< predecessors per core
  std::vector<std::int64_t> earliest;               ///< start floor per core
  std::vector<core::WireInterval> window;           ///< fixed window per core
  std::vector<std::vector<core::WireInterval>> forbidden;  ///< per core
  /// Per-core wire masks, built once per pack so the spot search never
  /// rebuilds them: wire_allowed[c][w] = 1 iff core c may touch wire w
  /// (empty = unconstrained wires for that core).
  std::vector<std::vector<char>> wire_allowed;
  core::PowerVector power;  ///< per-core draw; empty = power-unconstrained
  std::int64_t budget = 0;

  [[nodiscard]] std::int64_t core_power(int core) const noexcept {
    return power.empty() ? 0 : power[static_cast<std::size_t>(core)];
  }

  /// The core's mask in the form Skyline::SpotQuery borrows, or nullptr
  /// when its wires are unconstrained.
  [[nodiscard]] const std::vector<char>* core_allowed(
      int core) const noexcept {
    if (wire_allowed.empty()) return nullptr;  // no constraints at all
    const auto& mask = wire_allowed[static_cast<std::size_t>(core)];
    return mask.empty() ? nullptr : &mask;
  }
};

ConstraintPlan build_plan(const core::ScheduleConstraints& constraints,
                          int core_count, int total_width) {
  ConstraintPlan plan;
  plan.any = !constraints.empty();
  if (!plan.any) return plan;
  const auto n = static_cast<std::size_t>(core_count);
  plan.preds.resize(n);
  plan.earliest.assign(n, 0);
  plan.window.assign(n, core::WireInterval{0, total_width});
  plan.forbidden.resize(n);
  plan.wire_allowed.resize(n);
  for (const auto& pair : constraints.precedence)
    plan.preds[static_cast<std::size_t>(pair.after)].push_back(pair.before);
  for (const auto& entry : constraints.earliest) {
    auto& floor_cycle = plan.earliest[static_cast<std::size_t>(entry.core)];
    floor_cycle = std::max(floor_cycle, entry.cycle);
  }
  for (const auto& entry : constraints.fixed)
    plan.window[static_cast<std::size_t>(entry.core)] = entry.wires;
  for (const auto& entry : constraints.forbidden)
    plan.forbidden[static_cast<std::size_t>(entry.core)].push_back(
        entry.wires);
  if (constraints.has_power()) {
    plan.power = constraints.power;
    plan.budget = constraints.power_budget;
  }
  // Lower each wire-constrained core's window + forbidden intervals to a
  // bitmap, once; cores with free wires keep empty masks and take the
  // unmasked path.
  const auto w_total = static_cast<std::size_t>(total_width);
  for (std::size_t c = 0; c < n; ++c) {
    const core::WireInterval window = plan.window[c];
    if (window.lo == 0 && window.hi == total_width &&
        plan.forbidden[c].empty())
      continue;
    auto& allowed = plan.wire_allowed[c];
    allowed.assign(w_total, 1);
    for (int w = 0; w < total_width; ++w)
      if (w < window.lo || w >= window.hi)
        allowed[static_cast<std::size_t>(w)] = 0;
    for (const core::WireInterval& interval : plan.forbidden[c])
      for (int w = std::max(0, interval.lo);
           w < std::min(total_width, interval.hi); ++w)
        allowed[static_cast<std::size_t>(w)] = 0;
  }
  return plan;
}

/// Projects `order` onto the precedence DAG: the earliest core in `order`
/// whose predecessors are all emitted goes next, so any move-perturbed
/// order stays precedence-feasible while deviating as little as possible
/// from the walker's intent. Validated constraints are acyclic, so every
/// core is emitted.
std::vector<int> topo_project(const std::vector<int>& order,
                              const ConstraintPlan& plan) {
  const std::size_t n = order.size();
  std::vector<int> projected;
  projected.reserve(n);
  std::vector<char> used(n, 0);
  std::vector<char> emitted(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    bool advanced = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const int core = order[i];
      const auto& preds = plan.preds[static_cast<std::size_t>(core)];
      const bool ready =
          std::all_of(preds.begin(), preds.end(), [&](int pred) {
            return emitted[static_cast<std::size_t>(pred)] != 0;
          });
      if (!ready) continue;
      projected.push_back(core);
      used[i] = 1;
      emitted[static_cast<std::size_t>(core)] = 1;
      advanced = true;
      break;
    }
    if (!advanced) break;  // cycle — validate_constraints rejects these
  }
  for (std::size_t i = 0; i < n; ++i)  // defensive: never drop a core
    if (!used[i]) projected.push_back(order[i]);
  return projected;
}

/// Start floor of `core` given its constraints and the predecessors
/// already placed (`core_end` holds their finish times).
std::int64_t start_floor(int core, const ConstraintPlan& plan,
                         const std::vector<std::int64_t>& core_end) {
  std::int64_t floor_cycle = plan.earliest[static_cast<std::size_t>(core)];
  for (const int pred : plan.preds[static_cast<std::size_t>(core)])
    floor_cycle =
        std::max(floor_cycle, core_end[static_cast<std::size_t>(pred)]);
  return floor_cycle;
}

/// How WalkPacker::resolve settled one trial against the current pack.
enum class PackVerdict {
  Unchanged,  ///< no position differs: the trial packs as the current pack
  Accepted,   ///< packed in full with makespan <= the current one
  Rejected,   ///< abandoned at a placement finishing past the current makespan
};

/// A walker's greedy bottom-left packer, holding its current pack. Each
/// core takes, among its candidates from its floor on, the one that
/// finishes earliest. resolve() packs a trial from the first position
/// whose (core, floor) input differs from the current pack, replaying the
/// placements before it, and abandons it at the first placement past the
/// current makespan (see the header for why that is exact). The walker's
/// first pack is the same routine with nothing to replay and nothing to
/// beat.
class WalkPacker {
 public:
  WalkPacker(const RectModel& model, const ConstraintPlan& plan)
      : model_(model), plan_(plan), skyline_(model.total_width) {}

  /// Packs `trial` against the current pack; an Accepted trial becomes
  /// the current pack.
  [[nodiscard]] PackVerdict resolve(const PackState& trial) {
    const std::vector<int>& order =
        plan_.any ? (order_ = topo_project(trial.order, plan_)) : trial.order;
    const auto floor_of = [&trial](int core) {
      return trial.min_candidate[static_cast<std::size_t>(core)];
    };
    // The first position whose core or core floor differs; none at all
    // means the trial would pack exactly as the current pack.
    std::size_t resume = 0;
    while (resume < placed_.size() && order[resume] == placed_[resume].core &&
           floor_of(order[resume]) == floors_[resume])
      ++resume;
    if (!placed_.empty() && resume == order.size())
      return PackVerdict::Unchanged;
    const std::int64_t bound = placed_.empty()
                                   ? std::numeric_limits<std::int64_t>::max()
                                   : makespan_;

    // Replay the shared prefix, then search the suffix.
    skyline_.clear();
    core_end_.assign(order.size(), 0);
    trial_placed_.clear();
    trial_floors_.clear();
    std::int64_t makespan = 0;
    const auto commit = [&](const PackedPlacement& p, int floor) {
      skyline_.place(p.wire, p.width, p.start, p.end, plan_.core_power(p.core));
      core_end_[static_cast<std::size_t>(p.core)] = p.end;
      trial_placed_.push_back(p);
      trial_floors_.push_back(floor);
      makespan = std::max(makespan, p.end);
    };
    for (std::size_t i = 0; i < resume; ++i) commit(placed_[i], floors_[i]);
    for (std::size_t i = resume; i < order.size(); ++i) {
      const int floor = floor_of(order[i]);
      const PackedPlacement placement = place_next(order[i], floor);
      if (placement.end > bound) return PackVerdict::Rejected;
      commit(placement, floor);
    }
    placed_.swap(trial_placed_);
    floors_.swap(trial_floors_);
    makespan_ = makespan;
    return PackVerdict::Accepted;
  }

  /// The current pack in canonical (start, wire) order.
  [[nodiscard]] PackedSchedule schedule() const {
    std::vector<PackedPlacement> placements = placed_;
    sort_placements(placements);
    PackedSchedule schedule;
    schedule.total_width = model_.total_width;
    schedule.placements = PlacementList(std::move(placements));
    schedule.makespan = makespan_;
    return schedule;
  }

 private:
  /// Searches `core`'s placement on the skyline as packed so far: one
  /// skyline pass over the core's allowed wires fills the run table, and
  /// every candidate's spot is read from it.
  [[nodiscard]] PackedPlacement place_next(int core, int floor) {
    const auto& rects = model_.candidates[static_cast<std::size_t>(core)];
    const int first = std::min(floor, static_cast<int>(rects.size()) - 1);
    // Among the allowed candidates, take the one that finishes earliest;
    // break ties toward the smaller footprint (area, then width), which
    // leaves more skyline for later cores.
    const Rect* chosen = nullptr;
    Skyline::Spot chosen_spot{};
    std::int64_t chosen_finish = 0;
    const auto consider = [&](const Rect& rect, Skyline::Spot spot) {
      const std::int64_t finish = spot.start + rect.time;
      const bool better =
          chosen == nullptr || finish < chosen_finish ||
          (finish == chosen_finish &&
           (rect.area() < chosen->area() ||
            (rect.area() == chosen->area() && rect.width < chosen->width)));
      if (better) {
        chosen = &rect;
        chosen_spot = spot;
        chosen_finish = finish;
      }
    };

    // Everything but the rectangle's own extent is invariant across the
    // core's candidates.
    Skyline::SpotQuery query;
    if (plan_.any) query.min_start = start_floor(core, plan_, core_end_);
    query.allowed = plan_.core_allowed(core);
    query.power = plan_.core_power(core);
    query.power_budget = plan_.budget;
    skyline_.best_spots(spots_, query.allowed);
    const auto scan = [&](std::size_t from) {
      for (std::size_t c = from; c < rects.size(); ++c) {
        query.width = rects[c].width;
        query.duration = rects[c].time;
        const auto spot = skyline_.spot_from_table(spots_, query);
        if (spot.has_value()) consider(rects[c], *spot);
      }
    };
    scan(static_cast<std::size_t>(first));
    // A width-adjust floor can exclude every candidate that fits the
    // core's fixed window; relax it rather than fail (the width-1 Pareto
    // candidate is always feasible for validated constraints).
    if (chosen == nullptr && first > 0) scan(0);
    if (chosen == nullptr)
      throw std::logic_error(
          "rectpack: no feasible placement for core " + std::to_string(core) +
          " (constraints should have been validated)");
    return {core, chosen->width, chosen_spot.wire, chosen_spot.start,
            chosen_finish};
  }

  const RectModel& model_;
  const ConstraintPlan& plan_;
  /// Cleared and refilled per pack; never snapshotted.
  Skyline skyline_;
  /// skyline_.best_spots table of the placement being searched.
  std::vector<Skyline::Spot> spots_;
  std::vector<std::int64_t> core_end_;  ///< finish per placed core
  std::vector<int> order_;  ///< the trial's precedence-projected order
  /// The current pack in placement order, with the candidate floor each
  /// placement was searched with.
  std::vector<PackedPlacement> placed_;
  std::vector<int> floors_;
  std::int64_t makespan_ = 0;
  std::vector<PackedPlacement> trial_placed_;
  std::vector<int> trial_floors_;
};

/// Bottom-left packing *with hole filling*: unlike the skyline, a
/// rectangle may start below previously raised wires, in any hole large
/// enough to hold it. Candidate start times are 0 (or the core's
/// constraint floor) and the end times of already-placed rectangles (a
/// bottom-left placement always abuts one); the earliest feasible start
/// with the leftmost fitting wire window wins. Quadratic in placements,
/// so it is used to compact final solutions rather than inside the
/// local-search loop. Under constraints the wire scan masks fixed and
/// forbidden intervals and every candidate start is power-checked.
PackedSchedule holefill_pack(const RectModel& model, const PackState& state,
                             const ConstraintPlan& plan) {
  PackedSchedule schedule;
  schedule.total_width = model.total_width;
  std::vector<PackedPlacement> placed;
  placed.reserve(state.order.size());

  const int width_total = model.total_width;
  std::vector<char> wire_free(static_cast<std::size_t>(width_total), 1);

  // Finds the leftmost wire window of `width` free wires during
  // [start, start + time) for `core`; returns -1 when none exists.
  const auto leftmost_window = [&](std::int64_t start, std::int64_t time,
                                   int width, int core) {
    // Seed from the plan's precomputed per-core bitmap (built once per
    // pack) instead of re-deriving window + forbidden wires per call.
    if (const std::vector<char>* allowed = plan.core_allowed(core)) {
      std::copy(allowed->begin(), allowed->end(), wire_free.begin());
    } else {
      std::fill(wire_free.begin(), wire_free.end(), char{1});
    }
    for (const auto& p : placed) {
      if (p.start >= start + time || start >= p.end) continue;
      for (int w = p.wire; w < p.wire + p.width; ++w)
        wire_free[static_cast<std::size_t>(w)] = 0;
    }
    int run = 0;
    for (int w = 0; w < width_total; ++w) {
      run = wire_free[static_cast<std::size_t>(w)] ? run + 1 : 0;
      if (run >= width) return w - width + 1;
    }
    return -1;
  };

  const std::vector<int> order =
      plan.any ? topo_project(state.order, plan) : state.order;
  std::vector<std::int64_t> core_end(state.order.size(), 0);

  // Power profile of what is already placed, mirrored from `placed` (the
  // hole-filler cannot rely on the skyline's power timeline, so it keeps
  // its own). Only fed under a budget;
  // feasibility is the timeline's window_fits — same values as the old
  // span-list core::power_window_fits check.
  core::PowerTimeline power_timeline;

  std::vector<std::int64_t> starts;
  for (const int core : order) {
    const std::int64_t min_start =
        plan.any ? start_floor(core, plan, core_end) : 0;
    const std::int64_t power = plan.any ? plan.core_power(core) : 0;
    starts.assign(1, min_start);
    for (const auto& p : placed)
      if (p.end > min_start) starts.push_back(p.end);
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

    const auto& rects = model.candidates[static_cast<std::size_t>(core)];
    const int first =
        std::min(state.min_candidate[static_cast<std::size_t>(core)],
                 static_cast<int>(rects.size()) - 1);
    PackedPlacement chosen{};
    bool have_chosen = false;
    const auto scan = [&](std::size_t from) {
      for (std::size_t c = from; c < rects.size(); ++c) {
        const Rect& rect = rects[c];
        for (const std::int64_t start : starts) {
          if (have_chosen && start + rect.time > chosen.end) break;
          if (!power_timeline.window_fits(start, rect.time, power,
                                          plan.budget))
            continue;  // a later start may have power headroom
          const int wire = leftmost_window(start, rect.time, rect.width, core);
          if (wire < 0) continue;
          const PackedPlacement candidate{core, rect.width, wire, start,
                                          start + rect.time};
          const bool better =
              !have_chosen || candidate.end < chosen.end ||
              (candidate.end == chosen.end && rect.width < chosen.width);
          if (better) {
            chosen = candidate;
            have_chosen = true;
          }
          break;  // later starts of the same rectangle only finish later
        }
      }
    };
    scan(static_cast<std::size_t>(first));
    if (!have_chosen && plan.any && first > 0) scan(0);
    if (!have_chosen)
      throw std::logic_error(
          "rectpack: hole-filling found no feasible placement for core " +
          std::to_string(core) +
          " (constraints should have been validated)");
    placed.push_back(chosen);
    if (plan.budget > 0 && power > 0 && chosen.start < chosen.end)
      power_timeline.add(chosen.start, chosen.end, power);
    schedule.makespan = std::max(schedule.makespan, chosen.end);
    core_end[static_cast<std::size_t>(core)] = chosen.end;
  }

  sort_placements(placed);
  schedule.placements = PlacementList(std::move(placed));
  return schedule;
}

/// The deterministic seed orderings of the rectangle-packing literature.
std::vector<std::pair<std::string, std::vector<int>>> seed_orders(
    const RectModel& model, const core::TestTimeTable& table) {
  const int n = model.core_count();
  std::vector<int> base(static_cast<std::size_t>(n));
  std::iota(base.begin(), base.end(), 0);

  const auto sorted_by = [&base](auto key_desc) {
    std::vector<int> order = base;
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return key_desc(a) > key_desc(b); });
    return order;
  };

  // Normalization for the diagonal ordering: widths against the strip,
  // times against the area lower bound on the strip height.
  const double height_scale = std::max<double>(
      1.0, static_cast<double>(model.total_min_area()) /
               static_cast<double>(model.total_width));

  std::vector<std::pair<std::string, std::vector<int>>> orders;
  orders.emplace_back("area-decreasing", sorted_by([&](int c) {
                        return static_cast<double>(
                            model.min_area_rect(c).area());
                      }));
  orders.emplace_back("diagonal-decreasing", sorted_by([&](int c) {
                        const Rect& r = model.min_area_rect(c);
                        const double w = static_cast<double>(r.width) /
                                         model.total_width;
                        const double t =
                            static_cast<double>(r.time) / height_scale;
                        return w * w + t * t;
                      }));
  orders.emplace_back("time-decreasing", sorted_by([&](int c) {
                        return static_cast<double>(
                            table.time(c, model.total_width));
                      }));
  orders.emplace_back("width-decreasing", sorted_by([&](int c) {
                        return static_cast<double>(model.min_area_rect(c).width);
                      }));
  return orders;
}

/// One seed ordering's hill-climbing walk, self-contained so walkers can
/// run serially or on a pool with identical results: walker-local
/// best-so-far tracking (strict improvement, so the earliest achiever of
/// the final makespan is kept — exactly what interleaved serial offers
/// produced) plus the walker's own repack count and interrupt verdict.
struct WalkerOutcome {
  PackedSchedule schedule;
  std::int64_t makespan = 0;
  int repacks = 0;
  core::SolveInterrupt interrupt = core::SolveInterrupt::None;
};

/// `rng_seed` is the walker's pre-derived stream seed (the k-th output of
/// the splitmix64 sequence over options.seed, derived in seed order by
/// the caller so serial and pooled runs draw identical streams).
WalkerOutcome run_walker(const RectModel& model,
                         const core::TestTimeTable& table,
                         const ConstraintPlan& plan,
                         const core::ScheduleConstraints& constraints,
                         const std::vector<int>& seed_order, int per_seed,
                         std::uint64_t rng_seed,
                         const core::SolveContext* context) {
  const int n = model.core_count();
  WalkerOutcome out;
  const auto offer = [&out](PackedSchedule schedule) {
    if (out.schedule.placements.empty() || schedule.makespan < out.makespan) {
      out.makespan = schedule.makespan;
      out.schedule = std::move(schedule);
    }
  };

  common::Rng rng(rng_seed);
  PackState current{seed_order,
                    std::vector<int>(static_cast<std::size_t>(n), 0)};
  WalkPacker packer(model, plan);
  (void)packer.resolve(current);  // nothing to beat yet: always Accepted
  PackedSchedule walker_schedule = packer.schedule();
  ++out.repacks;
  offer(walker_schedule);

  std::int64_t noop_moves = 0;
  std::int64_t accepted_moves = 0;
  std::int64_t rejected_moves = 0;
  std::vector<int> critical;
  for (int iter = 0; iter < per_seed; ++iter) {
    // The first greedy pack has already been offered, so the best-so-far
    // schedule is complete whenever the context fires.
    if (context != nullptr) {
      out.interrupt = context->poll();
      if (out.interrupt != core::SolveInterrupt::None) break;
    }
    PackState trial = current;

    critical.clear();
    for (const auto& p : walker_schedule.placements)
      if (p.end == walker_schedule.makespan) critical.push_back(p.core);
    const int pick_critical =
        critical[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(critical.size()) - 1))];

    switch (rng.uniform_int(0, 4)) {
      case 0: {  // force a critical core to a wider (faster) rectangle
        auto& floor =
            trial.min_candidate[static_cast<std::size_t>(pick_critical)];
        const auto& rects =
            model.candidates[static_cast<std::size_t>(pick_critical)];
        const int last = static_cast<int>(rects.size() - 1);
        const int next = std::min(floor + 1, last);
        if (plan.any) {
          // Skip the move when every candidate from the new floor is
          // wider than the core's fixed window — it could only violate.
          const core::WireInterval window =
              plan.window[static_cast<std::size_t>(pick_critical)];
          if (rects[static_cast<std::size_t>(next)].width >
              window.hi - window.lo)
            break;
        }
        floor = next;
        break;
      }
      case 1: {  // promote a critical core to the front of the order
        auto& order = trial.order;
        order.erase(std::find(order.begin(), order.end(), pick_critical));
        order.insert(order.begin(), pick_critical);
        break;
      }
      case 2: {  // relax a random core back to its full candidate set
        const auto core =
            static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        trial.min_candidate[core] = 0;
        break;
      }
      case 3: {  // swap two random order positions
        const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        const auto b = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        std::swap(trial.order[a], trial.order[b]);
        break;
      }
      case 4: {  // compaction: re-place in the walker's start-time order
        std::vector<int> order;
        order.reserve(static_cast<std::size_t>(n));
        for (const auto& p : walker_schedule.placements)
          order.push_back(p.core);
        trial.order = std::move(order);
        break;
      }
    }

    // Every evaluated move counts as a repack, however it resolves.
    ++out.repacks;
    switch (packer.resolve(trial)) {
      case PackVerdict::Unchanged:
        // Accepted sideways like any equal pack: distinct orders can
        // project to the same placement order.
        ++noop_moves;
        current = std::move(trial);
        break;
      case PackVerdict::Accepted:
        ++accepted_moves;
        current = std::move(trial);
        walker_schedule = packer.schedule();
        offer(walker_schedule);
        break;
      case PackVerdict::Rejected:
        ++rejected_moves;
        break;
    }
  }
  // Once per walker, so the counters' slot locks stay off the walk loop.
  static obs::Counter& noop_counter =
      obs::MetricsRegistry::instance().counter("pack.moves_noop");
  static obs::Counter& accepted_counter =
      obs::MetricsRegistry::instance().counter("pack.moves_accepted");
  static obs::Counter& rejected_counter =
      obs::MetricsRegistry::instance().counter("pack.moves_rejected");
  noop_counter.increment(noop_moves);
  accepted_counter.increment(accepted_moves);
  rejected_counter.increment(rejected_moves);

  // Per-walker compaction: repack the walker's final state and its
  // start-time order with hole filling, which can reclaim strip area
  // the skyline had to write off. Skipped once interrupted — the
  // quadratic compaction is exactly the kind of tail work a deadline
  // is meant to cut.
  if (out.interrupt == core::SolveInterrupt::None) {
    PackState by_start = current;
    by_start.order.clear();
    for (const auto& p : walker_schedule.placements)
      by_start.order.push_back(p.core);
    for (const PackState& state : {current, by_start}) {
      PackedSchedule schedule = holefill_pack(model, state, plan);
      ++out.repacks;
      // The hole-filling repack re-validates under the constraints; an
      // offer that would regress the honored constraint set is dropped
      // (defense in depth — construction should already guarantee it).
      if (plan.any &&
          !validate_packed_schedule(table, schedule, constraints).empty())
        continue;
      offer(std::move(schedule));
    }
  }
  return out;
}

}  // namespace

RectPackResult rectpack_schedule(const core::TestTimeTable& table,
                                 int total_width,
                                 const RectPackOptions& options) {
  // Whole-engine cost is both reported per call (cpu_s) and recorded
  // process-wide; per-walker pack time is traced when the job asks.
  static obs::Histogram& pack_hist =
      obs::MetricsRegistry::instance().histogram("pack.rectpack_ns");
  common::ScopedTimer<obs::Histogram> watch(&pack_hist);
  obs::SolveTrace* trace =
      options.context != nullptr ? options.context->trace : nullptr;
  if (!options.constraints.empty()) {
    const auto issues = core::validate_constraints(
        options.constraints, table.core_count(), total_width);
    if (!issues.empty())
      throw std::invalid_argument("rectpack_schedule: invalid constraints: " +
                                  issues.front());
  }
  const RectModel model = build_rect_model(table, total_width);
  const ConstraintPlan plan =
      build_plan(options.constraints, table.core_count(), total_width);

  auto seeds = seed_orders(model, table);
  const int per_seed =
      options.local_search_iterations <= 0
          ? 0
          : std::max(25, options.local_search_iterations /
                             static_cast<int>(seeds.size()));

  // One independent hill-climbing walker per seed ordering (multi-start
  // beats a single longer walk on these small, plateau-heavy landscapes).
  // Each walker draws from its own RNG stream, so a larger iteration
  // budget only ever extends trajectories and the best schedule seen
  // during the walks is monotone in the budget. (The final hole-fill
  // compaction runs on the budget-dependent end state, so overall
  // monotonicity is near-certain rather than a hard guarantee.) Walkers
  // are merged strictly in seed order with strict-improvement preference,
  // which reproduces the serial offer sequence exactly — so the parallel
  // path below is bit-identical to the serial one.
  RectPackResult result;
  const auto merge = [&result](WalkerOutcome&& outcome,
                               const std::string& seed_name) {
    result.repacks += outcome.repacks;
    if (result.interrupt == core::SolveInterrupt::None)
      result.interrupt = outcome.interrupt;
    if (result.schedule.placements.empty() ||
        outcome.makespan < result.makespan) {
      result.makespan = outcome.makespan;
      result.schedule = std::move(outcome.schedule);
      result.seed_ordering = seed_name;
    }
  };

  // Per-walker RNG stream seeds, derived in seed order from one
  // splitmix64 sequence — identical whether walkers then run serially or
  // on the pool.
  std::uint64_t seed_state = options.seed;
  std::vector<std::uint64_t> walker_seeds(seeds.size());
  for (auto& walker_seed : walker_seeds)
    walker_seed = common::splitmix64(seed_state);

  const int threads =
      options.threads == 0
          ? common::ThreadPool::hardware_threads()
          : options.threads;
  if (threads <= 1) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      obs::SpanTimer span(trace, "walker:" + seeds[i].first);
      WalkerOutcome outcome =
          run_walker(model, table, plan, options.constraints,
                     seeds[i].second, per_seed, walker_seeds[i],
                     options.context);
      span.finish();
      const bool interrupted =
          outcome.interrupt != core::SolveInterrupt::None;
      merge(std::move(outcome), seeds[i].first);
      if (interrupted) break;  // stop launching walkers, like the old loop
    }
  } else {
    const auto walker_count = seeds.size();
    std::vector<WalkerOutcome> outcomes(walker_count);
    // Each walker writes only its own outcomes[i] slot before arriving
    // at the latch, whose lock hand-off publishes the writes to the
    // waiting thread below.
    common::CompletionLatch latch;
    common::ThreadPool pool(
        std::min(threads, static_cast<int>(walker_count)));
    for (std::size_t i = 0; i < walker_count; ++i) {
      pool.submit([&, i] {
        try {
          // Concurrent recording into the shared trace is the designed
          // case (SolveTrace locks internally; TSan covers this path).
          obs::SpanTimer span(trace, "walker:" + seeds[i].first);
          outcomes[i] =
              run_walker(model, table, plan, options.constraints,
                         seeds[i].second, per_seed, walker_seeds[i],
                         options.context);
        } catch (...) {
          // Recorded for the owner to rethrow after the join — a walker
          // must not throw through the pool.
          latch.record_error(std::current_exception());
        }
        latch.arrive();
      });
    }
    latch.wait(walker_count);
    if (std::exception_ptr error = latch.take_error())
      std::rethrow_exception(error);
    for (std::size_t i = 0; i < walker_count; ++i) {
      // Mirror the serial loop: an interrupted walker is the last one
      // merged (serial never launches the rest), so the deterministic
      // pre-cancelled case yields byte-identical results at any thread
      // count. Mid-run interrupts are timing-dependent either way.
      const bool interrupted =
          outcomes[i].interrupt != core::SolveInterrupt::None;
      merge(std::move(outcomes[i]), seeds[i].first);
      if (interrupted) break;
    }
  }

  result.cpu_s = watch.elapsed_s();
  return result;
}

}  // namespace wtam::pack
