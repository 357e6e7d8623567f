// Rectangle-packing wrapper/TAM co-optimizer (the arXiv:1008.3320 /
// arXiv:1008.4448 line of follow-on work to the source paper).
//
// Each core contributes one rectangle chosen from its Pareto candidates
// (rect_model.hpp); rectangles are packed bottom-left onto the W-wide
// skyline (skyline.hpp). The packer is seeded with several deterministic
// orderings from the rectangle-packing literature (area-decreasing,
// normalized-diagonal-decreasing, bottleneck-time-decreasing,
// width-decreasing), each packed greedily with the candidate that
// finishes earliest, and the best seed is refined by a
// width-adjust-and-repack local search: cores on the critical path are
// forced to wider (faster) candidates, promoted to the front of the
// packing order, or swapped with seeded-random peers, and the strip is
// repacked after every move. Fully deterministic for a fixed seed. A
// placement walks the skyline once: it fills one Skyline::best_spots
// table over the core's allowed wires and reads every candidate's spot
// from it (Skyline::spot_from_table: the start floor, at most one power
// probe, and a scan only when those lift the start).
//
// A greedy bottom-left pack in a fixed order is a prefix function: the
// placement at position i depends only on the placements before it, the
// core at i and that core's candidate floor. So a move's repack resumes
// at the first position whose core (in the precedence-projected order) or
// whose core's floor differs from the current pack: the placements before
// it are replayed onto the walker's skyline without searching, and only
// the suffix is searched. A move with no difference is not packed at all
// (it is accepted, like any equal pack). A suffix search is abandoned at
// the first placement that finishes after the current makespan: a
// makespan only grows, and a move is accepted only when it does not raise
// the makespan. The answer is the one a from-scratch repack gives. Each
// walker adds its no-op, accepted and rejected move counts to the process
// metrics (pack.moves_noop, pack.moves_accepted, pack.moves_rejected).
//
// The engine is constraint-complete (core::ScheduleConstraints): packing
// orders are projected onto the precedence DAG, every placement honours
// the skyline's constrained spot search (power-over-time budget,
// fixed/forbidden wire intervals, earliest starts), local-search moves
// that would violate a constraint are skipped, and the hole-filling
// compaction re-validates its repack before offering it. The per-seed
// walkers are embarrassingly parallel: with threads > 1 they run on a
// common::ThreadPool and are merged deterministically in seed order, so
// results are bit-identical to the serial run at any thread count (the
// same contract as the parallel partition search).

#pragma once

#include <cstdint>
#include <string>

#include "core/constraints.hpp"
#include "core/solve_context.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rect_model.hpp"

namespace wtam::pack {

struct RectPackOptions {
  /// Total local-search repack budget, split evenly across the seed
  /// orderings' walkers (each walker runs at least 25 iterations when the
  /// budget is positive). A budget <= 0 runs no local search: every
  /// walker packs its seed ordering greedily and compacts it (greedy-only
  /// mode).
  int local_search_iterations = 2000;
  /// Seed for the perturbation stream (results are deterministic per seed).
  std::uint64_t seed = 1;
  /// Worker threads for the per-seed walkers (1 = serial; 0 = one per
  /// hardware thread). Results are bit-identical at any thread count.
  int threads = 1;
  /// Scenario constraints the packing must honor; must validate against
  /// the table (rectpack_schedule throws std::invalid_argument
  /// otherwise). Empty = the unconstrained packer, unchanged.
  core::ScheduleConstraints constraints;
  /// Cooperative cancellation/deadline, polled once per local-search
  /// iteration. The first seed ordering is always packed greedily before
  /// the first poll, so an interrupted run still returns a complete,
  /// validator-clean schedule. nullptr = run the full budget.
  const core::SolveContext* context = nullptr;
};

struct RectPackResult {
  PackedSchedule schedule;
  std::int64_t makespan = 0;
  std::string seed_ordering;  ///< seed ordering of the walker that found it
  /// Packs evaluated in total: every walker's first pack, every
  /// local-search move however it was resolved (resumed, skipped as a
  /// no-op or abandoned early), and each uninterrupted walker's two
  /// compaction packs.
  int repacks = 0;
  double cpu_s = 0.0;
  /// None when the full iteration budget ran; otherwise why the walkers
  /// stopped early (`schedule` is the best found up to that point).
  core::SolveInterrupt interrupt = core::SolveInterrupt::None;
};

/// Packs `table`'s cores into a strip of `total_width` wires. Throws
/// std::invalid_argument when total_width is outside the table's range or
/// options.constraints do not validate for this model. The returned
/// schedule always passes validate_packed_schedule, including the
/// constraint-aware overload when constraints are set.
[[nodiscard]] RectPackResult rectpack_schedule(
    const core::TestTimeTable& table, int total_width,
    const RectPackOptions& options = {});

}  // namespace wtam::pack
