// Ablation studies for the design choices behind the paper's flow and
// this reconstruction of it (README, "What is reconstructed, and why"):
//   A. Core_assign tie-break rules (Figure 1, Lines 11-16) on/off;
//   B. tau early-abort (Lines 18-20) on/off — CPU and pruning counts;
//   C. partition enumeration strategies: clean unique enumeration vs the
//      paper's restricted odometer vs the rejected "enumeration-
//      comparison" hash-filter (§3.1), including its memory footprint;
//   D. per-B tau reset (Figure 3 Line 6) vs carrying tau across B;
//   E. the final exact step's contribution over the bare heuristic.

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/co_optimizer.hpp"
#include "core/daisy_chain.hpp"
#include "partition/partition.hpp"
#include "soc/benchmarks.hpp"
#include "wrapper/wrapper.hpp"

int main() {
  using namespace wtam;

  const soc::Soc d695 = soc::d695();
  const soc::Soc p21241 = soc::p21241();
  const core::TestTimeTable d695_table(d695, 64);
  const core::TestTimeTable p21241_table(p21241, 64);

  // --- A: tie-break rules -------------------------------------------------
  {
    common::TextTable out(
        "Ablation A: Core_assign tie-break rules (heuristic testing time, "
        "P_PAW best over partitions, B=3)");
    out.set_header({"SOC", "W", "both rules", "no widest-TAM rule",
                    "no next-TAM core rule", "neither"});
    const auto run = [](const core::TestTimeTable& table, int width,
                        bool widest, bool next_tam) {
      core::PartitionEvaluateOptions options;
      options.min_tams = 3;
      options.max_tams = 3;
      options.widest_tam_tiebreak = widest;
      options.next_tam_core_tiebreak = next_tam;
      return core::partition_evaluate(table, width, options).best.testing_time;
    };
    for (const int width : {24, 40, 56}) {
      out.add_row({"d695", std::to_string(width),
                   std::to_string(run(d695_table, width, true, true)),
                   std::to_string(run(d695_table, width, false, true)),
                   std::to_string(run(d695_table, width, true, false)),
                   std::to_string(run(d695_table, width, false, false))});
      out.add_row({"p21241", std::to_string(width),
                   std::to_string(run(p21241_table, width, true, true)),
                   std::to_string(run(p21241_table, width, false, true)),
                   std::to_string(run(p21241_table, width, true, false)),
                   std::to_string(run(p21241_table, width, false, false))});
    }
    std::cout << out << '\n';
  }

  // --- B: tau early abort ---------------------------------------------------
  {
    common::TextTable out(
        "Ablation B: tau early-abort (Figure 1 Lines 18-20), p21241, B=6");
    out.set_header({"W", "evaluated (pruned)", "CPU (s)",
                    "evaluated (no prune)", "CPU (s)", "speedup"});
    for (const int width : {44, 56, 64}) {
      core::PartitionEvaluateOptions pruned;
      pruned.min_tams = 6;
      pruned.max_tams = 6;
      common::Stopwatch w1;
      const auto with_prune = core::partition_evaluate(p21241_table, width, pruned);
      const double t1 = w1.elapsed_s();

      core::PartitionEvaluateOptions unpruned = pruned;
      unpruned.prune_with_tau = false;
      common::Stopwatch w2;
      const auto without = core::partition_evaluate(p21241_table, width, unpruned);
      const double t2 = w2.elapsed_s();

      out.add_row(
          {std::to_string(width),
           std::to_string(with_prune.per_b.front().evaluated_to_completion),
           common::format_fixed(t1, 3),
           std::to_string(without.per_b.front().evaluated_to_completion),
           common::format_fixed(t2, 3),
           common::format_fixed(t2 / std::max(t1, 1e-6), 2) + "x"});
    }
    std::cout << out << '\n';
  }

  // --- C: enumeration strategies -------------------------------------------
  {
    common::TextTable out(
        "Ablation C: partition enumeration strategies (W=40)");
    out.set_header({"B", "unique p(W,B)", "odometer tuples", "duplicates",
                    "compositions", "filter memory (bytes)"});
    for (const int tams : {3, 4, 5, 6}) {
      const auto odometer = partition::restricted_odometer_stats(40, tams);
      const auto filter = partition::comparison_filter_stats(40, tams);
      out.add_row({std::to_string(tams),
                   std::to_string(partition::count_exact(40, tams)),
                   std::to_string(odometer.tuples),
                   std::to_string(odometer.duplicates),
                   std::to_string(filter.compositions),
                   std::to_string(filter.stored_bytes)});
    }
    std::cout << out;
    std::cout << "(compositions grow as C(W-1,B-1) — the memory-hungry "
                 "enumeration-comparison method the paper rejects in §3.1)\n\n";
  }

  // --- D: tau reset per B ----------------------------------------------------
  {
    common::TextTable out(
        "Ablation D: per-B tau reset (Figure 3) vs carried tau, p21241");
    out.set_header({"W", "evaluated (reset)", "evaluated (carried)",
                    "best T (reset)", "best T (carried)"});
    for (const int width : {32, 48, 64}) {
      core::PartitionEvaluateOptions reset;
      reset.max_tams = 6;
      core::PartitionEvaluateOptions carried = reset;
      carried.reset_tau_per_b = false;
      const auto a = core::partition_evaluate(p21241_table, width, reset);
      const auto b = core::partition_evaluate(p21241_table, width, carried);
      std::uint64_t evaluated_a = 0;
      std::uint64_t evaluated_b = 0;
      for (const auto& s : a.per_b) evaluated_a += s.evaluated_to_completion;
      for (const auto& s : b.per_b) evaluated_b += s.evaluated_to_completion;
      out.add_row({std::to_string(width), std::to_string(evaluated_a),
                   std::to_string(evaluated_b),
                   std::to_string(a.best.testing_time),
                   std::to_string(b.best.testing_time)});
    }
    std::cout << out << '\n';
  }

  // --- F: Design_wrapper balancing vs naive round-robin wrappers -------------
  {
    common::TextTable out(
        "Ablation F: BFD-balanced Design_wrapper vs naive round-robin "
        "(core testing time in cycles)");
    out.set_header({"core", "w", "Design_wrapper", "naive", "penalty (%)"});
    for (const auto* name : {"s9234", "s38584", "s13207", "s38417"}) {
      for (const auto& core : d695.cores) {
        if (core.name != name) continue;
        for (const int w : {8, 16}) {
          const auto balanced = wrapper::design_wrapper(core, w);
          const auto naive = wrapper::design_wrapper_naive(core, w);
          const double penalty =
              (static_cast<double>(naive.test_time) -
               static_cast<double>(balanced.test_time)) /
              static_cast<double>(balanced.test_time) * 100.0;
          out.add_row({core.name, std::to_string(w),
                       std::to_string(balanced.test_time),
                       std::to_string(naive.test_time),
                       common::format_fixed(penalty, 1)});
        }
      }
    }
    std::cout << out << '\n';
  }

  // --- G: test bus vs daisychain TAM access model -----------------------------
  {
    common::TextTable out(
        "Ablation G: test bus model (paper) vs daisychain access [11,14] "
        "(co-optimized bus architectures, re-evaluated under daisychain)");
    out.set_header({"SOC", "W", "#TAMs", "bus T", "daisychain T",
                    "penalty (%)", "bypass overhead"});
    for (const int width : {16, 32, 64}) {
      for (const auto* soc_ptr : {&d695, &p21241}) {
        const auto& table = soc_ptr == &d695 ? d695_table : p21241_table;
        core::CoOptimizeOptions options;
        options.search.max_tams = 6;
        const auto flow = core::co_optimize(table, width, options);
        const auto daisy =
            core::evaluate_daisy_chain(*soc_ptr, flow.architecture);
        const double penalty =
            (static_cast<double>(daisy.testing_time) -
             static_cast<double>(flow.architecture.testing_time)) /
            static_cast<double>(flow.architecture.testing_time) * 100.0;
        out.add_row({soc_ptr->name, std::to_string(width),
                     std::to_string(flow.architecture.tam_count()),
                     std::to_string(flow.architecture.testing_time),
                     std::to_string(daisy.testing_time),
                     common::format_fixed(penalty, 2),
                     std::to_string(daisy.bypass_overhead_cycles)});
      }
    }
    std::cout << out;
    std::cout << "(why the paper adopts the test bus model: bypass bits "
                 "stretch every scan path by the chain's core count)\n\n";
  }

  // --- E: value of the final exact step --------------------------------------
  {
    common::TextTable out(
        "Ablation E: final ILP step vs bare heuristic (P_NPAW, B<=10)");
    out.set_header({"SOC", "W", "heuristic T", "after final step", "gain (%)"});
    for (const int width : {32, 56}) {
      for (const auto* entry :
           {&d695_table, &p21241_table}) {
        core::CoOptimizeOptions options;
        options.search.max_tams = 10;
        const auto flow = core::co_optimize(*entry, width, options);
        const double heuristic =
            static_cast<double>(flow.heuristic.best.testing_time);
        const double final_time =
            static_cast<double>(flow.architecture.testing_time);
        out.add_row({entry == &d695_table ? "d695" : "p21241",
                     std::to_string(width),
                     std::to_string(flow.heuristic.best.testing_time),
                     std::to_string(flow.architecture.testing_time),
                     common::format_fixed((heuristic - final_time) / heuristic * 100.0,
                                          2)});
      }
    }
    std::cout << out << '\n';
  }

  // --- H: parallel search scaling --------------------------------------------
  {
    common::TextTable out(
        "Ablation H: partition_evaluate worker threads (p21241, W=64, "
        "B<=6; parallel results are bit-identical to serial by contract)");
    out.set_header({"threads", "wall (s)", "speedup", "best T", "identical"},
                   {common::Align::Right, common::Align::Right,
                    common::Align::Right, common::Align::Right,
                    common::Align::Right});
    core::PartitionEvaluateOptions options;
    options.max_tams = 6;
    common::Stopwatch serial_watch;
    const auto serial = core::partition_evaluate(p21241_table, 64, options);
    const double serial_s = serial_watch.elapsed_s();
    out.add_row({"1", common::format_fixed(serial_s, 3), "1.00x",
                 std::to_string(serial.best.testing_time), "yes"});
    for (const int threads : {2, 4, 8}) {
      core::PartitionEvaluateOptions parallel_options = options;
      parallel_options.threads = threads;
      common::Stopwatch watch;
      const auto parallel =
          core::partition_evaluate(p21241_table, 64, parallel_options);
      const double elapsed = watch.elapsed_s();
      const bool identical =
          parallel.best.testing_time == serial.best.testing_time &&
          parallel.best.widths == serial.best.widths &&
          parallel.best.assignment == serial.best.assignment;
      out.add_row({std::to_string(threads), common::format_fixed(elapsed, 3),
                   common::format_fixed(serial_s / std::max(elapsed, 1e-9), 2) +
                       "x",
                   std::to_string(parallel.best.testing_time),
                   identical ? "yes" : "NO"});
    }
    std::cout << out << '\n';
  }
  return 0;
}
