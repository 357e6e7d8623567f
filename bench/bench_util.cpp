#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/tam_types.hpp"

namespace wtam::bench {

namespace {

std::string cycles(std::int64_t t) { return std::to_string(t); }

std::string seconds(double s) {
  if (s < 0.0005) return "<0.001";
  return common::format_fixed(s, 3);
}

}  // namespace

double exhaustive_budget_s(double fallback) {
  if (const char* env = std::getenv("WTAM_BENCH_BUDGET")) {
    const double parsed = std::atof(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

int bench_threads(int fallback) {
  if (const char* env = std::getenv("WTAM_BENCH_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    // Reject non-numeric values outright: atoi-style "garbage means 0"
    // would silently switch 0 = all-hardware-threads mode on a typo.
    if (end != env && *end == '\0' && parsed >= 0 && parsed <= 4096)
      return static_cast<int>(parsed);
    std::cerr << "warning: ignoring invalid WTAM_BENCH_THREADS=\"" << env
              << "\" (want an integer >= 0)\n";
  }
  return fallback;
}

void write_json_file(const std::string& path, const Json& document) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << document.dump_string() << '\n';
  if (!out) throw std::runtime_error("write failed for " + path);
}

void run_paw_comparison(const core::TestTimeTable& table,
                        const PawComparison& config) {
  struct RowResult {
    int width;
    core::ExhaustiveResult exhaustive;
    core::CoOptimizeResult flow;
  };
  std::vector<RowResult> rows;
  rows.reserve(config.widths.size());
  const int threads = bench_threads();
  for (const int width : config.widths) {
    RowResult row;
    row.width = width;
    core::ExhaustiveOptions old_options;
    old_options.time_budget_s = exhaustive_budget_s();
    row.exhaustive = core::exhaustive_paw(table, width, config.tams, old_options);
    core::CoOptimizeOptions flow_options;
    flow_options.search.threads = threads;
    row.flow =
        core::co_optimize_fixed_b(table, width, config.tams, flow_options);
    rows.push_back(std::move(row));
  }

  common::TextTable old_table("Exhaustive method of [8] for " +
                              config.soc_label + ", B=" +
                              std::to_string(config.tams));
  old_table.set_header(
      {"W", "partition", "core assignment", "T_old (cyc)", "t_old (s)"},
      {common::Align::Right, common::Align::Left, common::Align::Left,
       common::Align::Right, common::Align::Right});
  for (const auto& row : rows) {
    if (row.exhaustive.completed) {
      old_table.add_row(
          {std::to_string(row.width),
           core::format_partition(row.exhaustive.best.widths),
           core::format_assignment(row.exhaustive.best.assignment),
           cycles(row.exhaustive.best.testing_time),
           seconds(row.exhaustive.cpu_s)});
    } else {
      old_table.add_row({std::to_string(row.width), "-", "did not complete",
                         "n/a", seconds(row.exhaustive.cpu_s) + "+"});
    }
  }
  std::cout << old_table << '\n';

  common::TextTable new_table("New co-optimization method for " +
                              config.soc_label + ", B=" +
                              std::to_string(config.tams));
  new_table.set_header({"W", "partition", "core assignment", "T_new (cyc)",
                        "t_new (s)", "dT (%)", "t_new/t_old"},
                       {common::Align::Right, common::Align::Left,
                        common::Align::Left, common::Align::Right,
                        common::Align::Right, common::Align::Right,
                        common::Align::Right});
  for (const auto& row : rows) {
    const auto& arch = row.flow.architecture;
    std::string delta = "n/a";
    std::string ratio = "n/a";
    if (row.exhaustive.completed) {
      const double t_old =
          static_cast<double>(row.exhaustive.best.testing_time);
      delta = common::format_signed_percent(
          (static_cast<double>(arch.testing_time) - t_old) / t_old * 100.0);
      const double cpu_old = std::max(row.exhaustive.cpu_s, 1e-6);
      ratio = common::format_fixed(row.flow.total_cpu_s() / cpu_old, 4);
    }
    new_table.add_row({std::to_string(row.width),
                       core::format_partition(arch.widths),
                       core::format_assignment(arch.assignment),
                       cycles(arch.testing_time),
                       seconds(row.flow.total_cpu_s()), delta, ratio});
  }
  std::cout << new_table << '\n';

  if (config.ilp_exhaustive) {
    // The method of [8] verbatim: every partition solved with the ILP
    // model. This is the baseline behind the paper's CPU-time ratio
    // column (two-orders-of-magnitude claim).
    common::TextTable ilp_table("Exhaustive with ILP engine (as [8]) for " +
                                config.soc_label + ", B=" +
                                std::to_string(config.tams));
    ilp_table.set_header({"W", "T_old_ilp (cyc)", "t_old_ilp (s)",
                          "t_new/t_old_ilp"},
                         {common::Align::Right, common::Align::Right,
                          common::Align::Right, common::Align::Right});
    for (const auto& row : rows) {
      core::ExhaustiveOptions ilp_options;
      ilp_options.time_budget_s = exhaustive_budget_s();
      ilp_options.engine = core::ExactEngine::Ilp;
      const auto baseline =
          core::exhaustive_paw(table, row.width, config.tams, ilp_options);
      if (baseline.completed) {
        ilp_table.add_row(
            {std::to_string(row.width), cycles(baseline.best.testing_time),
             seconds(baseline.cpu_s),
             common::format_fixed(
                 row.flow.total_cpu_s() / std::max(baseline.cpu_s, 1e-6), 4)});
      } else {
        ilp_table.add_row({std::to_string(row.width), "n/a",
                           seconds(baseline.cpu_s) + "+ (DNC)", "n/a"});
      }
    }
    std::cout << ilp_table << '\n';
  }

  if (config.ilp_probe && !rows.empty()) {
    // One per-partition solve with the paper's ILP formulation (§3.2),
    // budget-capped. [8] ran one of these per enumerated partition.
    const auto& probe_widths = rows.back().flow.architecture.widths;
    core::ExactOptions ilp_options;
    ilp_options.engine = core::ExactEngine::Ilp;
    ilp_options.time_limit_s = exhaustive_budget_s();
    const auto probe =
        core::solve_assignment_exact(table, probe_widths, ilp_options);
    std::cout << "ILP-engine probe (one P_AW solve, partition "
              << core::format_partition(probe_widths) << "): ";
    if (probe.proven_optimal) {
      std::cout << probe.architecture.testing_time << " cycles in "
                << seconds(probe.cpu_s) << " s (" << probe.nodes
                << " B&B nodes over LP relaxations)\n";
    } else {
      std::cout << "DID NOT COMPLETE within " << seconds(ilp_options.time_limit_s)
                << " s — the exhaustive method of [8] ran one such solve per "
                   "partition, hence its multi-day non-termination on this "
                   "SOC\n";
    }
    std::cout << '\n';
  }
}

void run_pnpaw(const core::TestTimeTable& table, const PnpawRun& config) {
  common::TextTable out("New co-optimization method for " + config.soc_label +
                        " (P_NPAW, B<=" + std::to_string(config.max_tams) +
                        "; delta vs exhaustive B<=" +
                        std::to_string(config.reference_max_tams) + ")");
  out.set_header({"W", "#TAMs", "partition", "core assignment", "T_new (cyc)",
                  "t_new (s)", "dT (%)", "t_new/t_old"},
                 {common::Align::Right, common::Align::Right,
                  common::Align::Left, common::Align::Left,
                  common::Align::Right, common::Align::Right,
                  common::Align::Right, common::Align::Right});

  for (const int width : config.widths) {
    core::CoOptimizeOptions options;
    options.search.max_tams = config.max_tams;
    options.search.threads = bench_threads();
    const auto flow = core::co_optimize(table, width, options);

    core::ExhaustiveOptions reference_options;
    reference_options.time_budget_s = exhaustive_budget_s();
    const auto reference = core::exhaustive_pnpaw(
        table, width, config.reference_max_tams, reference_options);

    const auto& arch = flow.architecture;
    std::string delta = "n/a";
    std::string ratio = "n/a";
    if (reference.completed) {
      const double t_old = static_cast<double>(reference.best.testing_time);
      delta = common::format_signed_percent(
          (static_cast<double>(arch.testing_time) - t_old) / t_old * 100.0);
      ratio = common::format_fixed(
          flow.total_cpu_s() / std::max(reference.cpu_s, 1e-6), 4);
    }
    out.add_row({std::to_string(width), std::to_string(arch.tam_count()),
                 core::format_partition(arch.widths),
                 core::format_assignment(arch.assignment),
                 cycles(arch.testing_time), seconds(flow.total_cpu_s()), delta,
                 ratio});
  }
  std::cout << out << '\n';
}

void print_ranges_table(const soc::Soc& soc, const std::string& title) {
  common::TextTable out(title);
  out.set_header({"circuit", "#cores", "test patterns", "functional I/Os",
                  "scan chains", "scan lengths"},
                 {common::Align::Left, common::Align::Right,
                  common::Align::Right, common::Align::Right,
                  common::Align::Right, common::Align::Right});
  const auto row = [&out](const std::string& label,
                          const soc::CoreDataRanges& ranges) {
    const auto span = [](const soc::Range& r) {
      return std::to_string(r.min) + "-" + std::to_string(r.max);
    };
    out.add_row({label, std::to_string(ranges.core_count),
                 span(ranges.test_patterns), span(ranges.functional_ios),
                 ranges.scan_chain_count.max == 0 ? "0"
                                                  : span(ranges.scan_chain_count),
                 ranges.scan_lengths ? span(*ranges.scan_lengths) : "-"});
  };
  row("logic cores", soc::core_data_ranges(soc, soc::CoreKind::Logic));
  row("memory cores", soc::core_data_ranges(soc, soc::CoreKind::Memory));
  std::cout << out << '\n';
}

}  // namespace wtam::bench
