// Power-aware test scheduling: sweep the peak-power budget and show the
// testing-time / peak-power trade-off on a co-optimized architecture
// (the constraint studied by the paper's reference [4]).

#include <iostream>
#include <numeric>

#include "wtam.hpp"

int main(int argc, char** argv) {
  using namespace wtam;

  const int width = argc > 1 ? std::atoi(argv[1]) : 32;
  if (width < 2 || width > 64) {
    std::cerr << "usage: power_aware [total_width 2..64]\n";
    return 1;
  }

  const soc::Soc soc = soc::d695();
  const core::TestTimeTable table(soc, width);
  core::CoOptimizeOptions options;
  options.search.max_tams = 4;
  const auto result = core::co_optimize(table, width, options);
  const auto& arch = result.architecture;

  const core::PowerVector power = core::scan_activity_power(soc);
  const std::int64_t peak0 =
      pack::packed_peak_power(pack::from_architecture(table, arch), power);
  const std::int64_t largest = *std::max_element(power.begin(), power.end());

  std::cout << soc.name << " at W=" << width << ", partition "
            << core::format_partition(arch.widths) << ": unconstrained "
            << arch.testing_time << " cycles at peak power " << peak0
            << " (scan-activity units)\n\n";

  common::TextTable sweep("Peak-power budget sweep");
  sweep.set_header({"budget", "feasible", "peak", "testing time",
                    "slowdown (%)", "inserted idle (cycles)"});
  for (double fraction : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4}) {
    const auto budget = static_cast<std::int64_t>(fraction * peak0);
    const auto constrained =
        core::schedule_with_power_limit(table, arch, power, budget);
    if (!constrained.feasible) {
      sweep.add_row({std::to_string(budget), "no", "-", "-", "-", "-"});
      continue;
    }
    const double slowdown =
        (static_cast<double>(constrained.schedule.makespan) -
         static_cast<double>(arch.testing_time)) /
        static_cast<double>(arch.testing_time) * 100.0;
    sweep.add_row({std::to_string(budget), "yes",
                   std::to_string(constrained.peak),
                   std::to_string(constrained.schedule.makespan),
                   common::format_fixed(slowdown, 1),
                   std::to_string(constrained.idle_cycles)});
  }
  std::cout << sweep;
  std::cout << "\n(lowest feasible budget = largest single-core power = "
            << largest << ")\n";
  return 0;
}
