// Test-schedule visualization: co-optimize a SOC, then print its static
// TAM lanes as a wire-level Gantt chart together with the strip
// utilization, which quantifies the paper's §1 "idle TAM wires"
// motivation.

#include <iostream>
#include <string>

#include "wtam.hpp"

int main(int argc, char** argv) {
  using namespace wtam;

  const std::string which = argc > 1 ? argv[1] : "d695";
  const int width = argc > 2 ? std::atoi(argv[2]) : 32;
  soc::Soc soc;
  try {
    soc = soc::load_by_name_or_path(which);
  } catch (const std::exception& e) {
    std::cerr << "usage: schedule_gantt [d695|p21241|p31108|p93791|FILE.soc]"
                 " [width]\n"
              << e.what() << "\n";
    return 1;
  }
  if (width < 2 || width > 128) {
    std::cerr << "width must be in 2..128\n";
    return 1;
  }

  const core::TestTimeTable table(soc, width);
  core::CoOptimizeOptions options;
  options.search.max_tams = 8;
  const auto result = core::co_optimize(table, width, options);
  const auto& arch = result.architecture;

  std::cout << soc.name << " at total TAM width " << width << ": partition "
            << core::format_partition(arch.widths) << ", testing time "
            << arch.testing_time << " cycles\n\n";

  const auto schedule = pack::from_architecture(table, arch);
  std::cout << pack::render_packed_gantt(schedule, soc, 64)
            << "strip utilization "
            << common::format_fixed(pack::strip_utilization(schedule) * 100.0,
                                    1)
            << "%\n";

  const auto bounds = core::testing_time_lower_bounds(table, width);
  std::cout << "\nlower bounds: bottleneck core "
            << soc.cores[static_cast<std::size_t>(bounds.bottleneck_core_index)]
                   .name
            << " -> " << bounds.bottleneck_core << " cycles; volume -> "
            << bounds.volume << " cycles; achieved gap "
            << common::format_fixed(
                   core::optimality_gap(bounds, arch.testing_time) * 100.0, 1)
            << "%\n";
  return 0;
}
