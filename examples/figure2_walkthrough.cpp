// Reproduces the paper's Figure 2 worked example step by step.
//
// Five cores, three TAMs of widths 32/16/8, testing times given by Figure
// 2(a). Core_assign must end with TAM times 180/200/200 and the assignment
// of Figure 2(b): cores 1..5 -> TAMs 2, 3, 2, 1, 1. The final exact step
// (§3.2) then improves Core_assign's 200 cycles to 170 on this partition.

#include <iostream>

#include "wtam.hpp"

int main() {
  using namespace wtam;

  const std::vector<int> widths = {32, 16, 8};
  const core::TestTimeTable times(
      {32, 16, 8}, {
                       {50, 100, 200},   // Core 1
                       {75, 95, 200},    // Core 2
                       {90, 100, 150},   // Core 3
                       {60, 75, 80},     // Core 4
                       {120, 120, 125},  // Core 5
                   });

  common::TextTable matrix("Figure 2(a): core testing times (cycles)");
  matrix.set_header({"Core", "TAM 1 (32)", "TAM 2 (16)", "TAM 3 (8)"});
  for (int i = 0; i < times.core_count(); ++i)
    matrix.add_row({std::to_string(i + 1), std::to_string(times.time(i, 32)),
                    std::to_string(times.time(i, 16)),
                    std::to_string(times.time(i, 8))});
  std::cout << matrix << "\n";

  std::cout << "Core_assign walkthrough (largest time -> least-loaded TAM):\n"
            << "  1. All TAMs empty; widest (TAM 1) goes first. Core 5 has\n"
            << "     the largest T on TAM 1 (120) -> Core 5 to TAM 1.\n"
            << "  2. TAM 2 is the widest empty TAM. Cores 1 and 3 tie at\n"
            << "     100; Core 1 is slower on the next-narrower TAM 3\n"
            << "     (200 vs 150) -> Core 1 to TAM 2 (Line 14).\n"
            << "  3. Core 2 to TAM 3 (largest remaining T there, 200).\n"
            << "  4. TAM 2 minimally loaded -> Core 3 to TAM 2.\n"
            << "  5. Core 4 to TAM 1.\n\n";

  const core::CoreAssignResult result = core::core_assign(times, widths);
  common::TextTable outcome("Figure 2(b): final assignment");
  outcome.set_header({"Core", "TAM", "time (cycles)"});
  for (int i = 0; i < times.core_count(); ++i) {
    const int tam = result.architecture.assignment[static_cast<std::size_t>(i)];
    outcome.add_row(
        {std::to_string(i + 1), std::to_string(tam + 1),
         std::to_string(times.time(i, widths[static_cast<std::size_t>(tam)]))});
  }
  std::cout << outcome << "\n";

  std::cout << "TAM times:";
  for (const auto t : result.architecture.tam_times) std::cout << ' ' << t;
  std::cout << "  (paper: 180 200 200)\n";
  std::cout << "SOC testing time: " << result.architecture.testing_time
            << " cycles (paper: 200)\n";

  // The final optimization step (exact P_AW) improves on the heuristic:
  // Core_assign's 200 cycles is not optimal for this partition.
  const core::ExactResult exact =
      core::solve_assignment_exact(times, widths, {});
  std::cout << "exact optimum for this partition: "
            << exact.architecture.testing_time
            << " cycles (the exact step improves Core_assign's 200)\n";
  return result.architecture.testing_time == 200 &&
                 exact.architecture.testing_time == 170
             ? 0
             : 1;
}
