// Tables 4, 8, 14: core test-data ranges of the three Philips SOCs.
// Our synthetic reconstructions pin every published range endpoint, so
// these tables must match the paper cell for cell (see README, "What
// is reconstructed, and why").

#include <iostream>

#include "bench_util.hpp"
#include "soc/benchmarks.hpp"
#include "soc/soc.hpp"

int main() {
  using namespace wtam;
  bench::print_ranges_table(
      soc::p21241(), "Table 4: ranges in test data for the 28 cores in p21241");
  bench::print_ranges_table(
      soc::p31108(), "Table 8: ranges in test data for the 19 cores in p31108");
  bench::print_ranges_table(
      soc::p93791(), "Table 14: ranges in test data for the 32 cores in p93791");

  std::cout << "test-data volumes (sum p*(io+ff), cycles*bits /1000):\n";
  for (const soc::Soc& soc : {soc::p21241(), soc::p31108(), soc::p93791()})
    std::cout << "  " << soc.name << ": " << soc::test_complexity(soc) << "\n";
  std::cout << "(The paper's name-number formula from [8] is not public; see"
               " README.md, \"What is reconstructed, and why\", for the"
               " volume-calibration rationale.)\n";
  return 0;
}
