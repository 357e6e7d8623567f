// wtam_perfbench — the load generator of the repository's benchmark.
//
//   wtam_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --bin-dir DIR --reference DIR --out-dir DIR
//   wtam_perfbench --write-reference --reference DIR [--workload W]
//
// perfbench/run.py builds this binary and passes the directories; see
// perfbench/README.md for the workloads and metrics. The last line of
// stdout is the result object; the exit status is 0 when every answer
// passed its output check and every workload self-check held.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "wtam_perfbench: " << error << "\n"
            << "usage: wtam_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --reference DIR --out-dir DIR\n"
               "       wtam_perfbench --write-reference --reference DIR "
               "[--workload W]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool write_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--bin-dir") {
        options.bin_dir = value();
      } else if (arg == "--reference") {
        options.reference_dir = value();
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--write-reference") {
        write_reference = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.reference_dir.empty()) usage("--reference is required");
  try {
    if (write_reference) return perfbench::write_references(options);
    if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
    if (options.bin_dir.empty() || options.out_dir.empty())
      usage("--bin-dir and --out-dir are required");
    if (options.workload == "serve-hot")
      return perfbench::run_serve_hot(options);
    if (options.workload == "sweep" || options.workload == "pack" ||
        options.workload == "pack-power")
      return perfbench::run_cold(options);
    usage("unknown workload '" + options.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "wtam_perfbench: " << e.what() << "\n";
    return 1;
  }
}
