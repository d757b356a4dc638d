// rotabench: the RoTA end-to-end benchmark program.
//
//   rotabench --workload serve_mix|degrade_timeline|design_sweep
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints check findings on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.

#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "rotabench: " << why
            << "\nusage: rotabench --workload serve_mix|degrade_timeline|"
               "design_sweep --seed N --seconds S --trace 0|1 [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rotabench::RunSettings settings;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        settings.trace = value == "1";
      } else if (flag == "--spans") {
        settings.spans_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(settings.seconds > 0.0)) return usage("--seconds must be positive");

  rotabench::RunResult result;
  try {
    if (workload == "serve_mix") {
      result = rotabench::run_serve_mix(settings);
    } else if (workload == "degrade_timeline") {
      result = rotabench::run_degrade_timeline(settings);
    } else if (workload == "design_sweep") {
      result = rotabench::run_design_sweep(settings);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "rotabench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "check failed: " << problem << '\n';
  }
  std::cout << rotabench::result_json(result) << std::endl;
  return 0;
}
