// hns_bench: one benchmark run of one workload.
//
//   hns_bench --workload <resolve_warm|evolve_churn|sim_population>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: value}} with every
// metric the workload measured; run.py attaches the units BENCHMARK.json
// gives and selects the end-to-end (--trace 0) or per-layer (--trace 1)
// set.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace hnsbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hns_bench --workload <resolve_warm|evolve_churn|sim_population> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage();
    }
  }
  bool sockets = config.workload == "resolve_warm" || config.workload == "evolve_churn";
  if ((!sockets && config.workload != "sim_population") || config.seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }

  // The serving runtime must run on its defaults; refuse environment
  // overrides rather than measure a different configuration.
  bool overridden = false;
  for (const char* name : {"HCS_REACTOR", "HCS_UDP_BATCH"}) {
    const char* value = std::getenv(name);
    std::printf("env %s=%s\n", name, value == nullptr ? "(unset)" : value);
    overridden = overridden || value != nullptr;
  }
  if (overridden) {
    std::fprintf(stderr, "refusing to run with serving-runtime overrides in the environment\n");
    return 1;
  }
  std::printf("seed %" PRIu64 ", nproc %ld, harness threads %d, measure %.1f s, trace %d\n",
              config.seed, sysconf(_SC_NPROCESSORS_ONLN), sockets ? 2 : 1, config.seconds,
              config.trace ? 1 : 0);

  RunResult result = sockets ? RunSocketWorkload(config) : RunSimWorkload(config);

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace hnsbench

int main(int argc, char** argv) { return hnsbench::Main(argc, argv); }
