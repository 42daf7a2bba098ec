// rotbench: the rotind end-to-end benchmark program. Runs one workload and
// prints, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones from a traced pass. A wrong answer or a counter
// mismatch makes the exit code nonzero.
//
//   rotbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> [--spans <file>]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "rotbench/workloads.h"
#include "src/simd/simd.h"

namespace rotbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "rotbench: %s\nusage: rotbench --workload "
               "serve_ed|sharded_rw|batch --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::map<std::string, Result (*)(const Args&)> workloads = {
      {"serve_ed", RunServeEd},
      {"sharded_rw", RunShardedRw},
      {"batch", RunBatch},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  std::printf("# rotbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%d simd=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, Nproc(), rotind::simd::ActiveTierName());
  std::fflush(stdout);
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  Result result = it->second(args);
  std::filesystem::remove_all(args.workdir);

  if (args.trace) {
    // Every per-layer metric, in catalogue order; 0 where the workload
    // never enters the layer.
    std::map<std::string, double> measured;
    for (const Metric& m : result.metrics) measured[m.name] = m.value;
    result.metrics.clear();
    for (const auto& [name, unit] : PerLayerCatalogue()) {
      const auto found = measured.find(name);
      result.Add(name, found == measured.end() ? 0.0 : found->second, unit);
      if (found != measured.end()) measured.erase(found);
    }
    for (const auto& [name, value] : measured) {
      std::fprintf(stderr, "rotbench: metric %s is not catalogued\n",
                   name.c_str());
      result.correct = false;
    }
  }
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace rotbench

int main(int argc, char** argv) { return rotbench::Main(argc, argv); }
