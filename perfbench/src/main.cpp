// Command-line entry point of the repository benchmark.
//
//   realtor_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                     --reference-dir=<dir> --work-dir=<dir>
//   realtor_perfbench --self-test --work-dir=<dir>
//   realtor_perfbench --list-metrics
//
// Prints a host header, every metric by name with its unit, the output
// check, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace=0 the metrics are the end-to-end set, with --trace=1 the
// per-layer set. --write-reference stores the run's fingerprints in the
// reference directory instead of checking them.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// --key=value and --key value arguments; bare --flag maps to "1".
std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + arg);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args[arg] = argv[++i];
    } else {
      args[arg] = "1";
    }
  }
  return args;
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

int run(const std::map<std::string, std::string>& args) {
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    return it != args.end() ? it->second : fallback;
  };

  if (args.count("list-metrics") != 0) {
    for (const MetricDef& def : end_to_end_catalog()) {
      std::printf("end_to_end %s %s\n", def.name, def.unit);
    }
    for (const MetricDef& def : layer_catalog()) {
      std::printf("per_layer %s %s\n", def.name, def.unit);
    }
    return 0;
  }

  RunOptions options;
  options.work_dir = get("work-dir", ".bench_build/work");
  std::filesystem::create_directories(options.work_dir);
  if (args.count("self-test") != 0) {
    return run_self_tests(options.work_dir) == 0 ? 0 : 1;
  }

  if (!parse_workload(get("workload", ""), options.workload)) {
    std::cerr << "unknown --workload '" << get("workload", "")
              << "' (paper_grid|scale_push|survive_exact|trace_analysis)\n";
    return 2;
  }
  options.seed = std::stoull(get("seed", std::to_string(kReferenceSeed)));
  options.seconds = std::stod(get("seconds", "25"));
  options.trace = get("trace", "0") == "1";
  options.reference_dir = get("reference-dir", "perfbench/reference");
  options.write_reference = args.count("write-reference") != 0;

  std::printf("# host: %s\n", host_header().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  RunReport report = run_workload(options);
  const MetricSet& metrics = *report.metrics;
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }

  std::string json = "{";
  const auto& catalog = metrics.catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    double value = metrics.get(catalog[i].name);
    if (!std::isfinite(value)) {
      std::printf("CHECK FAILED: %s is not finite\n", catalog[i].name);
      report.correct = false;
      value = 0.0;
    }
    std::printf("%-36s = %s %s\n", catalog[i].name, json_number(value).c_str(),
                catalog[i].unit);
    json += std::string(i > 0 ? ", " : "") + "\"" + catalog[i].name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            catalog[i].unit + "\"}";
  }
  json += "}";
  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted, 1);
  std::printf("%-36s = %s ratio (%llu of %llu operations)\n", "failed_frac",
              json_number(static_cast<double>(report.failed) /
                          static_cast<double>(attempted))
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(attempted));
  const bool correct = report.correct && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, which would
  // move large blocks freed by one repetition onto the heap for the next:
  // every repetition then pays the page faults of a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "realtor_perfbench: " << error.what() << '\n';
    return 1;
  }
}
