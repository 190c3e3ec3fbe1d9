// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <offload-exec|fleet-burst|cluster-skew>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints two JSON lines on stdout. The first is the full report (provenance,
// every metric with its unit and sample count, failed checks); the last is
// the result line {"correct", "attempted", "failed", "metrics"}. Exit code
// 0 only when every correctness check passed. perfbench/run.py builds this
// program and wraps it; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench_util.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number. A non-finite value fails the run (see main) and
/// prints as 0 so the line stays valid JSON.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Result& r, bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples && m.samples > 0)
      out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <offload-exec|fleet-burst|"
               "cluster-skew> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(options.seconds > 0.0))
        return usage();
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || options.workload.empty())
    return usage();

  Result result;
  try {
    if (options.workload == "offload-exec")
      result = perfbench::run_offload_exec(options);
    else if (options.workload == "fleet-burst")
      result = perfbench::run_fleet_burst(options);
    else if (options.workload == "cluster-skew")
      result = perfbench::run_cluster_skew(options);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // The program reports what the run measured; run.py checks the set
  // against BENCHMARK.json.
  if (!options.trace)
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  for (const auto& [name, m] : result.metrics)
    if (!std::isfinite(m.value)) result.fail("non-finite value for " + name);

  std::string prov = "{\"workload\": " + json_string(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"seconds\": " + json_number(options.seconds) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"server_threads\": " +
                     std::to_string(perfbench::server_threads()) +
                     ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : result.params) {
    if (!first) prov += ", ";
    first = false;
    prov += json_string(k) + ": " + json_string(v);
  }
  prov += "}}";
  std::string failures = "[";
  for (std::size_t i = 0; i < result.failures.size(); ++i)
    failures += (i ? ", " : "") + json_string(result.failures[i]);
  failures += "]";

  std::printf("{\"report\": {\"provenance\": %s, \"metrics\": %s, "
              "\"failures\": %s}}\n",
              prov.c_str(), metrics_json(result, true).c_str(),
              failures.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result, false).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
