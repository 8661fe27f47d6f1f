// End-to-end benchmark of the iPrism monitor tick (README.md).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.json>]
//
// Prints the run's context and notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any output
// check failed, 2 on bad arguments, 3 from a non-release build.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "bench_util.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "e2e_bench: " << why << "\n"
            << "usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n  workloads:";
  for (const auto& w : e2e::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// JSON string literal for a value the program controls (no escapes needed
/// beyond quotes and backslashes).
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  // Refuse to record from debug, sanitizer or DCHECK builds.
  const char* guard_argv[] = {argv[0], "--require-release"};
  iprism::bench::require_release_guard(2, guard_argv);

  e2e::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else {
        return usage("unknown flag");
      }
    } catch (const std::exception&) {
      return usage("bad flag value");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  e2e::Report report;
  try {
    report = e2e::run_workload(config);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << config.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  std::cout << "context: {\"workload\": " << quoted(config.workload)
            << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
            << ", \"trace\": " << (config.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << iprism::common::ThreadPool::shared().thread_count()
            << ", \"cpu_model\": " << quoted(e2e::cpu_model())
            << ", \"build_type\": " << quoted(E2E_BUILD_TYPE)
            << ", \"release_guard\": "
            << quoted(iprism::bench::release_benchmark_build()
                          ? "release"
                          : iprism::bench::nonrelease_build_reason())
            << ", \"telemetry\": " << (IPRISM_TELEMETRY_ENABLED ? "true" : "false")
            << ", \"simd\": " << (E2E_SIMD_ENABLED ? "true" : "false") << "}\n";
  for (const std::string& line : report.notes) std::cout << "  " << line << "\n";
  char frac[64];
  std::snprintf(frac, sizeof frac, "%.6g",
                report.attempted > 0
                    ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
                    : 1.0);
  std::cout << "  ops_failed_frac " << frac << " (" << report.failed << " of "
            << report.attempted << ")\n";
  if (report.attempted < 1) {
    std::cerr << "e2e_bench: the run attempted nothing\n";
    return 1;
  }
  e2e::write_result_json(std::cout, report);
  return report.failed == 0 ? 0 : 1;
}
