// The four benchmark workloads (README.md): each builds its inputs from the
// seed, runs a fixed amount of closed-loop work scaled by --seconds, checks
// every output, and reports the end-to-end metrics — or, traced, the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
Report run_workload(const RunConfig& config);

}  // namespace e2e
