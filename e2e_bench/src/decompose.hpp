// Per-layer decomposition of captured ticks.
//
// The traced pass captures each tick's input world (outside the tick's
// span). Afterwards every captured tick is re-run through the public
// functions of each layer — CVTR forecasts, obstacle sampling, the
// attributed base tube, the unblocked and per-actor counterfactual replays,
// STI (cold / warm session, serial / pooled), the monitor, SMC features and
// policy, a D-DQN step, the LBC agent and the world step — one call per
// layer, each in its own span. Counts come from the public TubeAttribution
// and CounterfactualStats. Every re-run result is cross-checked against
// the others bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/monitor.hpp"
#include "measure.hpp"
#include "sim/world.hpp"
#include "smc/controller.hpp"

namespace e2e {

/// One tick's input world, plus the workload's own assessment of it when
/// the workload ran the monitor itself.
struct CapturedTick {
  std::int64_t tick = -1;
  iprism::sim::World world;
  std::optional<iprism::core::RiskMonitor::Assessment> assessment;
};

/// The ticks of one stream (a scenario, a fleet stream or a training
/// episode) in order: the monitor and agent re-runs carry state across them.
struct CapturedStream {
  int route_lane = 1;
  std::vector<CapturedTick> ticks;
};

struct DecomposeOptions {
  /// Monitor and tube configuration of the workload (tube fan-out is set
  /// per call: serial for everything but sti.compute_pooled).
  iprism::core::RiskMonitorParams monitor;
  const iprism::smc::SmcController* policy = nullptr;
  int action_count = 2;
  std::uint64_t seed = 1;
  /// Median tick latency of the traced pass (µs), the base of
  /// rl.share_of_decision.
  double tick_us = 0.0;
};

/// Re-runs every captured tick, records one span per layer call into `log`,
/// and adds the per-layer metrics to `report`. A tick whose re-runs
/// disagree, or throw, counts as a failed op.
void decompose(std::vector<CapturedStream>& streams, const DecomposeOptions& options,
               SpanLog& log, Report& report);

}  // namespace e2e
