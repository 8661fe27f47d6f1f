// Multi-stream serving runner (DESIGN.md §14).
//
// The ROADMAP north star is a production-scale system serving many concurrent
// monitoring workloads; fleet-style deployments of this class of risk monitor
// run one immutable engine against many independent vehicle streams. The
// StreamRunner is that serving layer in-process: M scenario streams, each a
// (world, session, monitor loop) triple, driven concurrently over the one
// process-wide thread pool against a single shared const RiskMonitor.
//
// Determinism: each stream's outcome is a pure function of its index — the
// world maker is called with the stream index, the session is fresh per
// stream, and results land in index-owned slots — so an M-stream concurrent
// run is bit-identical to running the same streams serially (DESIGN.md §8;
// enforced by the StreamRunner suite and by the e2e fleet_streams workload,
// which checks every concurrent outcome against a serial run).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "common/thread_pool.hpp"
#include "core/monitor.hpp"
#include "sim/world.hpp"

namespace iprism::eval {

/// Per-stream result summary, index-owned during the concurrent run.
struct StreamOutcome {
  std::size_t stream = 0;
  std::string label;           ///< "<label_prefix>.<index>"
  int steps = 0;               ///< world steps taken
  long monitor_updates = 0;    ///< session's update count (== steps)
  double max_sti = 0.0;        ///< highest combined STI seen
  double mean_sti = 0.0;       ///< mean combined STI over updates
  int escalations = 0;         ///< level-raising transitions observed
  core::RiskLevel final_level = core::RiskLevel::kSafe;
  std::optional<int> last_riskiest_actor;  ///< most recent attribution, if any
  bool ego_collided = false;
};

/// Drives M independent scenario streams over one shared monitor engine.
class StreamRunner {
 public:
  /// Builds the world for stream `index`. Must be deterministic in the index
  /// (and thread-safe: makers run concurrently on pool workers).
  using WorldMaker = std::function<sim::World(std::size_t)>;
  /// Builds the ego agent for stream `index`; an empty maker (or a returned
  /// nullptr) coasts the ego with zero control.
  using AgentMaker = std::function<std::unique_ptr<agents::DrivingAgent>(std::size_t)>;

  struct Options {
    /// Monitor/STI/tube configuration shared by every stream.
    core::RiskMonitorParams monitor;
    double max_seconds = 10.0;
    bool stop_on_ego_collision = true;
    /// Prefix for outcome labels. No per-stream metrics are registered, so
    /// telemetry cardinality does not grow with the stream count; the fixed
    /// `monitor.update` timer covers every stream's updates.
    std::string label_prefix = "stream";
  };

  /// The runner fans streams across `pool` (default: the process-wide shared
  /// pool). The monitor engine's tube fan-out runs on the shared pool too, so
  /// stream-level and tube-level parallelism share one set of workers — a
  /// monitor fan-out issued from a stream task runs inline on that worker
  /// (nested same-pool parallel_for_each), never deadlocking it. Pass nullptr
  /// to run streams strictly serially (the determinism reference).
  explicit StreamRunner(const Options& options,
                        common::ThreadPool* pool = &common::ThreadPool::shared());

  /// Runs streams [0, streams), one session + world + monitor loop each,
  /// and returns their outcomes in stream-index order.
  std::vector<StreamOutcome> run(std::size_t streams, const WorldMaker& world_maker,
                                 const AgentMaker& agent_maker = {}) const;

  const core::RiskMonitor& monitor() const { return monitor_; }
  const common::ThreadPool* pool() const { return pool_; }

 private:
  StreamOutcome run_stream(std::size_t index, const WorldMaker& world_maker,
                           const AgentMaker& agent_maker) const;

  Options options_;
  core::RiskMonitor monitor_;  ///< one shared engine; sessions are per stream
  common::ThreadPool* pool_;
};

}  // namespace iprism::eval
