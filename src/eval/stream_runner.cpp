#include "eval/stream_runner.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/telemetry.hpp"

namespace iprism::eval {

StreamRunner::StreamRunner(const Options& options, common::ThreadPool* pool)
    : options_(options), monitor_(options.monitor), pool_(pool) {}

std::vector<StreamOutcome> StreamRunner::run(std::size_t streams,
                                             const WorldMaker& world_maker,
                                             const AgentMaker& agent_maker) const {
  IPRISM_CHECK(static_cast<bool>(world_maker), "StreamRunner: world maker required");
  IPRISM_SCOPED_TIMER("stream_runner.run", "stream");
  IPRISM_GAUGE_SET("stream_runner.streams", streams);
  std::vector<StreamOutcome> out(streams);
  // Stream-major fan-out: one task per stream, results in index-owned slots.
  // Tube-level fan-out issued inside a stream task targets the same pool and
  // therefore runs inline on the task's worker (nested same-pool
  // parallel_for_each) — stream and tube parallelism compose deadlock-free,
  // and neither changes any outcome (DESIGN.md §8).
  common::parallel_for_each(pool_, streams, [&](std::size_t i) {
    out[i] = run_stream(i, world_maker, agent_maker);
  });
  return out;
}

StreamOutcome StreamRunner::run_stream(std::size_t index, const WorldMaker& world_maker,
                                       const AgentMaker& agent_maker) const {
  StreamOutcome out;
  out.stream = index;
  out.label = options_.label_prefix + "." + std::to_string(index);

  sim::World world = world_maker(index);
  IPRISM_CHECK(world.has_ego(), "StreamRunner: world maker produced a world without an ego");
  std::unique_ptr<agents::DrivingAgent> agent;
  if (agent_maker) {
    agent = agent_maker(index);
    if (agent != nullptr) agent->reset();
  }

  core::RiskSession session;
  double sti_sum = 0.0;
  const int max_steps = static_cast<int>(options_.max_seconds / world.dt());
  for (int step = 0; step < max_steps; ++step) {
    const core::RiskLevel before = session.level();
    const core::RiskMonitor::Assessment assessment = monitor_.update(session, world);
    sti_sum += assessment.sti_combined;
    out.max_sti = std::max(out.max_sti, assessment.sti_combined);
    if (assessment.level > before) ++out.escalations;
    if (assessment.riskiest_actor) out.last_riskiest_actor = assessment.riskiest_actor;

    world.step(agent != nullptr ? agent->act(world) : dynamics::Control{});
    ++out.steps;
    if (world.ego_collided()) {
      out.ego_collided = true;
      if (options_.stop_on_ego_collision) break;
    }
  }
  out.monitor_updates = session.updates();
  out.final_level = session.level();
  if (out.monitor_updates > 0) {
    out.mean_sti = sti_sum / static_cast<double>(out.monitor_updates);
  }
  return out;
}

}  // namespace iprism::eval
