// StreamRunner contract (DESIGN.md §14): M concurrent scenario streams over
// one shared const monitor engine are bit-identical to the same streams run
// serially — each outcome is a pure function of its stream index. Part of
// the CI tsan and asan-ubsan jobs (the stream fan-out + nested tube fan-out
// is the concurrent workload).
#include "eval/stream_runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "agents/lbc.hpp"
#include "common/telemetry.hpp"
#include "roadmap/straight_road.hpp"

namespace iprism {
namespace {

dynamics::VehicleState state(double x, double y, double speed) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  return s;
}

/// Deterministic in the index: a three-lane wall ahead of the ego, one metre
/// further per stream, so streams genuinely differ.
sim::World stream_world(std::size_t index) {
  sim::World w(std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0), 0.1);
  w.add_ego(state(50, 5.25, 10));
  const double gap = 12.0 + static_cast<double>(index);
  for (double y : {1.75, 5.25, 8.75}) {
    sim::Actor blocker;
    blocker.kind = sim::ActorKind::kVehicle;
    blocker.state = state(50 + gap + 4.5, y, 0.0);
    w.add_actor(std::move(blocker));
  }
  return w;
}

eval::StreamRunner::Options short_options() {
  eval::StreamRunner::Options options;
  options.max_seconds = 2.0;  // 20 steps per stream keeps the suite fast
  return options;
}

void expect_same_outcome(const eval::StreamOutcome& a, const eval::StreamOutcome& b) {
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.monitor_updates, b.monitor_updates);
  // Exact == on purpose: the guarantee is bit-identity, not closeness.
  EXPECT_EQ(a.max_sti, b.max_sti);
  EXPECT_EQ(a.mean_sti, b.mean_sti);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.final_level, b.final_level);
  EXPECT_EQ(a.last_riskiest_actor, b.last_riskiest_actor);
  EXPECT_EQ(a.ego_collided, b.ego_collided);
}

TEST(StreamRunner, ConcurrentRunBitIdenticalToSerialReference) {
  const auto options = short_options();
  const eval::StreamRunner concurrent(options);  // shared pool
  const eval::StreamRunner serial(options, nullptr);
  ASSERT_EQ(concurrent.pool(), &common::ThreadPool::shared());
  ASSERT_EQ(serial.pool(), nullptr);

  const auto a = concurrent.run(4, stream_world);
  const auto b = serial.run(4, stream_world);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("stream=" + std::to_string(i));
    expect_same_outcome(a[i], b[i]);
  }
}

TEST(StreamRunner, RepeatedConcurrentRunsAreStable) {
  // Thread scheduling varies between runs; outcomes must not.
  const eval::StreamRunner runner(short_options());
  const auto first = runner.run(4, stream_world);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run=" + std::to_string(run));
    const auto again = runner.run(4, stream_world);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      SCOPED_TRACE("stream=" + std::to_string(i));
      expect_same_outcome(first[i], again[i]);
    }
  }
}

TEST(StreamRunner, OutcomesAreIndexOwnedAndLabeled) {
  auto options = short_options();
  options.label_prefix = "fleet";
  const eval::StreamRunner runner(options);
  const auto outcomes = runner.run(3, stream_world);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].stream, i);
    EXPECT_EQ(outcomes[i].label, "fleet." + std::to_string(i));
    EXPECT_GT(outcomes[i].steps, 0);
    // One monitor update per step, counted by the stream's session.
    EXPECT_EQ(outcomes[i].monitor_updates, outcomes[i].steps);
    EXPECT_GT(outcomes[i].max_sti, 0.0);  // the wall is a real threat
  }
}

TEST(StreamRunner, RegistersNoPerStreamMetrics) {
  // Metric cardinality must not grow with the stream count: the runner
  // registers no per-stream names, and the fixed monitor.update timer
  // records every stream's updates.
  auto options = short_options();
  options.label_prefix = "cardinality";
  const eval::StreamRunner runner(options);
  const auto outcomes = runner.run(3, stream_world);
  const auto& registry = common::telemetry::MetricsRegistry::instance();
  EXPECT_EQ(registry.find_counter("cardinality.0.updates"), nullptr);
  long updates = 0;
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(registry.find_counter(outcome.label + ".updates"), nullptr);
    EXPECT_EQ(registry.find_histogram(outcome.label + ".update_ns"), nullptr);
    updates += outcome.monitor_updates;
  }
#if IPRISM_TELEMETRY_ENABLED
  const common::telemetry::Histogram* update_timer = registry.find_histogram("monitor.update");
  ASSERT_NE(update_timer, nullptr);
  EXPECT_GE(update_timer->count(), static_cast<std::uint64_t>(updates));
#else
  EXPECT_GT(updates, 0);
#endif
}

TEST(StreamRunner, StopsOnEgoCollisionWhenAsked) {
  // A coasting ego 12 m from a wall at 10 m/s collides well inside 2 s.
  auto options = short_options();
  const eval::StreamRunner stopping(options);
  const auto stopped = stopping.run(1, stream_world);
  ASSERT_EQ(stopped.size(), 1u);
  EXPECT_TRUE(stopped[0].ego_collided);
  EXPECT_LT(stopped[0].steps, 20);

  options.stop_on_ego_collision = false;
  const eval::StreamRunner running(options);
  const auto ran = running.run(1, stream_world);
  EXPECT_TRUE(ran[0].ego_collided);
  EXPECT_EQ(ran[0].steps, 20);  // rode out the full horizon
}

TEST(StreamRunner, AgentMakerDrivesTheEgo) {
  // With a braking baseline agent the ego reacts to the wall; determinism
  // must hold through the agent path too.
  const auto agent_maker = [](std::size_t) -> std::unique_ptr<agents::DrivingAgent> {
    return std::make_unique<agents::LbcAgent>();
  };
  const auto options = short_options();
  const eval::StreamRunner concurrent(options);
  const eval::StreamRunner serial(options, nullptr);
  const auto a = concurrent.run(3, stream_world, agent_maker);
  const auto b = serial.run(3, stream_world, agent_maker);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("stream=" + std::to_string(i));
    expect_same_outcome(a[i], b[i]);
  }
  // The agent actually changed the episode relative to coasting.
  const auto coasting = serial.run(3, stream_world);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].steps != coasting[i].steps || a[i].ego_collided != coasting[i].ego_collided) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace iprism
