#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/telemetry.hpp"
#include "roadmap/straight_road.hpp"

namespace iprism::core {
namespace {

roadmap::MapPtr test_map() {
  return std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0);
}

dynamics::VehicleState state(double x, double y, double speed) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  return s;
}

sim::World empty_world() {
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 8));
  return w;
}

sim::World threat_world(double gap) {
  // A stopped wall across all three lanes: blocks lateral escapes too, so
  // the combined STI is genuinely high.
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 10));
  for (double y : {1.75, 5.25, 8.75}) {
    sim::Actor blocker;
    blocker.kind = sim::ActorKind::kVehicle;
    blocker.state = state(50 + gap + 4.5, y, 0.0);
    w.add_actor(std::move(blocker));
  }
  return w;
}

TEST(RiskMonitor, ValidatesParameters) {
  RiskMonitorParams p;
  p.caution_threshold = 0.5;
  p.critical_threshold = 0.4;
  EXPECT_THROW(RiskMonitor{p}, std::invalid_argument);
  p = {};
  p.hysteresis_updates = 0;
  EXPECT_THROW(RiskMonitor{p}, std::invalid_argument);
}

TEST(RiskMonitor, SafeOnEmptyRoad) {
  const RiskMonitor monitor;
  RiskSession session;
  auto w = empty_world();
  const auto a = monitor.update(session, w);
  EXPECT_DOUBLE_EQ(a.sti_combined, 0.0);
  EXPECT_EQ(a.level, RiskLevel::kSafe);
  EXPECT_FALSE(a.riskiest_actor.has_value());
}

TEST(RiskMonitor, EscalatesImmediately) {
  const RiskMonitor monitor;
  RiskSession session;
  auto w = threat_world(6.0);  // imminent: large STI
  const auto a = monitor.update(session, w);
  EXPECT_GE(a.level, RiskLevel::kCaution);
  EXPECT_EQ(session.level(), a.level);
}

TEST(RiskMonitor, AttributionAppearsOnceElevated) {
  const RiskMonitor monitor;
  RiskSession session;
  auto w = threat_world(6.0);
  monitor.update(session, w);  // first update escalates (and attributes — see below)
  const auto second = monitor.update(session, w);
  ASSERT_GE(second.level, RiskLevel::kCaution);
  ASSERT_TRUE(second.riskiest_actor.has_value());
  EXPECT_GT(second.riskiest_sti, 0.1);
}

TEST(RiskMonitor, EscalationTickCarriesAttribution) {
  // Regression: attribution used to be decided from the pre-update level,
  // so the very tick that first crossed caution_threshold escalated with
  // riskiest_actor = nullopt and the responsible actor was only named one
  // tick later — exactly when the alarm consumer needs it most.
  const RiskMonitor monitor;
  RiskSession session;
  auto w = threat_world(6.0);
  const auto first = monitor.update(session, w);
  ASSERT_GE(first.level, RiskLevel::kCaution);
  ASSERT_TRUE(first.riskiest_actor.has_value());
  EXPECT_GT(first.riskiest_sti, 0.1);
}

TEST(RiskMonitor, EscalationTickBuildsWaveOneOnce) {
  // The escalating tick takes the per-actor wave on top of the wave 1 it
  // already built for the combined STI: one attributed base propagation,
  // not one for combined() and another for a full re-run.
#if !IPRISM_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out: no reachtube.compute_attributed histogram";
#else
  const RiskMonitor monitor;
  RiskSession session;
  auto w = threat_world(6.0);
  auto& registry = common::telemetry::MetricsRegistry::instance();
  const auto attributed_runs = [&] {
    const auto* h = registry.find_histogram("reachtube.compute_attributed");
    return h != nullptr ? h->count() : std::uint64_t{0};
  };

  const std::uint64_t before = attributed_runs();
  const auto a = monitor.update(session, w);
  EXPECT_EQ(attributed_runs() - before, 1u);
  ASSERT_GT(a.level, RiskLevel::kSafe);  // this tick escalated from kSafe

  // The assessment is what a fresh-session full evaluation says.
  const StiCalculator sti;
  RiskSession fresh;
  const auto forecasts = cvtr_forecasts(w, 3.0, 0.25);
  const StiResult full =
      sti.compute(fresh, w.map(), w.ego().state, common::Seconds{w.time()}, forecasts);
  const auto riskiest = riskiest_actor_of(full);
  ASSERT_TRUE(riskiest.has_value());
  EXPECT_EQ(a.sti_combined, full.combined);
  EXPECT_EQ(a.riskiest_actor, riskiest->first);
  EXPECT_EQ(a.riskiest_sti, riskiest->second);
#endif
}

TEST(RiskMonitor, AllZeroPerActorYieldsNoRiskiestActor) {
  // Two coincident blockers per lane: removing any single actor leaves its
  // twin, so every counterfactual tube equals the full tube — per-actor STI
  // is all zeros while combined STI stays high. The monitor must escalate
  // without inventing a "riskiest" actor (the old >=-with-0.0-init scan
  // named the last actor).
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 10));
  for (int twin = 0; twin < 2; ++twin) {
    for (double y : {1.75, 5.25, 8.75}) {
      sim::Actor blocker;
      blocker.kind = sim::ActorKind::kVehicle;
      blocker.state = state(50 + 6.0 + 4.5, y, 0.0);
      w.add_actor(std::move(blocker));
    }
  }
  const RiskMonitor monitor;
  RiskSession session;
  const auto a = monitor.update(session, w);
  ASSERT_GE(a.level, RiskLevel::kCaution);
  EXPECT_FALSE(a.riskiest_actor.has_value());
  EXPECT_DOUBLE_EQ(a.riskiest_sti, 0.0);
}

TEST(RiskiestActorOf, StrictMaxFirstWinsAndAllZeroIsEmpty) {
  StiResult sti;
  sti.per_actor = {{7, 0.0}, {3, 0.4}, {9, 0.4}, {5, 0.2}};
  const auto best = riskiest_actor_of(sti);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 3);  // tie at 0.4 resolves to the first in order
  EXPECT_DOUBLE_EQ(best->second, 0.4);

  StiResult zeros;
  zeros.per_actor = {{1, 0.0}, {2, 0.0}};
  EXPECT_FALSE(riskiest_actor_of(zeros).has_value());
  EXPECT_FALSE(riskiest_actor_of(StiResult{}).has_value());
}

TEST(RiskMonitor, DeescalationNeedsQuietStreak) {
  RiskMonitorParams p;
  p.hysteresis_updates = 3;
  const RiskMonitor monitor(p);
  RiskSession session;
  auto threat = threat_world(6.0);
  monitor.update(session, threat);
  monitor.update(session, threat);
  const RiskLevel elevated = session.level();
  ASSERT_GE(elevated, RiskLevel::kCaution);

  auto calm = empty_world();
  // Two quiet updates: still holding the elevated level.
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), elevated);
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), elevated);
  // Third quiet update: drop exactly one level.
  monitor.update(session, calm);
  EXPECT_EQ(static_cast<int>(session.level()), static_cast<int>(elevated) - 1);
}

TEST(RiskMonitor, DeescalationStepsOneLevelAtATime) {
  // Thresholds low enough that the wall scene is kCritical (combined STI is
  // >= every per-actor STI, and the scene's riskiest actor is above 0.1),
  // then a calm road must walk kCritical -> kCaution -> kSafe with a full
  // quiet streak per step — never straight to kSafe.
  RiskMonitorParams p;
  p.caution_threshold = 0.03;
  p.critical_threshold = 0.10;
  p.hysteresis_updates = 2;
  const RiskMonitor monitor(p);
  RiskSession session;
  auto threat = threat_world(6.0);
  monitor.update(session, threat);
  ASSERT_EQ(session.level(), RiskLevel::kCritical);

  auto calm = empty_world();
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), RiskLevel::kCritical);  // streak 1 of 2
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), RiskLevel::kCaution);  // one level, not two
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), RiskLevel::kCaution);  // streak resets per level
  monitor.update(session, calm);
  EXPECT_EQ(session.level(), RiskLevel::kSafe);
}

TEST(RiskMonitor, ResetClearsState) {
  const RiskMonitor monitor;
  RiskSession session;
  auto threat = threat_world(6.0);
  monitor.update(session, threat);
  ASSERT_GE(session.level(), RiskLevel::kCaution);
  session.reset();
  EXPECT_EQ(session.level(), RiskLevel::kSafe);
  EXPECT_EQ(session.updates(), 0);
}

TEST(RiskMonitor, LevelNames) {
  EXPECT_EQ(risk_level_name(RiskLevel::kSafe), "safe");
  EXPECT_EQ(risk_level_name(RiskLevel::kCaution), "caution");
  EXPECT_EQ(risk_level_name(RiskLevel::kCritical), "critical");
}

TEST(RiskMonitor, RequiresEgo) {
  const RiskMonitor monitor;
  RiskSession session;
  sim::World w(test_map(), 0.1);
  EXPECT_THROW(monitor.update(session, w), std::invalid_argument);
}

}  // namespace
}  // namespace iprism::core
