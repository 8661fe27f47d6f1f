#include "core/sti.hpp"

#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"
#include "sti_reference.hpp"

namespace iprism::core {
namespace {

using namespace iprism::common::literals;

std::shared_ptr<roadmap::StraightRoad> test_map() {
  return std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0);
}

dynamics::VehicleState ego_state(double x = 50.0, double y = 5.25, double speed = 8.0) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  return s;
}

ActorForecast actor(int id, double x, double y, double speed, double heading = 0.0) {
  dynamics::CvtrPredictor pred;
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  s.heading = heading;
  return {id, pred.predict(s, 0.0_s, 4.0_s, 0.25_s), {4.5, 2.0}};
}

TEST(Sti, NoActorsMeansZeroRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, {});
  EXPECT_DOUBLE_EQ(r.combined, 0.0);
  EXPECT_TRUE(r.per_actor.empty());
  EXPECT_DOUBLE_EQ(r.volume_all, r.volume_empty);
}

TEST(Sti, StoppedLeadImposesRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_GT(r.combined, 0.05);
  ASSERT_EQ(r.per_actor.size(), 1u);
  EXPECT_EQ(r.per_actor[0].first, 1);
  EXPECT_GT(r.per_actor[0].second, 0.05);
}

TEST(Sti, SingleActorCounterfactualMatchesCombined) {
  // With exactly one actor, removing it recovers the empty tube, so
  // STI_actor == STI_combined (Eqs. 4 and 5 coincide).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 64.0, 5.25, 2.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_NEAR(r.per_actor[0].second, r.combined, 1e-12);
}

TEST(Sti, ActorBehindOnOtherLaneIsZero) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 10.0, 1.75, 3.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(r.combined, 0.0);
  EXPECT_DOUBLE_EQ(r.per_actor[0].second, 0.0);
}

TEST(Sti, FullBlockadeApproachesOne) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  // Stopped wall directly ahead across all three lanes, ego fast.
  const std::vector<ActorForecast> wall = {
      actor(1, 58.0, 1.75, 0.0), actor(2, 58.0, 5.25, 0.0), actor(3, 58.0, 8.75, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(50.0, 5.25, 14.0), 0.0_s, wall);
  EXPECT_GT(r.combined, 0.6);
}

TEST(Sti, CollisionStateIsMaximalRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> overlapping = {actor(1, 52.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, overlapping);
  EXPECT_DOUBLE_EQ(r.combined, 1.0);
}

TEST(Sti, ValuesAlwaysInUnitRangeProperty) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  common::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ActorForecast> forecasts;
    const int n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i) {
      forecasts.push_back(actor(i, 50.0 + rng.uniform(-30.0, 50.0),
                                rng.uniform(1.0, 9.5), rng.uniform(0.0, 12.0),
                                rng.uniform(-0.3, 0.3)));
    }
    const auto ego = ego_state(50.0, rng.uniform(2.0, 9.0), rng.uniform(0.0, 14.0));
    const StiResult r = sti.compute(session, *map, ego, 0.0_s, forecasts);
    ASSERT_GE(r.combined, 0.0);
    ASSERT_LE(r.combined, 1.0);
    for (const auto& [id, v] : r.per_actor) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(Sti, CombinedOnlyAgreesWithFullComputation) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0),
                                                actor(2, 70.0, 1.75, 4.0)};
  const StiResult full = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  const double fast = sti.combined(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(full.combined, fast);
}

TEST(Sti, OffRoadEgoReportsZeroSafely) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(50.0, 40.0, 8.0), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(r.combined, 0.0);  // |T^null| == 0: undefined -> 0, no throw
  EXPECT_DOUBLE_EQ(r.volume_empty, 0.0);
}

TEST(Sti, MaxActorStiHelper) {
  StiResult r;
  EXPECT_DOUBLE_EQ(r.max_actor_sti(), 0.0);
  r.per_actor = {{1, 0.2}, {2, 0.7}, {3, 0.1}};
  EXPECT_DOUBLE_EQ(r.max_actor_sti(), 0.7);
}

TEST(Sti, SymmetricThreatsScoreEqually) {
  // Two actors mirrored about the ego lane centre must receive identical
  // STI (the tube and the counterfactuals are symmetric).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> pair = {actor(1, 62.0, 5.25 - 3.5, 2.0),
                                           actor(2, 62.0, 5.25 + 3.5, 2.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, pair);
  ASSERT_EQ(r.per_actor.size(), 2u);
  EXPECT_NEAR(r.per_actor[0].second, r.per_actor[1].second, 0.03);
}

TEST(Sti, CombinedAtLeastAsLargeAsBestActor) {
  // Removing *all* actors frees at least as much tube volume as removing
  // any single one, so combined >= max per-actor (up to sampling noise).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  common::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ActorForecast> forecasts;
    for (int i = 0; i < 3; ++i) {
      forecasts.push_back(actor(i, 50.0 + rng.uniform(5.0, 30.0),
                                rng.uniform(1.5, 9.0), rng.uniform(0.0, 6.0)));
    }
    const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
    ASSERT_GE(r.combined, r.max_actor_sti() - 0.05);
  }
}

TEST(Sti, NearerThreatScoresHigher) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> near_f = {actor(1, 60.0, 5.25, 0.0)};
  const std::vector<ActorForecast> far_f = {actor(1, 80.0, 5.25, 0.0)};
  const auto near_r = sti.compute(session, *map, ego_state(), 0.0_s, near_f);
  const auto far_r = sti.compute(session, *map, ego_state(), 0.0_s, far_f);
  EXPECT_GT(near_r.combined, far_r.combined);
}

TEST(Sti, DuplicateActorIdsMatchFromScratchReference) {
  // Two timelines share id 1 (possible with hand-built forecast lists):
  // removing "actor 1" must drop both, which index-based replay cannot
  // express, so the calculator falls back to from-scratch tubes for it.
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0),
                                                actor(1, 62.0, 1.75, 0.0),
                                                actor(2, 70.0, 8.75, 2.0)};
  const StiResult reference = test::reference_sti(*map, ego_state(), 0.0_s, forecasts);
  // The twins only matter together: without the fallback, excluding one
  // would leave the other blocking and STI_1 would not match.
  ASSERT_GT(reference.per_actor[0].second, 0.0);
  for (int threads : {0, 2}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ReachTubeParams params;
    params.num_threads = threads;
    const StiCalculator sti(params);
    RiskSession session;
    const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
    // Exact == on purpose: the guarantee is bit-identity, not closeness.
    EXPECT_EQ(r.combined, reference.combined);
    EXPECT_EQ(r.volume_all, reference.volume_all);
    EXPECT_EQ(r.volume_empty, reference.volume_empty);
    ASSERT_EQ(r.per_actor.size(), reference.per_actor.size());
    for (std::size_t i = 0; i < r.per_actor.size(); ++i) {
      EXPECT_EQ(r.per_actor[i].first, reference.per_actor[i].first) << "actor " << i;
      EXPECT_EQ(r.per_actor[i].second, reference.per_actor[i].second) << "actor " << i;
    }
    EXPECT_EQ(sti.combined(session, *map, ego_state(), 0.0_s, forecasts), reference.combined);
  }
}

// Non-finite input must be rejected at the engine boundary: a NaN or
// infinite ego state would otherwise read as STI 0, and a NaN actor
// position as STI 1, with no sign that anything was wrong.
TEST(Sti, RejectsNonFiniteEgoState) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  dynamics::VehicleState nan_speed = ego_state(50.0, 5.25, nan);
  dynamics::VehicleState inf_speed = ego_state(50.0, 5.25, inf);
  dynamics::VehicleState nan_heading = ego_state();
  nan_heading.heading = nan;
  dynamics::VehicleState nan_x = ego_state(nan);
  for (const auto& ego : {nan_speed, inf_speed, nan_heading, nan_x}) {
    EXPECT_THROW(sti.compute(session, *map, ego, 0.0_s, forecasts), std::invalid_argument);
    EXPECT_THROW(sti.combined(session, *map, ego, 0.0_s, forecasts), std::invalid_argument);
    EXPECT_THROW(sti.tube_computer().compute(session, *map, ego, 0.0_s, {}),
                 std::invalid_argument);
  }
}

TEST(Sti, RejectsNonFiniteActorFootprint) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {
      actor(1, std::numeric_limits<double>::quiet_NaN(), 5.25, 0.0)};
  EXPECT_THROW(sti.compute(session, *map, ego_state(), 0.0_s, forecasts),
               std::invalid_argument);
  EXPECT_THROW(sti.combined(session, *map, ego_state(), 0.0_s, forecasts),
               std::invalid_argument);

  // A hand-built timeline with a finite box but a corrupted radius.
  const ReachTubeComputer& rt = sti.tube_computer();
  const std::vector<ActorForecast> finite = {actor(1, 62.0, 5.25, 0.0)};
  std::vector<ObstacleTimeline> obstacles = rt.sample_obstacles(finite, 0.0_s);
  obstacles[0].circumradius_by_slice[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(rt.compute(session, *map, ego_state(), obstacles), std::invalid_argument);
  EXPECT_THROW(rt.compute_attributed(session, *map, ego_state(), obstacles),
               std::invalid_argument);
}

}  // namespace
}  // namespace iprism::core
