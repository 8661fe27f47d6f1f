// Cross-map behaviour: the simulator, lane keeping, queries, reach-tube and
// STI must work identically on curved maps (ring road, polyline S-curve) —
// the roundabout extension and any future map depend on it.
#include <gtest/gtest.h>

#include "core/sti.hpp"

#include "common/units.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/polyline_road.hpp"
#include "roadmap/ring_road.hpp"
#include "sim/behaviors.hpp"
#include "sim/queries.hpp"
#include "scenario/factory.hpp"
#include "sim/world.hpp"

namespace iprism {
namespace {

using namespace iprism::common::literals;

dynamics::VehicleState lane_state(const roadmap::DrivableMap& map, int lane, double s,
                                  double speed) {
  dynamics::VehicleState st;
  const geom::Vec2 p = map.point_at(s, map.lane_center_offset(lane));
  st.x = p.x;
  st.y = p.y;
  st.heading = map.heading_at(s);
  st.speed = speed;
  return st;
}

TEST(CurvedWorld, LaneKeepingHoldsTheRing) {
  auto map = std::make_shared<roadmap::RingRoad>(2, 3.5, 30.0);
  sim::World w(map, 0.1);
  sim::LaneFollowBehavior::Params p;
  p.lane = 0;
  p.target_speed = 9.0;
  sim::Actor car;
  car.kind = sim::ActorKind::kVehicle;
  car.state = lane_state(*map, 0, 5.0, 9.0);
  car.behavior = std::make_unique<sim::LaneFollowBehavior>(p);
  const int id = w.add_actor(std::move(car));
  // A full lap takes ~ 2*pi*35 / 9 ~ 24.5 s; drive one and check the lane.
  for (int i = 0; i < 260; ++i) w.step(std::nullopt);
  const auto& a = w.actor(id);
  EXPECT_EQ(map->lane_at(a.state.position()), 0);
  EXPECT_NEAR(map->lateral(a.state.position()), map->lane_center_offset(0), 0.4);
}

TEST(CurvedWorld, LaneKeepingHoldsTheSCurve) {
  auto map = std::make_shared<roadmap::PolylineRoad>(roadmap::PolylineRoad::s_curve(2, 3.5));
  sim::World w(map, 0.1);
  sim::LaneFollowBehavior::Params p;
  p.lane = 1;
  p.target_speed = 8.0;
  sim::Actor car;
  car.kind = sim::ActorKind::kVehicle;
  car.state = lane_state(*map, 1, 2.0, 8.0);
  car.behavior = std::make_unique<sim::LaneFollowBehavior>(p);
  const int id = w.add_actor(std::move(car));
  const int steps = static_cast<int>((map->road_length() - 15.0) / 8.0 / 0.1);
  for (int i = 0; i < steps; ++i) w.step(std::nullopt);
  const auto& a = w.actor(id);
  EXPECT_NEAR(map->lateral(a.state.position()), map->lane_center_offset(1), 0.5);
}

TEST(CurvedWorld, RingQueriesSeeLeadAcrossTheSeam) {
  auto map = std::make_shared<roadmap::RingRoad>(2, 3.5, 30.0);
  sim::World w(map, 0.1);
  const double L = map->road_length();
  w.add_ego(lane_state(*map, 0, L - 6.0, 7.0));
  sim::Actor lead;
  lead.kind = sim::ActorKind::kVehicle;
  lead.state = lane_state(*map, 0, 6.0, 7.0);  // just past the s=0 seam
  const int id = w.add_actor(std::move(lead));
  const auto n = sim::lead_in_lane(w, w.ego(), 0);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->actor_id, id);
  EXPECT_NEAR(n->gap, 12.0 - 4.5, 0.3);
}

TEST(CurvedWorld, StiSeesBlockedRingLane) {
  auto map = std::make_shared<roadmap::RingRoad>(2, 3.5, 30.0);
  const core::StiCalculator sti;
  core::RiskSession session;
  const dynamics::CvtrPredictor pred;
  const auto ego = lane_state(*map, 0, 10.0, 8.0);
  // Stopped car 12 m ahead around the arc in the ego's lane.
  auto blocker = lane_state(*map, 0, 22.0, 0.0);
  std::vector<core::ActorForecast> forecasts = {
      {1, pred.predict(blocker, 0.0_s, 4.0_s, 0.25_s), {4.5, 2.0}}};
  const auto r = sti.compute(session, *map, ego, 0.0_s, forecasts);
  EXPECT_GT(r.volume_empty, 100.0);  // the tube follows the arc
  EXPECT_GT(r.combined, 0.1);
  EXPECT_DOUBLE_EQ(r.per_actor[0].second, r.combined);
}

TEST(CurvedWorld, StiZeroOnEmptySCurve) {
  auto map = std::make_shared<roadmap::PolylineRoad>(roadmap::PolylineRoad::s_curve(3, 3.5));
  const core::StiCalculator sti;
  core::RiskSession session;
  const auto ego = lane_state(*map, 1, 20.0, 8.0);
  const core::StiResult r = sti.compute(session, *map, ego, 0.0_s, {});
  EXPECT_DOUBLE_EQ(r.combined, 0.0);
  EXPECT_GT(r.volume_empty, 100.0);
}

TEST(CurvedWorld, GhostCutInOnRingProducesCollisionForBlindEgo) {
  // The §V-C roundabout threat script actually reaches the ego when the
  // ego does not react.
  auto map = std::make_shared<roadmap::RingRoad>(2, 3.5, 30.0);
  sim::World w(map, 0.1);
  w.add_ego(lane_state(*map, 0, 10.0, 8.0));
  sim::CutInBehavior::Params b;
  b.start_lane = 1;
  b.target_lane = 0;
  b.mode = sim::CutInBehavior::TriggerMode::kSelfAheadOfEgo;
  b.trigger_offset = 2.0;
  b.cruise_speed = 12.5;
  b.post_speed = 4.0;
  b.lateral_speed = 2.5;
  sim::Actor threat;
  threat.kind = sim::ActorKind::kVehicle;
  threat.state = lane_state(*map, 1, 10.0 - 15.0 + map->road_length(), 12.5);
  threat.behavior = std::make_unique<sim::CutInBehavior>(b);
  w.add_actor(std::move(threat));
  // Blind ego: lane-keeps at cruise speed with no hazard response.
  for (int i = 0; i < 250 && !w.ego_collided(); ++i) {
    w.step(sim::lane_keep_control(w, w.ego(), 0, 8.0));
  }
  EXPECT_TRUE(w.ego_collided());
}

}  // namespace
}  // namespace iprism
