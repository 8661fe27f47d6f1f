#include "sim/world.hpp"

#include <gtest/gtest.h>

#include "roadmap/straight_road.hpp"
#include "sim/behaviors.hpp"

namespace iprism::sim {
namespace {

roadmap::MapPtr test_map() {
  return std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0);
}

dynamics::VehicleState state(double x, double y, double heading, double speed) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.heading = heading;
  s.speed = speed;
  return s;
}

Actor vehicle(double x, double y, double speed,
              std::unique_ptr<Behavior> behavior = nullptr) {
  Actor a;
  a.kind = ActorKind::kVehicle;
  a.state = state(x, y, 0.0, speed);
  a.behavior = std::move(behavior);
  return a;
}

TEST(World, RejectsBadConstruction) {
  EXPECT_THROW(World(nullptr, 0.1), std::invalid_argument);
  EXPECT_THROW(World(test_map(), 0.0), std::invalid_argument);
}

TEST(World, SingleEgoEnforced) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 5));
  EXPECT_THROW(w.add_ego(state(20, 5.25, 0, 5)), std::invalid_argument);
}

TEST(World, EgoQueriesWithoutEgoThrow) {
  World w(test_map(), 0.1);
  EXPECT_FALSE(w.has_ego());
  EXPECT_THROW(w.ego(), std::invalid_argument);
}

TEST(World, StepAdvancesTimeAndState) {
  World w(test_map(), 0.1);
  const int id = w.add_ego(state(10, 5.25, 0, 8));
  w.step(dynamics::Control{0.0, 0.0});
  EXPECT_NEAR(w.time(), 0.1, 1e-12);
  EXPECT_EQ(w.step_count(), 1);
  EXPECT_NEAR(w.actor(id).state.x, 10.8, 1e-9);
  // prev_state tracks the pre-step state for CVTR.
  EXPECT_NEAR(w.actor(id).prev_state.x, 10.0, 1e-12);
}

TEST(World, EgoControlIsClamped) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 8));
  w.set_ego_limits({-6.0, 3.0, -0.5, 0.5});
  w.step(dynamics::Control{100.0, 0.0});  // clamped to +3
  EXPECT_NEAR(w.ego().state.speed, 8.3, 1e-9);
}

TEST(World, NullEgoControlHoldsSpeed) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 8));
  w.step(std::nullopt);
  EXPECT_NEAR(w.ego().state.speed, 8.0, 1e-12);
}

TEST(World, DetectsHeadOnCollision) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 10));
  w.add_actor(vehicle(16, 5.25, 0));  // stationary 6 m ahead (gap 1.5 m)
  for (int i = 0; i < 20 && !w.ego_collided(); ++i) w.step(dynamics::Control{0, 0});
  EXPECT_TRUE(w.ego_collided());
  ASSERT_TRUE(w.ego_collision_time().has_value());
  EXPECT_GT(*w.ego_collision_time(), 0.0);
  EXPECT_TRUE(w.actor(w.ego_id()).crashed);
}

TEST(World, NoCollisionForParallelTraffic) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 1.75, 0, 8));
  w.add_actor(vehicle(10, 8.75, 8));  // two lanes over, same speed
  for (int i = 0; i < 50; ++i) w.step(dynamics::Control{0, 0});
  EXPECT_FALSE(w.ego_collided());
  EXPECT_TRUE(w.collisions().empty());
}

TEST(World, NpcCollisionFlaggedSeparately) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 1.75, 0, 0));
  w.add_actor(vehicle(100, 5.25, 10));  // fast NPC behind a stopped NPC
  w.add_actor(vehicle(110, 5.25, 0));
  for (int i = 0; i < 30 && !w.npc_collision_occurred(); ++i) w.step(std::nullopt);
  EXPECT_TRUE(w.npc_collision_occurred());
  EXPECT_FALSE(w.ego_collided());
}

TEST(World, CrashedActorsBecomeWreckage) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 1.75, 0, 0));
  w.add_actor(vehicle(100, 5.25, 10));
  w.add_actor(vehicle(106, 5.25, 0));
  while (!w.npc_collision_occurred()) w.step(std::nullopt);
  // Run on: the wrecks must brake to a stop and stay put.
  for (int i = 0; i < 40; ++i) w.step(std::nullopt);
  for (const Actor& a : w.actors()) {
    if (a.crashed) {
      EXPECT_DOUBLE_EQ(a.state.speed, 0.0);
    }
  }
  // No duplicate collision events between the same wrecks.
  EXPECT_EQ(w.collisions().size(), 1u);
}

TEST(World, CloneIsDeepAndReplaysIdentically) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 8));
  LaneFollowBehavior::Params lf;
  lf.lane = 1;
  lf.target_speed = 7.0;
  Actor npc = vehicle(40, 5.25, 7.0, std::make_unique<LaneFollowBehavior>(lf));
  w.add_actor(std::move(npc));
  for (int i = 0; i < 10; ++i) w.step(dynamics::Control{0.5, 0.0});

  World copy = w.clone();
  // Advancing the copy must not disturb the original.
  const double x_before = w.ego().state.x;
  copy.step(dynamics::Control{1.0, 0.0});
  EXPECT_DOUBLE_EQ(w.ego().state.x, x_before);

  // Identical step sequences stay identical.
  World twin = w.clone();
  for (int i = 0; i < 20; ++i) {
    w.step(dynamics::Control{0.2, 0.01});
    twin.step(dynamics::Control{0.2, 0.01});
  }
  EXPECT_DOUBLE_EQ(w.ego().state.x, twin.ego().state.x);
  EXPECT_DOUBLE_EQ(w.ego().state.y, twin.ego().state.y);
  EXPECT_EQ(w.collisions().size(), twin.collisions().size());
}

TEST(World, UnknownActorIdThrows) {
  World w(test_map(), 0.1);
  w.add_ego(state(10, 5.25, 0, 8));
  EXPECT_THROW(w.actor(999), std::invalid_argument);
  EXPECT_FALSE(w.has_actor(999));
}

TEST(World, PedestrianIntegratesHolonomically) {
  World w(test_map(), 0.1);
  Actor ped;
  ped.kind = ActorKind::kPedestrian;
  ped.dims = {0.6, 0.6};
  ped.state = state(50, 0.2, M_PI / 2.0, 1.0);
  const int id = w.add_actor(std::move(ped));
  for (int i = 0; i < 10; ++i) w.step(std::nullopt);
  EXPECT_NEAR(w.actor(id).state.y, 1.2, 1e-9);  // walked straight across
  EXPECT_NEAR(w.actor(id).state.x, 50.0, 1e-9);
}

}  // namespace
}  // namespace iprism::sim
