#include "smc/controller.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "roadmap/straight_road.hpp"
#include "smc/features.hpp"

namespace iprism::smc {
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

/// Builds a policy that constantly prefers `preferred` by biasing the output
/// head: train a fresh MLP briefly toward one-hot targets.
rl::Mlp constant_policy(int actions, int preferred) {
  common::Rng rng(10);
  rl::Mlp net({kFeatureCount, 8, actions}, rng);
  const std::vector<double> probe(kFeatureCount, 0.3);
  std::vector<rl::Mlp::Sample> batch;
  for (int a = 0; a < actions; ++a) batch.push_back({probe, a, a == preferred ? 5.0 : -5.0});
  std::vector<double> td(batch.size());
  for (int i = 0; i < 400; ++i) {
    net.accumulate_gradient(batch, td);
    net.apply_adam(0.01);
  }
  return net;
}

sim::World make_world() {
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 8));
  return w;
}

TEST(SmcController, ValidatesPolicyShape) {
  common::Rng rng(1);
  rl::Mlp wrong({3, 4, 2}, rng);
  EXPECT_THROW(SmcController(std::move(wrong)), std::invalid_argument);
}

TEST(SmcController, NoOpReturnsNullopt) {
  SmcController smc(constant_policy(3, 0));
  auto w = make_world();
  EXPECT_FALSE(smc.intervene(w, dynamics::Control{1.0, 0.1}).has_value());
}

TEST(SmcController, BrakeOverridesLongitudinalOnly) {
  SmcControlParams p;
  p.brake_accel = -6.0;
  SmcController smc(constant_policy(3, 1), p);
  auto w = make_world();
  const auto u = smc.intervene(w, dynamics::Control{2.0, 0.17});
  ASSERT_TRUE(u.has_value());
  EXPECT_DOUBLE_EQ(u->accel, -6.0);
  EXPECT_DOUBLE_EQ(u->steer, 0.17);  // ADS keeps the steering
}

TEST(SmcController, AccelerateAction) {
  SmcControlParams p;
  p.accel_accel = 3.0;
  SmcController smc(constant_policy(3, 2), p);
  auto w = make_world();
  const auto u = smc.intervene(w, dynamics::Control{-1.0, 0.0});
  ASSERT_TRUE(u.has_value());
  EXPECT_DOUBLE_EQ(u->accel, 3.0);
}

TEST(SmcController, BrakeOnlyActionSetWorks) {
  SmcController smc(constant_policy(2, 1));
  auto w = make_world();
  EXPECT_TRUE(smc.intervene(w, dynamics::Control{0.0, 0.0}).has_value());
}

TEST(SmcController, DecisionPeriodHoldsAction) {
  // The controller re-evaluates the policy only every decision_period
  // steps; between decisions the held action persists even if the world
  // changes. We can't easily make the constant policy flip, but we can at
  // least verify repeated calls stay consistent and reset() clears state.
  SmcControlParams p;
  p.decision_period = 3;
  SmcController smc(constant_policy(3, 1), p);
  auto w = make_world();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(smc.intervene(w, dynamics::Control{0.0, 0.0}).has_value());
    w.step(dynamics::Control{0.0, 0.0});
  }
  smc.reset();
  EXPECT_TRUE(smc.intervene(w, dynamics::Control{0.0, 0.0}).has_value());
}

TEST(SmcAction, LaneChangeOverridesSteering) {
  auto w = make_world();
  SmcControlParams p;
  const auto left =
      apply_smc_action(SmcAction::kLaneChangeLeft, w, dynamics::Control{0.5, 0.0}, p);
  ASSERT_TRUE(left.has_value());
  EXPECT_GT(left->steer, 0.01);  // toward the higher (left) lane
  const auto right =
      apply_smc_action(SmcAction::kLaneChangeRight, w, dynamics::Control{0.5, 0.0}, p);
  ASSERT_TRUE(right.has_value());
  EXPECT_LT(right->steer, -0.01);
}

TEST(SmcAction, LaneChangeOffEdgeIsNoOp) {
  // Ego on the leftmost lane: LCL has nowhere to go.
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 8.75, 8));
  SmcControlParams p;
  EXPECT_FALSE(
      apply_smc_action(SmcAction::kLaneChangeLeft, w, dynamics::Control{}, p).has_value());
  EXPECT_TRUE(
      apply_smc_action(SmcAction::kLaneChangeRight, w, dynamics::Control{}, p).has_value());
}

TEST(SmcAction, MappingMatchesController) {
  auto w = make_world();
  SmcControlParams p;
  const auto brake = apply_smc_action(SmcAction::kBrake, w, dynamics::Control{1.0, 0.2}, p);
  ASSERT_TRUE(brake.has_value());
  EXPECT_DOUBLE_EQ(brake->accel, p.brake_accel);
  EXPECT_DOUBLE_EQ(brake->steer, 0.2);
  EXPECT_FALSE(apply_smc_action(SmcAction::kNoOp, w, dynamics::Control{}, p).has_value());
}

TEST(SmcController, SaveLoadRoundTrip) {
  SmcController smc(constant_policy(3, 1));
  std::stringstream ss;
  smc.save(ss);
  SmcController restored = SmcController::load(ss);
  auto w = make_world();
  const auto a = smc.intervene(w, dynamics::Control{0.0, 0.0});
  const auto b = restored.intervene(w, dynamics::Control{0.0, 0.0});
  ASSERT_EQ(a.has_value(), b.has_value());
  EXPECT_DOUBLE_EQ(a->accel, b->accel);
}

TEST(SmcController, FeatureNoiseValidatedAndDeterministic) {
  SmcControlParams p;
  p.feature_noise_std = -1.0;
  rl::Mlp bad_policy = constant_policy(3, 0);
  EXPECT_THROW(SmcController(std::move(bad_policy), p), std::invalid_argument);

  p.feature_noise_std = 0.5;
  p.decision_period = 1;
  SmcController a(constant_policy(3, 1), p);
  SmcController b(constant_policy(3, 1), p);
  auto w = make_world();
  // Same seed => identical noisy decisions step by step.
  for (int i = 0; i < 10; ++i) {
    const auto ua = a.intervene(w, dynamics::Control{});
    const auto ub = b.intervene(w, dynamics::Control{});
    ASSERT_EQ(ua.has_value(), ub.has_value());
    w.step(dynamics::Control{0.0, 0.0});
  }
}

TEST(SmcController, PolicyActionMatchesArgmax) {
  SmcController smc(constant_policy(3, 2));
  std::vector<double> probe(kFeatureCount, 0.3);
  EXPECT_EQ(smc.policy_action(probe), SmcAction::kAccelerate);
}

}  // namespace
}  // namespace iprism::smc
