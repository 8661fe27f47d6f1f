#include "core/reachtube.hpp"

#include "common/units.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"

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

ActorForecast stationary_actor(int id, double x, double y) {
  dynamics::CvtrPredictor pred;
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = 0.0;
  return {id, pred.predict(s, 0.0_s, 4.0_s, 0.25_s), {4.5, 2.0}};
}

TEST(ReachTubeParams, Validated) {
  ReachTubeParams p;
  p.dt = 0.0;
  EXPECT_THROW(ReachTubeComputer{p}, std::invalid_argument);
  p = {};
  p.horizon = -1.0;
  EXPECT_THROW(ReachTubeComputer{p}, std::invalid_argument);
  p = {};
  p.cell_size = 0.0;
  EXPECT_THROW(ReachTubeComputer{p}, std::invalid_argument);
}

TEST(ReachTube, EmptyWorldHasPositiveVolume) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const ReachTube tube = rt.compute(session, *map, ego_state(), 0.0_s, {});
  EXPECT_GT(tube.volume, 0.0);
  EXPECT_FALSE(tube.empty());
  // Slice 0 holds exactly the seed state.
  ASSERT_FALSE(tube.slices.empty());
  EXPECT_EQ(tube.slices[0].size(), 1u);
}

TEST(ReachTube, VolumeGrowsWithHorizon) {
  RiskSession session;
  const auto map = test_map();
  ReachTubeParams p_short;
  p_short.horizon = 1.0;
  ReachTubeParams p_long;
  p_long.horizon = 3.0;
  const double v_short =
      ReachTubeComputer(p_short).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  const double v_long =
      ReachTubeComputer(p_long).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  EXPECT_GT(v_long, v_short);
}

TEST(ReachTube, ObstaclesShrinkVolumeStatistically) {
  // Exact reachable sets are monotone under added obstacles; the sampled
  // tube is monotone only statistically — pruning to per-cell extreme
  // representatives means a blocked cell can reroute spread through states
  // the unblocked tube never kept (same approximation class as the paper's
  // sampled Algorithm 1). Assert the statistical form: the mean volume
  // drops and no single trial gains more than a modest overshoot.
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  common::Rng rng(4);
  double sum_empty = 0.0;
  double sum_with = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto ego = ego_state(50.0, rng.uniform(2.0, 9.0), rng.uniform(2.0, 12.0));
    const double v_empty = rt.compute(session, *map, ego, 0.0_s, {}).volume;
    const std::vector<ActorForecast> forecasts = {
        stationary_actor(1, 50.0 + rng.uniform(-20.0, 40.0), rng.uniform(1.0, 10.0))};
    const double v_with = rt.compute(session, *map, ego, 0.0_s, forecasts).volume;
    sum_empty += v_empty;
    sum_with += v_with;
    ASSERT_LE(v_with, 1.25 * v_empty + 5.0);
  }
  EXPECT_LT(sum_with, sum_empty);
}

TEST(ReachTube, BlockingWallReducesVolumeSubstantially) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const auto ego = ego_state();
  const double v_empty = rt.compute(session, *map, ego, 0.0_s, {}).volume;
  // Three stopped cars across all lanes 12 m ahead.
  const std::vector<ActorForecast> wall = {stationary_actor(1, 62.0, 1.75),
                                           stationary_actor(2, 62.0, 5.25),
                                           stationary_actor(3, 62.0, 8.75)};
  const double v_blocked = rt.compute(session, *map, ego, 0.0_s, wall).volume;
  EXPECT_LT(v_blocked, 0.55 * v_empty);
}

TEST(ReachTube, FarAwayActorIsIrrelevant) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const auto ego = ego_state();
  const double v_empty = rt.compute(session, *map, ego, 0.0_s, {}).volume;
  const std::vector<ActorForecast> far = {stationary_actor(1, 400.0, 5.25)};
  EXPECT_DOUBLE_EQ(rt.compute(session, *map, ego, 0.0_s, far).volume, v_empty);
}

TEST(ReachTube, CollidingSeedYieldsEmptyTube) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const auto ego = ego_state(50.0, 5.25, 8.0);
  const std::vector<ActorForecast> overlapping = {stationary_actor(1, 51.0, 5.25)};
  const ReachTube tube = rt.compute(session, *map, ego, 0.0_s, overlapping);
  EXPECT_TRUE(tube.empty());
  EXPECT_DOUBLE_EQ(tube.volume, 0.0);
}

TEST(ReachTube, OffMapSeedYieldsEmptyTube) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const ReachTube tube = rt.compute(session, *map, ego_state(50.0, 30.0, 8.0), 0.0_s, {});
  EXPECT_TRUE(tube.empty());
}

TEST(ReachTube, ExcludeIdRemovesThatObstacle) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const auto ego = ego_state();
  const std::vector<ActorForecast> forecasts = {stationary_actor(7, 60.0, 5.25)};
  const auto obstacles = rt.sample_obstacles(forecasts, 0.0_s);
  const double with = rt.compute(session, *map, ego, obstacles).volume;
  const double without = rt.compute(session, *map, ego, obstacles, common::ActorId{7}).volume;
  const double empty = rt.compute(session, *map, ego, {}, common::ActorId::none()).volume;
  EXPECT_LT(with, without);
  EXPECT_DOUBLE_EQ(without, empty);
}

TEST(ReachTube, ObstacleSliceCountValidated) {
  ReachTubeParams a;
  a.horizon = 3.0;
  ReachTubeParams b;
  b.horizon = 2.0;
  const ReachTubeComputer rt_a(a);
  RiskSession session;
  const ReachTubeComputer rt_b(b);
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {stationary_actor(1, 60.0, 5.25)};
  const auto obstacles = rt_a.sample_obstacles(forecasts, 0.0_s);
  EXPECT_THROW(rt_b.compute(session, *map, ego_state(), obstacles), std::invalid_argument);
}

TEST(ReachTube, DedupBoundsSliceSizes) {
  ReachTubeParams p;
  p.dedup = true;
  const ReachTubeComputer rt(p);
  RiskSession session;
  const auto map = test_map();
  const ReachTube tube = rt.compute(session, *map, ego_state(), 0.0_s, {});
  // With (x, y) cell dedup, each slice cannot exceed the road's cell count
  // within the reachable window; sanity bound: far fewer than the
  // undeduped exponential count (9^slices).
  for (std::size_t j = 1; j < tube.slices.size(); ++j) {
    ASSERT_LT(tube.slices[j].size(), 4000u);
  }
}

TEST(ReachTube, UniformSamplingCoversBoundarySet) {
  RiskSession session;
  // Ablation mode: uniform sampling (optimization (2) off) still includes
  // the extreme controls, so its volume is at least the boundary run's.
  ReachTubeParams boundary;
  ReachTubeParams uniform;
  uniform.boundary_controls = false;
  uniform.uniform_samples = 24;
  const auto map = test_map();
  const double v_boundary =
      ReachTubeComputer(boundary).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  const double v_uniform =
      ReachTubeComputer(uniform).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  EXPECT_GE(v_uniform, v_boundary);
}

TEST(ReachTube, PaperBoundarySetExcludesBraking) {
  RiskSession session;
  ReachTubeParams with_braking;
  with_braking.include_braking_boundary = true;
  ReachTubeParams paper;
  paper.include_braking_boundary = false;
  const auto map = test_map();
  const double v_full =
      ReachTubeComputer(with_braking).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  const double v_paper =
      ReachTubeComputer(paper).compute(session, *map, ego_state(), 0.0_s, {}).volume;
  // The braking-free set reaches fewer near cells.
  EXPECT_LE(v_paper, v_full);
  EXPECT_GT(v_paper, 0.0);
}

TEST(ReachTube, DeterministicAcrossCalls) {
  const ReachTubeComputer rt;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {stationary_actor(1, 65.0, 5.25)};
  const double v1 = rt.compute(session, *map, ego_state(), 0.0_s, forecasts).volume;
  const double v2 = rt.compute(session, *map, ego_state(), 0.0_s, forecasts).volume;
  EXPECT_DOUBLE_EQ(v1, v2);
}

}  // namespace
}  // namespace iprism::core
