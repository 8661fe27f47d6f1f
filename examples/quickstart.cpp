// Quickstart: compute the Safety-Threat Indicator for a hand-built scene.
//
// A three-lane road, the ego at 8 m/s, and two other actors: a slow car
// directly ahead and a car passing in the adjacent lane. STI answers, per
// actor, "how many of my escape routes does this actor remove?" — and the
// combined value summarizes the whole scene's risk.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/sti.hpp"

#include "common/units.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"

using namespace iprism;

namespace {

using namespace iprism::common::literals;

dynamics::VehicleState make_state(double x, double y, double speed) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  return s;
}

}  // namespace

int main() {
  // 1. A map: three 3.5 m lanes, 500 m long, running along +x.
  const auto map = std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0);

  // 2. The ego state: middle lane, 8 m/s.
  const dynamics::VehicleState ego = make_state(50.0, map->lane_center_offset(1), 8.0);

  // 3. Other actors, each with a *forecast trajectory*. Here we use the
  //    constant-velocity-and-turn-rate (CVTR) predictor the SMC uses online;
  //    offline characterization would use recorded ground truth instead.
  const dynamics::CvtrPredictor predictor;
  std::vector<core::ActorForecast> forecasts;
  // A slow car 15 m ahead in the ego lane.
  forecasts.push_back(
      {1, predictor.predict(make_state(65.0, map->lane_center_offset(1), 3.0), common::Seconds{/*now_time=*/0.0}, common::Seconds{/*horizon=*/4.0}, common::Seconds{/*dt=*/0.25}),
       {4.5, 2.0}});
  // A faster car alongside in the right lane.
  forecasts.push_back(
      {2, predictor.predict(make_state(48.0, map->lane_center_offset(0), 10.0), 0.0_s, 4.0_s, 0.25_s),
       {4.5, 2.0}});

  // 4. Compute STI: one reach-tube with everyone present, one per-actor
  //    counterfactual, one with the road empty (Eqs. 1-5).
  //    The calculator is an immutable engine; the session holds its scratch
  //    (reuse one session per stream of evaluations).
  const core::StiCalculator sti;
  core::RiskSession session;
  const core::StiResult result =
      sti.compute(session, *map, ego, /*t0=*/common::Seconds{0.0}, forecasts);

  std::cout << "Escape-route volume |T|      : " << result.volume_all << "\n";
  std::cout << "Empty-road volume   |T^null| : " << result.volume_empty << "\n";
  std::cout << "STI (combined)               : " << result.combined << "\n";
  for (const auto& [actor_id, value] : result.per_actor) {
    std::cout << "STI of actor #" << actor_id << "              : " << value << "\n";
  }

  std::cout << "\nReading: the slow lead removes escape routes ahead; the car\n"
               "alongside removes the right-lane escape. An STI of 0 would mean the\n"
               "actor does not constrain the ego at all; 1 means no escape remains.\n";
  return 0;
}
