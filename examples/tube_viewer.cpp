// Tube viewer: watch the ego's escape routes shrink as a ghost cut-in
// unfolds — an ASCII rendition of the paper's Fig. 1. Prints the plan view
// ('E' ego, 'A' the cutting actor, '.' reach-tube occupancy) together with
// the live STI at four moments of the scenario.
//
// Build & run:  cmake --build build && ./build/examples/tube_viewer
#include <iostream>

#include "agents/lbc.hpp"
#include "core/sti.hpp"
#include "eval/render.hpp"
#include "scenario/factory.hpp"

using namespace iprism;

int main() {
  const scenario::ScenarioFactory factory;
  common::Rng rng(41);
  // A reasonably aggressive ghost cut-in instance.
  scenario::ScenarioSpec spec = factory.sample(scenario::Typology::kGhostCutIn, 0, rng);
  spec.hyperparams["distance_lane_change"] = 3.0;
  spec.hyperparams["post_speed"] = 4.5;

  sim::World world = factory.build(spec);
  agents::LbcAgent lbc;
  const core::StiCalculator sti;
  core::RiskSession session;

  const double probe_times[] = {0.5, 3.0, 5.0, 6.5};
  std::size_t next_probe = 0;

  while (world.time() < 12.0 && next_probe < std::size(probe_times)) {
    world.step(lbc.act(world));
    if (world.time() + 1e-9 < probe_times[next_probe]) continue;
    ++next_probe;

    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const auto result =
        sti.compute(session, world.map(), world.ego().state, common::Seconds{world.time()},
                    forecasts);
    std::cout << "t = " << world.time() << " s — STI(combined) = " << result.combined;
    for (const auto& [id, v] : result.per_actor) {
      std::cout << ", STI(actor " << id << ") = " << v;
    }
    std::cout << (world.ego_collided() ? "  [COLLIDED]" : "") << "\n";
    std::cout << eval::render_world(world, /*with_tube=*/true) << "\n";
    if (world.ego_collided()) break;
  }

  std::cout << "Reading: '.' cells are states the ego can still safely reach within\n"
               "the 3 s horizon; the cutting actor ('A') erases them as it merges,\n"
               "which is exactly what STI quantifies.\n";
  return 0;
}
