// Reproduces the paper's §V-E execution-overhead measurements in the form
// the paper itself anticipates: "use of a high-performance programming
// language (e.g., C++)" — so these are the C++ numbers for the same
// operations the paper timed in Python (STI evaluation 0.61 s; SMC
// inference 0.012 s there). End-to-end tick, throughput and per-layer
// numbers come from e2e_bench/; these are the per-operation microbenchmarks.
//
//   ./overheads [ubench flags] [--require-release]
//
// The BM_CounterfactualFanout family sweeps actor count N for the full STI
// evaluation on the shared-wavefront counterfactual engine (DESIGN.md §12).
// Recorded as BENCH_counterfactual_delta.json:
//   ./overheads --require-release --benchmark_filter=BM_CounterfactualFanout
//     --benchmark_out=BENCH_counterfactual_delta.json --benchmark_out_format=json
//
// The tube and STI benchmarks build a fresh core::RiskSession inside the
// timed loop: they time the cold call (scratch allocated and reserved per
// iteration), which is what the recorded baselines hold.
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "bench_util.hpp"
#include "core/pkl.hpp"
#include "core/ttc.hpp"
#include "dynamics/cvtr.hpp"
#include "dynamics/trajectory.hpp"
#include "smc/controller.hpp"
#include "smc/features.hpp"
#include "ubench.hpp"

using namespace iprism;

namespace {

/// A representative mid-severity scene: ego plus three actors, one of them
/// a decelerating lead.
struct Fixture {
  Fixture() : factory(), world(make_world()) {}

  sim::World make_world() {
    common::Rng rng(9);
    auto spec = factory.sample(scenario::Typology::kLeadSlowdown, 0, rng);
    // Pin the geometry to a mid-severity approach: lead 35 m ahead, braking
    // once the ego closes to 10 m. The probe time (1.5 s in) is well before
    // any collision — an ego in collision has an empty reach-tube, which
    // benchmarks nothing.
    spec.hyperparams["npc_vehicle_location"] = 35.0;
    spec.hyperparams["event_trigger_distance"] = 10.0;
    sim::World w = factory.build(spec);
    for (int i = 0; i < 15; ++i) w.step(dynamics::Control{0.0, 0.0});
    return w;
  }

  scenario::ScenarioFactory factory;
  sim::World world;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_SimStep(ubench::State& state) {
  sim::World world = fixture().make_world();
  for (auto _ : state) {
    world.step(dynamics::Control{0.0, 0.0});
    ubench::DoNotOptimize(world.time());
  }
}
UBENCH(BM_SimStep);

void BM_ReachTube(ubench::State& state) {
  auto& f = fixture();
  const core::ReachTubeComputer rt;
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  for (auto _ : state) {
    core::RiskSession session;
    const auto tube = rt.compute(session, f.world.map(), f.world.ego().state,
                                 common::Seconds{f.world.time()}, forecasts);
    ubench::DoNotOptimize(tube.volume);
  }
}
UBENCH(BM_ReachTube);

void BM_StiCombined(ubench::State& state) {
  auto& f = fixture();
  const core::StiCalculator sti;
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  for (auto _ : state) {
    core::RiskSession session;
    ubench::DoNotOptimize(sti.combined(session, f.world.map(), f.world.ego().state,
                                       common::Seconds{f.world.time()}, forecasts));
  }
}
UBENCH(BM_StiCombined);

void BM_StiFullPerActor(ubench::State& state) {
  // The paper's "STI evaluation": per-actor counterfactuals + combined
  // (0.61 s in the Python implementation on a Threadripper).
  auto& f = fixture();
  const core::StiCalculator sti;
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  for (auto _ : state) {
    core::RiskSession session;
    const auto r = sti.compute(session, f.world.map(), f.world.ego().state,
                               common::Seconds{f.world.time()}, forecasts);
    ubench::DoNotOptimize(r.combined);
  }
}
UBENCH(BM_StiFullPerActor);

// ---------------------------------------------------------------------------
// BM_CounterfactualFanout: actor-count sweep for the shared-wavefront
// counterfactual engine (DESIGN.md §12). The scene keeps the fixture's three
// live nearby actors (real blockers → real delta replays) and pads to N with
// static actors distributed on a far ring — outside every slice's reachable
// disc, so their counterfactuals are free (a from-scratch engine would pay a
// full propagation for each). This is the sparse many-actor regime the
// O(W + Σδᵢ) claim is about: the time should stay nearly flat in N.

std::vector<core::ActorForecast> fanout_forecasts(std::int64_t n) {
  auto& f = fixture();
  auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  if (std::cmp_greater(forecasts.size(), n)) {
    forecasts.resize(static_cast<std::size_t>(n));
  }
  const dynamics::VehicleState ego = f.world.ego().state;
  int next_id = 1000;
  std::size_t k = 0;
  while (std::cmp_less(forecasts.size(), n)) {
    core::ActorForecast far_actor;
    far_actor.id = next_id++;
    far_actor.dims = dynamics::Dimensions{4.5, 2.0};
    // 400 m+ ring: beyond reach_r for every slice of a 3 s horizon.
    const double angle = 0.37 * static_cast<double>(k);
    const double radius = 400.0 + 5.0 * static_cast<double>(k);
    far_actor.trajectory.append(
        common::Seconds{f.world.time()},
        dynamics::VehicleState{ego.x + radius * std::cos(angle),
                               ego.y + radius * std::sin(angle), 0.0, 0.0});
    forecasts.push_back(std::move(far_actor));
    ++k;
  }
  return forecasts;
}

void BM_CounterfactualFanoutDelta(ubench::State& state) {
  auto& f = fixture();
  // One attributed propagation plus memoized replays.
  const core::StiCalculator sti;
  const auto forecasts = fanout_forecasts(state.range(0));
  for (auto _ : state) {
    core::RiskSession session;
    const auto r = sti.compute(session, f.world.map(), f.world.ego().state,
                               common::Seconds{f.world.time()}, forecasts);
    ubench::DoNotOptimize(r.combined);
  }
}
UBENCH(BM_CounterfactualFanoutDelta)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_CvtrForecasts(ubench::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ubench::DoNotOptimize(core::cvtr_forecasts(f.world, 3.0, 0.25));
  }
}
UBENCH(BM_CvtrForecasts);

void BM_SmcFeatureExtraction(ubench::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ubench::DoNotOptimize(smc::extract_features(f.world));
  }
}
UBENCH(BM_SmcFeatureExtraction);

void BM_SmcInference(ubench::State& state) {
  // Feature extraction + Q-network forward + argmax: the paper's "SMC
  // inference" (0.012 s in Python/PyTorch).
  auto& f = fixture();
  common::Rng rng(3);
  rl::Mlp policy({smc::kFeatureCount, 48, 48, 3}, rng);
  smc::SmcController controller(std::move(policy));
  for (auto _ : state) {
    ubench::DoNotOptimize(controller.policy_action(smc::extract_features(f.world)));
  }
}
UBENCH(BM_SmcInference);

void BM_PklPerActor(ubench::State& state) {
  auto& f = fixture();
  const core::PklMetric pkl;
  const auto scene = core::snapshot_of(f.world);
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  for (auto _ : state) {
    ubench::DoNotOptimize(pkl.compute(scene, forecasts));
  }
}
UBENCH(BM_PklPerActor);

void BM_TtcMetric(ubench::State& state) {
  auto& f = fixture();
  const core::TtcMetric ttc(3.0);
  const auto scene = core::snapshot_of(f.world);
  for (auto _ : state) {
    ubench::DoNotOptimize(ttc.risk(scene));
  }
}
UBENCH(BM_TtcMetric);

}  // namespace

int main(int argc, char** argv) {
  iprism::bench::require_release_guard(argc, argv);
  argc = iprism::bench::strip_require_release_flag(argc, argv);
  // ubench's "library_build_type" context describes the harness TU; record
  // the measured library's build type explicitly as well so a committed
  // BENCH_*.json is self-describing.
  ubench::add_context("iprism_build_type",
                      bench::release_benchmark_build()
                          ? "release"
                          : bench::nonrelease_build_reason());
  return ubench::run_main(argc, argv);
}
