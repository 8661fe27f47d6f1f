// Determinism suite for the parallel STI engine: with any number of worker
// threads, StiCalculator must produce *bit-identical* results to the serial
// path. This holds by construction — every ReachTubeComputer::compute call
// owns its seeded RNG and results aggregate by index (DESIGN.md §8) — and
// this suite is the executable form of that argument, run across all five
// scenario typologies. It is also part of the CI tsan job, where the same
// runs double as a data-race check on the fan-out.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/monitor.hpp"
#include "core/sti.hpp"
#include "dynamics/cvtr.hpp"
#include "scenario/factory.hpp"
#include "sim/world.hpp"
#include "sti_reference.hpp"

namespace iprism {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

/// Builds a mid-episode world for a typology (stepped so the threat is live).
sim::World typology_world(const scenario::ScenarioFactory& factory,
                          scenario::Typology typology) {
  common::Rng rng(7);
  const auto spec = factory.sample(typology, 0, rng);
  sim::World world = factory.build(spec);
  for (int i = 0; i < 20; ++i) world.step(dynamics::Control{0.0, 0.0});
  return world;
}

void expect_bit_identical(const core::StiResult& serial, const core::StiResult& parallel,
                          int threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(threads));
  // Exact == on purpose: the guarantee is bit-identity, not closeness.
  EXPECT_EQ(serial.combined, parallel.combined);
  EXPECT_EQ(serial.volume_all, parallel.volume_all);
  EXPECT_EQ(serial.volume_empty, parallel.volume_empty);
  ASSERT_EQ(serial.per_actor.size(), parallel.per_actor.size());
  for (std::size_t i = 0; i < serial.per_actor.size(); ++i) {
    EXPECT_EQ(serial.per_actor[i].first, parallel.per_actor[i].first);
    EXPECT_EQ(serial.per_actor[i].second, parallel.per_actor[i].second);
  }
}

TEST(ParallelSti, BitIdenticalToSerialAcrossAllTypologies) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::StiCalculator serial;
    core::RiskSession session;
    const core::StiResult reference = serial.compute(session, world.map(), world.ego().state,
                                                     common::Seconds{world.time()}, forecasts);

    for (int threads : kThreadCounts) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator parallel(params);
      expect_bit_identical(reference,
                           parallel.compute(session, world.map(), world.ego().state,
                                            common::Seconds{world.time()}, forecasts),
                           threads);
    }
  }
}

TEST(ParallelSti, CombinedOnlyBitIdenticalToSerial) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::StiCalculator serial;
    core::RiskSession session;
    const double reference = serial.combined(session, world.map(), world.ego().state,
                                             common::Seconds{world.time()}, forecasts);
    for (int threads : kThreadCounts) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator parallel(params);
      EXPECT_EQ(reference, parallel.combined(session, world.map(), world.ego().state,
                                             common::Seconds{world.time()}, forecasts))
          << "num_threads=" << threads;
    }
  }
}

TEST(ParallelSti, RepeatedParallelEvaluationsAreStable) {
  // Thread scheduling varies between runs; results must not.
  const scenario::ScenarioFactory factory;
  const sim::World world = typology_world(factory, scenario::Typology::kGhostCutIn);
  const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

  core::ReachTubeParams params;
  params.num_threads = 4;
  const core::StiCalculator sti(params);
  core::RiskSession session;
  const core::StiResult first = sti.compute(session, world.map(), world.ego().state,
                                            common::Seconds{world.time()}, forecasts);
  for (int run = 0; run < 5; ++run) {
    expect_bit_identical(first,
                         sti.compute(session, world.map(), world.ego().state,
                                     common::Seconds{world.time()}, forecasts),
                         params.num_threads);
  }
}

TEST(ParallelSti, MonitorAssessmentsUnchangedByThreads) {
  // End-to-end plumbing check: RiskMonitorParams::tube.num_threads must not
  // change any assessment the streaming monitor produces.
  const scenario::ScenarioFactory factory;
  core::RiskMonitorParams serial_params;
  core::RiskMonitorParams parallel_params;
  parallel_params.tube.num_threads = 4;
  const core::RiskMonitor serial(serial_params);
  const core::RiskMonitor parallel(parallel_params);
  core::RiskSession serial_session;
  core::RiskSession parallel_session;

  sim::World world = typology_world(factory, scenario::Typology::kLeadSlowdown);
  for (int step = 0; step < 30; ++step) {
    world.step(dynamics::Control{0.0, 0.0});
    const auto a = serial.update(serial_session, world);
    const auto b = parallel.update(parallel_session, world);
    EXPECT_EQ(a.sti_combined, b.sti_combined) << "step " << step;
    EXPECT_EQ(a.level, b.level) << "step " << step;
    EXPECT_EQ(a.riskiest_actor, b.riskiest_actor) << "step " << step;
    EXPECT_EQ(a.riskiest_sti, b.riskiest_sti) << "step " << step;
  }
}

// Capacity invariance: ReachTubeParams::scratch_reserve sizes the
// FlatHashGrid-based per-compute scratch, and because that container's
// iteration order is insertion order regardless of capacity (DESIGN.md §9),
// any reserve must yield *bit-identical* tubes. This is the end-to-end form
// of the container's order guarantee — the old std::unordered_* scratch
// could not be pre-reserved precisely because this test would fail. Runs in
// the CI tsan job alongside the thread-identity suites.
constexpr std::size_t kScratchReserves[] = {0, 64, 4096};

void expect_same_tube(const core::ReachTube& a, const core::ReachTube& b,
                      std::size_t reserve) {
  SCOPED_TRACE("scratch_reserve=" + std::to_string(reserve));
  // Exact == on purpose: the guarantee is bit-identity, not closeness.
  EXPECT_EQ(a.volume, b.volume);
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t j = 0; j < a.slices.size(); ++j) {
    ASSERT_EQ(a.slices[j].size(), b.slices[j].size()) << "slice " << j;
    for (std::size_t i = 0; i < a.slices[j].size(); ++i) {
      EXPECT_EQ(a.slices[j][i].x, b.slices[j][i].x) << "slice " << j << " state " << i;
      EXPECT_EQ(a.slices[j][i].y, b.slices[j][i].y) << "slice " << j << " state " << i;
      EXPECT_EQ(a.slices[j][i].heading, b.slices[j][i].heading)
          << "slice " << j << " state " << i;
      EXPECT_EQ(a.slices[j][i].speed, b.slices[j][i].speed)
          << "slice " << j << " state " << i;
    }
  }
}

TEST(TubeCapacityInvariance, TubesBitIdenticalAcrossScratchReserves) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::ReachTubeComputer reference_rt;
    core::RiskSession reference_session;
    const core::ReachTube reference =
        reference_rt.compute(reference_session, world.map(), world.ego().state,
                             common::Seconds{world.time()}, forecasts);

    for (std::size_t reserve : kScratchReserves) {
      core::ReachTubeParams params;
      params.scratch_reserve = reserve;
      const core::ReachTubeComputer rt(params);
      // A fresh session per reserve: a reused one would keep the first
      // reserve's capacity and hide the knob.
      core::RiskSession session;
      expect_same_tube(reference,
                       rt.compute(session, world.map(), world.ego().state,
                                  common::Seconds{world.time()}, forecasts),
                       reserve);
    }
  }
}

TEST(TubeCapacityInvariance, StiBitIdenticalAcrossScratchReservesAndThreads) {
  // The combined matrix: scratch sizing x worker threads, both of which must
  // be pure performance knobs with no observable effect on STI.
  const scenario::ScenarioFactory factory;
  const sim::World world = typology_world(factory, scenario::Typology::kLeadCutIn);
  const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

  const core::StiCalculator serial;
  core::RiskSession reference_session;
  const core::StiResult reference = serial.compute(reference_session, world.map(),
                                                   world.ego().state,
                                                   common::Seconds{world.time()}, forecasts);

  for (std::size_t reserve : kScratchReserves) {
    for (int threads : {0, 2, 4}) {
      core::ReachTubeParams params;
      params.scratch_reserve = reserve;
      params.num_threads = threads;
      const core::StiCalculator sti(params);
      SCOPED_TRACE("scratch_reserve=" + std::to_string(reserve));
      core::RiskSession session;
      expect_bit_identical(reference,
                           sti.compute(session, world.map(), world.ego().state,
                                       common::Seconds{world.time()}, forecasts),
                           threads);
    }
  }
}

// --- CounterfactualDeltaIdentity (DESIGN.md §12) ---------------------------
//
// The shared-wavefront engine derives every counterfactual tube from one
// attributed base propagation by memoized replay. Its contract is *exact*
// identity — contents, cardinalities, SplitMix64 emission order — with the
// from-scratch compute(..., exclude) of Eq. 4, for every typology, thread
// count, and scratch reserve. The from-scratch side is the N+2-call
// reference of tests/sti_reference.hpp. These suites are the executable form
// of that contract and run in the CI tsan job (the replay fan-out is the
// concurrent workload).

TEST(CounterfactualDeltaIdentity, TubesBitIdenticalToFromScratchAcrossTypologies) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::ReachTubeComputer rt;
    core::RiskSession session;
    const auto obstacles =
        rt.sample_obstacles(forecasts, common::Seconds{world.time()});
    const core::AttributedTube base =
        rt.compute_attributed(session, world.map(), world.ego().state, obstacles);

    // Attribution only records — the base tube is the plain tube.
    expect_same_tube(rt.compute(session, world.map(), world.ego().state, obstacles),
                     base.tube, 0);

    // |T^{∅}| by replay vs the from-scratch no-obstacles tube.
    core::CounterfactualStats empty_stats;
    expect_same_tube(
        rt.compute(session, world.map(), world.ego().state,
                   std::span<const core::ObstacleTimeline>{}),
        rt.compute_unblocked(session, world.map(), world.ego().state, obstacles, base,
                             &empty_stats),
        0);

    // Every |T^{/i}| by replay vs from-scratch compute(..., exclude).
    for (std::size_t i = 0; i < forecasts.size(); ++i) {
      SCOPED_TRACE("actor_index=" + std::to_string(i));
      core::CounterfactualStats stats;
      expect_same_tube(
          rt.compute(session, world.map(), world.ego().state, obstacles,
                     common::ActorId{forecasts[i].id}),
          rt.compute_counterfactual(session, world.map(), world.ego().state, obstacles,
                                    base, i, &stats),
          0);
      // A free counterfactual must really have skipped re-expansion.
      if (stats.free) EXPECT_EQ(stats.fresh_tests, 0u);
    }
  }
}

TEST(CounterfactualDeltaIdentity, StiMatchesScratchEngineAcrossThreadsAndReserves) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::StiResult reference = test::reference_sti(
        world.map(), world.ego().state, common::Seconds{world.time()}, forecasts);

    for (std::size_t reserve : kScratchReserves) {
      for (int threads : {0, 2, 4}) {
        core::ReachTubeParams params;
        params.scratch_reserve = reserve;
        params.num_threads = threads;
        const core::StiCalculator delta(params);
        SCOPED_TRACE("scratch_reserve=" + std::to_string(reserve));
        core::RiskSession session;
        expect_bit_identical(reference,
                             delta.compute(session, world.map(), world.ego().state,
                                           common::Seconds{world.time()}, forecasts),
                             threads);
        EXPECT_EQ(reference.combined,
                  delta.combined(session, world.map(), world.ego().state,
                                 common::Seconds{world.time()}, forecasts))
            << "num_threads=" << threads << " scratch_reserve=" << reserve;
      }
    }
  }
}

TEST(CounterfactualDeltaIdentity, ActorThatBlocksNothingIsFree) {
  const scenario::ScenarioFactory factory;
  const sim::World world = typology_world(factory, scenario::Typology::kLeadSlowdown);
  auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

  // A static actor far outside the ego's reachable disc: it can never reject
  // a candidate, so its counterfactual must be the base tube verbatim, with
  // zero re-expansion work.
  core::ActorForecast far_actor;
  far_actor.id = 9999;
  far_actor.dims = dynamics::Dimensions{4.5, 2.0};
  far_actor.trajectory.append(common::Seconds{world.time()},
                              dynamics::VehicleState{5000.0, 5000.0, 0.0, 0.0});
  forecasts.push_back(far_actor);
  const std::size_t far_index = forecasts.size() - 1;

  const core::ReachTubeComputer rt;
  core::RiskSession session;
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});
  const core::AttributedTube base =
      rt.compute_attributed(session, world.map(), world.ego().state, obstacles);
  ASSERT_TRUE(base.attribution.blocks_nothing(far_index));

  core::CounterfactualStats stats;
  const core::ReachTube cf = rt.compute_counterfactual(
      session, world.map(), world.ego().state, obstacles, base, far_index, &stats);
  EXPECT_TRUE(stats.free);
  EXPECT_EQ(stats.fresh_tests, 0u);
  EXPECT_EQ(stats.memo_hits, 0u);
  expect_same_tube(base.tube, cf, 0);
  expect_same_tube(rt.compute(session, world.map(), world.ego().state, obstacles,
                              common::ActorId{far_actor.id}),
                   cf, 0);
}

TEST(CounterfactualDeltaIdentity, MonitorAssessmentsUnchangedByEngine) {
  // End-to-end invariance: the monitor's combined STI and riskiest-actor
  // attribution must be what the from-scratch reference implies, tick by
  // tick, whether the tick took combined() or the full per-actor compute.
  const scenario::ScenarioFactory factory;
  const core::RiskMonitorParams params;
  const core::RiskMonitor monitor(params);
  core::RiskSession session;

  sim::World world = typology_world(factory, scenario::Typology::kGhostCutIn);
  bool attributed = false;
  for (int step = 0; step < 30; ++step) {
    world.step(dynamics::Control{0.0, 0.0});
    const auto a = monitor.update(session, world);
    const auto forecasts = core::cvtr_forecasts(world, params.tube.horizon, params.tube.dt);
    const core::StiResult reference = test::reference_sti(
        world.map(), world.ego().state, common::Seconds{world.time()}, forecasts, params.tube);
    EXPECT_EQ(a.sti_combined, reference.combined) << "step " << step;
    if (a.level >= core::RiskLevel::kCaution) {
      // Elevated ticks run the per-actor attribution.
      attributed = true;
      const auto riskiest = core::riskiest_actor_of(reference);
      EXPECT_EQ(a.riskiest_actor, riskiest ? std::optional<int>{riskiest->first}
                                           : std::nullopt)
          << "step " << step;
      EXPECT_EQ(a.riskiest_sti, riskiest ? riskiest->second : 0.0) << "step " << step;
    }
  }
  EXPECT_TRUE(attributed) << "the scene never elevated; attribution went unchecked";
}

TEST(ParallelSti, NumThreadsValidation) {
  core::ReachTubeParams params;
  params.num_threads = -1;
  EXPECT_THROW(core::ReachTubeComputer::validate(params), std::invalid_argument);
  EXPECT_THROW(core::StiCalculator{params}, std::invalid_argument);
}

}  // namespace
}  // namespace iprism
