// Determinism suite for the parallel STI engine: with any number of worker
// threads, StiCalculator must produce *bit-identical* results to the serial
// path. This holds by construction — every ReachTubeComputer::compute call
// owns its seeded RNG and results aggregate by index (DESIGN.md §8) — and
// this suite is the executable form of that argument, run across all five
// scenario typologies. It is also part of the CI tsan job, where the same
// runs double as a data-race check on the fan-out.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "core/monitor.hpp"
#include "core/sti.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"
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

// Capacity invariance: a session's scratch keeps the capacity its biggest
// tube so far grew it to (FlatHashGrid tables, candidate buffers), so in a
// real stream one tick's scratch capacity depends on every earlier tick.
// Because that container's iteration order is insertion order regardless of
// capacity (DESIGN.md §9), a session warmed by a bigger tube must yield
// *bit-identical* results to a fresh one. The old std::unordered_* scratch
// could not be pre-reserved precisely because this test would fail. Runs in
// the CI tsan job alongside the thread-identity suites.

/// Tube params whose per-slice cell count outgrows the default scratch
/// reserve of 4096 entries (longer horizon, 10x finer grid): one propagation
/// with them leaves every scratch it leased bigger than a fresh one
/// (TubesBitIdenticalOnSessionWarmedByBiggerTube checks that it did).
core::ReachTubeParams bigger_tube_params(int threads) {
  core::ReachTubeParams params;
  params.horizon = 4.0;
  params.cell_size = 0.1;
  params.num_threads = threads;
  return params;
}

/// Runs one full STI evaluation with bigger_tube_params on `session`, so the
/// base tube and each replay's leased scratch are grown before the session
/// is used with default params.
void warm_with_bigger_tube(core::RiskSession& session, const sim::World& world, int threads) {
  const core::StiCalculator big(bigger_tube_params(threads));
  const auto forecasts = core::cvtr_forecasts(world, 4.0, 0.25);
  big.compute(session, world.map(), world.ego().state, common::Seconds{world.time()},
              forecasts);
}

void expect_same_tube(const core::ReachTube& a, const core::ReachTube& b) {
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

/// Cumulative slot-table rebuilds of the scratch grids (telemetry counter;
/// 0 when telemetry is compiled out).
std::uint64_t scratch_rehashes() {
  const auto* c = common::telemetry::MetricsRegistry::instance().find_counter(
      "reachtube.scratch_rehashes");
  return c != nullptr ? c->value() : 0;
}

TEST(TubeCapacityInvariance, TubesBitIdenticalOnSessionWarmedByBiggerTube) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const core::ReachTubeComputer rt;
    const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});

    core::RiskSession fresh;
    const std::uint64_t fresh_before = scratch_rehashes();
    const core::ReachTube reference = rt.compute(fresh, world.map(), world.ego().state, obstacles);
    const std::uint64_t fresh_rehashes = scratch_rehashes() - fresh_before;

    core::RiskSession warmed;
    warm_with_bigger_tube(warmed, world, /*threads=*/0);
    const std::uint64_t warmed_before = scratch_rehashes();
    expect_same_tube(reference, rt.compute(warmed, world.map(), world.ego().state, obstacles));
    const std::uint64_t warmed_rehashes = scratch_rehashes() - warmed_before;
#if IPRISM_TELEMETRY_ENABLED
    // The counter adds a scratch grid's lifetime rebuild count per
    // propagation: more rebuilds behind the warmed scratch proves the warm-up
    // really grew it past a fresh one's capacity.
    EXPECT_GT(warmed_rehashes, fresh_rehashes);
#else
    EXPECT_EQ(warmed_rehashes, fresh_rehashes);
#endif
  }
}

TEST(TubeCapacityInvariance, StiBitIdenticalOnWarmedSessionAcrossThreads) {
  // Scratch capacity x worker threads: neither may have an observable effect
  // on STI. With threads > 0 the warm-up grows every scratch the fan-out
  // leased, so the replays also run on grown scratch.
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    for (int threads : {0, 2, 4}) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator sti(params);
      core::RiskSession fresh;
      const core::StiResult reference = sti.compute(fresh, world.map(), world.ego().state,
                                                    common::Seconds{world.time()}, forecasts);
      core::RiskSession warmed;
      warm_with_bigger_tube(warmed, world, threads);
      expect_bit_identical(reference,
                           sti.compute(warmed, world.map(), world.ego().state,
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
// count, and scratch capacity. The from-scratch side is the N+2-call
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
                     base.tube);

    // |T^{∅}| from the base prefix vs the from-scratch no-obstacles tube.
    core::CounterfactualStats empty_stats;
    expect_same_tube(
        rt.compute(session, world.map(), world.ego().state,
                   std::span<const core::ObstacleTimeline>{}),
        rt.compute_unblocked(session, world.map(), world.ego().state, obstacles, base,
                             &empty_stats));
    // A plain propagation: every candidate is a fresh test, none a memo hit.
    EXPECT_EQ(empty_stats.memo_hits, 0u);
    if (empty_stats.free) {
      EXPECT_EQ(empty_stats.fresh_tests, 0u);
    } else {
      EXPECT_GT(empty_stats.fresh_tests, 0u);
    }

    // Every |T^{/i}| by replay vs from-scratch compute(..., exclude).
    for (std::size_t i = 0; i < forecasts.size(); ++i) {
      SCOPED_TRACE("actor_index=" + std::to_string(i));
      core::CounterfactualStats stats;
      expect_same_tube(
          rt.compute(session, world.map(), world.ego().state, obstacles,
                     common::ActorId{forecasts[i].id}),
          rt.compute_counterfactual(session, world.map(), world.ego().state, obstacles,
                                    base, i, &stats));
      // A free counterfactual must really have skipped re-expansion.
      if (stats.free) {
        EXPECT_EQ(stats.fresh_tests, 0u);
      }
    }
  }
}

TEST(CounterfactualDeltaIdentity, StiMatchesReferenceAcrossThreadsAndWarmedSessions) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::StiResult reference = test::reference_sti(
        world.map(), world.ego().state, common::Seconds{world.time()}, forecasts);

    for (int threads : {0, 2, 4}) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator delta(params);
      core::RiskSession fresh;
      core::RiskSession warmed;
      warm_with_bigger_tube(warmed, world, threads);
      for (core::RiskSession* session : {&fresh, &warmed}) {
        SCOPED_TRACE(session == &fresh ? "fresh session" : "session warmed by a bigger tube");
        expect_bit_identical(reference,
                             delta.compute(*session, world.map(), world.ego().state,
                                           common::Seconds{world.time()}, forecasts),
                             threads);
        EXPECT_EQ(reference.combined,
                  delta.combined(*session, world.map(), world.ego().state,
                                 common::Seconds{world.time()}, forecasts))
            << "num_threads=" << threads;
      }
    }
  }
}

void expect_same_stats(const core::CounterfactualStats& a, const core::CounterfactualStats& b) {
  EXPECT_EQ(a.free, b.free);
  EXPECT_EQ(a.replay_from, b.replay_from);
  EXPECT_EQ(a.fresh_tests, b.fresh_tests);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
}

TEST(CounterfactualDeltaIdentity, ActorThatBlocksNothingIsFree) {
  // The O(W + Σδ) cost claim (DESIGN.md §12) as counts instead of timings:
  // padding a scene with K static actors on a ring far outside the ego's
  // reachable disc (N up to 128) must leave the base tube, its blocked
  // frontier, its per-slice active obstacle sets and survival records, and
  // every original actor's replay work exactly as they are without the
  // padding, and each padded actor's counterfactual must be the base tube
  // verbatim with zero re-expansion work.
  const scenario::ScenarioFactory factory;
  std::size_t live_replays = 0;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const common::Seconds t0{world.time()};
    const dynamics::VehicleState ego = world.ego().state;
    const auto live = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::ReachTubeComputer rt;
    core::RiskSession session;
    const auto live_obstacles = rt.sample_obstacles(live, t0);
    const core::AttributedTube unpadded =
        rt.compute_attributed(session, world.map(), ego, live_obstacles);
    std::vector<core::CounterfactualStats> live_stats(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      rt.compute_counterfactual(session, world.map(), ego, live_obstacles, unpadded, i,
                                &live_stats[i]);
      if (!live_stats[i].free) ++live_replays;
    }

    for (std::size_t pad : {1, 5, 29, 125}) {
      SCOPED_TRACE("padded_actors=" + std::to_string(pad));
      auto forecasts = live;
      for (std::size_t k = 0; k < pad; ++k) {
        // 400 m+ ring: beyond the reachable disc of every slice of a 3 s horizon.
        const double angle = 0.37 * static_cast<double>(k);
        const double radius = 400.0 + 5.0 * static_cast<double>(k);
        core::ActorForecast far_actor;
        far_actor.id = 1000 + static_cast<int>(k);
        far_actor.dims = dynamics::Dimensions{4.5, 2.0};
        far_actor.trajectory.append(
            t0, dynamics::VehicleState{ego.x + radius * std::cos(angle),
                                       ego.y + radius * std::sin(angle), 0.0, 0.0});
        forecasts.push_back(std::move(far_actor));
      }
      const auto obstacles = rt.sample_obstacles(forecasts, t0);
      const core::AttributedTube base =
          rt.compute_attributed(session, world.map(), ego, obstacles);

      expect_same_tube(unpadded.tube, base.tube);
      EXPECT_EQ(base.attribution.blocked_frontier, unpadded.attribution.blocked_frontier);
      // No padded actor enters any slice's active obstacle set, so the base
      // propagation runs no geometry against them.
      EXPECT_EQ(base.attribution.active_offsets, unpadded.attribution.active_offsets);
      EXPECT_EQ(base.attribution.active_flat, unpadded.attribution.active_flat);
      ASSERT_EQ(base.attribution.slices.size(), unpadded.attribution.slices.size());
      for (std::size_t j = 0; j < base.attribution.slices.size(); ++j) {
        EXPECT_EQ(base.attribution.slices[j].tests.size(),
                  unpadded.attribution.slices[j].tests.size())
            << "slice " << j;
      }

      for (std::size_t i = 0; i < forecasts.size(); ++i) {
        SCOPED_TRACE("actor_index=" + std::to_string(i));
        core::CounterfactualStats stats;
        const core::ReachTube cf =
            rt.compute_counterfactual(session, world.map(), ego, obstacles, base, i, &stats);
        if (i < live.size()) {
          expect_same_stats(live_stats[i], stats);
          continue;
        }
        EXPECT_TRUE(base.attribution.blocks_nothing(i));
        EXPECT_TRUE(stats.free);
        EXPECT_EQ(stats.fresh_tests, 0u);
        EXPECT_EQ(stats.memo_hits, 0u);
        expect_same_tube(base.tube, cf);
      }

      // The last padded actor's free counterfactual against from-scratch Eq. 4.
      expect_same_tube(rt.compute(session, world.map(), ego, obstacles,
                                  common::ActorId{forecasts.back().id}),
                       base.tube);
    }
  }
  // Some original actor really replays, so "same replay work" compares
  // non-zero fresh tests and memo hits, not only free copies.
  EXPECT_GT(live_replays, 0u);
}

TEST(CounterfactualDeltaIdentity, SeedClassificationCoversEveryBlockerClass) {
  // The slice-0 seed goes through the same lane analysis and classification
  // as every propagated candidate. Place the ego so its own footprint is
  // clear, off the map, hit by exactly one actor, or hit by two, and check
  // the seed record plus the divergence bookkeeping the replays start from.
  const roadmap::StraightRoad map(3, 3.5, 500.0);
  const dynamics::CvtrPredictor predictor;
  const auto parked = [&](int id, double x, double y) {
    return core::ActorForecast{
        id, predictor.predict({x, y, 0.0, 0.0}, common::Seconds{0.0}, common::Seconds{4.0},
                              common::Seconds{0.25}),
        dynamics::Dimensions{4.5, 2.0}};
  };
  // Actor 1 sits on the ego's spot, actor 2 overlaps it from 2 m ahead, and
  // actor 3 is parked 30 m ahead in the same lane (a blocker of later slices).
  const std::vector<core::ActorForecast> one_hit = {parked(3, 80.0, 5.25), parked(1, 50.0, 5.25)};
  const std::vector<core::ActorForecast> two_hits = {parked(1, 50.0, 5.25), parked(3, 80.0, 5.25),
                                                     parked(2, 52.0, 5.25)};
  const std::vector<core::ActorForecast> clear = {parked(3, 80.0, 5.25)};
  const dynamics::VehicleState on_lane{50.0, 5.25, 0.0, 8.0};
  // 0.5 m from the road edge: the margin-shrunk footprint pokes past y = 0.
  const dynamics::VehicleState off_map{50.0, 0.5, 0.0, 8.0};

  struct Case {
    const char* name;
    dynamics::VehicleState ego;
    const std::vector<core::ActorForecast>* forecasts;
    core::BlockerClass cls;
  };
  const Case cases[] = {
      {"clear", on_lane, &clear, core::BlockerClass::kPassed},
      {"off map", off_map, &clear, core::BlockerClass::kOffMap},
      {"one actor", on_lane, &one_hit, core::BlockerClass::kSole},
      {"two actors", on_lane, &two_hits, core::BlockerClass::kMulti},
  };

  const core::ReachTubeComputer rt;
  core::RiskSession session;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto obstacles = rt.sample_obstacles(*c.forecasts, common::Seconds{0.0});
    const core::AttributedTube base = rt.compute_attributed(session, map, c.ego, obstacles);
    const core::TubeAttribution& attr = base.attribution;
    ASSERT_FALSE(attr.slices[0].tests.empty());
    const core::BlockRecord& seed = attr.slices[0].tests[0];
    EXPECT_EQ(seed.cls, c.cls);
    EXPECT_EQ(seed.state.x, c.ego.x);
    EXPECT_EQ(seed.state.y, c.ego.y);
    EXPECT_EQ(base.tube.slices[0].size(), c.cls == core::BlockerClass::kPassed ? 1u : 0u);
    switch (c.cls) {
      case core::BlockerClass::kPassed:
        // The parked actor ahead can only block later slices.
        EXPECT_NE(attr.first_actor_block, 0u);
        EXPECT_NE(attr.first_sole_block[0], 0u);
        break;
      case core::BlockerClass::kOffMap:
        // Off-map is no actor's fault: nothing replays, nothing is rescued.
        EXPECT_EQ(attr.first_actor_block, core::TubeAttribution::kNever);
        EXPECT_EQ(attr.first_sole_block[0], core::TubeAttribution::kNever);
        break;
      case core::BlockerClass::kSole:
        EXPECT_EQ(seed.sole_blocker, 1u);  // obstacle index of actor 1
        EXPECT_EQ(attr.first_sole_block[1], 0u);
        EXPECT_EQ(attr.first_sole_block[0], core::TubeAttribution::kNever);
        EXPECT_EQ(attr.first_actor_block, 0u);
        break;
      case core::BlockerClass::kMulti:
        EXPECT_EQ(attr.first_actor_block, 0u);
        for (std::size_t i = 0; i < obstacles.size(); ++i) {
          EXPECT_EQ(attr.first_sole_block[i], core::TubeAttribution::kNever) << "obstacle " << i;
        }
        break;
    }

    const core::StiResult reference =
        test::reference_sti(map, c.ego, common::Seconds{0.0}, *c.forecasts);
    for (int threads : {0, 2}) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator sti(params);
      expect_bit_identical(reference,
                           sti.compute(session, map, c.ego, common::Seconds{0.0}, *c.forecasts),
                           threads);
    }
  }
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
