// Engine/session split contract (DESIGN.md §14).
//
// A RiskSession is pure *storage* — warm scratch, monitor level, counters —
// and must never influence what an engine computes. These suites are the
// executable form of that contract:
//
//  * SessionIdentity — a session reused across ticks is bit-identical to a
//    fresh session per tick and to the from-scratch reference
//    (tests/sti_reference.hpp), across every scenario typology, dedup mode,
//    and thread count; the cold-session combined() overload matches too.
//  * SessionMonitor — the monitor's mutable state (level, quiet streak,
//    update count) lives in the session: sessions sharing one engine never
//    interfere, reset() forgets, moves preserve.
//  * SharedPool — M calculators share the one process-wide pool instead of
//    spawning M pools (the "M pools" fix).
//  * SessionPool — M sessions drive one const engine concurrently over the
//    shared pool. Runs in the CI tsan job: distinct sessions must be fully
//    independent, and a stream task's nested fan-out onto the same pool must
//    run inline rather than deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/monitor.hpp"
#include "core/session.hpp"
#include "core/sti.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"
#include "scenario/factory.hpp"
#include "sim/world.hpp"
#include "sti_reference.hpp"

namespace iprism {
namespace {

/// Builds a mid-episode world for a typology (stepped so the threat is live).
sim::World typology_world(const scenario::ScenarioFactory& factory,
                          scenario::Typology typology) {
  common::Rng rng(7);
  const auto spec = factory.sample(typology, 0, rng);
  sim::World world = factory.build(spec);
  for (int i = 0; i < 20; ++i) world.step(dynamics::Control{0.0, 0.0});
  return world;
}

void expect_bit_identical(const core::StiResult& a, const core::StiResult& b) {
  // Exact == on purpose: the guarantee is bit-identity, not closeness.
  EXPECT_EQ(a.combined, b.combined);
  EXPECT_EQ(a.volume_all, b.volume_all);
  EXPECT_EQ(a.volume_empty, b.volume_empty);
  ASSERT_EQ(a.per_actor.size(), b.per_actor.size());
  for (std::size_t i = 0; i < a.per_actor.size(); ++i) {
    EXPECT_EQ(a.per_actor[i].first, b.per_actor[i].first);
    EXPECT_EQ(a.per_actor[i].second, b.per_actor[i].second);
  }
}

// --- SessionIdentity -------------------------------------------------------

TEST(SessionIdentity, ReusedSessionBitIdenticalToFreshAcrossMatrix) {
  // The full knob matrix: typology x dedup x threads. One session reused
  // for all three ticks of a combo must match a fresh session per tick — any
  // divergence means scratch state leaked into a result — and both must
  // match the from-scratch reference.
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    for (bool dedup : {true, false}) {
      core::ReachTubeParams reference_params;
      reference_params.dedup = dedup;
      sim::World world = typology_world(factory, typology);
      std::vector<core::StiResult> reference;
      for (int tick = 0; tick < 3; ++tick) {
        const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
        reference.push_back(test::reference_sti(world.map(), world.ego().state,
                                                common::Seconds{world.time()}, forecasts,
                                                reference_params));
        world.step(dynamics::Control{0.0, 0.0});
      }
      for (int threads : {0, 2, 4}) {
        SCOPED_TRACE("dedup=" + std::to_string(dedup) +
                     " threads=" + std::to_string(threads));
        core::ReachTubeParams params = reference_params;
        params.num_threads = threads;
        const core::StiCalculator sti(params);

        world = typology_world(factory, typology);
        core::RiskSession reused;
        for (int tick = 0; tick < 3; ++tick) {
          SCOPED_TRACE("tick=" + std::to_string(tick));
          const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
          const core::StiResult warm =
              sti.compute(reused, world.map(), world.ego().state,
                          common::Seconds{world.time()}, forecasts);
          core::RiskSession fresh;
          expect_bit_identical(warm,
                               sti.compute(fresh, world.map(), world.ego().state,
                                           common::Seconds{world.time()}, forecasts));
          expect_bit_identical(warm, reference[static_cast<std::size_t>(tick)]);
          world.step(dynamics::Control{0.0, 0.0});
        }
      }
    }
  }
}

TEST(SessionIdentity, CombinedMatchesAcrossSessionReuse) {
  // Same contract for the two-tube combined() fast path, against the
  // cold-session overload (a transient session per call).
  const scenario::ScenarioFactory factory;
  sim::World world = typology_world(factory, scenario::Typology::kGhostCutIn);
  core::ReachTubeParams params;
  params.num_threads = 2;
  const core::StiCalculator sti(params);
  core::RiskSession reused;
  for (int tick = 0; tick < 5; ++tick) {
    SCOPED_TRACE("tick=" + std::to_string(tick));
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const double warm = sti.combined(reused, world.map(), world.ego().state,
                                     common::Seconds{world.time()}, forecasts);
    EXPECT_EQ(warm, sti.combined(world.map(), world.ego().state,
                                 common::Seconds{world.time()}, forecasts));
    world.step(dynamics::Control{0.0, 0.0});
  }
}

// --- SessionMonitor --------------------------------------------------------

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

/// A stopped wall across all three lanes: blocks lateral escapes too, so the
/// combined STI is genuinely high (same idiom as tests/test_monitor.cpp).
sim::World threat_world(double gap) {
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 10));
  for (double y : {1.75, 5.25, 8.75}) {
    sim::Actor blocker;
    blocker.kind = sim::ActorKind::kVehicle;
    blocker.state = state(50 + gap + 4.5, y, 0.0);
    w.add_actor(std::move(blocker));
  }
  return w;
}

sim::World empty_world() {
  sim::World w(test_map(), 0.1);
  w.add_ego(state(50, 5.25, 8));
  return w;
}

TEST(SessionMonitor, SessionsSharingOneEngineEvolveIndependently) {
  // The full level trajectory — escalation, hysteresis hold, de-escalation —
  // lives in the session. A second session replaying the first one's inputs,
  // while the first keeps taking ticks in between, must reproduce the
  // recorded trajectory exactly: state kept in the engine would leak.
  const core::RiskMonitor engine;
  core::RiskSession lead;
  core::RiskSession lag;

  auto threat = threat_world(6.0);
  auto quiet = empty_world();
  std::vector<core::RiskMonitor::Assessment> trajectory;
  for (int step = 0; step < 8; ++step) {
    trajectory.push_back(engine.update(lead, threat));
  }
  EXPECT_GE(lead.level(), core::RiskLevel::kCaution);
  for (int step = 0; step < 30; ++step) {
    trajectory.push_back(engine.update(lead, quiet));
  }
  // The quiet streak must have de-escalated all the way.
  EXPECT_EQ(lead.level(), core::RiskLevel::kSafe);
  EXPECT_EQ(lead.updates(), 8 + 30);

  for (std::size_t step = 0; step < trajectory.size(); ++step) {
    // Interleave a tick on the other session before every tick of `lag`.
    engine.update(lead, step < 8 ? threat : quiet);
    const auto a = engine.update(lag, step < 8 ? threat : quiet);
    const auto& b = trajectory[step];
    EXPECT_EQ(a.sti_combined, b.sti_combined) << "step " << step;
    EXPECT_EQ(a.level, b.level) << "step " << step;
    EXPECT_EQ(a.riskiest_actor, b.riskiest_actor) << "step " << step;
  }
  EXPECT_EQ(lag.level(), core::RiskLevel::kSafe);
  EXPECT_EQ(lag.updates(), 8 + 30);
}

TEST(SessionMonitor, ResetForgetsLevelStreakAndCount) {
  const core::RiskMonitor engine;
  core::RiskSession session;
  auto threat = threat_world(6.0);
  engine.update(session, threat);
  ASSERT_GE(session.level(), core::RiskLevel::kCaution);
  ASSERT_EQ(session.updates(), 1);

  session.reset();
  EXPECT_EQ(session.level(), core::RiskLevel::kSafe);
  EXPECT_EQ(session.updates(), 0);

  // A reset session behaves exactly like a brand-new one — including the
  // quiet-streak counter, which must not carry over.
  core::RiskSession fresh;
  auto quiet = empty_world();
  for (int step = 0; step < 5; ++step) {
    const auto a = engine.update(session, quiet);
    const auto b = engine.update(fresh, quiet);
    EXPECT_EQ(a.level, b.level) << "step " << step;
  }
  EXPECT_EQ(session.updates(), fresh.updates());
}

TEST(SessionMonitor, MovePreservesSessionState) {
  // Sessions are movable storage: a stream can be handed off (e.g. into a
  // container) without losing its warm scratch or monitor state.
  const core::RiskMonitor engine;
  core::RiskSession session;
  auto threat = threat_world(6.0);
  engine.update(session, threat);
  const core::RiskLevel level = session.level();
  const long updates = session.updates();
  ASSERT_GE(level, core::RiskLevel::kCaution);

  core::RiskSession moved = std::move(session);
  EXPECT_EQ(moved.level(), level);
  EXPECT_EQ(moved.updates(), updates);
  // And it keeps working as the same stream.
  engine.update(moved, threat);
  EXPECT_EQ(moved.updates(), updates + 1);
}

// --- SharedPool ------------------------------------------------------------

TEST(SharedPool, OnePoolAcrossCalculators) {
  // The "M pools" fix: parallel calculators no longer spawn a pool each.
  core::ReachTubeParams two;
  two.num_threads = 2;
  core::ReachTubeParams eight;
  eight.num_threads = 8;
  const core::StiCalculator a(two);
  const core::StiCalculator b(eight);
  EXPECT_EQ(a.pool(), &common::ThreadPool::shared());
  EXPECT_EQ(b.pool(), &common::ThreadPool::shared());
  EXPECT_EQ(a.pool(), b.pool());

  // num_threads == 0 stays strictly serial: no pool at all.
  const core::StiCalculator serial;
  EXPECT_EQ(serial.pool(), nullptr);
}

TEST(SharedPool, MonitorForwardsThePoolToItsCalculator) {
  core::RiskMonitorParams params;
  params.tube.num_threads = 4;
  const core::RiskMonitor monitor(params);
  EXPECT_EQ(monitor.sti_calculator().pool(), &common::ThreadPool::shared());
}

// --- SessionPool (tsan workload) -------------------------------------------

TEST(SessionPool, ManySessionsDriveOneEngineConcurrently) {
  // M streams, one const monitor, everything on the one shared pool: the
  // stream fan-out runs on its workers AND each stream's tube fan-out
  // targets the same pool (running inline on the stream's worker). Distinct
  // sessions are fully independent, so every stream must reproduce the
  // serial reference bit-for-bit. Under tsan this is the engine/session
  // data-race check.
  constexpr std::size_t kStreams = 8;
  core::RiskMonitorParams params;
  params.tube.num_threads = 4;
  const core::RiskMonitor engine(params);

  const auto stream_world = [](std::size_t i) {
    // Deterministic in the index: distinct gaps, so streams genuinely differ.
    return threat_world(5.0 + static_cast<double>(i));
  };

  // Serial reference, one stream at a time.
  std::vector<std::vector<double>> reference(kStreams);
  std::vector<core::RiskLevel> reference_level(kStreams, core::RiskLevel::kSafe);
  for (std::size_t i = 0; i < kStreams; ++i) {
    auto world = stream_world(i);
    core::RiskSession session;
    for (int step = 0; step < 5; ++step) {
      reference[i].push_back(engine.update(session, world).sti_combined);
      world.step(dynamics::Control{0.0, 0.0});
    }
    reference_level[i] = session.level();
  }

  // Concurrent run: index-owned slots, sessions created on the workers.
  std::vector<std::vector<double>> got(kStreams);
  std::vector<core::RiskLevel> got_level(kStreams, core::RiskLevel::kSafe);
  common::parallel_for_each(&common::ThreadPool::shared(), kStreams, [&](std::size_t i) {
    auto world = stream_world(i);
    core::RiskSession session;
    for (int step = 0; step < 5; ++step) {
      got[i].push_back(engine.update(session, world).sti_combined);
      world.step(dynamics::Control{0.0, 0.0});
    }
    got_level[i] = session.level();
  });

  for (std::size_t i = 0; i < kStreams; ++i) {
    SCOPED_TRACE("stream=" + std::to_string(i));
    ASSERT_EQ(got[i].size(), reference[i].size());
    for (std::size_t s = 0; s < got[i].size(); ++s) {
      EXPECT_EQ(got[i][s], reference[i][s]) << "step " << s;
    }
    EXPECT_EQ(got_level[i], reference_level[i]);
  }
}

TEST(SessionPool, OneSessionsScratchPoolServesItsOwnFanOut) {
  // A single session's evaluation fans N+2 replay tasks over the pool; each
  // leases its own scratch from the session's mutex-guarded pool. Repeat the
  // evaluation so leases recycle; results must be stable run over run.
  const scenario::ScenarioFactory factory;
  const sim::World world = typology_world(factory, scenario::Typology::kLeadCutIn);
  const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
  core::ReachTubeParams params;
  params.num_threads = 4;
  const core::StiCalculator sti(params);

  core::RiskSession session;
  const core::StiResult first = sti.compute(session, world.map(), world.ego().state,
                                            common::Seconds{world.time()}, forecasts);
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("run=" + std::to_string(run));
    expect_bit_identical(first,
                         sti.compute(session, world.map(), world.ego().state,
                                     common::Seconds{world.time()}, forecasts));
  }
}

}  // namespace
}  // namespace iprism
