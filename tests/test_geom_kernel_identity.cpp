// GeomKernelIdentity (DESIGN.md §13): the staged propagation — blocks of
// lanes stepped by dynamics::step_batch, then one survival test per
// consulted candidate — must be **bit-identical** to a scalar
// generate-then-test reference propagation. The reference here is a
// test-local replica of the historical interleaved loop built on public API
// only (BicycleModel::step, dynamics::footprint, DrivableMap::contains_box,
// OrientedBox::intersects, FlatHashGrid, splitmix64_mix) and the tube
// engine's public constants, so the suite proves staged ≡ scalar end to end:
// for plain, attributed, unblocked and replayed tubes, with boundary and
// uniform control sampling, with and without a saturating per-slice cap.
// step_batch and BicycleModel::step share one per-lane function, so
// StepBatchMatchesScalarModel guards that sharing rather than a second copy
// of the arithmetic. Runs in the asan-ubsan and tsan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "core/sti.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/state.hpp"
#include "dynamics/trajectory.hpp"
#include "geom/obb.hpp"
#include "geom/vec2.hpp"
#include "scenario/factory.hpp"
#include "scenario/spec.hpp"
#include "sim/world.hpp"
#include "sti_reference.hpp"

namespace iprism {
namespace {

// --- random lane material ---------------------------------------------------

struct LaneSoa {
  std::vector<double> x, y, heading, speed, accel, tan_steer, steer;
};

/// Random parent states + controls spanning the tube's operating envelope,
/// plus hand-picked edge lanes (standstill, brake-to-stop inside the step,
/// heading near the ±pi wrap).
LaneSoa random_lanes(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  LaneSoa lanes;
  for (std::size_t i = 0; i < n; ++i) {
    lanes.x.push_back(rng.uniform(-50.0, 400.0));
    lanes.y.push_back(rng.uniform(-10.0, 20.0));
    lanes.heading.push_back(rng.uniform(-3.14159, 3.14159));
    lanes.speed.push_back(rng.uniform(0.0, 40.0));
    lanes.accel.push_back(rng.uniform(-6.0, 3.0));
    lanes.steer.push_back(rng.uniform(-0.35, 0.35));
  }
  // Edge lanes: already stopped, stopping exactly mid-step, wrap boundary.
  lanes.x.insert(lanes.x.end(), {0.0, 10.0, 20.0});
  lanes.y.insert(lanes.y.end(), {0.0, 1.0, 2.0});
  lanes.heading.insert(lanes.heading.end(), {0.0, 0.1, 3.14159265358979});
  lanes.speed.insert(lanes.speed.end(), {0.0, 0.5, 10.0});
  lanes.accel.insert(lanes.accel.end(), {-6.0, -6.0, 0.0});
  lanes.steer.insert(lanes.steer.end(), {0.0, -0.35, 0.35});
  for (double phi : lanes.steer) lanes.tan_steer.push_back(std::tan(phi));
  return lanes;
}

TEST(GeomKernelIdentity, StepBatchMatchesScalarModel) {
  const dynamics::BicycleModel model(common::Meters{2.7}, common::MetersPerSec{40.0});
  const double dt = 0.25;
  const LaneSoa in = random_lanes(257, 11);
  const std::size_t n = in.x.size();

  std::vector<double> nx(n), ny(n), nh(n), nv(n);
  dynamics::step_batch(
      n,
      {in.x.data(), in.y.data(), in.heading.data(), in.speed.data(), in.accel.data(),
       in.tan_steer.data()},
      {nx.data(), ny.data(), nh.data(), nv.data()}, dt, model.wheelbase().value(),
      model.max_speed().value());

  for (std::size_t i = 0; i < n; ++i) {
    const dynamics::VehicleState s{in.x[i], in.y[i], in.heading[i], in.speed[i]};
    const dynamics::VehicleState ref =
        model.step(s, {in.accel[i], in.steer[i]}, common::Seconds{dt});
    // Exact == on purpose: the contract is bit-identity, not closeness.
    EXPECT_EQ(nx[i], ref.x) << "lane " << i;
    EXPECT_EQ(ny[i], ref.y) << "lane " << i;
    EXPECT_EQ(nh[i], ref.heading) << "lane " << i;
    EXPECT_EQ(nv[i], ref.speed) << "lane " << i;
  }
}

// --- scalar-reference full-tube identity ------------------------------------

std::uint64_t ref_xy_key(double x, double y, double inv_cell) {
  const auto ix = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(x * inv_cell)) + (1LL << 30));
  const auto iy = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(y * inv_cell)) + (1LL << 30));
  return (ix << 32) | (iy & 0xFFFFFFFFULL);
}

struct RefCellReps {
  int min_v = -1, max_v = -1, min_h = -1, max_h = -1;
  double v_lo = 0.0, v_hi = 0.0, h_lo = 0.0, h_hi = 0.0;
};

bool ref_state_ok(const roadmap::DrivableMap& map, const dynamics::VehicleState& s,
                  std::span<const core::ObstacleTimeline> obstacles,
                  std::span<const std::uint32_t> active, std::size_t slice,
                  const core::ReachTubeParams& params, double ego_r) {
  const geom::OrientedBox ego_box = dynamics::footprint(s, params.ego_dims);
  if (!map.contains_box(ego_box, core::ReachTubeComputer::kMapMargin)) return false;
  for (const std::uint32_t oi : active) {
    const core::ObstacleTimeline& obs = obstacles[oi];
    const geom::OrientedBox& box = obs.by_slice[slice];
    const double r = ego_r + obs.circumradius_by_slice[slice];
    if ((box.center() - ego_box.center()).norm_sq() > r * r) continue;
    if (ego_box.intersects(box)) return false;
  }
  return true;
}

void ref_active_set(std::span<const core::ObstacleTimeline> obstacles,
                    const dynamics::VehicleState& seed, std::size_t slice,
                    const core::ReachTubeParams& params, double max_speed, double ego_r,
                    std::vector<std::uint32_t>& out) {
  out.clear();
  const geom::Vec2 seed_pos{seed.x, seed.y};
  constexpr double kSlack = 0.5;
  const double t = static_cast<double>(slice) * params.dt;
  const double v_bound = std::min(
      std::max(seed.speed, 0.0) + std::max(params.limits.accel_max, 0.0) * t, max_speed);
  const double reach_r = t * v_bound + ego_r + kSlack;
  for (std::size_t oi = 0; oi < obstacles.size(); ++oi) {
    const core::ObstacleTimeline& obs = obstacles[oi];
    const double r = reach_r + obs.circumradius_by_slice[slice];
    if ((obs.by_slice[slice].center() - seed_pos).norm_sq() > r * r) continue;
    out.push_back(static_cast<std::uint32_t>(oi));
  }
}

/// Test-local replica of the historical scalar propagation loop — one
/// out-of-line step() and one state_ok() per candidate, interleaved — built
/// on public API only. The production pipeline must reproduce it to the bit.
core::ReachTube reference_tube(const roadmap::DrivableMap& map,
                               const dynamics::VehicleState& ego,
                               std::span<const core::ObstacleTimeline> obstacles,
                               const core::ReachTubeParams& params) {
  const int slices = static_cast<int>(std::lround(params.horizon / params.dt));
  const dynamics::BicycleModel model(common::Meters{params.wheelbase});
  const double ego_r =
      dynamics::footprint(dynamics::VehicleState{}, params.ego_dims).circumradius();
  const double max_speed = model.max_speed().value();
  const double inv_cell = 1.0 / params.cell_size;
  const common::Seconds dt{params.dt};

  std::vector<dynamics::Control> boundary;
  {
    const auto& lim = params.limits;
    std::vector<double> accels;
    if (params.include_braking_boundary) {
      accels = {lim.accel_min, 0.0, lim.accel_max};
    } else {
      accels = {0.0, lim.accel_max};
    }
    for (double a : accels) {
      for (double phi : {lim.steer_min, 0.0, lim.steer_max}) {
        boundary.push_back({a, phi});
      }
    }
  }

  core::ReachTube tube;
  tube.slices.assign(static_cast<std::size_t>(slices) + 1, {});

  std::vector<std::uint32_t> active;
  ref_active_set(obstacles, ego, 0, params, max_speed, ego_r, active);
  if (!ref_state_ok(map, ego, obstacles, active, 0, params, ego_r)) return tube;
  tube.slices[0].push_back(ego);

  std::size_t volume_cells = 1;
  common::Rng rng(core::ReachTubeComputer::kSampleSeed);
  common::FlatHashGrid<RefCellReps> cells;
  common::FlatKeySet occupied;
  std::vector<dynamics::VehicleState> candidates;
  std::vector<char> seen;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> kept;

  for (int j = 0; j < slices; ++j) {
    const auto& current = tube.slices[static_cast<std::size_t>(j)];
    auto& next = tube.slices[static_cast<std::size_t>(j) + 1];
    cells.clear();
    occupied.clear();
    candidates.clear();

    const std::size_t slice = static_cast<std::size_t>(j) + 1;
    ref_active_set(obstacles, ego, slice, params, max_speed, ego_r, active);
    std::size_t dead_cells = 0;
    auto try_control = [&](const dynamics::VehicleState& s, const dynamics::Control& u) {
      if (candidates.size() >= params.max_states_per_slice) return;
      const dynamics::VehicleState ns = model.step(s, u, dt);
      if (!params.dedup) {
        if (!ref_state_ok(map, ns, obstacles, active, slice, params, ego_r)) return;
        candidates.push_back(ns);
        occupied.insert(ref_xy_key(ns.x, ns.y, inv_cell));
        return;
      }
      const std::uint64_t key = ref_xy_key(ns.x, ns.y, inv_cell);
      auto [reps_slot, inserted] = cells.insert(key);
      if (inserted) {
        if (!ref_state_ok(map, ns, obstacles, active, slice, params, ego_r)) {
          ++dead_cells;
          return;
        }
        const int idx = static_cast<int>(candidates.size());
        candidates.push_back(ns);
        reps_slot->min_v = reps_slot->max_v = reps_slot->min_h = reps_slot->max_h = idx;
        reps_slot->v_lo = reps_slot->v_hi = ns.speed;
        reps_slot->h_lo = reps_slot->h_hi = ns.heading;
        return;
      }
      RefCellReps& reps = *reps_slot;
      if (reps.min_v < 0) return;
      const bool improves = ns.speed < reps.v_lo || ns.speed > reps.v_hi ||
                            ns.heading < reps.h_lo || ns.heading > reps.h_hi;
      if (!improves) return;
      if (!ref_state_ok(map, ns, obstacles, active, slice, params, ego_r)) return;
      const int idx = static_cast<int>(candidates.size());
      candidates.push_back(ns);
      if (ns.speed < reps.v_lo) {
        reps.v_lo = ns.speed;
        reps.min_v = idx;
      }
      if (ns.speed > reps.v_hi) {
        reps.v_hi = ns.speed;
        reps.max_v = idx;
      }
      if (ns.heading < reps.h_lo) {
        reps.h_lo = ns.heading;
        reps.min_h = idx;
      }
      if (ns.heading > reps.h_hi) {
        reps.h_hi = ns.heading;
        reps.max_h = idx;
      }
    };

    for (const dynamics::VehicleState& s : current) {
      for (const dynamics::Control& u : boundary) try_control(s, u);
      if (!params.boundary_controls) {
        const auto& lim = params.limits;
        for (int n = static_cast<int>(boundary.size()); n < params.uniform_samples; ++n) {
          try_control(s, {rng.uniform(lim.accel_min, lim.accel_max),
                          rng.uniform(lim.steer_min, lim.steer_max)});
        }
      }
    }

    if (params.dedup) {
      volume_cells += cells.size() - dead_cells;
      seen.assign(candidates.size(), 0);
      kept.clear();
      for (const auto& entry : cells) {
        const RefCellReps& reps = entry.value;
        for (int idx : {reps.min_v, reps.max_v, reps.min_h, reps.max_h}) {
          if (idx < 0) continue;
          if (seen[static_cast<std::size_t>(idx)]) continue;
          seen[static_cast<std::size_t>(idx)] = 1;
          kept.emplace_back(common::splitmix64_mix(static_cast<std::uint64_t>(idx)),
                            static_cast<std::uint32_t>(idx));
        }
      }
      std::sort(kept.begin(), kept.end());
      next.reserve(kept.size());
      for (const auto& [mixed, idx] : kept) next.push_back(candidates[idx]);
    } else {
      volume_cells += occupied.size();
      next = candidates;
    }
    if (next.empty()) break;
  }

  tube.volume = static_cast<double>(volume_cells);
  return tube;
}

// --- scenario plumbing (mirrors test_parallel_sti.cpp) -----------------------

sim::World typology_world(const scenario::ScenarioFactory& factory,
                          scenario::Typology typology) {
  common::Rng rng(7);
  const auto spec = factory.sample(typology, 0, rng);
  sim::World world = factory.build(spec);
  for (int i = 0; i < 20; ++i) world.step(dynamics::Control{0.0, 0.0});
  return world;
}

/// A per-slice cap the typology tubes hit within a few slices (it cuts the
/// lead-slowdown base volume from 540 to 149 cells), so the decision pass's
/// cap exit runs on most slices.
constexpr std::size_t kSaturatingCap = 40;

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

TEST(GeomKernelIdentity, FullTubeMatchesScalarReferenceAcrossTypologies) {
  core::RiskSession session;
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    for (bool dedup : {true, false}) {
      for (bool boundary_controls : {true, false}) {
        for (std::size_t cap : {core::ReachTubeParams{}.max_states_per_slice, kSaturatingCap}) {
          SCOPED_TRACE("dedup=" + std::to_string(dedup) +
                       " boundary_controls=" + std::to_string(boundary_controls) +
                       " max_states_per_slice=" + std::to_string(cap));
          core::ReachTubeParams params;
          params.dedup = dedup;
          params.boundary_controls = boundary_controls;
          params.max_states_per_slice = cap;
          const core::ReachTubeComputer rt(params);
          const auto obstacles =
              rt.sample_obstacles(forecasts, common::Seconds{world.time()});
          expect_same_tube(
              reference_tube(world.map(), world.ego().state, obstacles, params),
              rt.compute(session, world.map(), world.ego().state, obstacles));
        }
      }
    }
  }
}

TEST(GeomKernelIdentity, AttributedAndReplayMatchScalarReference) {
  // The attributed base propagation, the unblocked tube and the memoized
  // counterfactual replays route through the same staged loop and survival
  // test; all must still land on the scalar reference bits (replays are
  // checked against reference tubes with the excluded actor's timeline
  // dropped). Uniform sampling makes each replay resume the RNG stream from
  // the base run's snapshot mid-tube; the saturating cap makes it hit the
  // cap's early exits.
  const scenario::ScenarioFactory factory;
  std::size_t mid_tube_replays = 0;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    for (bool boundary_controls : {true, false}) {
      for (std::size_t cap : {core::ReachTubeParams{}.max_states_per_slice, kSaturatingCap}) {
        SCOPED_TRACE("boundary_controls=" + std::to_string(boundary_controls) +
                     " max_states_per_slice=" + std::to_string(cap));
        core::ReachTubeParams params;
        params.boundary_controls = boundary_controls;
        params.max_states_per_slice = cap;
        const core::ReachTubeComputer rt(params);
        core::RiskSession session;
        const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});
        const core::AttributedTube base =
            rt.compute_attributed(session, world.map(), world.ego().state, obstacles);
        expect_same_tube(reference_tube(world.map(), world.ego().state, obstacles, params),
                         base.tube);

        core::CounterfactualStats stats;
        expect_same_tube(
            reference_tube(world.map(), world.ego().state, {}, params),
            rt.compute_unblocked(session, world.map(), world.ego().state, obstacles, base,
                                 &stats));
        if (!stats.free && stats.replay_from >= 1) ++mid_tube_replays;

        for (std::size_t i = 0; i < obstacles.size(); ++i) {
          SCOPED_TRACE("actor_index=" + std::to_string(i));
          std::vector<core::ObstacleTimeline> reduced;
          for (std::size_t k = 0; k < obstacles.size(); ++k) {
            if (k != i) reduced.push_back(obstacles[k]);
          }
          expect_same_tube(
              reference_tube(world.map(), world.ego().state, reduced, params),
              rt.compute_counterfactual(session, world.map(), world.ego().state, obstacles,
                                        base, i, &stats));
          if (!stats.free && stats.replay_from >= 1) ++mid_tube_replays;
        }
      }
    }
  }
  // Most typology tubes are free copies of the base; the matrix is only a
  // replay test if some tube actually resumed from a copied prefix.
  EXPECT_GT(mid_tube_replays, 0U);
}

TEST(GeomKernelIdentity, StiBitIdenticalAcrossThreadsAndEngines) {
  // The §13 acceptance matrix: typologies × threads {0,2,4} must all produce
  // the bits of the from-scratch N+2-tube reference (tests/sti_reference.hpp).
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

    const core::StiResult reference = test::reference_sti(
        world.map(), world.ego().state, common::Seconds{world.time()}, forecasts);

    for (int threads : {0, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator calc(params);
      core::RiskSession session;
      const core::StiResult got = calc.compute(session, world.map(), world.ego().state,
                                               common::Seconds{world.time()}, forecasts);
      EXPECT_EQ(reference.combined, got.combined);
      EXPECT_EQ(reference.volume_all, got.volume_all);
      EXPECT_EQ(reference.volume_empty, got.volume_empty);
      ASSERT_EQ(reference.per_actor.size(), got.per_actor.size());
      for (std::size_t i = 0; i < reference.per_actor.size(); ++i) {
        EXPECT_EQ(reference.per_actor[i].first, got.per_actor[i].first);
        EXPECT_EQ(reference.per_actor[i].second, got.per_actor[i].second);
      }
    }
  }
}

}  // namespace
}  // namespace iprism
