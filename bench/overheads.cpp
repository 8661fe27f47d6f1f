// Reproduces the paper's §V-E execution-overhead measurements in the form
// the paper itself anticipates: "use of a high-performance programming
// language (e.g., C++)" — so these are the C++ numbers for the same
// operations the paper timed in Python (STI evaluation 0.61 s; SMC
// inference 0.012 s there).
//
//   ./overheads [ubench flags] [--require-release]
//
// The BM_TubeHotpath family measures the reach-tube hot-loop rewrite
// (common::FlatHashGrid scratch, per-slice obstacle active-set) against a
// bench-local replica of the pre-rewrite std::unordered_map loop, and the
// flat loop with pre-reservation off vs on. Recorded as
// BENCH_tube_hotpath.json from the release preset:
//   ./overheads --require-release \
//     '--benchmark_filter=BM_TubeHotpath|BM_StiFullPerActor$' \
//     --benchmark_out=BENCH_tube_hotpath.json --benchmark_out_format=json
//
// The BM_CounterfactualFanout family sweeps actor count N for the full STI
// evaluation on the shared-wavefront counterfactual engine (DESIGN.md §12).
// Recorded as BENCH_counterfactual_delta.json:
//   ./overheads --require-release \
//     --benchmark_filter=BM_CounterfactualFanout \
//     --benchmark_out=BENCH_counterfactual_delta.json --benchmark_out_format=json
//
// The BM_GeomKernel family measures the staged batch kernels behind the
// propagation rewrite (DESIGN.md §13) against their scalar per-lane
// counterparts. Recorded as BENCH_geom_kernel.json:
//   ./overheads --require-release \
//     --benchmark_filter=BM_GeomKernel \
//     --benchmark_out=BENCH_geom_kernel.json --benchmark_out_format=json
//
// The tube and STI benchmarks build a fresh core::RiskSession inside the
// timed loop: they time the cold call (scratch allocated and reserved per
// iteration, as `scratch_reserve` intends), which is what the recorded
// baselines hold.
#include <cmath>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "bench_util.hpp"
#include "core/pkl.hpp"
#include "core/ttc.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/cvtr.hpp"
#include "dynamics/step_batch.hpp"
#include "dynamics/trajectory.hpp"
#include "geom/batch.hpp"
#include "geom/obb.hpp"
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

// ---------------------------------------------------------------------------
// BM_TubeHotpath: before/after baseline for the flat-hash hot-loop rewrite.
//
// `baseline_tube` replicates the pre-rewrite ReachTubeComputer::compute hot
// loop: std::unordered_map/unordered_set scratch that cannot be pre-reserved
// (bucket order fed the surviving-representative selection), two divides per
// propagated state in the cell key, a per-slice `kept` unordered_set, a full
// per-slice candidate copy, and every obstacle broad-phase-tested per state.
// It lives here, not in src/core: the container-discipline lint bans the
// unordered containers there precisely because of what this baseline shows.

std::uint64_t baseline_xy_key(double x, double y, double cell) {
  const auto ix = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(x / cell)) + (1LL << 30));
  const auto iy = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(y / cell)) + (1LL << 30));
  return (ix << 32) | (iy & 0xFFFFFFFFULL);
}

struct BaselineCellReps {
  int min_v = -1, max_v = -1, min_h = -1, max_h = -1;
  double v_lo = 0.0, v_hi = 0.0, h_lo = 0.0, h_hi = 0.0;
};

bool baseline_state_ok(const roadmap::DrivableMap& map, const dynamics::VehicleState& s,
                       std::span<const core::ObstacleTimeline> obstacles,
                       std::size_t slice, common::ActorId exclude,
                       const core::ReachTubeParams& p) {
  const geom::OrientedBox ego_box = dynamics::footprint(s, p.ego_dims);
  if (!map.contains_box(ego_box, p.map_margin)) return false;
  const double ego_r = ego_box.circumradius();
  for (const core::ObstacleTimeline& obs : obstacles) {
    if (exclude.valid() && obs.actor_id == exclude) continue;
    const geom::OrientedBox& box = obs.by_slice[slice];
    const double r = ego_r + obs.circumradius_by_slice[slice];
    if ((box.center() - ego_box.center()).norm_sq() > r * r) continue;
    if (ego_box.intersects(box)) return false;
  }
  return true;
}

core::ReachTube baseline_tube(const roadmap::DrivableMap& map,
                              const dynamics::VehicleState& ego,
                              std::span<const core::ObstacleTimeline> obstacles,
                              common::ActorId exclude, const core::ReachTubeParams& p) {
  const dynamics::BicycleModel model(common::Meters{p.wheelbase});
  const int slices = static_cast<int>(std::lround(p.horizon / p.dt));
  std::vector<dynamics::Control> boundary_set;
  for (double a : {0.0, p.limits.accel_max}) {
    for (double phi : {p.limits.steer_min, 0.0, p.limits.steer_max}) {
      boundary_set.push_back({a, phi});
    }
  }

  core::ReachTube tube;
  tube.slices.assign(static_cast<std::size_t>(slices) + 1, {});
  if (!baseline_state_ok(map, ego, obstacles, 0, exclude, p)) return tube;
  tube.slices[0].push_back(ego);

  std::size_t volume_cells = 1;
  std::unordered_map<std::uint64_t, BaselineCellReps> cells;
  std::unordered_set<std::uint64_t> dead;
  std::vector<dynamics::VehicleState> candidates;
  candidates.reserve(std::min<std::size_t>(p.max_states_per_slice, 4096));

  for (int j = 0; j < slices; ++j) {
    const auto& current = tube.slices[static_cast<std::size_t>(j)];
    auto& next = tube.slices[static_cast<std::size_t>(j) + 1];
    cells.clear();
    dead.clear();
    candidates.clear();

    const std::size_t slice_idx = static_cast<std::size_t>(j) + 1;
    auto try_control = [&](const dynamics::VehicleState& s, const dynamics::Control& u) {
      if (candidates.size() >= p.max_states_per_slice) return;
      const dynamics::VehicleState ns = model.step(s, u, common::Seconds{p.dt});
      const std::uint64_t key = baseline_xy_key(ns.x, ns.y, p.cell_size);
      if (dead.contains(key)) return;
      auto it = cells.find(key);
      if (it == cells.end()) {
        if (!baseline_state_ok(map, ns, obstacles, slice_idx, exclude, p)) {
          dead.insert(key);
          return;
        }
        const int idx = static_cast<int>(candidates.size());
        candidates.push_back(ns);
        BaselineCellReps reps;
        reps.min_v = reps.max_v = reps.min_h = reps.max_h = idx;
        reps.v_lo = reps.v_hi = ns.speed;
        reps.h_lo = reps.h_hi = ns.heading;
        cells.emplace(key, reps);
        return;
      }
      BaselineCellReps& reps = it->second;
      const bool improves = ns.speed < reps.v_lo || ns.speed > reps.v_hi ||
                            ns.heading < reps.h_lo || ns.heading > reps.h_hi;
      if (!improves) return;
      if (!baseline_state_ok(map, ns, obstacles, slice_idx, exclude, p)) return;
      const int idx = static_cast<int>(candidates.size());
      candidates.push_back(ns);
      if (ns.speed < reps.v_lo) { reps.v_lo = ns.speed; reps.min_v = idx; }
      if (ns.speed > reps.v_hi) { reps.v_hi = ns.speed; reps.max_v = idx; }
      if (ns.heading < reps.h_lo) { reps.h_lo = ns.heading; reps.min_h = idx; }
      if (ns.heading > reps.h_hi) { reps.h_hi = ns.heading; reps.max_h = idx; }
    };

    for (const dynamics::VehicleState& s : current) {
      for (const dynamics::Control& u : boundary_set) try_control(s, u);
    }

    volume_cells += cells.size();
    std::unordered_set<int> kept;
    for (const auto& [key, reps] : cells) {
      for (int idx : {reps.min_v, reps.max_v, reps.min_h, reps.max_h}) kept.insert(idx);
    }
    next.reserve(kept.size());
    for (int idx : kept) next.push_back(candidates[static_cast<std::size_t>(idx)]);
    if (next.empty()) break;
  }
  tube.volume = static_cast<double>(volume_cells);
  return tube;
}

void BM_TubeHotpathBaseline(ubench::State& state) {
  // One tube through the pre-rewrite unordered_map hot loop.
  auto& f = fixture();
  const core::ReachTubeParams params;
  const core::ReachTubeComputer rt(params);
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{f.world.time()});
  for (auto _ : state) {
    const auto tube = baseline_tube(f.world.map(), f.world.ego().state, obstacles,
                                    common::ActorId::none(), params);
    ubench::DoNotOptimize(tube.volume);
  }
}
UBENCH(BM_TubeHotpathBaseline);

void BM_TubeHotpathFlat(ubench::State& state) {
  // One tube through the FlatHashGrid hot loop; arg = scratch_reserve
  // (0 = auto-reserve — the default; the old loop could not reserve at all).
  auto& f = fixture();
  core::ReachTubeParams params;
  params.scratch_reserve = static_cast<std::size_t>(state.range(0));
  const core::ReachTubeComputer rt(params);
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{f.world.time()});
  for (auto _ : state) {
    core::RiskSession session;
    const auto tube = rt.compute(session, f.world.map(), f.world.ego().state, obstacles,
                                 common::ActorId::none());
    ubench::DoNotOptimize(tube.volume);
  }
}
UBENCH(BM_TubeHotpathFlat)->Arg(0)->Arg(4096);

void BM_TubeHotpathStiBaseline(ubench::State& state) {
  // The full-STI workload (N+2 tubes: |T|, |T^null|, per-actor
  // counterfactuals) through the baseline loop — the apples-to-apples
  // counterpart of BM_StiFullPerActor on the new hot loop.
  auto& f = fixture();
  const core::ReachTubeParams params;
  const core::ReachTubeComputer rt(params);
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{f.world.time()});
  for (auto _ : state) {
    double acc = 0.0;
    acc += baseline_tube(f.world.map(), f.world.ego().state, obstacles,
                         common::ActorId::none(), params).volume;
    acc += baseline_tube(f.world.map(), f.world.ego().state, {},
                         common::ActorId::none(), params).volume;
    for (const auto& obs : obstacles) {
      acc += baseline_tube(f.world.map(), f.world.ego().state, obstacles, obs.actor_id,
                           params)
                 .volume;
    }
    ubench::DoNotOptimize(acc);
  }
}
UBENCH(BM_TubeHotpathStiBaseline);

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

void BM_StiFullPerActorThreads(ubench::State& state) {
  // The parallel STI engine: same full evaluation as BM_StiFullPerActor,
  // fanned over a common::ThreadPool with `num_threads` workers (arg 0 = the
  // serial fallback path through the same code). The JSON emitted by
  //   ./overheads --benchmark_filter=StiFullPerActor
  //     --benchmark_out=BENCH_parallel_sti.json --benchmark_out_format=json
  // seeds the repo's perf trajectory; CI uploads it as an artifact. Results
  // are bit-identical across thread counts (tests/test_parallel_sti.cpp).
  auto& f = fixture();
  core::ReachTubeParams params;
  params.num_threads = static_cast<int>(state.range(0));
  const core::StiCalculator sti(params);
  const auto forecasts = core::cvtr_forecasts(f.world, 3.0, 0.25);
  for (auto _ : state) {
    core::RiskSession session;
    const auto r = sti.compute(session, f.world.map(), f.world.ego().state,
                               common::Seconds{f.world.time()}, forecasts);
    ubench::DoNotOptimize(r.combined);
  }
}
UBENCH(BM_StiFullPerActorThreads)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

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

// ---------------------------------------------------------------------------
// BM_GeomKernel*: the staged batch kernels of the tube propagation
// (DESIGN.md §13) against their scalar per-lane counterparts, at block sizes
// spanning one parent's controls (16), a typical partial flush (256), and a
// multiple of the kLaneBlock flush threshold (4096). Recorded as
// BENCH_geom_kernel.json from the release preset:
//   ./overheads --require-release --benchmark_filter=BM_GeomKernel \
//     --benchmark_out=BENCH_geom_kernel.json --benchmark_out_format=json

/// SoA lane material shared by the kernel benchmarks (worst case: every lane
/// a distinct state/control drawn across the tube's operating envelope).
struct KernelLanes {
  explicit KernelLanes(std::size_t n) {
    common::Rng rng(17);
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(rng.uniform(-50.0, 400.0));
      y.push_back(rng.uniform(-10.0, 20.0));
      heading.push_back(rng.uniform(-3.1, 3.1));
      speed.push_back(rng.uniform(0.0, 40.0));
      accel.push_back(rng.uniform(-6.0, 3.0));
      steer.push_back(rng.uniform(-0.35, 0.35));
      tan_steer.push_back(std::tan(steer.back()));
    }
    nx.resize(n);
    ny.resize(n);
    nh.resize(n);
    nv.resize(n);
    ax.resize(n);
    ay.resize(n);
    lo_x.resize(n);
    lo_y.resize(n);
    hi_x.resize(n);
    hi_y.resize(n);
    mask.resize(n);
  }

  std::vector<double> x, y, heading, speed, accel, steer, tan_steer;
  std::vector<double> nx, ny, nh, nv, ax, ay, lo_x, lo_y, hi_x, hi_y;
  std::vector<unsigned char> mask;
};

void BM_GeomKernelStep(ubench::State& state) {
  // Stage 1: SoA bicycle step over the whole block.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  const dynamics::BicycleModel model;
  for (auto _ : state) {
    dynamics::step_batch(n,
                         {lanes.x.data(), lanes.y.data(), lanes.heading.data(),
                          lanes.speed.data(), lanes.accel.data(), lanes.tan_steer.data()},
                         {lanes.nx.data(), lanes.ny.data(), lanes.nh.data(),
                          lanes.nv.data()},
                         0.25, model.wheelbase().value(), model.max_speed().value());
    ubench::DoNotOptimize(lanes.nx.data());
  }
}
UBENCH(BM_GeomKernelStep)->Arg(16)->Arg(256)->Arg(4096);

void BM_GeomKernelStepScalar(ubench::State& state) {
  // Scalar counterpart: one out-of-line model.step per lane.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  const dynamics::BicycleModel model;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      const dynamics::VehicleState ns =
          model.step({lanes.x[i], lanes.y[i], lanes.heading[i], lanes.speed[i]},
                     {lanes.accel[i], lanes.steer[i]}, common::Seconds{0.25});
      lanes.nx[i] = ns.x;
      lanes.ny[i] = ns.y;
      lanes.nh[i] = ns.heading;
      lanes.nv[i] = ns.speed;
    }
    ubench::DoNotOptimize(lanes.nx.data());
  }
}
UBENCH(BM_GeomKernelStepScalar)->Arg(16)->Arg(256)->Arg(4096);

void BM_GeomKernelFootprint(ubench::State& state) {
  // Stage 2: footprint axes + corner AABBs for the whole block.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  for (auto _ : state) {
    geom::footprint_axes(n, lanes.heading.data(), lanes.ax.data(), lanes.ay.data());
    geom::footprint_aabbs(n, lanes.x.data(), lanes.y.data(), lanes.ax.data(),
                          lanes.ay.data(), 2.25, 1.0, lanes.lo_x.data(),
                          lanes.lo_y.data(), lanes.hi_x.data(), lanes.hi_y.data());
    ubench::DoNotOptimize(lanes.lo_x.data());
  }
}
UBENCH(BM_GeomKernelFootprint)->Arg(16)->Arg(256)->Arg(4096);

void BM_GeomKernelFootprintScalar(ubench::State& state) {
  // Scalar counterpart: one OrientedBox construction + aabb() per lane.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  const dynamics::Dimensions dims{4.5, 2.0};
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      const geom::OrientedBox box = dynamics::footprint(
          {lanes.x[i], lanes.y[i], lanes.heading[i], lanes.speed[i]}, dims);
      const geom::Aabb bb = box.aabb();
      lanes.lo_x[i] = bb.lo.x;
      lanes.lo_y[i] = bb.lo.y;
      lanes.hi_x[i] = bb.hi.x;
      lanes.hi_y[i] = bb.hi.y;
    }
    ubench::DoNotOptimize(lanes.lo_x.data());
  }
}
UBENCH(BM_GeomKernelFootprintScalar)->Arg(16)->Arg(256)->Arg(4096);

void BM_GeomKernelCull(ubench::State& state) {
  // Stage 3: circumradius broad-phase cull of one obstacle vs the block.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  const double r_sq = 8.0 * 8.0;
  for (auto _ : state) {
    ubench::DoNotOptimize(geom::broad_phase_cull(n, lanes.x.data(), lanes.y.data(),
                                                 120.0, 5.0, r_sq, lanes.mask.data()));
  }
}
UBENCH(BM_GeomKernelCull)->Arg(16)->Arg(256)->Arg(4096);

void BM_GeomKernelCullScalar(ubench::State& state) {
  // Scalar counterpart: the per-lane distance predicate as state_ok ran it.
  const auto n = static_cast<std::size_t>(state.range(0));
  KernelLanes lanes(n);
  const geom::Vec2 center{120.0, 5.0};
  const double r_sq = 8.0 * 8.0;
  for (auto _ : state) {
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool hit = !((center - geom::Vec2{lanes.x[i], lanes.y[i]}).norm_sq() > r_sq);
      lanes.mask[i] = hit ? 1 : 0;
      survivors += hit ? 1 : 0;
    }
    ubench::DoNotOptimize(survivors);
  }
}
UBENCH(BM_GeomKernelCullScalar)->Arg(16)->Arg(256)->Arg(4096);

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
