#include "core/reachtube.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "core/session_state.hpp"
#include "dynamics/bicycle.hpp"

namespace iprism::core {

// The propagation scratch (detail::TubeScratch, detail::kLaneBlock) lives in
// core/session_state.hpp since the engine/session split: sessions own and
// pool it across ticks, and every entry point below leases it back through a
// detail::ScratchLease.
using detail::CellReps;
using detail::kLaneBlock;
using detail::ScratchShape;
using detail::TubeScratch;

namespace {

/// Packs a quantized (x, y) cell into a hashable key. Coordinates are
/// offset to keep them positive over any realistic map extent. `inv_cell`
/// is the hoisted 1/cell_size — the hot loop multiplies instead of paying
/// two divides per propagated state.
std::uint64_t xy_key(double x, double y, double inv_cell) {
  const auto ix = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(x * inv_cell)) + (1LL << 30));
  const auto iy = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(y * inv_cell)) + (1LL << 30));
  return (ix << 32) | (iy & 0xFFFFFFFFULL);
}

static_assert(sizeof(dynamics::VehicleState) == 4 * sizeof(double),
              "VehicleState must stay four packed doubles: the blocked-by "
              "memo matches replayed candidates by raw state bits");

/// Hash of a state's exact bit pattern — the blocked-by memo key. Two runs
/// testing the same candidate produce identical doubles (the propagation is
/// deterministic), so bit hashing is exact; a hash collision between
/// *different* states is caught by bits_equal below and degrades to a memo
/// miss, never to a wrong answer.
std::uint64_t state_bits_key(const dynamics::VehicleState& s) {
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  std::uint64_t h = common::splitmix64_mix(bits(s.x));
  h = common::splitmix64_mix(h ^ bits(s.y));
  h = common::splitmix64_mix(h ^ bits(s.heading));
  h = common::splitmix64_mix(h ^ bits(s.speed));
  return h;
}

bool bits_equal(const dynamics::VehicleState& a, const dynamics::VehicleState& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// A non-finite seed state propagates NaN through every slice and yields a
/// meaningless volume (0 or 1 cell) instead of an error, so the tube entry
/// points reject it up front.
void check_ego(const dynamics::VehicleState& ego) {
  IPRISM_CHECK(std::isfinite(ego.x) && std::isfinite(ego.y) && std::isfinite(ego.heading) &&
                   std::isfinite(ego.speed),
               "ReachTube: ego state must be finite");
}

/// Recorder hooks of the tubes that record no attribution.
constexpr auto kNoLoopBegin = [](int, const common::Rng&) {};
constexpr auto kNoSliceDone = [](int, std::size_t) {};

}  // namespace

void ObstacleTimeline::finalize() {
  circumradius_by_slice.clear();
  circumradius_by_slice.reserve(by_slice.size());
  for (const geom::OrientedBox& box : by_slice) {
    circumradius_by_slice.push_back(box.circumradius());
  }
}

void ReachTubeComputer::validate(const ReachTubeParams& params) {
  IPRISM_CHECK(std::isfinite(params.dt) && std::isfinite(params.horizon) && params.dt > 0.0 &&
                   params.horizon > 0.0,
               "ReachTubeParams: dt and horizon must be finite and positive");
  IPRISM_CHECK(std::isfinite(params.cell_size) && params.cell_size > 0.0,
               "ReachTubeParams: cell_size must be finite and positive");
  IPRISM_CHECK(std::isfinite(params.ego_dims.length) && std::isfinite(params.ego_dims.width) &&
                   params.ego_dims.length > 0.0 && params.ego_dims.width > 0.0,
               "ReachTubeParams: ego_dims length and width must be finite and positive");
  IPRISM_CHECK(params.uniform_samples > 0,
               "ReachTubeParams: uniform_samples must be positive");
  IPRISM_CHECK(params.max_states_per_slice > 0,
               "ReachTubeParams: max_states_per_slice must be positive");
  IPRISM_CHECK(params.limits.accel_min < params.limits.accel_max &&
                   params.limits.steer_min < params.limits.steer_max,
               "ReachTubeParams: control limits must span a non-empty range");
  IPRISM_CHECK(params.num_threads >= 0,
               "ReachTubeParams: num_threads must be non-negative (0 = serial)");
  IPRISM_CHECK(static_cast<int>(std::lround(params.horizon / params.dt)) >= 1,
               "ReachTubeParams: horizon must cover at least one slice");
}

ReachTubeComputer::ReachTubeComputer(const ReachTubeParams& params)
    : params_(params), model_(common::Meters{params.wheelbase}) {
  validate(params);
  slices_ = static_cast<int>(std::lround(params.horizon / params.dt));
  // The ego footprint's circumradius depends only on its dimensions, never
  // on the state — hoist the hypot out of the per-state collision test.
  ego_circumradius_ =
      dynamics::footprint(dynamics::VehicleState{}, params_.ego_dims).circumradius();

  const auto& lim = params_.limits;
  std::vector<double> accels;
  if (params_.include_braking_boundary) {
    accels = {lim.accel_min, 0.0, lim.accel_max};
  } else {
    accels = {0.0, lim.accel_max};  // the paper's published boundary set
  }
  for (double a : accels) {
    for (double phi : {lim.steer_min, 0.0, lim.steer_max}) {
      boundary_set_.push_back({a, phi});
    }
  }
  // tan(phi) per boundary control, hoisted out of the step kernel: the same
  // libm call on the same input bits the scalar model makes per step.
  boundary_tan_.reserve(boundary_set_.size());
  for (const dynamics::Control& u : boundary_set_) {
    boundary_tan_.push_back(std::tan(u.steer));
  }
}

std::vector<ObstacleTimeline> ReachTubeComputer::sample_obstacles(
    std::span<const ActorForecast> forecasts, common::Seconds t0) const {
  const common::Seconds dt{params_.dt};
  std::vector<ObstacleTimeline> out;
  out.reserve(forecasts.size());
  for (const ActorForecast& f : forecasts) {
    ObstacleTimeline tl;
    tl.actor_id = common::ActorId{f.id};
    tl.by_slice.reserve(static_cast<std::size_t>(slices_) + 1);
    for (int j = 0; j <= slices_; ++j) {
      tl.by_slice.push_back(f.trajectory.footprint_at(t0 + j * dt, f.dims));
    }
    tl.finalize();
    out.push_back(std::move(tl));
  }
  return out;
}

ReachTubeComputer::Verdict ReachTubeComputer::survival_test(
    const roadmap::DrivableMap& map, const dynamics::VehicleState& s,
    std::span<const ObstacleTimeline> obstacles, std::span<const std::uint32_t> active,
    common::SliceIdx slice_idx, int max_hits) const {
  const std::size_t slice = slice_idx.value();
  const geom::OrientedBox ego_box = dynamics::footprint(s, params_.ego_dims);
  // Off-map wins outright: no actor removal rescues the candidate.
  if (!map.contains_box(ego_box, kMapMargin)) return {BlockerClass::kOffMap, 0};
  int hits = 0;
  std::uint32_t first = 0;
  for (const std::uint32_t oi : active) {
    const ObstacleTimeline& obs = obstacles[oi];
    IPRISM_DCHECK(slice < obs.by_slice.size(),
                  "ReachTube: slice index out of obstacle timeline bounds");
    const geom::OrientedBox& box = obs.by_slice[slice];
    // Circumradius pretest (radius precomputed per timeline), then SAT only:
    // intersects() would repeat the same pretest on the same operands.
    const double r = ego_circumradius_ + obs.circumradius_by_slice[slice];
    if ((box.center() - ego_box.center()).norm_sq() > r * r) continue;
    if (!ego_box.intersects_sat(box)) continue;
    if (hits == 0) first = oi;
    if (++hits >= max_hits) break;
  }
  if (hits == 0) return {BlockerClass::kPassed, 0};
  if (hits == 1) return {BlockerClass::kSole, first};
  return {BlockerClass::kMulti, 0};
}

template <class Activate, class Consult, class OnLoopBegin, class OnSliceDone>
void ReachTubeComputer::propagate(TubeScratch& scratch, ReachTube& tube,
                                  std::size_t& volume_cells, common::Rng& rng,
                                  int first_loop, Activate&& activate, Consult&& consult,
                                  OnLoopBegin&& on_loop_begin,
                                  OnSliceDone&& on_slice_done) const {
  [[maybe_unused]] std::size_t slices_processed = 0;
  [[maybe_unused]] std::size_t states_expanded = 0;

  auto& cells = scratch.cells;
  auto& occupied = scratch.occupied;
  auto& candidates = scratch.candidates;
  auto& lanes = scratch.lanes;

  const double inv_cell = 1.0 / params_.cell_size;
  const double max_speed = model_.max_speed().value();

  // Per-slice working set (scratch above, allocated once per propagation).
  // With dedup on, each (x, y) epsilon cell keeps up to four representative
  // states (speed/heading extremes); dead cells (first sample collided or
  // left the map) are cached so the whole cell is skipped — optimization (1)
  // at cell granularity.
  for (int j = first_loop; j < slices_; ++j) {
    on_loop_begin(j, rng);
    const auto& current = tube.slices[static_cast<std::size_t>(j)];
    auto& next = tube.slices[static_cast<std::size_t>(j) + 1];
    scratch.next_slice();

    const common::SliceIdx slice_idx{static_cast<std::size_t>(j) + 1};
    activate(slice_idx);
    std::size_t dead_cells = 0;

    // Decision pass: consumes one stepped block sequentially, in the exact
    // candidate order the historical generate-then-test loop produced — so
    // dedup bookkeeping, the per-slice cap, and the emitted tube are
    // bit-identical by construction. Only the candidates it consults pay
    // for geometry: dedup discards most stepped lanes before that.
    auto decide = [&](std::size_t block) {
      for (std::size_t i = 0; i < block; ++i) {
        // `candidates` never shrinks within a slice, so once the cap is hit
        // every remaining lane bails exactly like its scalar call did.
        if (candidates.size() >= params_.max_states_per_slice) return;
        const dynamics::VehicleState ns{lanes.nx[i], lanes.ny[i], lanes.nh[i],
                                        lanes.nv[i]};

        if (!params_.dedup) {
          if (!consult(ns, slice_idx)) continue;
          candidates.push_back(ns);
          occupied.insert(lanes.key[i]);
          continue;
        }

        // One probe per candidate: a dead cell (first sample collided or left
        // the map) stays in `cells` as an entry with no representatives
        // (min_v < 0) — the separate dead-key set the old loop needed costs a
        // second hash lookup on every propagated state.
        auto [reps_slot, inserted] = cells.insert(lanes.key[i]);
        if (inserted) {
          if (!consult(ns, slice_idx)) {
            ++dead_cells;  // reps_slot keeps its default min_v = -1 dead marker
            continue;
          }
          const int idx = static_cast<int>(candidates.size());
          candidates.push_back(ns);
          reps_slot->min_v = reps_slot->max_v = reps_slot->min_h = reps_slot->max_h = idx;
          reps_slot->v_lo = reps_slot->v_hi = ns.speed;
          reps_slot->h_lo = reps_slot->h_hi = ns.heading;
          continue;
        }
        CellReps& reps = *reps_slot;
        if (reps.min_v < 0) continue;  // dead cell
        const bool improves = ns.speed < reps.v_lo || ns.speed > reps.v_hi ||
                              ns.heading < reps.h_lo || ns.heading > reps.h_hi;
        if (!improves) continue;
        if (!consult(ns, slice_idx)) continue;
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
      }
    };

    // Over the pending block: batch-step every lane, batch the cell keys,
    // then decide. A block queued entirely past the cap is dropped
    // wholesale — the scalar loop never stepped those candidates either, and
    // `decide` would discard every one of them.
    auto flush = [&] {
      const std::size_t block = lanes.count;
      if (block == 0) return;
      if (candidates.size() >= params_.max_states_per_slice) {
        lanes.count = 0;
        return;
      }
      dynamics::step_batch(
          block,
          {lanes.px.data(), lanes.py.data(), lanes.ph.data(), lanes.pv.data(),
           lanes.accel.data(), lanes.tan_steer.data()},
          {lanes.nx.data(), lanes.ny.data(), lanes.nh.data(), lanes.nv.data()},
          params_.dt, params_.wheelbase, max_speed);
      for (std::size_t i = 0; i < block; ++i) {
        lanes.key[i] = xy_key(lanes.nx[i], lanes.ny[i], inv_cell);
      }
      decide(block);
      lanes.count = 0;
    };

    for (const dynamics::VehicleState& s : current) {
      for (std::size_t b = 0; b < boundary_set_.size(); ++b) {
        lanes.push(s, boundary_set_[b].accel, boundary_tan_[b]);
      }
      if (!params_.boundary_controls) {
        // Algorithm 1's unoptimized form: the extreme controls above plus
        // uniform samples up to N. Draws happen at queue time, in the exact
        // per-parent order the scalar loop drew them — the stream never
        // depended on test outcomes (capped candidates still drew), so
        // queuing a block ahead of its decisions leaves it untouched.
        const auto& lim = params_.limits;
        for (int n = static_cast<int>(boundary_set_.size()); n < params_.uniform_samples;
             ++n) {
          const double a = rng.uniform(lim.accel_min, lim.accel_max);
          const double phi = rng.uniform(lim.steer_min, lim.steer_max);
          lanes.push(s, a, std::tan(phi));
        }
      }
      if (lanes.count >= kLaneBlock) flush();
    }
    flush();

    if (params_.dedup) {
      // A dead cell leaves an entry with no representatives; it must not
      // count toward the slice's occupied volume.
      volume_cells += cells.size() - dead_cells;
      // Collect the surviving representatives with a hash-free seen-flags
      // pass in cell insertion order (first-seen wins for slots shared
      // between extremes), then emit them in SplitMix64-scrambled slot
      // order. The scramble decorrelates next-slice propagation order from
      // this slice's spatial wavefront — the statistical role the old
      // unordered_set bucket order played — but is defined by construction:
      // independent of capacity, load factor, standard library, platform,
      // and thread count (DESIGN.md §9).
      scratch.seen.assign(candidates.size(), 0);
      scratch.kept.clear();
      for (const auto& entry : cells) {
        const CellReps& reps = entry.value;
        for (int idx : {reps.min_v, reps.max_v, reps.min_h, reps.max_h}) {
          if (idx < 0) continue;  // dead cell: no representatives
          IPRISM_DCHECK(static_cast<std::size_t>(idx) < candidates.size(),
                        "ReachTube: representative slot out of candidate bounds");
          if (scratch.seen[static_cast<std::size_t>(idx)]) continue;
          scratch.seen[static_cast<std::size_t>(idx)] = 1;
          scratch.kept.emplace_back(
              common::splitmix64_mix(static_cast<std::uint64_t>(idx)),
              static_cast<std::uint32_t>(idx));
        }
      }
      // The mix is bijective, so sorting on it alone is a total order.
      std::sort(scratch.kept.begin(), scratch.kept.end());
      next.reserve(scratch.kept.size());
      for (const auto& [mixed, idx] : scratch.kept) {
        next.push_back(candidates[idx]);
      }
    } else {
      volume_cells += occupied.size();
      // Hand the slice its own right-sized storage and keep the scratch's
      // capacity: moving `candidates` out surrendered its buffer to the tube
      // (forcing a re-reserve allocation every slice) and left each emitted
      // slice holding a full scratch-sized block. One exact allocation per
      // produced slice — the same as the dedup branch — is all that remains,
      // so the zero-steady-state-scratch-allocation guarantee holds for
      // dedup=false too (tests/test_tube_alloc.cpp).
      next.reserve(candidates.size());
      next.insert(next.end(), candidates.begin(), candidates.end());
    }
    ++slices_processed;
    states_expanded += next.size();
    on_slice_done(j, volume_cells);
    if (next.empty()) break;  // tube pinched off; later slices unreachable
  }

  IPRISM_COUNT_ADD("reachtube.slices", slices_processed);
  IPRISM_COUNT_ADD("reachtube.states_expanded", states_expanded);
  IPRISM_COUNT_ADD("reachtube.scratch_rehashes", scratch.cells.rehash_count());
}

template <class Activate, class Consult, class OnLoopBegin, class OnSliceDone>
ReachTube ReachTubeComputer::drive(TubeScratch& scratch, const dynamics::VehicleState& ego,
                                   const AttributedTube* base, std::uint32_t jstar,
                                   Activate&& activate, Consult&& consult,
                                   OnLoopBegin&& on_loop_begin,
                                   OnSliceDone&& on_slice_done) const {
  ReachTube tube;
  tube.slices.assign(static_cast<std::size_t>(slices_) + 1, {});

  std::size_t volume_cells = 0;
  common::Rng rng(kSampleSeed);
  int first_loop = 0;
  if (jstar == 0) {
    // Slice 0: the current ego state. If it already collides (or is
    // off-map), every escape route is gone and the tube is empty.
    activate(common::SliceIdx{0});
    if (!consult(ego, common::SliceIdx{0})) return tube;
    tube.slices[0].push_back(ego);
    volume_cells = 1;  // the seed's own cell
  } else {
    // Slices before the divergence are bit-identical by induction: no
    // survival outcome differs there, so the exact states (and the RNG
    // stream) are the base run's — copy, don't recompute.
    IPRISM_DCHECK(base != nullptr && jstar != TubeAttribution::kNever,
                  "ReachTube: a re-propagation needs a base tube and a divergence slice");
    const TubeAttribution& attr = base->attribution;
    for (std::size_t k = 0; k < jstar; ++k) tube.slices[k] = base->tube.slices[k];
    volume_cells = attr.volume_prefix[jstar - 1];
    rng = attr.rng_at_loop[jstar - 1];
    first_loop = static_cast<int>(jstar) - 1;
  }
  propagate(scratch, tube, volume_cells, rng, first_loop, activate, consult, on_loop_begin,
            on_slice_done);

  tube.volume = static_cast<double>(volume_cells);
  IPRISM_DCHECK(tube.volume >= 1.0, "ReachTube: non-empty tube must have positive volume");
  return tube;
}

void ReachTubeComputer::build_active_set(std::span<const ObstacleTimeline> obstacles,
                                         const dynamics::VehicleState& seed,
                                         TubeScratch& scratch,
                                         common::SliceIdx slice_idx) const {
  // Conservative reachable-disc bound: by slice j (time t = j·dt), every
  // candidate's footprint lies within seed_pos ± (t·v̄(t) + ego_r), where
  // v̄(t) = min(v0 + a_max·t, model v_max) bounds speed (the bicycle model
  // clamps speed to [0, v_max], so braking never adds displacement). An
  // obstacle whose slice-j footprint disc cannot touch that disc is filtered
  // out of the slice's active-set once, instead of being broad-phase-tested
  // per candidate state. kSlack absorbs rounding in the bound arithmetic.
  scratch.active.clear();
  const geom::Vec2 seed_pos{seed.x, seed.y};
  constexpr double kSlack = 0.5;
  const std::size_t slice = slice_idx.value();
  const double t = static_cast<double>(slice) * params_.dt;
  const double v_bound =
      std::min(std::max(seed.speed, 0.0) + std::max(params_.limits.accel_max, 0.0) * t,
               model_.max_speed().value());
  const double reach_r = t * v_bound + ego_circumradius_ + kSlack;
  for (std::size_t oi = 0; oi < obstacles.size(); ++oi) {
    if (scratch.excluded[oi]) continue;
    const ObstacleTimeline& obs = obstacles[oi];
    const double r = reach_r + obs.circumradius_by_slice[slice];
    if ((obs.by_slice[slice].center() - seed_pos).norm_sq() > r * r) continue;
    scratch.active.push_back(static_cast<std::uint32_t>(oi));
  }
}

void ReachTubeComputer::load_active_set(const TubeAttribution& attr, TubeScratch& scratch,
                                        std::size_t slice) const {
  IPRISM_DCHECK(slice + 1 < attr.active_offsets.size(),
                "ReachTube: attribution is missing this slice's active set");
  scratch.active.clear();
  const std::size_t begin = attr.active_offsets[slice];
  const std::size_t end = attr.active_offsets[slice + 1];
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint32_t oi = attr.active_flat[k];
    if (scratch.excluded[oi]) continue;
    scratch.active.push_back(oi);
  }
}

ScratchShape ReachTubeComputer::scratch_shape(std::size_t obstacle_count) const {
  const std::size_t expected = std::min<std::size_t>(params_.max_states_per_slice, 4096);
  // Worst-case lanes one parent can queue past the kLaneBlock flush
  // threshold: with boundary controls only, the boundary set; with uniform
  // sampling, whichever of the two control counts is larger.
  const std::size_t per_parent =
      params_.boundary_controls
          ? boundary_set_.size()
          : std::max(boundary_set_.size(),
                     static_cast<std::size_t>(params_.uniform_samples));
  return ScratchShape{expected, params_.dedup ? 0 : expected, obstacle_count,
                      kLaneBlock + per_parent};
}

void ReachTubeComputer::check_timelines(std::span<const ObstacleTimeline> obstacles) const {
  for (const ObstacleTimeline& obs : obstacles) {
    IPRISM_CHECK(obs.by_slice.size() == static_cast<std::size_t>(slices_) + 1,
                 "ReachTube: obstacle timeline sliced with different parameters");
    IPRISM_CHECK(obs.circumradius_by_slice.size() == obs.by_slice.size(),
                 "ReachTube: obstacle timeline missing precomputed circumradii "
                 "(build via sample_obstacles or call ObstacleTimeline::finalize)");
    for (std::size_t j = 0; j < obs.by_slice.size(); ++j) {
      const geom::Vec2& c = obs.by_slice[j].center();
      IPRISM_CHECK(std::isfinite(c.x) && std::isfinite(c.y) &&
                       std::isfinite(obs.circumradius_by_slice[j]),
                   "ReachTube: obstacle footprint must be finite");
    }
  }
}

ReachTube ReachTubeComputer::compute(RiskSession& session, const roadmap::DrivableMap& map,
                                     const dynamics::VehicleState& ego,
                                     std::span<const ObstacleTimeline> obstacles,
                                     common::ActorId exclude) const {
  check_ego(ego);
  check_timelines(obstacles);

  // Telemetry at compute() granularity only: the per-state hot loop stays
  // untouched; counters accumulate in plain locals and flush once at exit.
  IPRISM_SCOPED_TIMER("reachtube.compute", "reachtube");

  const detail::ScratchLease lease(session.state().scratch_pool,
                                   scratch_shape(obstacles.size()));
  TubeScratch& scratch = *lease;
  // ActorId::none() compares equal to no real (>= 0) actor id, so the
  // default excludes nobody — including anonymous hand-built timelines.
  if (exclude.valid()) {
    for (std::size_t oi = 0; oi < obstacles.size(); ++oi) {
      scratch.excluded[oi] = obstacles[oi].actor_id == exclude ? 1 : 0;
    }
  }

  return drive(
      scratch, ego, nullptr, 0,
      [&](common::SliceIdx si) { build_active_set(obstacles, ego, scratch, si); },
      [&](const dynamics::VehicleState& ns, common::SliceIdx si) {
        return survival_test(map, ns, obstacles, scratch.active, si, /*max_hits=*/1).passed();
      },
      kNoLoopBegin, kNoSliceDone);
}

AttributedTube ReachTubeComputer::compute_attributed(
    RiskSession& session, const roadmap::DrivableMap& map,
    const dynamics::VehicleState& ego,
    std::span<const ObstacleTimeline> obstacles) const {
  check_ego(ego);
  check_timelines(obstacles);
  IPRISM_SCOPED_TIMER("reachtube.compute_attributed", "reachtube");

  AttributedTube out;
  TubeAttribution& attr = out.attribution;
  attr.slices.resize(static_cast<std::size_t>(slices_) + 1);
  attr.rng_at_loop.assign(static_cast<std::size_t>(slices_), common::Rng{});
  attr.volume_prefix.assign(static_cast<std::size_t>(slices_) + 1, 0);
  attr.first_sole_block.assign(obstacles.size(), TubeAttribution::kNever);
  attr.obstacle_count = obstacles.size();

  const detail::ScratchLease lease(session.state().scratch_pool,
                                   scratch_shape(obstacles.size()));
  TubeScratch& scratch = *lease;  // excluded: all zero after reset

  // Per-slice active obstacle sets, built exactly once per (obstacle set,
  // seed): the disc test is a pure function of (obstacle, seed, slice), so
  // the base propagation below and every counterfactual replay load these
  // read-only instead of re-running it per slice per tube.
  attr.active_offsets.reserve(static_cast<std::size_t>(slices_) + 2);
  attr.active_offsets.push_back(0);
  for (int s = 0; s <= slices_; ++s) {
    build_active_set(obstacles, ego, scratch, common::SliceIdx{static_cast<std::size_t>(s)});
    attr.active_flat.insert(attr.active_flat.end(), scratch.active.begin(),
                            scratch.active.end());
    attr.active_offsets.push_back(static_cast<std::uint32_t>(attr.active_flat.size()));
  }

  // Appends one record and maintains the divergence bookkeeping. Slices are
  // processed in increasing order, so "first" assignments are plain min's.
  auto record = [&](const BlockRecord& rec, std::size_t slice) {
    SliceAttribution& sa = attr.slices[slice];
    const auto idx = static_cast<std::uint32_t>(sa.tests.size());
    sa.tests.push_back(rec);
    auto [slot, inserted] = sa.by_state.insert(state_bits_key(rec.state));
    if (inserted) *slot = idx;  // first record wins; replay verifies the bits
    if (rec.cls == BlockerClass::kSole || rec.cls == BlockerClass::kMulti) {
      ++attr.blocked_frontier;
      const auto s32 = static_cast<std::uint32_t>(slice);
      attr.first_actor_block = std::min(attr.first_actor_block, s32);
      if (rec.cls == BlockerClass::kSole) {
        auto& first = attr.first_sole_block[rec.sole_blocker];
        first = std::min(first, s32);
      }
    }
  };

  // One classification rule for the seed and every propagated candidate:
  // the survival test with hits counted to two separates kPassed / kOffMap /
  // kSole / kMulti. Records the outcome and answers "does it survive".
  auto classify = [&](const dynamics::VehicleState& ns, common::SliceIdx si) {
    const Verdict v = survival_test(map, ns, obstacles, scratch.active, si, /*max_hits=*/2);
    record(BlockRecord{ns, v.sole_blocker, v.cls}, si.value());
    return v.passed();
  };

  // A rejected seed leaves the tube empty; replays may still rescue it.
  int last_done = 0;
  out.tube = drive(
      scratch, ego, nullptr, 0,
      [&](common::SliceIdx si) { load_active_set(attr, scratch, si.value()); }, classify,
      [&](int j, const common::Rng& rng) { attr.rng_at_loop[static_cast<std::size_t>(j)] = rng; },
      [&](int j, std::size_t volume) {
        attr.volume_prefix[static_cast<std::size_t>(j) + 1] = volume;
        last_done = j + 1;
      });
  attr.volume_prefix[0] = out.tube.slices[0].empty() ? 0 : 1;  // the seed's own cell
  // Defensive tail fill past an early pinch-off; replays never start there
  // (no records exist past last_done), but the prefix array stays monotone.
  for (std::size_t k = static_cast<std::size_t>(last_done) + 1;
       k < attr.volume_prefix.size(); ++k) {
    attr.volume_prefix[k] = attr.volume_prefix[static_cast<std::size_t>(last_done)];
  }

  IPRISM_COUNT_ADD("reachtube.blocked_frontier_size", attr.blocked_frontier);
  return out;
}

void ReachTubeComputer::check_attribution(std::span<const ObstacleTimeline> obstacles,
                                          const TubeAttribution& attr) const {
  IPRISM_CHECK(attr.obstacle_count == obstacles.size() &&
                   attr.slices.size() == static_cast<std::size_t>(slices_) + 1 &&
                   attr.active_offsets.size() == static_cast<std::size_t>(slices_) + 2,
               "ReachTube: attribution record does not match this obstacles/params set");
}

ReachTube ReachTubeComputer::compute_counterfactual(
    RiskSession& session, const roadmap::DrivableMap& map,
    const dynamics::VehicleState& ego, std::span<const ObstacleTimeline> obstacles,
    const AttributedTube& base, std::size_t exclude_index,
    CounterfactualStats* stats) const {
  const TubeAttribution& attr = base.attribution;
  check_attribution(obstacles, attr);
  CounterfactualStats local;
  CounterfactualStats& st = stats != nullptr ? *stats : local;
  st = CounterfactualStats{};
  IPRISM_DCHECK(exclude_index < obstacles.size(),
                "ReachTube: counterfactual exclude index out of range");

  const std::uint32_t jstar = attr.first_sole_block[exclude_index];
  if (jstar == TubeAttribution::kNever) {
    // The lifted blocker never rejected a candidate alone: every survival
    // outcome — and therefore the whole propagation — is unchanged.
    st.free = true;
    return base.tube;
  }
  st.replay_from = jstar;

  const detail::ScratchLease lease(session.state().scratch_pool,
                                   scratch_shape(obstacles.size()));
  TubeScratch& scratch = *lease;
  scratch.excluded[exclude_index] = 1;

  // Memoized state test: identical candidates take their answer from the
  // base record (converted for the lifted blocker — exact, see §12); delta
  // candidates the base never tested fall through to the survival test.
  auto test = [&](const dynamics::VehicleState& ns, common::SliceIdx si) {
    const SliceAttribution& sa = attr.slices[si.value()];
    if (const std::uint32_t* ti = sa.by_state.find(state_bits_key(ns))) {
      const BlockRecord& rec = sa.tests[*ti];
      if (bits_equal(rec.state, ns)) {
        ++st.memo_hits;
        switch (rec.cls) {
          case BlockerClass::kPassed: return true;   // removal cannot fail it
          case BlockerClass::kOffMap: return false;  // no removal rescues it
          case BlockerClass::kSole: return rec.sole_blocker == exclude_index;
          case BlockerClass::kMulti: return false;   // another blocker remains
        }
      }
    }
    ++st.fresh_tests;
    return survival_test(map, ns, obstacles, scratch.active, si, /*max_hits=*/1).passed();
  };

  // The active set is the base run's, filtered through this replay's
  // exclusion while loading — identical to rebuilding it, since the disc
  // test never depended on exclusions. At jstar == 0 the seed itself was
  // blocker-rejected in the base run, so the replay starts from the seed
  // test (the memo still answers the shared candidates).
  return drive(
      scratch, ego, &base, jstar,
      [&](common::SliceIdx si) { load_active_set(attr, scratch, si.value()); }, test,
      kNoLoopBegin, kNoSliceDone);
}

ReachTube ReachTubeComputer::compute_unblocked(RiskSession& session,
                                               const roadmap::DrivableMap& map,
                                               const dynamics::VehicleState& ego,
                                               std::span<const ObstacleTimeline> obstacles,
                                               const AttributedTube& base,
                                               CounterfactualStats* stats) const {
  const TubeAttribution& attr = base.attribution;
  check_attribution(obstacles, attr);
  CounterfactualStats local;
  CounterfactualStats& st = stats != nullptr ? *stats : local;
  st = CounterfactualStats{};

  const std::uint32_t jstar = attr.first_actor_block;
  if (jstar == TubeAttribution::kNever) {
    // No actor rejected anything: lifting them all changes nothing.
    st.free = true;
    return base.tube;
  }
  st.replay_from = jstar;

  // A plain propagation from the base prefix with no active obstacles: each
  // candidate meets only the map side of the survival test. No memo lookup —
  // a plain map test measured faster than replaying the base record
  // (DESIGN.md §12).
  const detail::ScratchLease lease(session.state().scratch_pool, scratch_shape(0));
  TubeScratch& scratch = *lease;
  auto test = [&](const dynamics::VehicleState& ns, common::SliceIdx si) {
    ++st.fresh_tests;
    return survival_test(map, ns, {}, {}, si, /*max_hits=*/1).passed();
  };

  return drive(scratch, ego, &base, jstar, [](common::SliceIdx) {}, test, kNoLoopBegin,
               kNoSliceDone);
}

ReachTube ReachTubeComputer::compute(RiskSession& session, const roadmap::DrivableMap& map,
                                     const dynamics::VehicleState& ego,
                                     common::Seconds t0,
                                     std::span<const ActorForecast> forecasts,
                                     common::ActorId exclude) const {
  const auto obstacles = sample_obstacles(forecasts, t0);
  return compute(session, map, ego, obstacles, exclude);
}

}  // namespace iprism::core
