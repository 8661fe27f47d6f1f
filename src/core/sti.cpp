#include "core/sti.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/telemetry.hpp"

namespace iprism::core {

double StiResult::max_actor_sti() const {
  double best = 0.0;
  for (const auto& [id, sti] : per_actor) best = std::max(best, sti);
  return best;
}

StiCalculator::StiCalculator(const ReachTubeParams& params) : tube_(params) {
  // One process-wide pool: before the engine/session split every
  // calculator spawned its own `num_threads` workers, so M monitors meant M
  // pools oversubscribing the machine. `num_threads` now only gates serial
  // vs pooled — the shared pool's width is sized once from the hardware.
  if (params.num_threads > 0) {
    pool_ = &common::ThreadPool::shared();
  }
}

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// STI_combined (Eq. 5) from |T| and |T^{∅}|. With no escape routes even
/// without actors (ego off the drivable area) the ratio is undefined; report
/// zero rather than dividing by zero.
double combined_sti(double volume_all, double volume_empty) {
  IPRISM_DCHECK(volume_all >= 0.0 && volume_empty >= 0.0,
                "STI: tube volumes must be non-negative");
  if (volume_empty <= 0.0) return 0.0;
  return clamp01((volume_empty - volume_all) / volume_empty);
}

/// Replays exclude counterfactual actors by obstacle *index*; Eq. 4's
/// "actor i removed" excludes by ActorId, which removes every timeline
/// carrying that id. The two agree exactly when no valid id repeats — the
/// normal case, since forecasts come one per actor. Duplicate ids (possible
/// with hand-built forecast lists) fall back to a from-scratch
/// compute(..., id) per actor.
bool has_duplicate_valid_ids(std::span<const ActorForecast> forecasts) {
  std::vector<int> ids;
  ids.reserve(forecasts.size());
  for (const ActorForecast& f : forecasts) {
    if (common::ActorId{f.id}.valid()) ids.push_back(f.id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

/// |T^{∅}|: the base volume when nothing was actor-blocked (no tube copy),
/// else the obstacle-free propagation from the base prefix.
double unblocked_volume(const ReachTubeComputer& tube, RiskSession& session,
                        const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                        std::span<const ObstacleTimeline> obstacles,
                        const AttributedTube& base) {
  if (base.attribution.first_actor_block == TubeAttribution::kNever) {
    return base.tube.volume;
  }
  CounterfactualStats st;
  const double volume = tube.compute_unblocked(session, map, ego, obstacles, base, &st).volume;
  IPRISM_COUNT_ADD("sti.cf_delta_states", st.fresh_tests);
  return volume;
}

}  // namespace

double StiWave1::combined() const { return combined_sti(base.tube.volume, volume_empty); }

StiResult StiCalculator::compute(RiskSession& session, const roadmap::DrivableMap& map,
                                 const dynamics::VehicleState& ego, common::Seconds t0,
                                 std::span<const ActorForecast> forecasts) const {
  return attribute(session, map, ego, forecasts, wave1(session, map, ego, t0, forecasts));
}

StiResult StiCalculator::attribute(RiskSession& session, const roadmap::DrivableMap& map,
                                   const dynamics::VehicleState& ego,
                                   std::span<const ActorForecast> forecasts,
                                   const StiWave1& wave) const {
  const std::span<const ObstacleTimeline> obstacles = wave.obstacles;
  const AttributedTube& base = wave.base;
  StiResult out;
  out.volume_all = base.tube.volume;
  out.volume_empty = wave.volume_empty;

  const bool dup_ids = has_duplicate_valid_ids(forecasts);

  // Wave 2: the N counterfactuals T^{/i} (Eq. 4), all derived from the
  // shared base and fanned across the pool. Free tubes (actor rejected
  // nothing) return the base volume without touching geometry; replays read
  // the base attribution — including its precomputed per-slice active
  // obstacle sets — as immutable shared state, so no replay re-derives
  // active sets.
  // Per-task work is uneven, but the pool's one-task-per-index submission
  // already load-balances at the finest possible grain. Aggregation is by
  // index, so results are bit-identical to the serial loop. Every task
  // leases its own scratch from the one session — the lease pool is
  // mutex-guarded exactly so a single session can serve its own fan-out.
  std::vector<double> vol(forecasts.size(), 0.0);
  {
    IPRISM_SCOPED_TIMER("sti.wave2", "sti");
    IPRISM_COUNT_ADD("sti.counterfactuals", forecasts.size());
    common::parallel_for_each(pool_, vol.size(), [&](std::size_t i) {
      const common::ActorId id{forecasts[i].id};
      if (!id.valid()) {
        // An anonymous actor cannot be excluded: from-scratch would drop
        // nothing, so |T^{/i}| is |T| by definition.
        vol[i] = out.volume_all;
        IPRISM_COUNT("sti.cf_free");
        return;
      }
      if (dup_ids) {
        IPRISM_SCOPED_TIMER("sti.counterfactual.scratch", "sti");
        vol[i] = tube_.compute(session, map, ego, obstacles, id).volume;
        return;
      }
      if (base.attribution.blocks_nothing(i)) {
        vol[i] = out.volume_all;
        IPRISM_COUNT("sti.cf_free");
        return;
      }
      IPRISM_SCOPED_TIMER("sti.counterfactual.delta", "sti");
      CounterfactualStats st;
      vol[i] =
          tube_.compute_counterfactual(session, map, ego, obstacles, base, i, &st).volume;
      IPRISM_COUNT_ADD("sti.cf_delta_states", st.fresh_tests);
    });
  }
  out.combined = wave.combined();

  if (out.volume_empty <= 0.0) {
    // Actor-attributable risk is undefined too; report zero. (Every derived
    // tube was free in this case: an off-map seed records no
    // actor-attributable rejection.)
    for (const auto& f : forecasts) out.per_actor.emplace_back(f.id, 0.0);
    return out;
  }

  out.per_actor.reserve(forecasts.size());
  for (std::size_t i = 0; i < forecasts.size(); ++i) {
    // clamp01 precondition: the raw ratio must at least be a number — a NaN
    // here (0/0 escaping the volume_empty guard above) would clamp silently.
    IPRISM_DCHECK(std::isfinite(vol[i]),
                  "STI: counterfactual volume must be finite");
    out.per_actor.emplace_back(
        forecasts[i].id,
        clamp01((vol[i] - out.volume_all) / out.volume_empty));
  }
  return out;
}

StiWave1 StiCalculator::wave1(RiskSession& session, const roadmap::DrivableMap& map,
                              const dynamics::VehicleState& ego, common::Seconds t0,
                              std::span<const ActorForecast> forecasts) const {
  StiWave1 wave;
  wave.obstacles = tube_.sample_obstacles(forecasts, t0);
  IPRISM_SCOPED_TIMER("sti.combined", "sti");
  // One attributed propagation plus |T^{∅}| from its prefix (free when
  // nothing was actor-blocked).
  wave.base = tube_.compute_attributed(session, map, ego, wave.obstacles);
  wave.volume_empty = unblocked_volume(tube_, session, map, ego, wave.obstacles, wave.base);
  return wave;
}

double StiCalculator::combined(RiskSession& session, const roadmap::DrivableMap& map,
                               const dynamics::VehicleState& ego, common::Seconds t0,
                               std::span<const ActorForecast> forecasts) const {
  return wave1(session, map, ego, t0, forecasts).combined();
}

double StiCalculator::combined(const roadmap::DrivableMap& map,
                               const dynamics::VehicleState& ego, common::Seconds t0,
                               std::span<const ActorForecast> forecasts) const {
  // Transient session, cold scratch, identical bits: the session only
  // supplies scratch storage (DESIGN.md §14).
  RiskSession session;
  return combined(session, map, ego, t0, forecasts);
}

}  // namespace iprism::core
