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

StiCalculator::StiCalculator(const ReachTubeParams& params, common::ThreadPool* pool)
    : tube_(params) {
  // One process-wide pool by default: before the engine/session split every
  // calculator spawned its own `num_threads` workers, so M monitors meant M
  // pools oversubscribing the machine. `num_threads` now only gates serial
  // vs pooled — the shared pool's width is sized once from the hardware.
  if (params.num_threads > 0) {
    pool_ = pool != nullptr ? pool : &common::ThreadPool::shared();
  }
}

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

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

}  // namespace

StiResult StiCalculator::compute(RiskSession& session, const roadmap::DrivableMap& map,
                                 const dynamics::VehicleState& ego, common::Seconds t0,
                                 std::span<const ActorForecast> forecasts) const {
  const auto obstacles = tube_.sample_obstacles(forecasts, t0);

  StiResult out;
  // Wave 1: one attributed propagation — |T| plus the blocked-by record
  // every derived tube replays from (DESIGN.md §12).
  AttributedTube base;
  {
    IPRISM_SCOPED_TIMER("sti.wave1", "sti");
    base = tube_.compute_attributed(session, map, ego, obstacles);
  }
  out.volume_all = base.tube.volume;

  const bool dup_ids = has_duplicate_valid_ids(forecasts);

  // Wave 2: |T^{∅}| and the N counterfactuals T^{/i} (Eq. 4), all derived
  // from the shared base and fanned across the pool. Free tubes (actor
  // rejected nothing) return the base volume without touching geometry;
  // replays read the base attribution — including its precomputed
  // per-slice active obstacle sets — as immutable shared state, so no
  // replay re-derives active sets. Per-task work is uneven, but the
  // pool's one-task-per-index submission already load-balances at the
  // finest possible grain. Aggregation is by index, so results are
  // bit-identical to the serial loop. Every task leases its own scratch
  // from the one session — the lease pool is mutex-guarded exactly so a
  // single session can serve its own fan-out.
  std::vector<double> vol(forecasts.size() + 1, 0.0);
  {
    IPRISM_SCOPED_TIMER("sti.wave2", "sti");
    IPRISM_COUNT_ADD("sti.counterfactuals", forecasts.size());
    common::parallel_for_each(pool_, forecasts.size() + 1, [&](std::size_t k) {
      if (k == 0) {
        // |T^{∅}|: every blocker lifted. Identical to a propagation against
        // an empty obstacles span (active-set is empty either way).
        if (base.attribution.first_actor_block == TubeAttribution::kNever) {
          vol[0] = base.tube.volume;
          return;
        }
        IPRISM_SCOPED_TIMER("sti.counterfactual.delta", "sti");
        CounterfactualStats st;
        vol[0] = tube_.compute_unblocked(session, map, ego, obstacles, base, &st).volume;
        IPRISM_COUNT_ADD("sti.cf_delta_states", st.fresh_tests);
        return;
      }
      const std::size_t i = k - 1;
      const common::ActorId id{forecasts[i].id};
      if (!id.valid()) {
        // An anonymous actor cannot be excluded: from-scratch would drop
        // nothing, so |T^{/i}| is |T| by definition.
        vol[k] = out.volume_all;
        IPRISM_COUNT("sti.cf_free");
        return;
      }
      if (dup_ids) {
        IPRISM_SCOPED_TIMER("sti.counterfactual.scratch", "sti");
        vol[k] = tube_.compute(session, map, ego, obstacles, id).volume;
        return;
      }
      if (base.attribution.blocks_nothing(i)) {
        vol[k] = out.volume_all;
        IPRISM_COUNT("sti.cf_free");
        return;
      }
      IPRISM_SCOPED_TIMER("sti.counterfactual.delta", "sti");
      CounterfactualStats st;
      vol[k] =
          tube_.compute_counterfactual(session, map, ego, obstacles, base, i, &st).volume;
      IPRISM_COUNT_ADD("sti.cf_delta_states", st.fresh_tests);
    });
  }
  out.volume_empty = vol[0];
  IPRISM_DCHECK(out.volume_all >= 0.0 && out.volume_empty >= 0.0,
                "STI: tube volumes must be non-negative");

  if (out.volume_empty <= 0.0) {
    // No escape routes even without actors (ego off the drivable area);
    // actor-attributable risk is undefined — report zero rather than
    // dividing by zero. (Every derived tube was free in this case: an
    // off-map seed records no actor-attributable rejection.)
    for (const auto& f : forecasts) out.per_actor.emplace_back(f.id, 0.0);
    return out;
  }

  out.combined = clamp01((out.volume_empty - out.volume_all) / out.volume_empty);

  out.per_actor.reserve(forecasts.size());
  for (std::size_t i = 0; i < forecasts.size(); ++i) {
    // clamp01 precondition: the raw ratio must at least be a number — a NaN
    // here (0/0 escaping the volume_empty guard above) would clamp silently.
    IPRISM_DCHECK(std::isfinite(vol[i + 1]),
                  "STI: counterfactual volume must be finite");
    out.per_actor.emplace_back(
        forecasts[i].id,
        clamp01((vol[i + 1] - out.volume_all) / out.volume_empty));
  }
  return out;
}

double StiCalculator::combined(RiskSession& session, const roadmap::DrivableMap& map,
                               const dynamics::VehicleState& ego, common::Seconds t0,
                               std::span<const ActorForecast> forecasts) const {
  const auto obstacles = tube_.sample_obstacles(forecasts, t0);
  IPRISM_SCOPED_TIMER("sti.combined", "sti");
  // One attributed propagation; |T^{∅}| derives from it by replay (free when
  // nothing was actor-blocked), so the two-tube wave is now one-plus-a-delta.
  const AttributedTube base = tube_.compute_attributed(session, map, ego, obstacles);
  const double vol_all = base.tube.volume;
  double vol_empty = vol_all;
  if (base.attribution.first_actor_block != TubeAttribution::kNever) {
    CounterfactualStats st;
    vol_empty = tube_.compute_unblocked(session, map, ego, obstacles, base, &st).volume;
    IPRISM_COUNT_ADD("sti.cf_delta_states", st.fresh_tests);
  }
  IPRISM_DCHECK(vol_all >= 0.0 && vol_empty >= 0.0,
                "STI: tube volumes must be non-negative");
  if (vol_empty <= 0.0) return 0.0;
  return clamp01((vol_empty - vol_all) / vol_empty);
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
