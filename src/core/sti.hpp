// Safety-Threat Indicator (paper §III-A, Eqs. 1-6).
//
// STI quantifies the risk an actor poses to the ego as the counterfactual
// change in the ego's escape routes:
//
//   STI_i        = (|T^{/i}| - |T|) / |T^{∅}|        (Eq. 4)
//   STI_combined = (|T^{∅}|  - |T|) / |T^{∅}|        (Eq. 5)
//
// where |T| is the reach-tube volume with all actors present, |T^{/i}|
// with actor i removed, and |T^{∅}| with no actors. Values are clamped to
// [0, 1]: 0 = the actor does not reduce any escape route, 1 = the actor
// eliminates all of them.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"

namespace iprism::core {

/// Per-computation result.
struct StiResult {
  double combined = 0.0;
  /// (actor id, STI_i) for every forecast actor, in input order. Empty when
  /// the calculator was asked for the combined value only.
  std::vector<std::pair<int, double>> per_actor;
  double volume_all = 0.0;    ///< |T|
  double volume_empty = 0.0;  ///< |T^{∅}|

  /// Highest per-actor STI (0 if none).
  double max_actor_sti() const;
};

/// Wave 1 of an evaluation — everything combined() builds: the sampled
/// obstacles, the attributed base tube |T|, and |T^{∅}|. The per-actor wave
/// (StiCalculator::attribute) starts from it, so a caller that wants the
/// combined value first and attribution only sometimes (the monitor) builds
/// it once per tick.
struct StiWave1 {
  std::vector<ObstacleTimeline> obstacles;
  AttributedTube base;
  double volume_empty = 0.0;  ///< |T^{∅}|

  /// STI_combined (Eq. 5); 0 when |T^{∅}| is empty.
  double combined() const;
};

// The N+2 tubes an evaluation needs — |T|, |T^{∅}|, and one counterfactual
// per actor — share almost their whole wavefront. The base |T| is propagated
// once with blocked-by attribution; |T^{∅}| re-propagates from its prefix
// with no obstacles, and each |T^{/i}| is derived from it by memoized replay
// (DESIGN.md §12): actors that rejected nothing are free, the rest re-run
// fresh geometry only on their delta wavefront. The N counterfactuals are
// independent const reads of the attributed base, so with `num_threads > 0`
// they fan out over a common::ThreadPool and aggregate by index — parallel
// results stay bit-identical to serial ones (DESIGN.md §8). Results equal
// N+2 independent ReachTubeComputer::compute calls bit for bit (the
// reference in tests/sti_reference.hpp, enforced by the identity suites).
class StiCalculator {
 public:
  /// An immutable engine after construction (DESIGN.md §14): every compute
  /// is const and mutates only the session it is handed. With
  /// `params.num_threads > 0` the per-actor fan-out runs on the process-wide
  /// common::ThreadPool::shared() — M calculators share one set of workers
  /// instead of spawning M pools. `num_threads == 0` stays strictly serial.
  /// Thread count never changes any result (DESIGN.md §8).
  explicit StiCalculator(const ReachTubeParams& params = {});

  const ReachTubeComputer& tube_computer() const { return tube_; }
  /// The pool the fan-out runs on: null when serial, otherwise
  /// ThreadPool::shared(). Exposed so tests can assert the one-pool property.
  const common::ThreadPool* pool() const { return pool_; }

  /// Full evaluation: combined STI plus one counterfactual tube per actor
  /// (Eq. 4 for each i, Eq. 5 for the combined value), i.e.
  /// attribute(..., wave1(...)). Reuses the session's warm scratch across
  /// ticks; results are bit-identical for fresh and reused sessions
  /// (SessionIdentity suites).
  StiResult compute(RiskSession& session, const roadmap::DrivableMap& map,
                    const dynamics::VehicleState& ego, common::Seconds t0,
                    std::span<const ActorForecast> forecasts) const;

  /// Combined STI only (two tubes instead of N+2) — the quantity the SMC
  /// reward needs at every training step. Equal to wave1(...).combined().
  double combined(RiskSession& session, const roadmap::DrivableMap& map,
                  const dynamics::VehicleState& ego, common::Seconds t0,
                  std::span<const ActorForecast> forecasts) const;
  /// The one session-less entry point left in the core: combined() against a
  /// transient, cold session. The end-to-end benchmark times it as the
  /// cold-session reference (`sti.combined_cold_us`); callers on a hot path
  /// hold a RiskSession instead.
  double combined(const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                  common::Seconds t0, std::span<const ActorForecast> forecasts) const;

  /// What combined() builds, kept for the per-actor wave: |T| with its
  /// attribution record and |T^{∅}| (free when nothing was actor-blocked).
  StiWave1 wave1(RiskSession& session, const roadmap::DrivableMap& map,
                 const dynamics::VehicleState& ego, common::Seconds t0,
                 std::span<const ActorForecast> forecasts) const;

  /// The per-actor wave on top of `wave`, which must come from wave1() over
  /// the same (map, ego, t0, forecasts): the N counterfactuals of Eq. 4,
  /// fanned over the pool and assembled into the StiResult. The monitor
  /// calls it on the wave its combined() check already built, without
  /// rebuilding |T| or |T^{∅}|.
  StiResult attribute(RiskSession& session, const roadmap::DrivableMap& map,
                      const dynamics::VehicleState& ego,
                      std::span<const ActorForecast> forecasts, const StiWave1& wave) const;

 private:
  ReachTubeComputer tube_;
  /// Null when params.num_threads == 0 (serial); otherwise
  /// &ThreadPool::shared(). Never owned: the shared pool outlives every
  /// engine (function-local static).
  common::ThreadPool* pool_ = nullptr;
};

}  // namespace iprism::core
