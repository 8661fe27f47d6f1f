// Streaming risk monitor: the deployable wrapper around STI that an ADS
// integration would actually run (paper §V-B takeaway (b): STI is "an
// effective metric for monitoring and mitigating hazardous situations").
//
// Feed it the live world once per step; it computes STI(combined) from
// CVTR forecasts, maintains a discrete risk level with hysteresis (levels
// escalate immediately but de-escalate only after a stable quiet period, so
// a flickering threat cannot toggle alarms), and identifies the riskiest
// actor while elevated.
#pragma once

#include <optional>
#include <utility>

#include "core/session.hpp"
#include "core/sti.hpp"

namespace iprism::core {

enum class RiskLevel { kSafe = 0, kCaution = 1, kCritical = 2 };

/// Human-readable level name.
std::string_view risk_level_name(RiskLevel level);

/// The (actor id, STI) pair the monitor reports as "riskiest": the maximum
/// per-actor STI under strict comparison, so ties resolve to the *first*
/// actor in forecast order (stable across runs — per_actor preserves input
/// order). Returns nullopt when no actor has STI > 0: an all-zero per-actor
/// set means no single actor is attributably responsible (e.g. fully
/// redundant blockers), and naming one anyway would be noise.
std::optional<std::pair<int, double>> riskiest_actor_of(const StiResult& sti);

struct RiskMonitorParams {
  double caution_threshold = 0.15;   ///< STI(combined) entering kCaution
  double critical_threshold = 0.45;  ///< STI(combined) entering kCritical
  /// Consecutive below-threshold updates required to de-escalate one level.
  int hysteresis_updates = 5;
  /// Compute the per-actor attribution only at kCaution and above (the
  /// counterfactual tubes are the expensive part).
  bool attribute_when_elevated = true;
  /// Tube configuration; `tube.num_threads > 0` fans the monitor's N+2 tube
  /// evaluations across a thread pool without changing any assessment
  /// (DESIGN.md §8).
  ReachTubeParams tube;
};

/// An immutable engine after construction (DESIGN.md §14): params plus the
/// embedded STI engine. All mutable monitoring state — level, quiet streak,
/// update count — lives in the RiskSession each update() is handed, so one
/// monitor serves any number of concurrent streams, each with its own
/// session (read RiskSession::level() / updates() for a stream's state).
class RiskMonitor {
 public:
  explicit RiskMonitor(const RiskMonitorParams& params = {});

  struct Assessment {
    double sti_combined = 0.0;
    RiskLevel level = RiskLevel::kSafe;
    /// Riskiest actor id and its STI, per riskiest_actor_of (strict max,
    /// first-wins ties, empty when every per-actor STI is zero). Populated
    /// on any tick at — or escalating into — kCaution and above; empty below
    /// kCaution, when attribution is disabled, or when there are no actors.
    std::optional<int> riskiest_actor;
    double riskiest_sti = 0.0;
  };

  /// One monitoring step of `session`'s stream on the live world (checked:
  /// world needs an ego). Builds wave 1 (StiCalculator::wave1: |T| and
  /// |T^{∅}|) once; on elevated and escalating ticks the per-actor wave runs
  /// on top of it (DESIGN.md §14). Const: every mutation lands in the
  /// session, so concurrent calls with *distinct* sessions are safe on one
  /// monitor.
  Assessment update(RiskSession& session, const sim::World& world) const;

  const StiCalculator& sti_calculator() const { return sti_; }

 private:
  RiskMonitorParams params_;
  StiCalculator sti_;
};

}  // namespace iprism::core
