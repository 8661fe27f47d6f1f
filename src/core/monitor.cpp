#include "core/monitor.hpp"

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "core/session_state.hpp"

namespace iprism::core {

std::optional<std::pair<int, double>> riskiest_actor_of(const StiResult& sti) {
  std::optional<std::pair<int, double>> best;
  for (const auto& [id, value] : sti.per_actor) {
    // Strict >: ties keep the first actor in forecast order, and an
    // all-zero set never promotes anyone past the nullopt initial.
    if (value > 0.0 && (!best || value > best->second)) {
      best = std::pair<int, double>{id, value};
    }
  }
  return best;
}

std::string_view risk_level_name(RiskLevel level) {
  switch (level) {
    case RiskLevel::kSafe: return "safe";
    case RiskLevel::kCaution: return "caution";
    case RiskLevel::kCritical: return "critical";
  }
  return "unknown";
}

RiskMonitor::RiskMonitor(const RiskMonitorParams& params)
    : params_(params), sti_(params.tube) {
  IPRISM_CHECK(params.caution_threshold > 0.0 &&
                   params.critical_threshold > params.caution_threshold,
               "RiskMonitorParams: thresholds must satisfy 0 < caution < critical");
  IPRISM_CHECK(params.hysteresis_updates >= 1,
               "RiskMonitorParams: hysteresis_updates must be >= 1");
}

RiskMonitor::Assessment RiskMonitor::update(RiskSession& session,
                                            const sim::World& world) const {
  IPRISM_SCOPED_TIMER("monitor.update", "monitor");
  IPRISM_CHECK(world.has_ego(), "RiskMonitor: world has no ego");
  detail::SessionState& st = session.state();
  ++st.updates;

  const auto forecasts =
      cvtr_forecasts(world, params_.tube.horizon, params_.tube.dt);

  Assessment out;
  const bool may_attribute = params_.attribute_when_elevated && !forecasts.empty();

  // Wave 1 every tick: |T| with its attribution record and |T^{∅}| — all
  // the combined STI needs, and what the per-actor wave starts from.
  const StiWave1 wave = sti_.wave1(session, world.map(), world.ego().state,
                                   common::Seconds{world.time()}, forecasts);
  out.sti_combined = wave.combined();

  // STI is clamped to [0, 1] by construction; the threshold comparison
  // below silently misclassifies if that ever breaks.
  IPRISM_DCHECK(out.sti_combined >= 0.0 && out.sti_combined <= 1.0,
                "RiskMonitor: STI must lie in [0, 1]");

  // Instantaneous level implied by the current STI.
  RiskLevel implied = RiskLevel::kSafe;
  if (out.sti_combined >= params_.critical_threshold) {
    implied = RiskLevel::kCritical;
  } else if (out.sti_combined >= params_.caution_threshold) {
    implied = RiskLevel::kCaution;
  }

  // The per-actor wave runs on ticks already elevated and on the tick that
  // escalates — decided from the implied level, so the escalation tick names
  // its riskiest actor — and starts from this tick's wave 1: steady-state
  // safe ticks never pay for counterfactuals, and no tick builds wave 1
  // twice.
  if (may_attribute && (st.level >= RiskLevel::kCaution || implied > st.level)) {
    IPRISM_COUNT("monitor.attribution_runs");
    const StiResult full =
        sti_.attribute(session, world.map(), world.ego().state, forecasts, wave);
    if (const auto riskiest = riskiest_actor_of(full)) {
      out.riskiest_actor = riskiest->first;
      out.riskiest_sti = riskiest->second;
    }
  }

  if (implied > st.level) {
    // Escalation is immediate — a warning must not lag the threat.
    IPRISM_COUNT("monitor.level_transitions");
    st.level = implied;
    st.quiet_streak = 0;
  } else if (implied < st.level) {
    // De-escalation needs a stable quiet period (one level at a time).
    if (++st.quiet_streak >= params_.hysteresis_updates) {
      IPRISM_COUNT("monitor.level_transitions");
      st.level = static_cast<RiskLevel>(static_cast<int>(st.level) - 1);
      st.quiet_streak = 0;
    }
  } else {
    st.quiet_streak = 0;
  }
  IPRISM_GAUGE_SET("monitor.level", static_cast<int>(st.level));

  out.level = st.level;
  return out;
}

}  // namespace iprism::core
