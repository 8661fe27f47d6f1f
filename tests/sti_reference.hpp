// The from-scratch STI reference the identity suites compare against.
//
// Eqs. 4-5 evaluated literally: N+2 independent, serial
// ReachTubeComputer::compute calls — |T| with every actor, |T^{∅}| against
// no obstacles, and one |T^{/i}| per forecast with actor i excluded by id
// (which drops every timeline carrying that id) — combined with the same
// clamp and zero-denominator rules as StiCalculator. StiCalculator derives
// the N+1 counterfactual tubes by memoized replay instead (DESIGN.md §12);
// its results must equal this reference bit for bit.
#pragma once

#include <algorithm>
#include <span>

#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "core/session.hpp"
#include "core/sti.hpp"

namespace iprism::test {

inline core::StiResult reference_sti(const roadmap::DrivableMap& map,
                                     const dynamics::VehicleState& ego, common::Seconds t0,
                                     std::span<const core::ActorForecast> forecasts,
                                     const core::ReachTubeParams& params = {}) {
  const core::ReachTubeComputer rt(params);
  core::RiskSession session;
  const auto obstacles = rt.sample_obstacles(forecasts, t0);
  core::StiResult out;
  out.volume_all = rt.compute(session, map, ego, obstacles).volume;
  out.volume_empty =
      rt.compute(session, map, ego, std::span<const core::ObstacleTimeline>{}).volume;
  if (out.volume_empty <= 0.0) {
    for (const core::ActorForecast& f : forecasts) out.per_actor.emplace_back(f.id, 0.0);
    return out;
  }
  const auto ratio = [&](double volume) {
    return std::clamp((volume - out.volume_all) / out.volume_empty, 0.0, 1.0);
  };
  out.combined = ratio(out.volume_empty);
  for (const core::ActorForecast& f : forecasts) {
    const double without = rt.compute(session, map, ego, obstacles, common::ActorId{f.id}).volume;
    out.per_actor.emplace_back(f.id, ratio(without));
  }
  return out;
}

}  // namespace iprism::test
