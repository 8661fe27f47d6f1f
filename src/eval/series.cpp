#include "eval/series.hpp"

#include "common/check.hpp"
#include "common/units.hpp"

namespace iprism::eval {

std::vector<double> risk_series(const EpisodeResult& episode, const RiskFn& fn,
                                int stride) {
  IPRISM_CHECK(stride >= 1, "risk_series: stride must be >= 1");
  std::vector<double> out(static_cast<std::size_t>(episode.samples), 0.0);
  double last = 0.0;
  for (int step = 0; step < episode.samples; ++step) {
    if (step % stride == 0) {
      last = fn(episode.snapshot_at(step), episode.ground_truth_forecasts(step));
    }
    out[static_cast<std::size_t>(step)] = last;
  }
  return out;
}

RiskFn sti_risk(const core::StiCalculator& calc) {
  return [&calc](const core::SceneSnapshot& scene,
                 const std::vector<core::ActorForecast>& forecasts) {
    // A RiskFn may be called from several threads at once, and a session
    // serves one caller at a time, so each evaluation gets its own.
    core::RiskSession session;
    return calc.combined(session, *scene.map, scene.ego.state,
                         common::Seconds{scene.time}, forecasts);
  };
}

RiskFn ttc_risk(const core::TtcMetric& metric) {
  return [&metric](const core::SceneSnapshot& scene,
                   const std::vector<core::ActorForecast>&) {
    return metric.risk(scene);
  };
}

RiskFn dist_cipa_risk(const core::DistCipaMetric& metric) {
  return [&metric](const core::SceneSnapshot& scene,
                   const std::vector<core::ActorForecast>&) {
    return metric.risk(scene);
  };
}

RiskFn pkl_risk(const core::PklMetric& metric) {
  return [&metric](const core::SceneSnapshot& scene,
                   const std::vector<core::ActorForecast>& forecasts) {
    return metric.risk(scene, forecasts);
  };
}

double ltfma_backward(const EpisodeResult& episode, const RiskFn& fn, int stride) {
  IPRISM_CHECK(episode.ego_accident && episode.accident_step >= 0,
               "ltfma_backward: episode has no accident");
  IPRISM_CHECK(stride >= 1, "ltfma_backward: stride must be >= 1");
  int nonzero = 0;
  // Walk back from the accident step; a zero-risk evaluation ends the run.
  // With stride > 1 each evaluation stands for `stride` steps.
  for (int step = episode.accident_step; step >= 0; step -= stride) {
    const double risk =
        fn(episode.snapshot_at(step), episode.ground_truth_forecasts(step));
    if (risk <= 1e-9) break;
    nonzero += std::min(stride, step + 1);
  }
  const int capped = std::min(nonzero, episode.accident_step + 1);
  return capped * episode.dt;
}

}  // namespace iprism::eval
