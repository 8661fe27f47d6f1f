#include "dataset/scan.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace iprism::dataset {

double StiScanResult::actor_percentile(double q) const {
  // An empty corpus (or one with no actors) has no samples; for a scan
  // summary "no data" reads as zero risk, so keep the historical 0.0 here
  // rather than inheriting common::percentile's non-empty check.
  return actor_sti.empty() ? 0.0 : common::percentile(actor_sti, q);
}

double StiScanResult::combined_percentile(double q) const {
  return combined_sti.empty() ? 0.0 : common::percentile(combined_sti, q);
}

double StiScanResult::actor_zero_fraction() const {
  if (actor_sti.empty()) return 0.0;
  const auto zeros = static_cast<double>(
      std::count_if(actor_sti.begin(), actor_sti.end(), [](double v) { return v < 1e-9; }));
  return zeros / static_cast<double>(actor_sti.size());
}

StiScanResult scan_logs(std::span<const TrafficLog> logs, const core::StiCalculator& sti,
                        int stride) {
  StiScanResult out;
  core::RiskSession session;
  for (const TrafficLog& log : logs) {
    for (int step = 0; step < log.samples(); step += stride) {
      const auto scene = log.snapshot_at(step);
      const auto forecasts = log.forecasts_at(step);
      const core::StiResult r =
          sti.compute(session, log.map(), scene.ego.state, common::Seconds{scene.time},
                      forecasts);
      out.combined_sti.push_back(r.combined);
      for (const auto& [id, value] : r.per_actor) out.actor_sti.push_back(value);
    }
  }
  return out;
}

std::vector<RankedActor> rank_actors(const TrafficLog& log, int step,
                                     const core::StiCalculator& sti) {
  const auto scene = log.snapshot_at(step);
  const auto forecasts = log.forecasts_at(step);
  core::RiskSession session;
  const core::StiResult r = sti.compute(session, log.map(), scene.ego.state,
                                        common::Seconds{scene.time}, forecasts);
  std::vector<RankedActor> ranked;
  ranked.reserve(r.per_actor.size());
  for (const auto& [id, value] : r.per_actor) ranked.push_back({id, value});
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedActor& a, const RankedActor& b) { return a.sti > b.sti; });
  return ranked;
}

}  // namespace iprism::dataset
