// Prediction-model ablation for online STI.
//
// Offline metric characterization uses ground-truth actor trajectories; the
// SMC's online STI must use *predicted* trajectories (paper §IV-C chooses
// CVTR). This bench quantifies that substitution: at probe steps of
// recorded episodes it compares STI computed from CVTR and from a
// constant-acceleration predictor against STI computed from the recorded
// ground truth.
//
//   ./ablation_prediction [--n=40]
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "dynamics/const_accel.hpp"
#include "dynamics/cvtr.hpp"

using namespace iprism;

namespace {

/// Builds per-actor forecasts at a recorded step using the given
/// two-observation predictor.
template <typename Predictor>
std::vector<core::ActorForecast> predicted_forecasts(const eval::EpisodeResult& episode,
                                                     int step, const Predictor& predictor,
                                                     double horizon, double dt) {
  std::vector<core::ActorForecast> out;
  const common::Seconds t{step * episode.dt};
  const common::Seconds t_prev{std::max(t.value() - episode.dt, 0.0)};
  for (const auto& actor : episode.actors) {
    if (actor.is_ego) continue;
    const auto prev = actor.trajectory.at(t_prev);
    const auto now = actor.trajectory.at(t);
    core::ActorForecast f;
    f.id = actor.id;
    f.dims = actor.dims;
    f.trajectory = step > 0
                       ? predictor.predict(prev, now, common::Seconds{episode.dt}, t,
                                           common::Seconds{horizon}, common::Seconds{dt})
                       : predictor.predict(now, t, common::Seconds{horizon},
                                           common::Seconds{dt});
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::require_release_guard(argc, argv);
  const common::CliArgs args(argc, argv);
  const int n = args.get_int("n", 40);

  const scenario::ScenarioFactory factory;
  const core::StiCalculator sti;
  core::RiskSession session;
  const double horizon = sti.tube_computer().params().horizon;
  const double dt = sti.tube_computer().params().dt;
  const dynamics::CvtrPredictor cvtr;
  const dynamics::ConstantAccelPredictor const_accel;

  common::Table table("Prediction-model ablation — |STI_pred - STI_ground-truth|");
  table.set_header({"Typology", "CVTR mean|d|", "CVTR p95|d|", "ConstAccel mean|d|",
                    "ConstAccel p95|d|", "probes"});

  for (scenario::Typology t : scenario::kAllTypologies) {
    if (t == scenario::Typology::kFrontAccident) continue;
    const auto suite =
        scenario::generate_suite(factory, t, n, bench::kSuiteSeed);
    std::vector<double> cvtr_err;
    std::vector<double> ca_err;
    for (const auto& spec : suite.specs) {
      agents::LbcAgent lbc;
      const auto episode = eval::run_episode(factory.build(spec), lbc);
      for (int frac = 1; frac <= 4; ++frac) {
        const int step = episode.samples * frac / 5;
        const auto scene = episode.snapshot_at(step);
        const double truth =
            sti.combined(session, *scene.map, scene.ego.state, common::Seconds{scene.time},
                         episode.ground_truth_forecasts(step));
        const double with_cvtr =
            sti.combined(session, *scene.map, scene.ego.state, common::Seconds{scene.time},
                         predicted_forecasts(episode, step, cvtr, horizon, dt));
        const double with_ca =
            sti.combined(session, *scene.map, scene.ego.state, common::Seconds{scene.time},
                         predicted_forecasts(episode, step, const_accel, horizon, dt));
        cvtr_err.push_back(std::abs(with_cvtr - truth));
        ca_err.push_back(std::abs(with_ca - truth));
      }
    }
    if (cvtr_err.empty()) {
      // No episodes sampled (e.g. --n=0): there is no p95 of nothing, and
      // common::percentile now rejects empty input rather than feigning 0.
      table.add_row({std::string(scenario::typology_name(t)), "-", "-", "-", "-", "0"});
      continue;
    }
    table.add_row({std::string(scenario::typology_name(t)),
                   common::Table::num(common::mean_of(cvtr_err), 3),
                   common::Table::num(common::percentile(cvtr_err, 95), 3),
                   common::Table::num(common::mean_of(ca_err), 3),
                   common::Table::num(common::percentile(ca_err, 95), 3),
                   std::to_string(cvtr_err.size())});
  }
  table.print(std::cout);
  std::cout << "\nInterpretation: the paper's simplifying assumption — near-term actor\n"
               "trajectories predicted by CVTR are 'estimated correctly' for SMC use —\n"
               "holds when these errors are small relative to the STI decision scale\n"
               "(~0.3+ before mitigation in Fig. 4/5).\n";
  return 0;
}
