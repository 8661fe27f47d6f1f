// End-to-end integration tests: each exercises a full pipeline slice —
// scenario generation -> simulation -> recorded trace -> risk metrics /
// training — asserting the paper-level relationships the benchmarks rely
// on, at miniature population sizes so the suite stays fast.
#include <gtest/gtest.h>

#include "agents/lbc.hpp"
#include "agents/ttc_aca.hpp"
#include "common/stats.hpp"
#include "eval/render.hpp"
#include "eval/runner.hpp"
#include "eval/series.hpp"
#include "scenario/suite.hpp"
#include "smc/controller.hpp"
#include "smc/trainer.hpp"

namespace iprism {
namespace {

TEST(Integration, StiLeadsTtcOnGhostCutInAccidents) {
  // The core Table II relationship, end to end on a small suite.
  const scenario::ScenarioFactory factory;
  const auto suite =
      scenario::generate_suite(factory, scenario::Typology::kGhostCutIn, 25, 99);
  const core::StiCalculator sti;
  const core::TtcMetric ttc(3.0);
  common::RunningStat sti_lead;
  common::RunningStat ttc_lead;
  for (const auto& spec : suite.specs) {
    agents::LbcAgent lbc;
    const auto r = eval::run_episode(factory.build(spec), lbc);
    if (!r.ego_accident) continue;
    sti_lead.add(eval::ltfma_backward(r, eval::sti_risk(sti), 3));
    ttc_lead.add(eval::ltfma_backward(r, eval::ttc_risk(ttc)));
  }
  ASSERT_GE(sti_lead.count(), 5u);
  EXPECT_GT(sti_lead.mean(), 2.0);            // seconds of warning
  EXPECT_LT(ttc_lead.mean(), 1.0);            // TTC is blind to the side threat
  EXPECT_GT(sti_lead.mean(), 2.0 * ttc_lead.mean() + 0.5);
}

TEST(Integration, StiRampsToOneAtEveryAccident) {
  const scenario::ScenarioFactory factory;
  const auto suite =
      scenario::generate_suite(factory, scenario::Typology::kRearEnd, 12, 7);
  const core::StiCalculator sti;
  core::RiskSession session;
  int accidents = 0;
  for (const auto& spec : suite.specs) {
    agents::LbcAgent lbc;
    const auto r = eval::run_episode(factory.build(spec), lbc);
    if (!r.ego_accident) continue;
    ++accidents;
    const auto scene = r.snapshot_at(r.accident_step);
    const double v = sti.combined(session, *scene.map, scene.ego.state, common::Seconds{scene.time},
                                  r.ground_truth_forecasts(r.accident_step));
    // At the collision the ego overlaps another footprint: no escape routes.
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
  EXPECT_GE(accidents, 5);
}

TEST(Integration, AcaRescuesSlowdownButNotGhostCutIn) {
  // Table III's rule-based-controller contrast, miniature.
  const scenario::ScenarioFactory factory;
  auto run_pair = [&](scenario::Typology t) {
    const auto suite = scenario::generate_suite(factory, t, 30, 424242);
    int base_acc = 0;
    int aca_acc = 0;
    for (const auto& spec : suite.specs) {
      agents::LbcAgent a1;
      if (eval::run_episode(factory.build(spec), a1).ego_accident) ++base_acc;
      agents::LbcAgent a2;
      agents::TtcAcaController aca;
      if (eval::run_episode(factory.build(spec), a2, &aca).ego_accident) ++aca_acc;
    }
    return std::pair<int, int>{base_acc, aca_acc};
  };
  const auto [slow_base, slow_aca] = run_pair(scenario::Typology::kLeadSlowdown);
  EXPECT_GT(slow_base, 0);
  EXPECT_LT(slow_aca, slow_base);  // ACA rescues forward threats
  const auto [ghost_base, ghost_aca] = run_pair(scenario::Typology::kGhostCutIn);
  EXPECT_GT(ghost_base, 5);
  EXPECT_GE(ghost_aca, ghost_base - 1);  // ...but is blind to side threats
}

TEST(Integration, TinySmcTrainingBeatsBaselineOnItsScenario) {
  // Minimal Table III slice: train briefly on one accident scenario (with
  // jitter) and verify the policy prevents that very accident.
  const scenario::ScenarioFactory factory;
  const auto suite =
      scenario::generate_suite(factory, scenario::Typology::kLeadCutIn, 40, 31337);
  std::optional<scenario::ScenarioSpec> accident_spec;
  for (const auto& spec : suite.specs) {
    agents::LbcAgent probe;
    const auto r = eval::run_episode(factory.build(spec), probe);
    if (r.ego_accident && r.accident_time > 5.0) {
      accident_spec = spec;
      break;
    }
  }
  ASSERT_TRUE(accident_spec.has_value());

  smc::SmcTrainConfig cfg;
  cfg.episodes = 40;
  cfg.action_count = smc::kActionCountBrakeOnly;
  cfg.ddqn.warmup_transitions = 64;
  agents::LbcAgent base;
  smc::SmcTrainer trainer(cfg);
  common::Rng jitter(5);
  rl::Mlp policy = trainer.train(
      [&](int) { return factory.build(scenario::jitter_spec(*accident_spec, 0.1, jitter)); },
      base, nullptr);

  agents::LbcAgent lbc;
  smc::SmcController controller(std::move(policy));
  const auto mitigated = eval::run_episode(factory.build(*accident_spec), lbc, &controller);
  EXPECT_FALSE(mitigated.ego_accident);
  EXPECT_TRUE(mitigated.first_mitigation_time.has_value());
}

TEST(Integration, RenderedEpisodeShowsCollisionConvergence) {
  // Trace + render path: at the accident step the ego and the threat
  // occupy adjacent columns of the plan view.
  const scenario::ScenarioFactory factory;
  const auto suite =
      scenario::generate_suite(factory, scenario::Typology::kLeadSlowdown, 30, 5150);
  for (const auto& spec : suite.specs) {
    agents::LbcAgent lbc;
    const auto r = eval::run_episode(factory.build(spec), lbc);
    if (!r.ego_accident) continue;
    const std::string view = eval::render_scene(r.snapshot_at(r.accident_step));
    const auto pos_e = view.find('E');
    const auto pos_a = view.find('A');
    ASSERT_NE(pos_e, std::string::npos);
    ASSERT_NE(pos_a, std::string::npos);
    return;  // one accident is enough
  }
  GTEST_SKIP() << "no accident in this mini-suite";
}

}  // namespace
}  // namespace iprism
