#include "decompose.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "agents/lbc.hpp"
#include "core/scene.hpp"
#include "core/sti.hpp"
#include "rl/ddqn.hpp"
#include "smc/features.hpp"

namespace e2e {

namespace {

using namespace iprism;

/// Running totals over every decomposed tick.
struct Tally {
  long ticks = 0;
  double base_tests = 0.0;
  double states = 0.0;
  double fresh_tests = 0.0;  ///< unblocked + per-actor replays
  double memo_hits = 0.0;
  double cf_total = 0.0;     ///< per-actor counterfactuals asked for
  double cf_free = 0.0;      ///< ... of which the base tube answered for free
  double attributed_ns = 0.0;
  double update_us = 0.0;
  double parts_us = 0.0;     ///< the update's decomposed parts
  long elevated = 0;
  long escalations = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Same clamp the STI engine applies (Eq. 4).
double actor_sti(double without, double all, double empty) {
  return std::clamp((without - all) / empty, 0.0, 1.0);
}

}  // namespace

void decompose(std::vector<CapturedStream>& streams, const DecomposeOptions& options,
               SpanLog& log, Report& report) {
  core::RiskMonitorParams params = options.monitor;
  params.tube.num_threads = 0;
  const core::RiskMonitor monitor(params);
  const core::StiCalculator sti_serial(params.tube);
  core::ReachTubeParams pooled_params = params.tube;
  pooled_params.num_threads = 1;  // > 0: fan out on the shared pool
  const core::StiCalculator sti_pooled(pooled_params);
  const core::ReachTubeComputer& tube = sti_serial.tube_computer();
  const double horizon = params.tube.horizon;
  const double dt = params.tube.dt;

  // A D-DQN of the trained shape, fed this workload's features; warm from
  // the first transition so every train_step is a real gradient step.
  rl::DdqnConfig ddqn_config;
  ddqn_config.warmup_transitions = 1;
  rl::DdqnTrainer ddqn(smc::kFeatureCount, options.action_count, {48, 48}, ddqn_config,
                       options.seed);

  Tally t;
  for (CapturedStream& stream : streams) {
    core::RiskSession session;
    core::RiskSession pooled_session;
    core::RiskSession monitor_session;
    agents::LbcAgent::Params agent_params;
    agent_params.route_lane = stream.route_lane;
    agents::LbcAgent agent(agent_params);

    for (CapturedTick& ct : stream.ticks) {
      const std::int64_t tick = ct.tick;
      sim::World& w = ct.world;
      const std::uint64_t root_start = now_ns();
      const std::int64_t root = log.add("decompose", root_start, root_start, tick);
      std::string failure;
      try {
        const roadmap::DrivableMap& map = w.map();
        const dynamics::VehicleState ego = w.ego().state;
        const common::Seconds t0{w.time()};

        const auto forecasts = timed(log, "scene.cvtr_forecasts", tick, root,
                                     [&] { return core::cvtr_forecasts(w, horizon, dt); });
        const double cvtr_us = log.spans().back().us();
        const auto obstacles = timed(log, "reachtube.sample_obstacles", tick, root,
                                     [&] { return tube.sample_obstacles(forecasts, t0); });
        const std::uint64_t attributed_start = now_ns();
        const core::AttributedTube base = tube.compute_attributed(session, map, ego, obstacles);
        const std::uint64_t attributed_end = now_ns();
        log.add("reachtube.compute_attributed", attributed_start, attributed_end, tick, root);
        t.attributed_ns += static_cast<double>(attributed_end - attributed_start);
        for (const auto& slice : base.attribution.slices) {
          t.base_tests += static_cast<double>(slice.tests.size());
        }
        for (const auto& slice : base.tube.slices) {
          t.states += static_cast<double>(slice.size());
        }

        // |T^{∅}|: free when no actor rejected anything, else one replay.
        double volume_empty = base.tube.volume;
        if (base.attribution.first_actor_block != core::TubeAttribution::kNever) {
          core::CounterfactualStats st;
          volume_empty = timed(log, "reachtube.compute_unblocked", tick, root, [&] {
            return tube.compute_unblocked(session, map, ego, obstacles, base, &st).volume;
          });
          t.fresh_tests += static_cast<double>(st.fresh_tests);
          t.memo_hits += static_cast<double>(st.memo_hits);
        }

        // |T^{-i}| for every actor, skipping the free ones as the STI
        // engine does.
        std::vector<double> volume_without(forecasts.size(), base.tube.volume);
        const std::uint64_t cf_start = now_ns();
        for (std::size_t i = 0; i < forecasts.size(); ++i) {
          t.cf_total += 1.0;
          if (base.attribution.blocks_nothing(i)) {
            t.cf_free += 1.0;
            continue;
          }
          core::CounterfactualStats st;
          volume_without[i] =
              tube.compute_counterfactual(session, map, ego, obstacles, base, i, &st).volume;
          t.fresh_tests += static_cast<double>(st.fresh_tests);
          t.memo_hits += static_cast<double>(st.memo_hits);
        }
        log.add("reachtube.counterfactuals", cf_start, now_ns(), tick, root);

        const double cold = timed(log, "sti.combined_cold", tick, root, [&] {
          return sti_serial.combined(map, ego, t0, forecasts);
        });
        const double warm = timed(log, "sti.combined_warm", tick, root, [&] {
          return sti_serial.combined(session, map, ego, t0, forecasts);
        });
        const double combined_us = log.spans().back().us();
        const core::StiResult full = timed(log, "sti.compute", tick, root, [&] {
          return sti_serial.compute(session, map, ego, t0, forecasts);
        });
        const double compute_us = log.spans().back().us();
        const core::StiResult pooled = timed(log, "sti.compute_pooled", tick, root, [&] {
          return sti_pooled.compute(pooled_session, map, ego, t0, forecasts);
        });

        // NOLINTBEGIN(iprism-float-eq): every engine path is bit-exact by contract
        if (!(cold == warm && warm == full.combined && full.combined == pooled.combined)) {
          failure = "combined STI differs between cold/warm/compute/pooled";
        } else if (!(full.combined >= 0.0 && full.combined <= 1.0)) {
          failure = "combined STI outside [0, 1]";
        } else if (full.volume_all != base.tube.volume || full.volume_empty != volume_empty) {
          failure = "STI volumes differ from the layer re-runs";
        } else if (full.per_actor != pooled.per_actor ||
                   full.per_actor.size() != forecasts.size()) {
          failure = "per-actor STI differs between serial and pooled";
        } else {
          for (std::size_t i = 0; i < forecasts.size(); ++i) {
            const double expect = volume_empty > 0.0
                                      ? actor_sti(volume_without[i], base.tube.volume,
                                                  volume_empty)
                                      : 0.0;
            if (full.per_actor[i].first != forecasts[i].id ||
                full.per_actor[i].second != expect) {
              failure = "per-actor STI differs from the counterfactual replays";
              break;
            }
          }
        }

        const core::RiskLevel before = monitor_session.level();
        const core::RiskMonitor::Assessment assessment =
            timed(log, "monitor.update", tick, root,
                  [&] { return monitor.update(monitor_session, w); });
        const double update_us = log.spans().back().us();
        if (failure.empty() && assessment.sti_combined != full.combined) {
          failure = "monitor STI differs from StiCalculator::compute";
        }
        if (failure.empty() && ct.assessment &&
            (ct.assessment->sti_combined != assessment.sti_combined ||
             ct.assessment->level != assessment.level ||
             ct.assessment->riskiest_actor != assessment.riskiest_actor)) {
          failure = "monitor re-run differs from the workload's assessment";
        }
        // NOLINTEND(iprism-float-eq)

        // The monitor's own path: full compute when already elevated,
        // otherwise combined() plus a full compute on escalation.
        double parts = cvtr_us;
        const bool attributes = params.attribute_when_elevated && !forecasts.empty();
        if (attributes && before >= core::RiskLevel::kCaution) {
          parts += compute_us;
        } else {
          parts += combined_us;
          if (attributes && assessment.level > before) parts += compute_us;
        }
        t.parts_us += parts;
        t.update_us += update_us;
        if (assessment.level >= core::RiskLevel::kCaution) ++t.elevated;
        if (assessment.level > before) ++t.escalations;

        const std::vector<double> features = timed(
            log, "smc.extract_features", tick, root, [&] { return smc::extract_features(w); });
        const smc::SmcAction action = timed(log, "smc.policy_action", tick, root, [&] {
          return options.policy->policy_action(features);
        });
        if (failure.empty() &&
            (static_cast<int>(action) < 0 || static_cast<int>(action) >= options.action_count)) {
          failure = "SMC policy returned an action outside its action set";
        }
        const int rl_action = timed(log, "rl.select_action", tick, root,
                                    [&] { return ddqn.select_action(features); });
        rl::Transition transition;
        transition.state = features;
        transition.action = rl_action;
        transition.reward = 1.0 - warm;
        transition.next_state = features;
        ddqn.observe(std::move(transition));
        timed(log, "rl.train_step", tick, root, [&] { ddqn.train_step(); });

        const dynamics::Control u =
            timed(log, "agents.lbc_act", tick, root, [&] { return agent.act(w); });
        timed(log, "sim.world_step", tick, root, [&] { w.step(u); });
      } catch (const std::exception& e) {
        failure = std::string("threw: ") + e.what();
      }
      log.set_interval(root, root_start, now_ns());
      if (!failure.empty()) {
        report.failed_op("decompose tick " + std::to_string(tick) + ": " + failure);
      }
      ++t.ticks;
    }
  }

  const double ticks = static_cast<double>(std::max<long>(t.ticks, 1));
  const auto med = [&](std::string_view name) { return median_of(log.durations_us(name)); };

  report.metric("reachtube.attributed_us", med("reachtube.compute_attributed"), "us");
  report.metric("reachtube.base_tests", t.base_tests / ticks, "count");
  report.metric("reachtube.states_per_tick", t.states / ticks, "count");
  report.metric("reachtube.ns_per_base_test", ratio(t.attributed_ns, t.base_tests), "ns");
  report.metric("reachtube.unblocked_us", med("reachtube.compute_unblocked"), "us");
  report.metric("reachtube.counterfactual_us", med("reachtube.counterfactuals"), "us");
  report.metric("reachtube.cf_fresh_tests", t.fresh_tests / ticks, "count");
  report.metric("reachtube.cf_memo_hits", t.memo_hits / ticks, "count");
  report.metric("reachtube.cf_free_frac", ratio(t.cf_free, t.cf_total), "ratio");
  report.metric("reachtube.replay_ratio", ratio(t.fresh_tests, t.base_tests), "ratio");
  report.metric("scene.cvtr_forecasts_us", med("scene.cvtr_forecasts"), "us");
  report.metric("reachtube.sample_obstacles_us", med("reachtube.sample_obstacles"), "us");
  report.metric("sti.combined_us", med("sti.combined_warm"), "us");
  report.metric("sti.compute_us", med("sti.compute"), "us");
  report.metric("sti.compute_pooled_us", med("sti.compute_pooled"), "us");
  report.metric("sti.fanout_speedup",
                ratio(log.total_us("sti.compute"), log.total_us("sti.compute_pooled")), "ratio");
  report.metric("sti.combined_cold_us", med("sti.combined_cold"), "us");
  report.metric("sti.combined_warm_us", med("sti.combined_warm"), "us");
  report.metric("monitor.update_us", med("monitor.update"), "us");
  report.metric("monitor.self_us", (t.update_us - t.parts_us) / ticks, "us");
  report.metric("monitor.elevated_frac", static_cast<double>(t.elevated) / ticks, "ratio");
  report.metric("monitor.escalation_ticks", static_cast<double>(t.escalations), "count");
  report.metric("smc.extract_features_us", med("smc.extract_features"), "us");
  report.metric("smc.policy_action_us", med("smc.policy_action"), "us");
  report.metric("rl.select_action_us", med("rl.select_action"), "us");
  report.metric("rl.train_step_us", med("rl.train_step"), "us");
  report.metric("rl.share_of_decision",
                ratio(med("rl.select_action") + med("rl.train_step"), options.tick_us),
                "ratio");
  report.metric("agents.lbc_act_us", med("agents.lbc_act"), "us");
  report.metric("sim.world_step_us", med("sim.world_step"), "us");
  report.note("decomposed ticks: " + std::to_string(t.ticks));
}

}  // namespace e2e
