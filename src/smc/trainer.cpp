#include "smc/trainer.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "common/units.hpp"
#include "core/scene.hpp"
#include "smc/features.hpp"

namespace iprism::smc {

double SmcTrainStats::recent_collision_rate(std::size_t window) const {
  if (episode_collided.empty()) return 0.0;
  const std::size_t n = std::min(window, episode_collided.size());
  std::size_t hits = 0;
  for (std::size_t i = episode_collided.size() - n; i < episode_collided.size(); ++i) {
    if (episode_collided[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

double SmcTrainStats::recent_reward_per_decision(std::size_t window) const {
  if (episode_returns.empty()) return 0.0;
  const std::size_t n = std::min(window, episode_returns.size());
  double reward = 0.0;
  long decisions = 0;
  for (std::size_t i = episode_returns.size() - n; i < episode_returns.size(); ++i) {
    reward += episode_returns[i];
    decisions += i < episode_decisions.size() ? episode_decisions[i] : 0;
  }
  return decisions > 0 ? reward / static_cast<double>(decisions) : 0.0;
}

SmcTrainer::SmcTrainer(const SmcTrainConfig& config) : config_(config) {
  IPRISM_CHECK(config.episodes > 0, "SmcTrainConfig: episodes must be positive");
  IPRISM_CHECK(config.action_count == kActionCountBrakeOnly ||
                   config.action_count == kActionCountBrakeAccel ||
                   config.action_count == kActionCountFull,
               "SmcTrainConfig: unsupported action count");
  // Fail fast: surface tube misconfiguration at construction, not mid-episode.
  core::ReachTubeComputer::validate(config.tube);
}

rl::Mlp SmcTrainer::train(const std::function<sim::World(int)>& world_factory,
                          agents::DrivingAgent& base_agent, SmcTrainStats* stats) {
  IPRISM_CHECK(config_.max_attempts >= 1, "SmcTrainer: max_attempts must be >= 1");
  // The per-decision reward of clean cruising: (1 - STI) ~ 1 plus the full
  // path-completion term. A policy below `min_reward_fraction` of it is a
  // park-in-place degenerate even if it never collides.
  const double cruise_reward =
      (config_.reward.use_sti ? config_.reward.alpha0 : 0.0) + config_.reward.alpha1;
  const double min_rpd = config_.min_reward_fraction * cruise_reward;

  std::optional<rl::Mlp> best;
  SmcTrainStats best_stats;
  double best_score = -1e18;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    SmcTrainStats attempt_stats;
    const std::uint64_t seed =
        config_.seed + 0x9E3779B9ULL * static_cast<std::uint64_t>(attempt);
    rl::Mlp policy = train_once(world_factory, base_agent, seed, attempt_stats);
    const double cr = attempt_stats.recent_collision_rate(20);
    const double rpd = attempt_stats.recent_reward_per_decision(20);
    const bool acceptable = cr <= config_.acceptable_train_cr && rpd >= min_rpd;
    // Rank acceptable attempts above all others; within a tier, prefer the
    // higher per-decision reward net of collisions.
    const double score = (acceptable ? 100.0 : 0.0) + rpd - cr;
    if (score > best_score) {
      best_score = score;
      best = std::move(policy);
      best_stats = std::move(attempt_stats);
    }
    if (acceptable) break;
  }
  if (stats) *stats = std::move(best_stats);
  return std::move(*best);
}

rl::Mlp SmcTrainer::train_once(const std::function<sim::World(int)>& world_factory,
                               agents::DrivingAgent& base_agent, std::uint64_t seed,
                               SmcTrainStats& stats_ref) {
  SmcTrainStats* stats = &stats_ref;
  rl::DdqnTrainer ddqn(kFeatureCount, config_.action_count, config_.hidden, config_.ddqn,
                       seed);
  const core::StiCalculator sti(config_.tube);
  // One session for the whole run: every reward evaluation reuses its warm
  // tube scratch.
  core::RiskSession session;

  for (int episode = 0; episode < config_.episodes; ++episode) {
    sim::World world = world_factory(episode);
    IPRISM_CHECK(world.has_ego(), "SmcTrainer: training world has no ego");
    base_agent.reset();

    const int max_steps = static_cast<int>(config_.max_seconds / world.dt());
    double episode_return = 0.0;
    bool collided = false;
    int step = 0;
    int decisions = 0;

    std::vector<double> state = extract_features(world);
    while (step < max_steps) {
      ++decisions;
      const int action = ddqn.select_action(state);
      const auto smc_action = static_cast<SmcAction>(action);

      // Hold the action for one decision period (paper: the mitigation
      // action overwrites the ADS's longitudinal command).
      const double s_before = world.map().arclength(world.ego().state.position());
      bool done = false;
      bool reached_end = false;
      bool acted = false;
      for (int k = 0; k < config_.control.decision_period && step < max_steps; ++k) {
        dynamics::Control u = base_agent.act(world);
        if (const auto overridden =
                apply_smc_action(smc_action, world, u, config_.control)) {
          u = *overridden;
          acted = true;
        }
        world.step(u);
        ++step;
        if (world.ego_collided()) {
          collided = true;
          done = true;
          break;
        }
        if (world.map().arclength(world.ego().state.position()) >=
            world.map().road_length() - config_.end_margin) {
          reached_end = true;
          done = true;
          break;
        }
      }

      double progress =
          world.map().arclength(world.ego().state.position()) - s_before;
      const double road_len = world.map().road_length();
      if (progress < -road_len / 2.0) progress += road_len;  // ring wrap

      // Eq. 7/8: STI of the post-transition state, from CVTR predictions.
      double sti_combined = 0.0;
      if (config_.reward.use_sti && !collided) {
        const auto forecasts =
            core::cvtr_forecasts(world, config_.tube.horizon, config_.tube.dt);
        sti_combined = sti.combined(session, world.map(), world.ego().state,
                                    common::Seconds{world.time()}, forecasts);
      } else if (collided) {
        sti_combined = 1.0;  // escape routes exhausted by definition (§II)
      }

      const double interval = config_.control.decision_period * world.dt();
      const double reward =
          smc_reward(config_.reward, sti_combined, progress, interval, acted);
      episode_return += reward;

      rl::Transition t;
      t.state = std::move(state);
      t.action = action;
      t.reward = reward;
      t.next_state = extract_features(world);
      t.done = done;
      state = t.next_state;  // the world is unchanged until the next decision
      ddqn.observe(std::move(t));
      for (int u = 0; u < config_.updates_per_decision; ++u) ddqn.train_step();

      if (done || reached_end) break;
    }

    if (stats) {
      stats->episode_returns.push_back(episode_return);
      stats->episode_collided.push_back(collided);
      stats->episode_decisions.push_back(decisions);
    }
  }

  rl::Mlp policy = ddqn.online();
  return policy;
}

}  // namespace iprism::smc
