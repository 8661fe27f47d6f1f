// Double Deep Q-Network trainer (van Hasselt et al. [47], the paper's RL
// algorithm for the SMC, Fig. 2).
//
// Standard DQN with the double-Q target:
//   a* = argmax_a Q_online(s', a)
//   y  = r + gamma * Q_target(s', a*)          (y = r when done)
// and a periodically-synced target network. Exploration follows a linear
// epsilon schedule over environment steps.
#pragma once

#include "rl/mlp.hpp"
#include "rl/replay.hpp"

namespace iprism::rl {

struct DdqnConfig {
  double gamma = 0.95;
  double learning_rate = 1e-3;
  int batch_size = 64;
  int target_sync_interval = 250;  ///< gradient steps between target syncs
  std::size_t replay_capacity = 50000;
  int warmup_transitions = 256;    ///< no updates until this many observed
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  int epsilon_decay_steps = 6000;  ///< env steps to anneal epsilon over
};

class DdqnTrainer {
 public:
  /// `hidden` lists the hidden layer widths.
  DdqnTrainer(int state_size, int action_count, const std::vector<int>& hidden,
              const DdqnConfig& config, std::uint64_t seed);

  /// Epsilon-greedy action for the current schedule position.
  int select_action(std::span<const double> state);

  /// Greedy action under the online network.
  int greedy_action(std::span<const double> state) const;

  /// Current exploration rate.
  double epsilon() const;

  /// Stores a transition and advances the schedule.
  void observe(Transition t);

  /// One gradient step (if warm). Returns the mean |TD error| of the batch
  /// or 0 when skipped. The batch runs in blocks of Mlp::kBlock samples,
  /// with bits identical to one transition at a time (DESIGN.md §15).
  double train_step();

  const Mlp& online() const { return online_; }
  int action_count() const { return online_.output_size(); }

 private:
  DdqnConfig config_;
  Mlp online_;
  Mlp target_;
  ReplayBuffer buffer_;
  common::Rng rng_;
  long env_steps_ = 0;
  long grad_steps_ = 0;
  std::vector<std::size_t> batch_;  // sampled replay slots, reused every step
  // Target-network Q-values of each replay slot's next_state, slot-major.
  // A slot's row is valid while its epoch equals the number of target syncs
  // so far; push() marks an overwritten slot stale (-1). Grows with the
  // buffer's size, not its capacity.
  std::vector<double> target_q_;
  std::vector<long> target_q_epoch_;
  std::vector<double> q_block_;  // one block's Q-values, output-minor
};

}  // namespace iprism::rl
