#include "rl/ddqn.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace iprism::rl {
namespace {

std::vector<int> layer_sizes(int state_size, const std::vector<int>& hidden,
                             int action_count) {
  std::vector<int> sizes;
  sizes.push_back(state_size);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(action_count);
  return sizes;
}

int argmax(std::span<const double> v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

DdqnTrainer::DdqnTrainer(int state_size, int action_count, const std::vector<int>& hidden,
                         const DdqnConfig& config, std::uint64_t seed)
    : config_(config),
      online_([&] {
        common::Rng init_rng(seed);
        return Mlp(layer_sizes(state_size, hidden, action_count), init_rng);
      }()),
      target_([&] {
        common::Rng init_rng(seed);
        return Mlp(layer_sizes(state_size, hidden, action_count), init_rng);
      }()),
      buffer_(config.replay_capacity),
      rng_(seed ^ 0xD1CEBEEFULL) {
  IPRISM_CHECK(action_count >= 2, "DdqnTrainer: need at least two actions");
  IPRISM_CHECK(config.gamma >= 0.0 && config.gamma <= 1.0,
               "DdqnConfig: gamma must lie in [0, 1]");
  IPRISM_CHECK(config.learning_rate > 0.0, "DdqnConfig: learning_rate must be positive");
  IPRISM_CHECK(config.batch_size > 0, "DdqnConfig: batch_size must be positive");
  IPRISM_CHECK(config.target_sync_interval > 0,
               "DdqnConfig: target_sync_interval must be positive");
  IPRISM_CHECK(config.warmup_transitions > 0,
               "DdqnConfig: warmup_transitions must be positive");
  IPRISM_CHECK(config.epsilon_start >= 0.0 && config.epsilon_start <= 1.0 &&
                   config.epsilon_end >= 0.0 && config.epsilon_end <= 1.0,
               "DdqnConfig: epsilon schedule endpoints must lie in [0, 1]");
  target_.copy_weights_from(online_);
  q_block_.resize(static_cast<std::size_t>(Mlp::kBlock * action_count));
}

double DdqnTrainer::epsilon() const {
  const double frac = std::min(
      static_cast<double>(env_steps_) / std::max(config_.epsilon_decay_steps, 1), 1.0);
  return config_.epsilon_start + frac * (config_.epsilon_end - config_.epsilon_start);
}

int DdqnTrainer::select_action(std::span<const double> state) {
  if (rng_.bernoulli(epsilon())) {
    return static_cast<int>(rng_.index(static_cast<std::size_t>(action_count())));
  }
  return greedy_action(state);
}

int DdqnTrainer::greedy_action(std::span<const double> state) const {
  return argmax(online_.forward(state));
}

void DdqnTrainer::observe(Transition t) {
  const std::size_t slot = buffer_.push(std::move(t));
  if (slot == target_q_epoch_.size()) {
    target_q_epoch_.push_back(-1);
    target_q_.resize(target_q_.size() + static_cast<std::size_t>(action_count()));
  } else {
    target_q_epoch_[slot] = -1;
  }
  ++env_steps_;
}

double DdqnTrainer::train_step() {
  if (buffer_.size() < static_cast<std::size_t>(config_.warmup_transitions)) return 0.0;
  buffer_.sample(static_cast<std::size_t>(config_.batch_size), rng_, batch_);
  IPRISM_DCHECK(!batch_.empty(), "DdqnTrainer: training batch must be non-empty");
  const auto actions = static_cast<std::size_t>(action_count());
  const long epoch = grad_steps_ / config_.target_sync_interval;

  // Refresh the memo first: the batch's stale target rows, kBlock at a time.
  std::size_t stale[Mlp::kBlock];
  std::span<const double> stale_next[Mlp::kBlock];
  std::size_t stale_count = 0;
  const auto refresh = [&] {
    target_.forward_block({stale_next, stale_count}, {q_block_.data(), stale_count * actions});
    for (std::size_t j = 0; j < stale_count; ++j) {
      std::copy_n(q_block_.begin() + static_cast<std::ptrdiff_t>(j * actions), actions,
                  target_q_.begin() + static_cast<std::ptrdiff_t>(stale[j] * actions));
    }
    stale_count = 0;
  };
  for (std::size_t slot : batch_) {
    if (buffer_[slot].done || target_q_epoch_[slot] == epoch) continue;
    target_q_epoch_[slot] = epoch;
    stale[stale_count] = slot;
    stale_next[stale_count] = buffer_[slot].next_state;
    if (++stale_count == Mlp::kBlock) refresh();
  }
  refresh();

  // Each block: online(next_state) -> argmax -> target Q -> online(state) ->
  // backward. The weights only move in apply_adam, after the whole batch.
  double abs_td = 0.0;
  std::span<const double> next[Mlp::kBlock];
  Mlp::Sample samples[Mlp::kBlock];
  double td[Mlp::kBlock];
  for (std::size_t b = 0; b < batch_.size(); b += Mlp::kBlock) {
    const std::size_t m = std::min(batch_.size() - b, static_cast<std::size_t>(Mlp::kBlock));
    const std::size_t* slots = batch_.data() + b;
    for (std::size_t k = 0; k < m; ++k) {
      // A terminal transition's row is never read; its state stands in, so
      // next_state may be empty there, as in the per-sample step.
      const Transition& t = buffer_[slots[k]];
      next[k] = t.done ? t.state : t.next_state;
    }
    // Double-DQN: the online net selects, the target net evaluates.
    online_.forward_block({next, m}, {q_block_.data(), m * actions});
    for (std::size_t k = 0; k < m; ++k) {
      const Transition& t = buffer_[slots[k]];
      double target = t.reward;
      if (!t.done) {
        const int best = argmax({q_block_.data() + k * actions, actions});
        IPRISM_DCHECK(best >= 0 && best < action_count(),
                      "DdqnTrainer: selected action out of range");
        target += config_.gamma * target_q_[slots[k] * actions + static_cast<std::size_t>(best)];
      }
      samples[k] = {t.state, t.action, target};
    }
    online_.accumulate_gradient({samples, m}, {td, m});
    for (std::size_t k = 0; k < m; ++k) abs_td += std::abs(td[k]);
  }
  online_.apply_adam(config_.learning_rate);

  ++grad_steps_;
  if (grad_steps_ % config_.target_sync_interval == 0) {
    target_.copy_weights_from(online_);
  }
  return abs_td / static_cast<double>(batch_.size());
}

}  // namespace iprism::rl
