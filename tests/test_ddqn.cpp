#include "rl/ddqn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace iprism::rl {
namespace {

DdqnConfig fast_config() {
  DdqnConfig c;
  c.learning_rate = 5e-3;
  c.batch_size = 32;
  c.warmup_transitions = 64;
  c.target_sync_interval = 50;
  c.epsilon_decay_steps = 500;
  c.gamma = 0.9;
  return c;
}

TEST(Ddqn, ValidatesActionCount) {
  EXPECT_THROW(DdqnTrainer(2, 1, {8}, fast_config(), 1), std::invalid_argument);
}

TEST(Ddqn, EpsilonAnneals) {
  DdqnTrainer t(2, 2, {8}, fast_config(), 1);
  EXPECT_DOUBLE_EQ(t.epsilon(), 1.0);
  Transition tr;
  tr.state = {0.0, 0.0};
  tr.next_state = {0.0, 0.0};
  for (int i = 0; i < 500; ++i) t.observe(tr);
  EXPECT_NEAR(t.epsilon(), 0.05, 1e-9);
}

TEST(Ddqn, TrainStepSkipsUntilWarm) {
  DdqnTrainer t(2, 2, {8}, fast_config(), 1);
  Transition tr;
  tr.state = {0.0, 0.0};
  tr.next_state = {0.0, 0.0};
  tr.reward = 1.0;
  tr.done = true;
  for (int i = 0; i < 10; ++i) t.observe(tr);
  EXPECT_DOUBLE_EQ(t.train_step(), 0.0);  // below warmup: no update
}

TEST(Ddqn, SolvesContextualBandit) {
  // Two contexts; the rewarded action flips with the context. A correct
  // D-DQN implementation learns the mapping in a few hundred updates.
  DdqnTrainer t(1, 2, {16}, fast_config(), 42);
  common::Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const double ctx = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const int action = t.select_action(std::vector<double>{ctx});
    const int correct = ctx > 0.0 ? 1 : 0;
    Transition tr;
    tr.state = {ctx};
    tr.action = action;
    tr.reward = action == correct ? 1.0 : -1.0;
    tr.next_state = {ctx};
    tr.done = true;  // bandit: episodic single step
    t.observe(std::move(tr));
    t.train_step();
  }
  EXPECT_EQ(t.greedy_action(std::vector<double>{1.0}), 1);
  EXPECT_EQ(t.greedy_action(std::vector<double>{-1.0}), 0);
}

TEST(Ddqn, LearnsDelayedRewardChain) {
  // Two-step MDP: state 0 --(action 1)--> state 1 --(action 1)--> reward 1.
  // Any action 0 terminates with 0 reward. Tests bootstrapping through the
  // double-Q target.
  DdqnConfig cfg = fast_config();
  cfg.epsilon_decay_steps = 2000;
  DdqnTrainer t(1, 2, {16}, cfg, 3);
  common::Rng rng(5);
  for (int episode = 0; episode < 1200; ++episode) {
    double s = 0.0;
    for (int step = 0; step < 2; ++step) {
      const int action = t.select_action(std::vector<double>{s});
      Transition tr;
      tr.state = {s};
      tr.action = action;
      if (action == 0) {
        tr.reward = 0.0;
        tr.done = true;
        tr.next_state = {s};
        t.observe(std::move(tr));
        t.train_step();
        break;
      }
      const bool terminal = step == 1;
      tr.reward = terminal ? 1.0 : 0.0;
      tr.done = terminal;
      tr.next_state = {terminal ? s : 1.0};
      t.observe(std::move(tr));
      t.train_step();
      s = 1.0;
    }
  }
  EXPECT_EQ(t.greedy_action(std::vector<double>{0.0}), 1);
  EXPECT_EQ(t.greedy_action(std::vector<double>{1.0}), 1);
}

TEST(Ddqn, DeterministicGivenSeedAndData) {
  auto run = [] {
    DdqnTrainer t(1, 2, {8}, fast_config(), 11);
    for (int i = 0; i < 300; ++i) {
      Transition tr;
      tr.state = {static_cast<double>(i % 2)};
      tr.action = i % 2;
      tr.reward = (i % 2 == 0) ? 1.0 : -1.0;
      tr.next_state = tr.state;
      tr.done = true;
      t.observe(std::move(tr));
      t.train_step();
    }
    return t.online().forward(std::vector<double>{1.0});
  };
  EXPECT_EQ(run(), run());
}

/// FNV-1a step over the bit pattern of one double.
std::uint64_t mix_bits(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xFFU;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Trains a small net on a seeded random walk and digests every
/// train_step() return value and, at the end, every online weight and bias.
/// target_sync_interval = 3 and a replay capacity below the number of
/// transitions pushed make target syncs and ring overwrites both frequent;
/// about one transition in six is terminal.
std::uint64_t golden_run(int action_count, int batch_size) {
  DdqnConfig c;
  c.learning_rate = 5e-3;
  c.batch_size = batch_size;
  c.warmup_transitions = 24;
  c.target_sync_interval = 3;
  c.replay_capacity = 96;
  c.epsilon_decay_steps = 200;
  c.gamma = 0.9;
  constexpr int kStateSize = 5;
  DdqnTrainer t(kStateSize, action_count, {16, 12}, c, 17);
  common::Rng env(23);
  auto fresh_state = [&] {
    std::vector<double> s(kStateSize);
    for (double& x : s) x = env.uniform(-1.0, 1.0);
    return s;
  };
  std::vector<double> state = fresh_state();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 320; ++i) {
    Transition tr;
    tr.action = t.select_action(state);
    tr.reward = env.uniform(-1.0, 1.0) + (tr.action == 0 ? 0.25 : 0.0);
    tr.done = env.bernoulli(0.15);
    tr.state = state;
    for (double& x : state) x = std::clamp(x + env.normal(0.0, 0.3), -1.0, 1.0);
    tr.next_state = state;
    if (tr.done) state = fresh_state();
    t.observe(std::move(tr));
    h = mix_bits(h, t.train_step());
  }
  for (const Mlp::Layer& layer : t.online().layers()) {
    for (double w : layer.weights) h = mix_bits(h, w);
    for (double b : layer.biases) h = mix_bits(h, b);
  }
  return h;
}

TEST(Ddqn, GoldenWeightsAfterTraining) {
  // Generated from the per-sample train_step (one forward/backward per
  // transition). Any faster step must reproduce these bits exactly.
  EXPECT_EQ(golden_run(2, 64), 0x72F542783A774611ULL);
  EXPECT_EQ(golden_run(3, 20), 0x0E3F491F60181FCDULL);
}

}  // namespace
}  // namespace iprism::rl
