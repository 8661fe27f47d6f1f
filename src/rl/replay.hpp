// Experience replay buffer for off-policy Q-learning (paper §III-B uses the
// standard D-DQN training setup [47], [49]).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace iprism::rl {

struct Transition {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool done = false;
};

/// Fixed-capacity ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  /// Stores `t`, overwriting the oldest transition once full. Returns the
  /// slot written: size() - 1 while growing, then the overwritten slot.
  std::size_t push(Transition t);

  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// The transition in `slot` (< size()).
  const Transition& operator[](std::size_t slot) const { return buffer_[slot]; }

  /// Uniformly samples `count` slots (with replacement) into `slots`,
  /// replacing its contents; reuse one vector to sample without allocating.
  /// Requires a non-empty buffer (checked).
  void sample(std::size_t count, common::Rng& rng, std::vector<std::size_t>& slots) const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<Transition> buffer_;
};

}  // namespace iprism::rl
