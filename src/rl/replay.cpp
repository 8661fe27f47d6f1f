#include "rl/replay.hpp"

#include "common/check.hpp"

namespace iprism::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  IPRISM_CHECK(capacity > 0, "ReplayBuffer: capacity must be positive");
  buffer_.reserve(capacity);
}

std::size_t ReplayBuffer::push(Transition t) {
  IPRISM_DCHECK(buffer_.size() <= capacity_, "ReplayBuffer: size exceeded capacity");
  const std::size_t slot = next_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(t));
  } else {
    IPRISM_DCHECK(next_ < capacity_, "ReplayBuffer: write cursor out of bounds");
    buffer_[next_] = std::move(t);
  }
  next_ = (next_ + 1) % capacity_;
  return slot;
}

void ReplayBuffer::sample(std::size_t count, common::Rng& rng,
                          std::vector<std::size_t>& slots) const {
  IPRISM_CHECK(!buffer_.empty(), "ReplayBuffer: cannot sample from empty buffer");
  slots.resize(count);
  for (std::size_t& slot : slots) slot = rng.index(buffer_.size());
}

}  // namespace iprism::rl
