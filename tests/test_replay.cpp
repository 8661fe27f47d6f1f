#include "rl/replay.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace iprism::rl {
namespace {

Transition make(double marker) {
  Transition t;
  t.state = {marker};
  t.next_state = {marker + 0.5};
  t.reward = marker;
  return t;
}

TEST(ReplayBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(ReplayBuffer(0), std::invalid_argument);
}

TEST(ReplayBuffer, GrowsUntilCapacity) {
  ReplayBuffer buf(3);
  EXPECT_EQ(buf.size(), 0u);
  buf.push(make(1));
  buf.push(make(2));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.push(make(3)), 2u);
  EXPECT_EQ(buf.push(make(4)), 0u);  // overwrites the oldest slot
  EXPECT_EQ(buf.size(), 3u);         // capped
  EXPECT_EQ(buf[0].reward, 4.0);
}

TEST(ReplayBuffer, OverwritesOldestFirst) {
  ReplayBuffer buf(2);
  buf.push(make(1));
  buf.push(make(2));
  buf.push(make(3));  // evicts marker 1
  common::Rng rng(5);
  std::set<double> seen;
  std::vector<std::size_t> slots;
  for (int i = 0; i < 200; ++i) {
    buf.sample(2, rng, slots);
    for (std::size_t slot : slots) seen.insert(buf[slot].reward);
  }
  EXPECT_EQ(seen.count(1.0), 0u);
  EXPECT_EQ(seen.count(2.0), 1u);
  EXPECT_EQ(seen.count(3.0), 1u);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buf(4);
  common::Rng rng(1);
  std::vector<std::size_t> slots;
  EXPECT_THROW(buf.sample(1, rng, slots), std::invalid_argument);
}

TEST(ReplayBuffer, SampleReturnsRequestedCount) {
  ReplayBuffer buf(4);
  buf.push(make(1));
  common::Rng rng(1);
  std::vector<std::size_t> slots{9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  buf.sample(7, rng, slots);  // with replacement, replacing what was there
  EXPECT_EQ(slots, std::vector<std::size_t>(7, 0));
}

TEST(ReplayBuffer, SamplingIsDeterministicGivenRng) {
  ReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) buf.push(make(i));
  common::Rng r1(3);
  common::Rng r2(3);
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  buf.sample(5, r1, a);
  buf.sample(5, r2, b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace iprism::rl
