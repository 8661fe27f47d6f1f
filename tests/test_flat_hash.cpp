// FlatHashGrid contract tests: insertion-order iteration independent of
// capacity, clear() that retains capacity without tombstones, and — via a
// counting global operator new — zero steady-state allocations when a
// pre-reserved grid is reused in a clear/insert cycle, which is exactly the
// reach-tube scratch access pattern (DESIGN.md §9).
#include "common/flat_hash.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting allocator: every allocation in this test binary bumps the
// counter, so "zero steady-state allocations" is asserted literally.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// The replaced operator new above allocates with malloc, so free is the
// matching release; GCC cannot see the replacement when it inlines these
// into library code and reports a new/free mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace iprism::common {
namespace {

TEST(FlatHashGrid, InsertFindContains) {
  FlatHashGrid<int> grid;
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.find(42u), nullptr);
  EXPECT_FALSE(grid.contains(42u));

  auto [v, inserted] = grid.insert(42u);
  EXPECT_TRUE(inserted);
  *v = 7;
  EXPECT_EQ(grid.size(), 1u);
  ASSERT_NE(grid.find(42u), nullptr);
  EXPECT_EQ(*grid.find(42u), 7);

  auto [v2, inserted2] = grid.insert(42u);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 7);
  EXPECT_EQ(grid.size(), 1u);
}

TEST(FlatHashGrid, IterationIsInsertionOrder) {
  FlatHashGrid<int> grid;
  const std::vector<std::uint64_t> keys = {9, 2, 0xFFFFFFFFFF, 3, 1, 0, 7777777};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    *grid.insert(keys[i]).first = static_cast<int>(i);
  }
  std::size_t i = 0;
  for (const auto& entry : grid) {
    EXPECT_EQ(entry.key, keys[i]);
    EXPECT_EQ(entry.value, static_cast<int>(i));
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

TEST(FlatHashGrid, GrowthRehashPreservesInsertionOrder) {
  // Insert far past the initial slot table so multiple rehashes occur, then
  // verify iteration still replays insertion order exactly.
  FlatHashGrid<std::uint64_t> grid;
  const std::size_t n = 10000;
  for (std::uint64_t k = 0; k < n; ++k) {
    *grid.insert(k * 0x9E3779B97F4A7C15ULL).first = k;
  }
  EXPECT_GT(grid.rehash_count(), 1u);
  std::uint64_t expected = 0;
  for (const auto& entry : grid) {
    ASSERT_EQ(entry.value, expected);
    ASSERT_EQ(entry.key, expected * 0x9E3779B97F4A7C15ULL);
    ++expected;
  }
  EXPECT_EQ(expected, n);
}

TEST(FlatHashGrid, IterationOrderIndependentOfReserve) {
  const std::vector<std::uint64_t> keys = {5, 1, 99, 2, 1000000007, 4, 3};
  std::vector<std::uint64_t> reference;
  for (std::size_t reserve : {std::size_t{0}, std::size_t{64}, std::size_t{4096}}) {
    FlatHashGrid<Unit> grid(reserve);
    for (std::uint64_t k : keys) grid.insert(k);
    std::vector<std::uint64_t> order;
    for (const auto& entry : grid) order.push_back(entry.key);
    if (reference.empty()) {
      reference = order;
    } else {
      EXPECT_EQ(order, reference) << "reserve=" << reserve;
    }
  }
}

TEST(FlatHashGrid, ClearRetainsCapacityTombstoneFree) {
  FlatHashGrid<int> grid;
  grid.reserve(512);
  const std::size_t slots = grid.slot_capacity();
  const std::size_t rehashes = grid.rehash_count();
  for (std::uint64_t k = 0; k < 512; ++k) grid.insert(k);
  EXPECT_EQ(grid.slot_capacity(), slots) << "reserve(512) must cover 512 inserts";

  grid.clear();
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.slot_capacity(), slots);
  EXPECT_EQ(grid.rehash_count(), rehashes);
  EXPECT_FALSE(grid.contains(3u));

  // Refill after clear: no tombstone debris — same capacity, same probe
  // health, and lookups behave as in a fresh table.
  for (std::uint64_t k = 0; k < 512; ++k) grid.insert(k + 1000000);
  EXPECT_EQ(grid.size(), 512u);
  EXPECT_EQ(grid.slot_capacity(), slots);
  EXPECT_EQ(grid.rehash_count(), rehashes);
  EXPECT_FALSE(grid.contains(3u));
  EXPECT_TRUE(grid.contains(1000003u));
}

TEST(FlatHashGrid, ZeroSteadyStateAllocationsWhenReused) {
  // The reach-tube scratch pattern: reserve once, then clear/insert cycles
  // within capacity. After the first cycle, the counting operator new must
  // see no allocations at all from the grid.
  FlatHashGrid<int> grid(1024);
  for (std::uint64_t k = 0; k < 1024; ++k) *grid.insert(k * 31).first = 1;
  grid.clear();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (std::uint64_t k = 0; k < 1024; ++k) {
      *grid.insert(k * 131 + static_cast<std::uint64_t>(cycle)).first = cycle;
    }
    EXPECT_EQ(grid.size(), 1024u);
    grid.clear();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "clear/insert cycles within reserved capacity must not allocate";
}

TEST(FlatKeySet, SetSemantics) {
  FlatKeySet set;
  EXPECT_TRUE(set.insert(10u).second);
  EXPECT_FALSE(set.insert(10u).second);
  EXPECT_TRUE(set.insert(11u).second);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(10u));
  EXPECT_FALSE(set.contains(12u));
}

TEST(FlatHashGrid, CollidingKeysProbeCorrectly) {
  // Keys engineered to collide in a 16-slot table still resolve: linear
  // probing must walk past occupied slots of other keys.
  FlatHashGrid<int> grid;
  std::vector<std::uint64_t> keys;
  std::uint64_t probe = 0;
  while (keys.size() < 12) {  // > 16 * 7/8 would rehash; stay below
    if ((splitmix64_mix(probe) & 15u) == 3u) keys.push_back(probe);
    ++probe;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    *grid.insert(keys[i]).first = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(grid.find(keys[i]), nullptr);
    EXPECT_EQ(*grid.find(keys[i]), static_cast<int>(i));
  }
}

}  // namespace
}  // namespace iprism::common
