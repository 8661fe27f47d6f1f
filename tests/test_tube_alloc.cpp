// Steady-state allocation guarantees of the reach-tube propagation
// (DESIGN.md §9/§13). The per-propagation scratch — hash grids, candidate
// buffer, lane SoA blocks — is sized once up front; after the first slice the
// loop's only allocations are the one exact-size block each *produced* slice
// keeps as tube storage. That must hold for BOTH dedup modes: the dedup=false
// branch historically moved the scratch buffer into the tube (surrendering
// its capacity and forcing a re-reserve every slice, while each emitted slice
// retained a full scratch-sized block). Counted with a global operator new
// hook, same idiom as tests/test_flat_hash.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>

#include "core/reachtube.hpp"
#include "dynamics/state.hpp"
#include "roadmap/straight_road.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
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

namespace iprism {
namespace {

/// Cap low enough that every slice saturates (256 ≤ the auto scratch reserve
/// of 4096), so all scratch containers stay within their warmed capacity and
/// the allocation count is an exact, deterministic function of the slice
/// count — no FlatHashGrid rehash noise in the differential.
core::ReachTubeParams capped_params(bool dedup, double horizon) {
  core::ReachTubeParams params;
  params.dedup = dedup;
  params.horizon = horizon;
  params.max_states_per_slice = 256;
  return params;
}

/// Slices actually produced (the tube vector always has slice_count + 1
/// entries; a pinched-off tube leaves the tail empty).
std::size_t produced_slices(const core::ReachTube& tube) {
  std::size_t n = 0;
  while (n < tube.slices.size() && !tube.slices[n].empty()) ++n;
  return n;
}

class TubeAllocTest : public ::testing::TestWithParam<bool> {
 protected:
  roadmap::StraightRoad map_{3, 3.5, 400.0};
  dynamics::VehicleState ego_{50.0, 5.25, 0.0, 10.0};
};

TEST_P(TubeAllocTest, EverySliceStoresExactCapacity) {
  const core::ReachTubeComputer rt(capped_params(GetParam(), 3.0));
  core::RiskSession session;
  const core::ReachTube tube =
      rt.compute(session, map_, ego_, std::span<const core::ObstacleTimeline>{});
  ASSERT_GT(produced_slices(tube), 1u);
  for (std::size_t j = 0; j < tube.slices.size(); ++j) {
    // The slice owns a right-sized block, not a surrendered scratch buffer:
    // a moved-out candidates vector would leave capacity ≈ the scratch
    // reserve (4096+) on every slice.
    EXPECT_EQ(tube.slices[j].capacity(), tube.slices[j].size()) << "slice " << j;
  }
}

TEST_P(TubeAllocTest, SteadyStateAllocationsAreOneExactBlockPerSlice) {
  const core::ReachTubeComputer short_rt(capped_params(GetParam(), 2.0));
  const core::ReachTubeComputer long_rt(capped_params(GetParam(), 3.0));
  const std::span<const core::ObstacleTimeline> none;
  core::RiskSession session;

  // Warm-up: libc/gtest one-time allocations, plus proof both runs saturate
  // the cap (so the longer horizon's extra slices are copies of the same
  // steady state and every scratch container is inside its warmed capacity).
  const core::ReachTube warm_short = short_rt.compute(session, map_, ego_, none);
  const core::ReachTube warm_long = long_rt.compute(session, map_, ego_, none);
  const std::size_t short_slices = produced_slices(warm_short);
  const std::size_t long_slices = produced_slices(warm_long);
  ASSERT_GT(long_slices, short_slices);
  // Both runs must reach a full-width steady state before the short horizon
  // ends, so the long run's extra slices repeat it (identical per-slice
  // allocation behaviour) rather than still growing the wavefront.
  ASSERT_GT(warm_short.slices[short_slices - 1].size(), 0u);
  EXPECT_EQ(warm_short.slices[short_slices - 1].size(),
            warm_long.slices[short_slices - 1].size());

  const auto count = [&](const core::ReachTubeComputer& rt) {
    const std::size_t before = g_allocations.load();
    core::RiskSession cold;  // both runs pay the same session + scratch build
    const core::ReachTube tube = rt.compute(cold, map_, ego_, none);
    const std::size_t after = g_allocations.load();
    EXPECT_GT(tube.volume, 0.0);
    return after - before;
  };

  // Differential: the two runs share every fixed cost (scratch build, tube
  // skeleton, slice-0 seed) and differ only in produced slices, so the
  // allocation delta must be exactly one block per extra slice. The old
  // dedup=false branch paid two (tube block + scratch re-reserve).
  const std::size_t allocs_short = count(short_rt);
  const std::size_t allocs_long = count(long_rt);
  EXPECT_EQ(allocs_long - allocs_short, long_slices - short_slices);
}

TEST_P(TubeAllocTest, ReusedSessionTicksAllocateTubeStorageOnly) {
  const core::ReachTubeComputer rt(capped_params(GetParam(), 3.0));
  const std::span<const core::ObstacleTimeline> none;
  core::RiskSession session;

  // Tick 1 warms the session: the scratch pool's free-list vector, the
  // scratch block itself, its grid/candidate/lane reservations, plus the
  // one-time telemetry registrations. All of it persists in the session.
  const core::ReachTube warm = rt.compute(session, map_, ego_, none);
  const std::size_t slices = produced_slices(warm);
  ASSERT_GT(slices, 1u);

  const auto count_tick = [&] {
    const std::size_t before = g_allocations.load();
    const core::ReachTube tube = rt.compute(session, map_, ego_, none);
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(produced_slices(tube), slices);  // same shape every tick
    return after - before;
  };

  // Steady state (DESIGN.md §14): a same-shape tick on a reused session
  // allocates ONLY the tube storage it hands back — the outer slices vector,
  // the slice-0 seed block, and one exact block per propagated slice. The
  // lease pops a warmed scratch (no allocation) and reset() stays within its
  // reserved capacity, so scratch contributes exactly zero. produced_slices
  // counts the seed, hence 1 (outer) + slices (seed + propagated blocks).
  const std::size_t tick2 = count_tick();
  const std::size_t tick3 = count_tick();
  EXPECT_EQ(tick2, 1 + slices);
  EXPECT_EQ(tick3, tick2);
}

INSTANTIATE_TEST_SUITE_P(DedupModes, TubeAllocTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "dedup" : "nodedup";
                         });

}  // namespace
}  // namespace iprism
