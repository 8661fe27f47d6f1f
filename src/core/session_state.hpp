// Internal to src/core: the concrete state behind core::RiskSession.
//
// Public callers see only the opaque RiskSession (core/session.hpp); the
// engines' .cpp files include this header to lease scratch and to read or
// advance monitor state. Nothing here is API — layout and members may change
// freely between releases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/flat_hash.hpp"
#include "common/sync.hpp"
#include "core/monitor.hpp"
#include "dynamics/state.hpp"

namespace iprism::core::detail {

/// Lane-block size for the staged propagation (DESIGN.md §13): parent×control
/// pairs are queued into structure-of-arrays buffers until at least this many
/// lanes are pending, then batch-stepped and consumed by one sequential
/// decision pass. The value trades cache residency of the lane buffers
/// against amortizing per-block fixed costs; results are independent of it —
/// the step kernel is a pure per-lane computation and the decision pass
/// preserves candidate order.
constexpr std::size_t kLaneBlock = 1024;

/// What one propagation needs reserved: `expected` entries for the per-slice
/// cell grid, candidates and emission keys; `occupied` entries for the
/// dedup-off volume set (zero when dedup is on — the set is never inserted
/// into then, and an empty table costs nothing to clear per slice);
/// `obstacles` exclusion flags; `lanes` lane-buffer capacity.
struct ScratchShape {
  std::size_t expected = 0;
  std::size_t occupied = 0;
  std::size_t obstacles = 0;
  std::size_t lanes = 0;
};

/// Per-(x, y)-cell representative bookkeeping: the four extreme states
/// (min/max speed, min/max heading) that determine the cell's future
/// spread. Slots index into the slice's state vector.
struct CellReps {
  int min_v = -1, max_v = -1, min_h = -1, max_h = -1;
  double v_lo = 0.0, v_hi = 0.0, h_lo = 0.0, h_hi = 0.0;
};

/// Per-propagation scratch, reused across the slice loop — and, via the
/// session's ScratchPool below, across *ticks*. Everything is reserved by
/// reset() and cleared per slice with capacity retained, so after the first
/// propagation on a session the whole stream performs zero steady-state
/// scratch allocations (tests/test_tube_alloc.cpp proves both scopes). The
/// hash containers are common::FlatHashGrid: iteration order is insertion
/// order by construction, independent of capacity and load factor, so —
/// unlike the std::unordered_* scratch this replaced — pre-reserving, or a
/// scratch grown by an earlier, bigger tube on the same session, cannot
/// perturb tube results (DESIGN.md §9).
struct TubeScratch {
  common::FlatHashGrid<CellReps> cells;
  common::FlatKeySet occupied;  // volume when dedup is off
  std::vector<dynamics::VehicleState> candidates;
  std::vector<char> seen;  // per-candidate emit flags (collect pass)
  /// Surviving-representative slots paired with their SplitMix64 sort key
  /// (precomputed once so the emission sort never re-mixes in a comparator).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> kept;
  std::vector<std::uint32_t> active;  // per-slice obstacle active-set
  /// Per-obstacle exclusion flags, resolved once per propagation (from an
  /// ActorId for the public compute(), from an obstacle index / lift-all for
  /// the counterfactual replays) so the per-slice active-set build does one
  /// byte test per obstacle.
  std::vector<char> excluded;

  /// Structure-of-arrays lane buffers for the staged propagation (§13). A
  /// "lane" is one pending parent×control pair; `count` lanes are queued,
  /// then the whole block is stepped and keyed before the decision pass
  /// consumes it. Every array is sized once to the scratch's lane capacity
  /// (kLaneBlock plus one parent's worst-case control count, so the flush
  /// threshold can never overflow a block), keeping the slice loop free of
  /// lane-buffer allocations.
  struct Lanes {
    std::size_t count = 0;
    // Inputs, queued parent-major in exact scalar candidate order.
    std::vector<double> px, py, ph, pv, accel, tan_steer;
    // Batch-stepped successor states and their cell keys.
    std::vector<double> nx, ny, nh, nv;
    std::vector<std::uint64_t> key;

    void allocate(std::size_t cap) {
      for (auto* v : {&px, &py, &ph, &pv, &accel, &tan_steer, &nx, &ny, &nh, &nv}) {
        v->resize(cap);
      }
      key.resize(cap);
    }

    void push(const dynamics::VehicleState& s, double a, double tan_phi) {
      px[count] = s.x;
      py[count] = s.y;
      ph[count] = s.heading;
      pv[count] = s.speed;
      accel[count] = a;
      tan_steer[count] = tan_phi;
      ++count;
    }
  };
  Lanes lanes;

  /// Sizes every container for a propagation of the given shape and clears
  /// per-propagation state (exclusion flags back to zero). Idempotent and
  /// monotone: reservations never shrink, vector fills stay within retained
  /// capacity, and FlatHashGrid::clear keeps its table — so on a warm scratch
  /// of the same shape this performs zero allocations.
  void reset(const ScratchShape& shape) {
    cells.reserve(shape.expected);
    cells.clear();
    occupied.reserve(shape.occupied);
    occupied.clear();
    candidates.reserve(shape.expected);
    candidates.clear();
    kept.reserve(shape.expected);
    kept.clear();
    active.reserve(shape.obstacles);
    active.clear();
    excluded.assign(shape.obstacles, 0);
    if (lanes.key.size() < shape.lanes) lanes.allocate(shape.lanes);
    lanes.count = 0;
  }

  void next_slice() {
    cells.clear();
    occupied.clear();
    candidates.clear();
  }
};

/// Mutex-guarded free-list of scratch buffers. One session's evaluation may
/// fan counterfactual replays across worker threads; each task leases its own
/// scratch here, so the pool's high-water mark is the fan-out width and the
/// steady state allocates nothing. Lease via ScratchLease below.
class ScratchPool {
 public:
  std::unique_ptr<TubeScratch> acquire() {
    const common::MutexLock lock(mutex_);
    if (free_.empty()) return nullptr;
    std::unique_ptr<TubeScratch> scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void release(std::unique_ptr<TubeScratch> scratch) {
    const common::MutexLock lock(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  common::Mutex mutex_;
  std::vector<std::unique_ptr<TubeScratch>> free_ IPRISM_GUARDED_BY(mutex_);
};

/// RAII scratch lease: acquires a warm scratch from the pool (or constructs
/// one cold on first use), reset() to the requested shape, returned on scope
/// exit. The reset is part of the lease, not the release, so a scratch's
/// contents never leak between propagations.
class ScratchLease {
 public:
  ScratchLease(ScratchPool& pool, const ScratchShape& shape)
      : pool_(pool), scratch_(pool.acquire()) {
    if (scratch_ == nullptr) scratch_ = std::make_unique<TubeScratch>();
    scratch_->reset(shape);
  }

  ~ScratchLease() { pool_.release(std::move(scratch_)); }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  TubeScratch& operator*() const { return *scratch_; }
  TubeScratch* operator->() const { return scratch_.get(); }

 private:
  ScratchPool& pool_;
  std::unique_ptr<TubeScratch> scratch_;
};

/// Everything a RiskSession owns. Tube/STI layers touch only scratch_pool;
/// the monitor layer owns the rest (RiskMonitor::update is const and reads /
/// writes exclusively through here — the engine itself never mutates).
struct SessionState {
  ScratchPool scratch_pool;

  // Monitor state (moved out of RiskMonitor members by the engine/session
  // split; semantics unchanged).
  RiskLevel level = RiskLevel::kSafe;
  int quiet_streak = 0;
  long updates = 0;
};

}  // namespace iprism::core::detail
