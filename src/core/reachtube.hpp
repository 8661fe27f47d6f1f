// Reach-tube computation — the paper's Algorithm 1.
//
// The set of escape routes T_{t:t+k} is approximated by forward-propagating
// the ego state through the kinematic bicycle model over time slices of
// size dt, sampling control inputs (a, phi) at every slice, and discarding
// states that collide with other actors' (forecast) footprints or leave the
// drivable area. Both of the paper's acceleration optimizations are
// implemented and individually switchable for the footnote-5 ablation:
//
//   (1) epsilon-dedup: a propagated state is ignored when it falls in the
//       same quantized state-space cell as an already-visited state. Within
//       each (x, y) epsilon cell, up to four representative states are kept
//       — the speed and heading extremes — which is exactly the state
//       diversity that determines the cell's future spread; interior states
//       add no occupancy;
//   (2) boundary controls: instead of uniform control sampling, enumerate
//       the boundary control combinations (the paper's set
//       {0, a_max} x {phi_min, 0, phi_max}; this library defaults to the
//       symmetric {a_min, 0, a_max} x {phi_min, 0, phi_max} so braking
//       escape routes are represented — see DESIGN.md §5).
//
// |T| — the tube's "volume" / state-space occupancy [45] — is the number of
// distinct occupied (x, y) grid cells summed over time slices.
//
// Every tube steps its candidates in batches but tests them one at a time:
// a candidate the dedup pass consults gets one survival test (footprint,
// map, active obstacles), and the rest pay no geometry (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/scene.hpp"
#include "core/session.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/state.hpp"
#include "roadmap/map.hpp"

namespace iprism::core {

namespace detail {
struct ScratchShape;
struct TubeScratch;
}  // namespace detail

struct ReachTubeParams {
  double dt = 0.25;          ///< time-slice size (s)
  double horizon = 3.0;      ///< k: look-ahead (s)
  double cell_size = 1.0;    ///< epsilon grid in (x, y) for dedup & volume (m)
  bool dedup = true;         ///< optimization (1)
  /// Hard cap on states kept per slice (guards worst-case blowup; far above
  /// what the epsilon grid admits on realistic maps).
  std::size_t max_states_per_slice = 20000;
  bool boundary_controls = true;  ///< optimization (2); false = uniform sampling
  int uniform_samples = 24;  ///< N: samples per state when boundary_controls off
  bool include_braking_boundary = false;  ///< true = add a_min (ablation); the
  ///< paper's published set {0, a_max} x {phi_min, 0, phi_max} is the default
  dynamics::ControlLimits limits{-6.0, 3.0, -0.35, 0.35};
  dynamics::Dimensions ego_dims{4.5, 2.0};
  double wheelbase = 2.7;
  /// Fan-out switch for StiCalculator's counterfactual tubes (|T^{∅}| and
  /// each per-actor counterfactual are independent replays). 0 = serial
  /// (default); any value > 0 runs the fan-out on the process-wide
  /// common::ThreadPool::shared(), whose width is the hardware's — the value
  /// sizes nothing. A single tube is always computed on one thread — its
  /// slices are sequentially dependent — so this knob never changes any
  /// result, only wall-clock (DESIGN.md §8). RiskMonitorParams::tube and
  /// SmcTrainConfig::tube plumb it into the monitor and SMC training.
  int num_threads = 0;
};

/// An actor's footprint at each tube time slice (pre-sampled from its
/// forecast trajectory).
struct ObstacleTimeline {
  /// Defaults to ActorId::none() — an anonymous obstacle no counterfactual
  /// can exclude.
  common::ActorId actor_id;
  std::vector<geom::OrientedBox> by_slice;
  /// circumradius() of each by_slice box, precomputed once per timeline.
  /// The broad-phase test in the tube's innermost loop runs per candidate
  /// state × slice × obstacle; the radius only depends on (obstacle, slice).
  /// Kept in sync by sample_obstacles(); hand-built timelines must call
  /// finalize() before compute().
  std::vector<double> circumradius_by_slice;

  /// Fills circumradius_by_slice from by_slice.
  void finalize();
};

/// The computed tube: surviving states per slice plus the occupancy volume.
struct ReachTube {
  std::vector<std::vector<dynamics::VehicleState>> slices;
  /// State-space occupancy |T|: distinct (x, y) cells summed over slices.
  double volume = 0.0;

  // NOLINTNEXTLINE(iprism-float-eq) volume is an integer-valued cell count, never arithmetic
  bool empty() const { return volume == 0.0; }
};

// --- Blocked-by attribution (DESIGN.md §12) --------------------------------
//
// The N+2 tubes of one STI evaluation share almost their whole wavefront:
// |T^{-i}| differs from |T| only downstream of candidates that actor i alone
// rejected. An *attributed* base propagation records, for every candidate
// it tested, who (if anyone) rejected it; each counterfactual is then
// produced by *memoized replay* — the slices before actor i's first sole
// rejection are copied verbatim, and from there the propagation loop re-runs
// with collision geometry answered from the record. Fresh geometry runs only
// on the delta wavefront, and an actor that rejected nothing gets
// |T^{-i}| ≡ |T| without any re-expansion. Replay executes the exact
// propagation loop, so results are bit-identical (contents, cardinalities,
// SplitMix64 emission order — the §9 contract) to from-scratch
// compute(..., exclude). |T^{∅}| reuses the base prefix the same way but
// re-propagates plainly, with no obstacles and no memo.

/// Classification of one survival-test outcome.
enum class BlockerClass : std::uint8_t {
  kPassed = 0,  ///< state survived every test
  kOffMap = 1,  ///< footprint left the drivable area; no actor removal rescues it
  kSole = 2,    ///< exactly one obstacle intersected (`sole_blocker` says which)
  kMulti = 3,   ///< two or more obstacles intersected; no single removal rescues it
};

/// One blocked-frontier entry: the tested candidate state (full bits, for
/// exact replay matching) plus its blocker attribution.
struct BlockRecord {
  dynamics::VehicleState state;
  std::uint32_t sole_blocker = 0;  ///< index into the obstacles span, valid for kSole
  BlockerClass cls = BlockerClass::kPassed;
};

/// Per-slice memo of every survival-test outcome of an attributed propagation.
/// Flat containers only (§9): records live in a dense vector; `by_state`
/// maps a SplitMix64 hash of the state bits to the first record with that
/// hash (replay verifies full state equality and falls back to geometry on
/// the ~2^-64 mismatch, so collisions cost time, never correctness).
struct SliceAttribution {
  std::vector<BlockRecord> tests;
  common::FlatHashGrid<std::uint32_t> by_state;
};

/// Everything a counterfactual replay needs from the attributed base run.
struct TubeAttribution {
  static constexpr std::uint32_t kNever = 0xFFFFFFFFu;

  std::vector<SliceAttribution> slices;  ///< [0, slice_count]; [0] holds the seed test
  /// Sampling-RNG snapshot at the start of each slice loop (loop j produces
  /// slice j+1), so a replay from slice j* resumes the exact draw sequence
  /// when `boundary_controls` is off. Unfilled past an early pinch-off.
  std::vector<common::Rng> rng_at_loop;
  /// Cumulative |T| through produced slice j — the volume a replay starts
  /// from after copying slices [0, j*).
  std::vector<std::size_t> volume_prefix;
  /// Per obstacle index: earliest slice where it was the *sole* rejector of
  /// a candidate (kNever = rejected nothing alone → |T^{-i}| ≡ |T| free).
  std::vector<std::uint32_t> first_sole_block;
  /// Earliest slice with any actor-attributable rejection (kSole or kMulti);
  /// |T^{∅}| re-propagates from here (kNever = |T^{∅}| ≡ |T| free).
  std::uint32_t first_actor_block = kNever;
  std::size_t obstacle_count = 0;
  /// Total kSole + kMulti records — the blocked frontier the replays re-expand
  /// from (telemetry: reachtube.blocked_frontier_size).
  std::size_t blocked_frontier = 0;
  /// Per-slice active obstacle sets of the base run, flattened: slice j's
  /// set is active_flat[active_offsets[j] .. active_offsets[j+1]) in
  /// ascending obstacle-index order. The set is a pure function of
  /// (obstacle set, seed, slice) — independent of which actors a replay
  /// excludes — so compute_attributed builds it exactly once and the base
  /// propagation plus every counterfactual replay in the fan-out reuse it
  /// read-only (a replay filters its excluded indices out while loading,
  /// which is exactly what rebuilding with exclusions would produce).
  /// Covers every slice [0, slice_count].
  std::vector<std::uint32_t> active_flat;
  std::vector<std::uint32_t> active_offsets;

  /// True when `exclude_index` never solely rejected a candidate, i.e. the
  /// counterfactual is the base tube verbatim.
  bool blocks_nothing(std::size_t exclude_index) const {
    return first_sole_block[exclude_index] == kNever;
  }
};

/// Base tube plus the attribution record the counterfactual replays consume.
struct AttributedTube {
  ReachTube tube;
  TubeAttribution attribution;
};

/// How one counterfactual was produced (telemetry + tests).
struct CounterfactualStats {
  bool free = false;            ///< no divergence: tube copied from the base
  std::uint32_t replay_from = 0;  ///< first re-propagated slice (when !free)
  std::size_t memo_hits = 0;    ///< survival answers served from the record
  std::size_t fresh_tests = 0;  ///< survival tests actually run (the delta)
};

class ReachTubeComputer {
 public:
  /// Footprint shrink for the drivable-area test (m).
  static constexpr double kMapMargin = 0.3;
  /// Seed of the RNG stream that draws the uniform control samples.
  static constexpr std::uint64_t kSampleSeed = 42;

  explicit ReachTubeComputer(const ReachTubeParams& params = {});

  /// Validates `params`, throwing via IPRISM_CHECK on the first violated
  /// invariant. Construction-free fail-fast entry point for configs that
  /// embed tube params (e.g. SmcTrainConfig); the constructor runs the same
  /// checks.
  static void validate(const ReachTubeParams& params);

  const ReachTubeParams& params() const { return params_; }
  int slice_count() const { return slices_; }

  /// Samples every forecast's footprint at the tube's slice times
  /// (t0, t0+dt, ..., t0+k). Shared prep for the counterfactual tubes.
  std::vector<ObstacleTimeline> sample_obstacles(
      std::span<const ActorForecast> forecasts, common::Seconds t0) const;

  // Every computation below is session-first (engine/session split,
  // DESIGN.md §14): it leases its scratch from the given RiskSession — warm
  // after the first call, so a reused session performs zero steady-state
  // scratch allocations across ticks. All are const: the computer is an
  // immutable engine; all mutation lands in the session. Results are
  // bit-identical across fresh vs reused sessions (enforced by the
  // SessionIdentity and TubeAlloc suites). A non-finite ego state or
  // obstacle box is rejected with std::invalid_argument.

  /// Computes the tube from `ego` at t0 against the given obstacles.
  /// A valid `exclude` drops that actor — the counterfactual "what if
  /// actor i were not present" of Eq. (2); ActorId::none() excludes nobody.
  ReachTube compute(RiskSession& session, const roadmap::DrivableMap& map,
                    const dynamics::VehicleState& ego,
                    std::span<const ObstacleTimeline> obstacles,
                    common::ActorId exclude = common::ActorId::none()) const;

  /// Convenience: forecast sampling + tube in one call.
  ReachTube compute(RiskSession& session, const roadmap::DrivableMap& map,
                    const dynamics::VehicleState& ego, common::Seconds t0,
                    std::span<const ActorForecast> forecasts,
                    common::ActorId exclude = common::ActorId::none()) const;

  /// One attributed base propagation: the tube is bit-identical to
  /// compute(session, map, ego, obstacles) — attribution only *records*, it
  /// never steers — plus the blocked-by record the replays below consume.
  AttributedTube compute_attributed(RiskSession& session, const roadmap::DrivableMap& map,
                                    const dynamics::VehicleState& ego,
                                    std::span<const ObstacleTimeline> obstacles) const;

  /// |T^{-i}| for `obstacles[exclude_index]` by memoized replay of `base`.
  /// Bit-identical to compute(session, map, ego, obstacles,
  /// obstacles[i].actor_id) when actor ids are unique; `base` must come from
  /// compute_attributed over the same (map, ego, obstacles). When the obstacle rejected nothing the
  /// base tube is returned verbatim (stats->free, zero re-expansion).
  ReachTube compute_counterfactual(RiskSession& session, const roadmap::DrivableMap& map,
                                   const dynamics::VehicleState& ego,
                                   std::span<const ObstacleTimeline> obstacles,
                                   const AttributedTube& base, std::size_t exclude_index,
                                   CounterfactualStats* stats = nullptr) const;

  /// |T^{∅}| with *all* blockers lifted. Bit-identical to
  /// compute(session, map, ego, {}) — an empty obstacles span. Free (the
  /// base tube, stats->free) when nothing was actor-blocked; otherwise the
  /// base prefix before `first_actor_block` is copied and the rest
  /// propagates with no obstacles. Every candidate is a fresh map test
  /// (stats->fresh_tests); the memo is not consulted (memo_hits = 0).
  ReachTube compute_unblocked(RiskSession& session, const roadmap::DrivableMap& map,
                              const dynamics::VehicleState& ego,
                              std::span<const ObstacleTimeline> obstacles,
                              const AttributedTube& base,
                              CounterfactualStats* stats = nullptr) const;

 private:

  /// Shared propagation loop: runs slice loops [first_loop, slice_count)
  /// given tube.slices[first_loop] (and everything before it) already
  /// populated. The loop is staged (DESIGN.md §13): parent×control pairs are
  /// queued into structure-of-arrays lane buffers, batch-stepped a block at a
  /// time, and then consumed by one sequential decision pass that replicates
  /// the candidate order — and therefore the dedup/cap/RNG semantics — of the
  /// historical generate-then-test loop exactly. The caller supplies the
  /// policy hooks:
  ///
  ///   activate(slice)        — fill scratch.active for the slice;
  ///   consult(ns, slice)     — "does this candidate survive": the survival
  ///                            test (or a memo answer), run only on the
  ///                            candidates the decision pass consults.
  ///
  /// `on_loop_begin(j, rng)` / `on_slice_done(j, volume)` are the attribution
  /// recorder's hooks; the plain and replay paths pass no-ops that inline
  /// away. Every caller — plain, attributed, replay — funnels through this
  /// one loop, which is the §12 bit-identity argument: a replay differs from
  /// from-scratch only in where survival answers come from, and those
  /// answers are proven equal case by case.
  template <class Activate, class Consult, class OnLoopBegin, class OnSliceDone>
  void propagate(detail::TubeScratch& scratch, ReachTube& tube,
                 std::size_t& volume_cells, common::Rng& rng, int first_loop,
                 Activate&& activate, Consult&& consult, OnLoopBegin&& on_loop_begin,
                 OnSliceDone&& on_slice_done) const;

  /// Loads `scratch.active` for one slice from the attribution's precomputed
  /// per-slice sets, dropping indices flagged in `scratch.excluded`. Equal to
  /// build_active_set with the same exclusions: the disc test is a pure
  /// function of (obstacle, seed, slice), independent of exclusions.
  void load_active_set(const TubeAttribution& attr, detail::TubeScratch& scratch,
                       std::size_t slice) const;

  /// The scratch shape this computer's params demand: expected entries
  /// (min(max_states_per_slice, 4096)), the dedup-off volume set (empty when
  /// dedup is on), `obstacle_count` exclusion flags, and lane buffers big
  /// enough that the per-slice flush loop never reallocates (kLaneBlock plus
  /// one parent's worst-case control count). Every scratch lease takes it.
  detail::ScratchShape scratch_shape(std::size_t obstacle_count) const;

  /// Fail-fast check that `attr` came from compute_attributed over this
  /// obstacle set and these params.
  void check_attribution(std::span<const ObstacleTimeline> obstacles,
                         const TubeAttribution& attr) const;

  /// The one driver of every tube entry point: allocates the tube, starts
  /// it, runs propagate() over the remaining slice loops and takes the
  /// volume. At `jstar` == 0 the start is the seed test — activate slice 0,
  /// consult the ego, and return the empty tube if it is rejected; `base`
  /// may be null. A re-propagation that diverges from `base` at slice
  /// `jstar` >= 1 instead copies base slices [0, jstar) and restores the
  /// volume and RNG snapshots taken there.
  template <class Activate, class Consult, class OnLoopBegin, class OnSliceDone>
  ReachTube drive(detail::TubeScratch& scratch, const dynamics::VehicleState& ego,
                  const AttributedTube* base, std::uint32_t jstar, Activate&& activate,
                  Consult&& consult, OnLoopBegin&& on_loop_begin,
                  OnSliceDone&& on_slice_done) const;

  /// Rebuilds `scratch.active` for one slice: obstacles whose footprint disc
  /// cannot touch the seed's conservative reachable disc — or whose index is
  /// flagged in `scratch.excluded` — are filtered out.
  void build_active_set(std::span<const ObstacleTimeline> obstacles,
                        const dynamics::VehicleState& seed, detail::TubeScratch& scratch,
                        common::SliceIdx slice) const;

  /// Fail-fast validation that every timeline was sliced for these params
  /// and carries precomputed circumradii, with finite box centres and radii
  /// (a NaN footprint intersects nothing and would silently vanish).
  void check_timelines(std::span<const ObstacleTimeline> obstacles) const;

  /// Outcome of one survival test: the class and, for kSole, the obstacle
  /// index that alone rejected the candidate.
  struct Verdict {
    BlockerClass cls = BlockerClass::kPassed;
    std::uint32_t sole_blocker = 0;

    bool passed() const { return cls == BlockerClass::kPassed; }
  };

  /// The one survival test of every tube: the candidate's footprint, then
  /// the map test (off-map wins outright), then the slice's *active*
  /// obstacles (indices into `obstacles`, pre-filtered per slice against a
  /// conservative reachable disc) in index order — circumradius pretest,
  /// then SAT. Hits are counted up to `max_hits`: 1 answers pass/fail and
  /// stops at the first hit (reported as kSole); 2 separates kSole from
  /// kMulti for the attribution record.
  Verdict survival_test(const roadmap::DrivableMap& map, const dynamics::VehicleState& s,
                        std::span<const ObstacleTimeline> obstacles,
                        std::span<const std::uint32_t> active, common::SliceIdx slice,
                        int max_hits) const;

  ReachTubeParams params_;
  dynamics::BicycleModel model_;
  int slices_ = 0;
  double ego_circumradius_ = 0.0;  ///< constant of ego_dims, hoisted out of survival_test
  std::vector<dynamics::Control> boundary_set_;
  /// std::tan(boundary_set_[i].steer), hoisted out of the slice loop — the
  /// batch step kernel takes tan(phi) precomputed (same bits: same libm call
  /// on the same input either way).
  std::vector<double> boundary_tan_;
};

}  // namespace iprism::core
