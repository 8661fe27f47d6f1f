// Shared experiment pipeline for the benchmark binaries: suite execution,
// accident bookkeeping (TAS / CA / TCR as defined under the paper's
// Table III), the SMC training pipeline (training-scenario selection by
// highest pre-accident STI, per-typology action sets, episode jitter), and
// PKL planner fitting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "agents/lbc.hpp"
#include "common/cli.hpp"
#include "agents/rip.hpp"
#include "agents/ttc_aca.hpp"
#include "core/pkl.hpp"
#include "core/sti.hpp"
#include "eval/runner.hpp"
#include "rl/mlp.hpp"
#include "scenario/suite.hpp"
#include "smc/trainer.hpp"

namespace iprism::bench {

/// Factory functions so each episode gets a fresh agent/controller.
using AgentMaker = std::function<std::unique_ptr<agents::DrivingAgent>()>;
using ControllerMaker = std::function<std::unique_ptr<agents::MitigationController>()>;

AgentMaker lbc_maker();
AgentMaker rip_maker();
ControllerMaker aca_maker();
ControllerMaker smc_maker(const rl::Mlp& policy);

/// Shared default evaluation seed so every bench sees the same suites.
inline constexpr std::uint64_t kSuiteSeed = 20240624;

/// Wall-clock stopwatch for bench table reporting. Reads the telemetry
/// clock (common::telemetry::trace_now_ns) so steady_clock stays confined
/// to src/common/telemetry — the telemetry-discipline lint rule rejects raw
/// std::chrono::*_clock::now() timing anywhere else in src/ and bench/.
class WallTimer {
 public:
  WallTimer() { restart(); }
  void restart();
  double elapsed_ms() const;

 private:
  std::uint64_t start_ns_ = 0;
};

/// Writes the process's telemetry (Chrome about://tracing JSON + metric
/// summaries) to the path given by `--telemetry=<path>`, if present. No-op
/// without the flag. Call at the end of a bench main(); prints where the
/// trace went (or a warning when the build compiled telemetry out).
void maybe_write_telemetry(const common::CliArgs& args);

/// Same, but first streams a short RiskMonitor profiling pass (a couple of
/// LBC-driven episodes with monitor.update per tick, STI fanned over a
/// small pool) so the exported trace always carries reachtube/STI/monitor/
/// thread-pool spans — even from benches whose tables never touch STI
/// (Table 1 is baseline accident rates only). Runs only when the flag is
/// set and only after the tables printed; experiment output is unchanged.
void maybe_write_telemetry(const common::CliArgs& args,
                           const scenario::ScenarioFactory& factory);

/// True when this binary is a trustworthy timing build: NDEBUG set, no
/// sanitizer instrumentation, no IPRISM_ENABLE_DCHECKS. The sanitizer
/// checks matter because the asan/tsan presets use RelWithDebInfo — NDEBUG
/// *is* defined there, which is exactly how the original debug-tainted
/// baseline slipped through an NDEBUG-only guard.
bool release_benchmark_build();

/// Human-readable reason release_benchmark_build() is false ("" when true).
const char* nonrelease_build_reason();

/// Guards committed benchmark numbers against non-release builds: when
/// release_benchmark_build() is false, prints a loud stderr warning — and
/// with `--require-release` on the command line (as CI passes when
/// recording numbers) exits non-zero instead, so a tainted baseline can
/// never be recorded silently again. Call first thing in every bench main().
void require_release_guard(int argc, const char* const* argv);

/// Aggregate outcome of a (suite x agent [x controller]) evaluation.
struct SuiteOutcome {
  int scenarios = 0;
  int accidents = 0;  ///< accidents of THIS configuration
  std::vector<bool> accident_flags;  ///< per scenario, this configuration
  std::vector<std::optional<double>> first_mitigation;  ///< per scenario
  double mean_first_mitigation() const;
};

/// Runs every spec with fresh agent/controller instances. `num_threads > 0`
/// rolls scenarios out in parallel on a common::ThreadPool: every episode is
/// self-contained (fresh world, fresh agent/controller from the makers) and
/// results are aggregated by scenario index, so accident counts, flags, and
/// mitigation times are byte-identical to the serial run (the benches'
/// `--threads` flag plumbs into this).
SuiteOutcome run_suite(const scenario::ScenarioFactory& factory,
                       const std::vector<scenario::ScenarioSpec>& specs,
                       const AgentMaker& agent, const ControllerMaker& controller = {},
                       int num_threads = 0);

/// Collision-avoidance summary versus a baseline run (Table III semantics:
/// TAS = baseline accidents, CA = baseline accidents avoided by the
/// mitigated configuration, TCR = mitigated accidents / scenarios).
struct CaSummary {
  int tas = 0;
  int ca = 0;
  double ca_percent = 0.0;
  double tcr_percent = 0.0;
};
CaSummary ca_summary(const SuiteOutcome& baseline, const SuiteOutcome& mitigated);

/// Picks the training scenario per the paper: among (up to `max_checked`)
/// accident scenarios of the baseline agent, the one with the highest mean
/// STI over the last two seconds before the accident. Scenarios whose
/// accident occurs within `min_accident_time` seconds of the start are
/// excluded — they have no mitigation window, so training on them teaches
/// nothing (the paper's CARLA scenarios all have a lead-in phase). Returns
/// the index into `specs`, or std::nullopt if no scenario qualifies.
std::optional<std::size_t> select_training_spec(const scenario::ScenarioFactory& factory,
                                                const std::vector<scenario::ScenarioSpec>& specs,
                                                const core::StiCalculator& sti,
                                                int max_checked = 40,
                                                double min_accident_time = 5.0);

/// SMC training pipeline for one typology (action set chosen per the paper:
/// braking for the forward typologies, braking+acceleration for rear-end).
struct SmcPipelineOptions {
  int episodes = 80;
  double jitter = 0.10;
  bool use_sti = true;
  std::uint64_t seed = 1234;
};
rl::Mlp train_smc_for(const scenario::ScenarioFactory& factory,
                      const scenario::ScenarioSpec& training_spec,
                      scenario::Typology typology, const SmcPipelineOptions& options,
                      smc::SmcTrainStats* stats = nullptr);

/// Loads a cached policy from `cache_path` if present, otherwise runs the
/// full pipeline (training-scenario selection + training) and saves the
/// result there. Pass an empty path to force training without caching.
/// Returns std::nullopt when the baseline has no accidents to train from.
std::optional<rl::Mlp> load_or_train_smc(const scenario::ScenarioFactory& factory,
                                         const std::vector<scenario::ScenarioSpec>& specs,
                                         scenario::Typology typology,
                                         const SmcPipelineOptions& options,
                                         const std::string& cache_path);

/// Canonical cache filename for a typology/variant.
std::string policy_cache_path(const std::string& dir, scenario::Typology typology,
                              bool use_sti);

/// Fits PKL planner weights on demonstrations from the given typologies
/// (paper Table II: PKL-All = all typologies, PKL-Holdout = all except the
/// two cut-ins).
core::PklWeights fit_pkl_on(const scenario::ScenarioFactory& factory,
                            const std::vector<scenario::Typology>& typologies,
                            int scenarios_per_typology, std::uint64_t seed);

}  // namespace iprism::bench
