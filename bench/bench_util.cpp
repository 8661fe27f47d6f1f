#include "bench_util.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>

#include "common/check.hpp"
#include "core/monitor.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/stats.hpp"
#include "eval/pkl_training.hpp"
#include "eval/series.hpp"
#include "smc/controller.hpp"

// Sanitizer instrumentation detection: gcc defines __SANITIZE_*__, clang
// exposes __has_feature. Checked in addition to NDEBUG because the
// asan/tsan presets build RelWithDebInfo — NDEBUG alone calls those
// "release".
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPRISM_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IPRISM_BENCH_SANITIZED 1
#endif
#endif

namespace iprism::bench {

const char* nonrelease_build_reason() {
#if !defined(NDEBUG)
  return "built without NDEBUG (assertions on, optimization uncertain)";
#elif defined(IPRISM_BENCH_SANITIZED)
  return "sanitizer instrumentation (asan/ubsan/tsan preset)";
#elif defined(IPRISM_ENABLE_DCHECKS)
  return "hot-path debug checks enabled (IPRISM_ENABLE_DCHECKS)";
#else
  return "";
#endif
}

bool release_benchmark_build() { return nonrelease_build_reason()[0] == '\0'; }

void require_release_guard(int argc, const char* const* argv) {
  bool require = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--require-release") require = true;
  }
  if (release_benchmark_build()) return;
  std::cerr
      << "\n"
      << "=====================================================================\n"
      << "  WARNING: this is not a release benchmark build:\n"
      << "    " << nonrelease_build_reason() << "\n"
      << "  Its timings do not reflect the library's performance and MUST\n"
      << "  NOT be recorded as a baseline. Re-build with the release preset:\n"
      << "    cmake --preset release && cmake --build --preset release\n"
      << "=====================================================================\n"
      << std::endl;
  if (require) {
    std::cerr << "--require-release: refusing to run a non-release benchmark build."
              << std::endl;
    std::exit(3);
  }
}

void WallTimer::restart() { start_ns_ = common::telemetry::trace_now_ns(); }

double WallTimer::elapsed_ms() const {
  return static_cast<double>(common::telemetry::trace_now_ns() - start_ns_) / 1e6;
}

void maybe_write_telemetry(const common::CliArgs& args,
                           const scenario::ScenarioFactory& factory) {
  if (args.get_string("telemetry", "").empty()) return;
  // Streaming-monitor profile: the trace should show the full pipeline
  // under realistic monitor traffic, whatever the bench itself computes.
  // At least two pool threads so thread-pool spans are present even when
  // the bench ran with --threads=0.
  core::RiskMonitorParams params;
  params.tube.num_threads = std::max(args.get_int("threads", 0), 2);
  const core::RiskMonitor monitor(params);
  core::RiskSession session;
  const auto suite =
      scenario::generate_suite(factory, scenario::kAllTypologies[0], 2, kSuiteSeed);
  for (const auto& spec : suite.specs) {
    sim::World world = factory.build(spec);
    agents::LbcAgent agent;
    const int max_steps = static_cast<int>(10.0 / world.dt());
    for (int step = 0; step < max_steps; ++step) {
      monitor.update(session, world);
      world.step(agent.act(world));
      if (world.ego_collided()) break;
    }
  }
  maybe_write_telemetry(args);
}

void maybe_write_telemetry(const common::CliArgs& args) {
  const std::string path = args.get_string("telemetry", "");
  if (path.empty()) return;
#if !IPRISM_TELEMETRY_ENABLED
  std::cerr << "--telemetry=" << path
            << ": this build compiled telemetry out (IPRISM_ENABLE_TELEMETRY=OFF); "
               "the trace will contain no spans or metrics.\n";
#endif
  if (common::telemetry::MetricsRegistry::instance().write_chrome_trace_file(path)) {
    std::cout << "telemetry written to " << path
              << " (load in Chrome: about://tracing or ui.perfetto.dev)\n";
  } else {
    std::cerr << "--telemetry=" << path << ": could not open file for writing\n";
  }
}

AgentMaker lbc_maker() {
  return [] { return std::make_unique<agents::LbcAgent>(); };
}

AgentMaker rip_maker() {
  return [] { return std::make_unique<agents::RipAgent>(); };
}

ControllerMaker aca_maker() {
  return [] { return std::make_unique<agents::TtcAcaController>(); };
}

ControllerMaker smc_maker(const rl::Mlp& policy) {
  return [&policy] { return std::make_unique<smc::SmcController>(policy); };
}

double SuiteOutcome::mean_first_mitigation() const {
  common::RunningStat stat;
  for (const auto& t : first_mitigation) {
    if (t) stat.add(*t);
  }
  return stat.mean();
}

SuiteOutcome run_suite(const scenario::ScenarioFactory& factory,
                       const std::vector<scenario::ScenarioSpec>& specs,
                       const AgentMaker& agent, const ControllerMaker& controller,
                       int num_threads) {
  SuiteOutcome out;
  out.scenarios = static_cast<int>(specs.size());

  // Episodes are index-owned: each worker touches only slot i. Accident
  // flags are staged in a byte vector because concurrent writes to distinct
  // std::vector<bool> elements would race on the shared packing word.
  std::vector<unsigned char> accident(specs.size(), 0);
  out.first_mitigation.assign(specs.size(), std::nullopt);

  std::optional<common::ThreadPool> pool;
  if (num_threads > 0) pool.emplace(static_cast<std::size_t>(num_threads));
  common::parallel_for_each(pool ? &*pool : nullptr, specs.size(), [&](std::size_t i) {
    IPRISM_SCOPED_TIMER("bench.episode", "bench");
    auto driving = agent();
    std::unique_ptr<agents::MitigationController> overlay;
    if (controller) overlay = controller();
    const eval::EpisodeResult r =
        eval::run_episode(factory.build(specs[i]), *driving, overlay.get());
    accident[i] = r.ego_accident ? 1 : 0;
    out.first_mitigation[i] = r.first_mitigation_time;
  });

  // Index-ordered aggregation: identical to the serial loop's bookkeeping.
  out.accident_flags.reserve(specs.size());
  for (unsigned char flag : accident) {
    out.accident_flags.push_back(flag != 0);
    if (flag != 0) ++out.accidents;
  }
  return out;
}

CaSummary ca_summary(const SuiteOutcome& baseline, const SuiteOutcome& mitigated) {
  IPRISM_CHECK(baseline.scenarios == mitigated.scenarios,
               "ca_summary: outcome sizes differ");
  CaSummary s;
  s.tas = baseline.accidents;
  for (std::size_t i = 0; i < baseline.accident_flags.size(); ++i) {
    if (baseline.accident_flags[i] && !mitigated.accident_flags[i]) ++s.ca;
  }
  s.ca_percent = s.tas > 0 ? 100.0 * s.ca / s.tas : 0.0;
  s.tcr_percent =
      mitigated.scenarios > 0 ? 100.0 * mitigated.accidents / mitigated.scenarios : 0.0;
  return s;
}

std::optional<std::size_t> select_training_spec(const scenario::ScenarioFactory& factory,
                                                const std::vector<scenario::ScenarioSpec>& specs,
                                                const core::StiCalculator& sti,
                                                int max_checked,
                                                double min_accident_time) {
  std::optional<std::size_t> best;
  double best_score = -1.0;
  int checked = 0;
  core::RiskSession session;
  for (std::size_t i = 0; i < specs.size() && checked < max_checked; ++i) {
    agents::LbcAgent lbc;
    const eval::EpisodeResult r = eval::run_episode(factory.build(specs[i]), lbc);
    if (!r.ego_accident || r.accident_time < min_accident_time) continue;
    ++checked;
    common::RunningStat window;
    const int back = static_cast<int>(2.0 / r.dt);  // last two seconds
    for (int step = std::max(0, r.accident_step - back); step <= r.accident_step;
         step += 4) {
      const auto scene = r.snapshot_at(step);
      window.add(sti.combined(session, *scene.map, scene.ego.state,
                              common::Seconds{scene.time}, r.ground_truth_forecasts(step)));
    }
    if (window.count() > 0 && window.mean() > best_score) {
      best_score = window.mean();
      best = i;
    }
  }
  return best;
}

rl::Mlp train_smc_for(const scenario::ScenarioFactory& factory,
                      const scenario::ScenarioSpec& training_spec,
                      scenario::Typology typology, const SmcPipelineOptions& options,
                      smc::SmcTrainStats* stats) {
  smc::SmcTrainConfig cfg;
  cfg.episodes = options.episodes;
  cfg.reward.use_sti = options.use_sti;
  cfg.seed = options.seed;
  if (typology == scenario::Typology::kRearEnd) {
    // §V-C "Extension to other mitigation actions": rear-end needs the
    // acceleration action and benefits from a longer credit horizon.
    cfg.action_count = smc::kActionCountBrakeAccel;
    cfg.ddqn.gamma = 0.98;
    cfg.episodes = options.episodes + options.episodes / 2;
  } else {
    cfg.action_count = smc::kActionCountBrakeOnly;
  }

  agents::LbcAgent base;
  smc::SmcTrainer trainer(cfg);
  common::Rng jitter_rng(options.seed ^ 0x5EEDULL);
  return trainer.train(
      [&](int) {
        return factory.build(scenario::jitter_spec(training_spec, options.jitter, jitter_rng));
      },
      base, stats);
}

std::string policy_cache_path(const std::string& dir, scenario::Typology typology,
                              bool use_sti) {
  std::string name(scenario::typology_name(typology));
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  return dir + "/smc_policy_" + name + (use_sti ? "" : "_no_sti") + ".txt";
}

std::optional<rl::Mlp> load_or_train_smc(const scenario::ScenarioFactory& factory,
                                         const std::vector<scenario::ScenarioSpec>& specs,
                                         scenario::Typology typology,
                                         const SmcPipelineOptions& options,
                                         const std::string& cache_path) {
  if (!cache_path.empty()) {
    std::ifstream in(cache_path);
    if (in) return rl::Mlp::load(in);
  }
  const core::StiCalculator sti;
  const auto idx = select_training_spec(factory, specs, sti);
  if (!idx) return std::nullopt;
  rl::Mlp policy = train_smc_for(factory, specs[*idx], typology, options);
  if (!cache_path.empty()) {
    std::ofstream out(cache_path);
    if (out) policy.save(out);
  }
  return policy;
}

core::PklWeights fit_pkl_on(const scenario::ScenarioFactory& factory,
                            const std::vector<scenario::Typology>& typologies,
                            int scenarios_per_typology, std::uint64_t seed) {
  const core::PklMetric metric;  // prior weights; used only to roll candidates
  std::vector<core::PklTrainingExample> data;
  for (scenario::Typology t : typologies) {
    const auto suite = scenario::generate_suite(factory, t, scenarios_per_typology, seed);
    for (const auto& spec : suite.specs) {
      agents::LbcAgent lbc;
      const eval::EpisodeResult r = eval::run_episode(factory.build(spec), lbc);
      auto examples = eval::collect_pkl_examples(r, metric, /*stride=*/8);
      data.insert(data.end(), std::make_move_iterator(examples.begin()),
                  std::make_move_iterator(examples.end()));
    }
  }
  IPRISM_CHECK(!data.empty(), "fit_pkl_on: no training demonstrations collected");
  common::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  return core::fit_pkl_weights(data, /*epochs=*/8, /*learning_rate=*/0.02, rng);
}

}  // namespace iprism::bench
