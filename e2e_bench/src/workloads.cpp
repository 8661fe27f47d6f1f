#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "agents/lbc.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/monitor.hpp"
#include "decompose.hpp"
#include "eval/runner.hpp"
#include "eval/stream_runner.hpp"
#include "roadmap/straight_road.hpp"
#include "scenario/factory.hpp"
#include "scenario/suite.hpp"
#include "sim/behaviors.hpp"
#include "smc/controller.hpp"
#include "smc/features.hpp"
#include "smc/trainer.hpp"

namespace e2e {

namespace {

using namespace iprism;

// --- Work per run -----------------------------------------------------------
//
// Every run does a fixed amount of work, scaled by --seconds, so two builds
// given the same seed and seconds see identical inputs. The rates below
// size each workload to roughly --seconds of measured time on a 4-CPU
// x86-64 box; the traced run covers a fixed share of the same inputs.
// Set-up repeats until both floors are met; setup_s is their median.
constexpr int kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 0.25;
constexpr double kTypologyScenariosPerSecond = 2.5;
constexpr int kDenseEpisodeSteps = 60;  // 6 s scenes
constexpr double kDenseScenesPerSecond = 2.0;
constexpr double kEpisodeTraceShare = 0.2;  // of the scenarios, in a traced run
constexpr int kFleetStreamsPerWorker = 4;
constexpr double kFleetSeconds = 10.0;  // stream horizon, no collision stop
constexpr double kFleetBatchesPerSecond = 1.0;
constexpr int kSmcEpisodes = 10;
constexpr double kSmcCallsPerSecond = 0.5;
constexpr scenario::Typology kSmcTypology = scenario::Typology::kGhostCutIn;
constexpr int kSmcSuiteSize = 12;  // candidates for the training-spec selection

int scaled(double seconds, double per_second, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(seconds * per_second)));
}

/// SplitMix64 of (seed, salt): independent streams per workload part.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// An untrained policy of the trained shape (18-48-48-2, brake-only), seeded:
/// inference cost depends on the shape, not on the weights.
smc::SmcController make_policy(std::uint64_t seed) {
  common::Rng rng(derive(seed, 0x501));
  return smc::SmcController(
      rl::Mlp({smc::kFeatureCount, 48, 48, smc::kActionCountBrakeOnly}, rng));
}

/// Set-up times of the repeated set-ups.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> suite_s;
  std::vector<double> build_world_us;
};

/// Runs `once` (one whole set-up) repeatedly, recording each duration.
template <class Once>
void repeat_setup(SetupTimes& setup, Once&& once) {
  const std::uint64_t begin = now_ns();
  for (int rep = 0;
       rep < kSetupMinRepeats || seconds_between(begin, now_ns()) < kSetupMinSeconds; ++rep) {
    const std::uint64_t start = now_ns();
    once();
    setup.total_s.push_back(seconds_between(start, now_ns()));
  }
}

/// What one measured pass saw.
struct PassStats {
  std::vector<double> tick_ms;   ///< one sample per tick
  /// Wall time of the same ticks, where tick_ms holds thread CPU time.
  std::vector<double> tick_wall_ms;
  std::vector<double> infer_us;  ///< extract_features + policy_action
  long ticks = 0;
  long decisions = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Digest digest;
};

/// Risk level the monitor's thresholds imply for an STI value.
core::RiskLevel implied_level(double sti, const core::RiskMonitorParams& params) {
  if (sti >= params.critical_threshold) return core::RiskLevel::kCritical;
  if (sti >= params.caution_threshold) return core::RiskLevel::kCaution;
  return core::RiskLevel::kSafe;
}

/// Output checks on one monitor assessment; "" when it passes.
std::string check_assessment(const core::RiskMonitor::Assessment& a,
                             const core::RiskMonitorParams& params, const sim::World& world) {
  if (!(a.sti_combined >= 0.0 && a.sti_combined <= 1.0)) return "STI outside [0, 1]";
  if (a.level < implied_level(a.sti_combined, params)) {
    return "risk level below the level its STI implies";
  }
  if (a.riskiest_actor) {
    if (!world.has_actor(*a.riskiest_actor) || *a.riskiest_actor == world.ego_id()) {
      return "riskiest actor is not a non-ego actor of the scene";
    }
    if (!(a.riskiest_sti > 0.0 && a.riskiest_sti <= 1.0)) return "riskiest STI outside (0, 1]";
  }
  return "";
}

/// Timed SMC decision on `world`: features + greedy policy, not applied.
std::string infer(const smc::SmcController& policy, const sim::World& world, PassStats& stats,
                  SpanLog* log, std::int64_t tick, std::int64_t parent = -1) {
  const std::uint64_t start = now_ns();
  const std::vector<double> features = smc::extract_features(world);
  const smc::SmcAction action = policy.policy_action(features);
  const std::uint64_t end = now_ns();
  stats.infer_us.push_back(static_cast<double>(end - start) / 1e3);
  ++stats.decisions;
  if (log) log->add("smc.inference", start, end, tick, parent);
  const int a = static_cast<int>(action);
  return a >= 0 && a < policy.policy().output_size() ? "" : "SMC action outside its set";
}

// --- Closed-loop episodes (typology_ticks, dense_blockers) -------------------

struct Episode {
  sim::World world;
  int route_lane = 1;
};

struct EpisodeRules {
  int max_steps = 300;
  bool stop_at_road_end = true;
  bool collisions_fail = false;  ///< any collision is a failed check
};

/// Tracing state of a pass: spans plus the captured tick inputs.
struct Tracing {
  SpanLog spans;
  std::vector<CapturedStream> captured;
};

/// Runs each episode to its end on the calling thread: per tick
/// RiskMonitor::update (timed), an SMC decision every decision period
/// (timed, not applied), then LbcAgent::act and World::step.
void run_episodes(std::vector<Episode> episodes, const core::RiskMonitor& monitor,
                  const core::RiskMonitorParams& params, const EpisodeRules& rules,
                  const smc::SmcController& policy, PassStats& stats, Report& report,
                  Tracing* tracing) {
  const int decision_period = smc::SmcControlParams{}.decision_period;
  std::int64_t next_tick = 0;
  const double cpu_start = process_cpu_s();
  const std::uint64_t wall_start = now_ns();
  for (Episode& ep : episodes) {
    sim::World& world = ep.world;
    core::RiskSession session;
    agents::LbcAgent::Params agent_params;
    agent_params.route_lane = ep.route_lane;
    agents::LbcAgent agent(agent_params);
    CapturedStream* captured = nullptr;
    if (tracing) {
      captured = &tracing->captured.emplace_back();
      captured->route_lane = ep.route_lane;
    }
    for (int step = 0; step < rules.max_steps; ++step) {
      const std::int64_t tick = next_tick++;
      ++report.attempted;
      ++stats.ticks;
      std::optional<sim::World> input;
      if (captured) input = world.clone();
      std::string failure;
      bool stop = false;
      try {
        // The root span goes in first so its children can name it.
        const std::int64_t root = tracing ? tracing->spans.add("tick", 0, 0, tick) : -1;
        const std::uint64_t t0 = now_ns();
        const core::RiskMonitor::Assessment a = monitor.update(session, world);
        const std::uint64_t t1 = now_ns();
        stats.tick_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        failure = check_assessment(a, params, world);
        stats.digest.add(a.sti_combined);
        stats.digest.add(static_cast<int>(a.level));
        stats.digest.add(a.riskiest_actor.value_or(-1));

        if (step % decision_period == 0) {
          const std::string bad =
              infer(policy, world, stats, tracing ? &tracing->spans : nullptr, tick, root);
          if (failure.empty()) failure = bad;
        }
        const std::uint64_t t2 = now_ns();
        const dynamics::Control u = agent.act(world);
        const std::uint64_t t3 = now_ns();
        world.step(u);
        const std::uint64_t t4 = now_ns();
        if (tracing) {
          tracing->spans.set_interval(root, t0, t4);
          tracing->spans.add("monitor.update", t0, t1, tick, root);
          tracing->spans.add("agents.lbc_act", t2, t3, tick, root);
          tracing->spans.add("sim.world_step", t3, t4, tick, root);
          captured->ticks.push_back(CapturedTick{tick, std::move(*input), a});
        }
        if (rules.collisions_fail && !world.collisions().empty()) {
          if (failure.empty()) failure = "collision in a scene built to stay collision-free";
          stop = true;
        }
        if (world.ego_collided()) stop = true;
        if (rules.stop_at_road_end &&
            world.map().arclength(world.ego().state.position()) >=
                world.map().road_length() - eval::RunOptions{}.end_margin) {
          stop = true;
        }
      } catch (const std::exception& e) {
        failure = std::string("threw: ") + e.what();
        stop = true;
      }
      if (!failure.empty()) report.failed_op("tick " + std::to_string(tick) + ": " + failure);
      if (stop) break;
    }
  }
  stats.wall_s += seconds_between(wall_start, now_ns());
  stats.cpu_s += process_cpu_s() - cpu_start;
}

std::vector<Episode> clone_episodes(const std::vector<Episode>& protos, std::size_t count) {
  std::vector<Episode> out;
  for (std::size_t i = 0; i < std::min(count, protos.size()); ++i) {
    out.push_back(Episode{protos[i].world.clone(), protos[i].route_lane});
  }
  return out;
}

// --- Probe agent (fleet_streams, smc_training) ------------------------------

/// What a probe saw on one stream (fleet) or over a whole training call.
struct ProbeLog {
  PassStats stats;
  SpanLog spans;
  std::vector<CapturedStream> captured;
  std::vector<std::string> failures;
  std::int64_t next_tick = 0;
  long acts_since_reset = 0;
  std::uint64_t last_exit_ns = 0;  ///< 0 = no open tick interval
  std::uint64_t last_exit_cpu_ns = 0;
};

struct ProbeOptions {
  int route_lane = 1;
  /// A tick starts on every `tick_every`-th act() after reset (1 for the
  /// stream runner; the decision period for the SMC trainer).
  int tick_every = 1;
  /// An SMC decision is timed on every `infer_every`-th tick.
  int infer_every = 1;
  /// Fleet streams pay session set-up before their first act(): count the
  /// first tick from the probe's construction. Training episodes start with
  /// a partial decision, so their first tick is not counted.
  bool first_tick_from_construction = false;
  /// Time ticks by the CPU time of the thread that runs the stream instead
  /// of by wall time (see fleet_streams); wall times go to tick_wall_ms.
  bool thread_cpu_ticks = false;
  bool trace = false;
  const smc::SmcController* policy = nullptr;
};

/// Driving agent handed to the program: delegates to LbcAgent and times the
/// program's work between its calls. A tick is the interval from the probe's
/// return on one tick to its entry on the next, so it excludes the probe's
/// own work (the timed SMC decision, world capture) and, for the stream
/// runner, covers World::step plus the next RiskMonitor::update.
class TickProbe final : public agents::DrivingAgent {
 public:
  TickProbe(ProbeLog& log, const ProbeOptions& options)
      : log_(log), options_(options), agent_(lbc_params(options.route_lane)) {
    open_stream();
    if (options_.first_tick_from_construction) mark_exit();
  }

  dynamics::Control act(const sim::World& world) override {
    const std::uint64_t enter = now_ns();
    const std::uint64_t enter_cpu = options_.thread_cpu_ticks ? thread_cpu_ns() : 0;
    const bool starts_tick = log_.acts_since_reset++ % options_.tick_every == 0;
    std::int64_t tick = log_.next_tick - 1;
    if (starts_tick) {
      tick = log_.next_tick++;
      if (log_.last_exit_ns != 0) {
        const double wall_ms = static_cast<double>(enter - log_.last_exit_ns) / 1e6;
        if (options_.thread_cpu_ticks) {
          log_.stats.tick_ms.push_back(static_cast<double>(enter_cpu - log_.last_exit_cpu_ns) /
                                       1e6);
          log_.stats.tick_wall_ms.push_back(wall_ms);
        } else {
          log_.stats.tick_ms.push_back(wall_ms);
        }
        if (options_.trace) log_.spans.add("tick", log_.last_exit_ns, enter, tick);
      }
      if (log_.stats.ticks++ % options_.infer_every == 0) {
        const std::string bad =
            infer(*options_.policy, world, log_.stats, options_.trace ? &log_.spans : nullptr,
                  tick);
        if (!bad.empty()) log_.failures.push_back(bad);
      }
      if (options_.trace) {
        log_.captured.back().ticks.push_back(CapturedTick{tick, world.clone(), std::nullopt});
      }
    }
    const std::uint64_t a0 = now_ns();
    const dynamics::Control u = agent_.act(world);
    const std::uint64_t a1 = now_ns();
    if (options_.trace) log_.spans.add("agents.lbc_act", a0, a1, tick);
    if (starts_tick) mark_exit();
    return u;
  }

  void reset() override {
    agent_.reset();
    log_.acts_since_reset = 0;
    if (!options_.first_tick_from_construction) {
      log_.last_exit_ns = 0;
      open_stream();
    }
  }

  std::string_view name() const override { return "e2e-probe"; }

 private:
  static agents::LbcAgent::Params lbc_params(int route_lane) {
    agents::LbcAgent::Params p;
    p.route_lane = route_lane;
    return p;
  }

  void mark_exit() {
    if (options_.thread_cpu_ticks) log_.last_exit_cpu_ns = thread_cpu_ns();
    log_.last_exit_ns = now_ns();
  }

  void open_stream() {
    if (!options_.trace) return;
    if (log_.captured.empty() || !log_.captured.back().ticks.empty()) {
      log_.captured.emplace_back().route_lane = options_.route_lane;
    }
  }

  ProbeLog& log_;
  ProbeOptions options_;
  agents::LbcAgent agent_;
};

/// Folds per-stream probe logs (in stream order) into one pass.
void merge_probe(ProbeLog& from, PassStats& into, Tracing* tracing) {
  into.tick_ms.insert(into.tick_ms.end(), from.stats.tick_ms.begin(), from.stats.tick_ms.end());
  into.tick_wall_ms.insert(into.tick_wall_ms.end(), from.stats.tick_wall_ms.begin(),
                           from.stats.tick_wall_ms.end());
  into.infer_us.insert(into.infer_us.end(), from.stats.infer_us.begin(),
                       from.stats.infer_us.end());
  into.decisions += from.stats.decisions;
  if (tracing) {
    tracing->spans.append(from.spans);
    for (CapturedStream& s : from.captured) {
      if (!s.ticks.empty()) tracing->captured.push_back(std::move(s));
    }
  }
}

// --- Reporting ---------------------------------------------------------------

/// End-to-end metrics of a timed run. `repeats` holds one pass per repeat of
/// identical work (fleet batches, training calls) or a single pass; each
/// metric is the median of its per-repeat values, so one repeat slowed by
/// the machine does not move it.
void add_end_to_end(Report& report, const SetupTimes& setup,
                    const std::vector<PassStats>& repeats) {
  std::vector<double> rate, p50, p99, decisions;
  PassStats pooled;
  for (const PassStats& p : repeats) {
    rate.push_back(static_cast<double>(p.ticks) / p.wall_s);
    p50.push_back(percentile_of(p.tick_ms, 50.0));
    p99.push_back(percentile_of(p.tick_ms, 99.0));
    decisions.push_back(static_cast<double>(p.decisions) / p.wall_s);
    pooled.tick_ms.insert(pooled.tick_ms.end(), p.tick_ms.begin(), p.tick_ms.end());
    pooled.tick_wall_ms.insert(pooled.tick_wall_ms.end(), p.tick_wall_ms.begin(),
                               p.tick_wall_ms.end());
    pooled.infer_us.insert(pooled.infer_us.end(), p.infer_us.begin(), p.infer_us.end());
  }
  report.metric("setup_s", median_of(setup.total_s), "s");
  report.metric("ticks_per_s", median_of(rate), "1/s");
  report.metric("tick_p50_ms", median_of(p50), "ms");
  report.metric("tick_p99_ms", median_of(p99), "ms");
  report.metric("decisions_per_s", median_of(decisions), "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::string per_repeat = "ticks_per_s per repeat:";
  for (double r : rate) per_repeat += " " + std::to_string(static_cast<long>(std::lround(r)));
  report.note(per_repeat);
  report.timing_note("tick (all repeats)", pooled.tick_ms, "ms");
  if (!pooled.tick_wall_ms.empty()) {
    report.timing_note("tick wall (all repeats)", pooled.tick_wall_ms, "ms");
  }
  report.timing_note("smc inference", pooled.infer_us, "us");
  report.timing_note("setup", setup.total_s, "s");
}

/// Per-layer metrics measured by the workload itself (the rest come from
/// decompose()).
struct WorkloadLayers {
  double pool_threads = 1.0;
  double speedup_vs_serial = 1.0;  ///< 1 where the workload runs serially
};

void add_workload_layers(Report& report, const SetupTimes& setup, const PassStats& timed_pass,
                         const PassStats& traced_pass, const WorkloadLayers& layers) {
  report.metric("scenario.suite_s", median_of(setup.suite_s), "s");
  report.metric("scenario.build_world_us", median_of(setup.build_world_us), "us");
  report.metric("pool.threads", layers.pool_threads, "count");
  report.metric("pool.busy_frac", timed_pass.cpu_s / (timed_pass.wall_s * layers.pool_threads),
                "ratio");
  report.metric("fleet.speedup_vs_serial", layers.speedup_vs_serial, "ratio");
  // The paper's SMC inference latency. Per-layer rather than end-to-end: a
  // few-µs call right after a cache-thrashing tick does not repeat within a
  // tenth from run to run.
  report.metric("smc_inference_p50_us", median_of(timed_pass.infer_us), "us");
  const double untraced = median_of(timed_pass.tick_ms);
  report.metric("trace.overhead_frac", (median_of(traced_pass.tick_ms) - untraced) / untraced,
                "ratio");
  report.timing_note("tick (untraced pass)", timed_pass.tick_ms, "ms");
  report.timing_note("tick (traced pass)", traced_pass.tick_ms, "ms");
}

/// Ends a traced run: the workload's own layer metrics, the decomposition of
/// the captured ticks, and the span file.
void finish_traced(const RunConfig& config, Report& report, const SetupTimes& setup,
                   const PassStats& untraced, const PassStats& traced, Tracing& tracing,
                   const WorkloadLayers& layers, const core::RiskMonitorParams& monitor,
                   const smc::SmcController& policy, int action_count) {
  add_workload_layers(report, setup, untraced, traced, layers);
  DecomposeOptions opts;
  opts.monitor = monitor;
  opts.policy = &policy;
  opts.action_count = action_count;
  opts.seed = derive(config.seed, 0xDEC);
  opts.tick_us = median_of(traced.tick_ms) * 1e3;
  SpanLog decomposition;
  decompose(tracing.captured, opts, decomposition, report);
  if (config.trace_out.empty()) return;
  tracing.spans.append(decomposition);
  std::ofstream out(config.trace_out);
  if (!out) throw std::runtime_error("cannot write trace file " + config.trace_out);
  tracing.spans.write_json(out);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Shared shape of the two closed-loop workloads ----------------------------

struct ClosedLoop {
  std::vector<Episode> protos;  ///< built once per set-up; every pass clones them
  EpisodeRules rules;
};

Report run_closed_loop(const RunConfig& config, const core::RiskMonitorParams& params,
                       const std::function<ClosedLoop(SetupTimes&)>& setup_once) {
  Report report;
  SetupTimes setup;
  ClosedLoop loop;
  std::optional<core::RiskMonitor> monitor;
  repeat_setup(setup, [&] {
    loop = setup_once(setup);
    monitor.emplace(params);
  });
  const smc::SmcController policy = make_policy(config.seed);

  // Warm-up: one episode, outside every measurement.
  {
    PassStats warm;
    Report scratch;
    run_episodes(clone_episodes(loop.protos, 1), *monitor, params, loop.rules, policy, warm,
                 scratch, nullptr);
  }

  if (!config.trace) {
    std::vector<PassStats> pass(1);
    run_episodes(clone_episodes(loop.protos, loop.protos.size()), *monitor, params, loop.rules,
                 policy, pass[0], report, nullptr);
    report.digest = pass[0].digest.value();
    add_end_to_end(report, setup, pass);
    return report;
  }

  const auto count = static_cast<std::size_t>(std::max(
      1.0, std::round(kEpisodeTraceShare * static_cast<double>(loop.protos.size()))));
  PassStats untraced;
  Report scratch;
  run_episodes(clone_episodes(loop.protos, count), *monitor, params, loop.rules, policy,
               untraced, scratch, nullptr);
  PassStats traced;
  Tracing tracing;
  run_episodes(clone_episodes(loop.protos, count), *monitor, params, loop.rules, policy, traced,
               report, &tracing);
  if (untraced.digest.value() != traced.digest.value()) {
    report.failed_op("traced pass outputs differ from the untraced pass");
  }
  report.digest = traced.digest.value();
  finish_traced(config, report, setup, untraced, traced, tracing, WorkloadLayers{}, params,
                policy, policy.policy().output_size());
  return report;
}

// --- typology_ticks -------------------------------------------------------------

/// Seeded suite over the five typologies, interleaved so any prefix mixes them.
std::vector<scenario::ScenarioSpec> typology_suite(const scenario::ScenarioFactory& factory,
                                                   int per_typology, std::uint64_t seed) {
  std::vector<std::vector<scenario::ScenarioSpec>> by_typology;
  std::uint64_t salt = 0;
  for (scenario::Typology t : scenario::kAllTypologies) {
    by_typology.push_back(
        scenario::generate_suite(factory, t, per_typology, derive(seed, ++salt)).specs);
  }
  std::vector<scenario::ScenarioSpec> out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(per_typology); ++i) {
    for (const auto& specs : by_typology) {
      if (i < specs.size()) out.push_back(specs[i]);
    }
  }
  return out;
}

Report typology_ticks(const RunConfig& config) {
  core::RiskMonitorParams params;
  params.tube.num_threads = 0;
  const int per_typology =
      std::max(1, scaled(config.seconds, kTypologyScenariosPerSecond, 5) / 5);
  return run_closed_loop(config, params, [&](SetupTimes& setup) {
    const scenario::ScenarioFactory factory;
    ClosedLoop loop;
    loop.rules.max_steps = static_cast<int>(factory.config().episode_seconds / factory.config().dt);
    const std::uint64_t start = now_ns();
    const auto specs = typology_suite(factory, per_typology, config.seed);
    setup.suite_s.push_back(seconds_between(start, now_ns()));
    for (const auto& spec : specs) {
      const std::uint64_t b0 = now_ns();
      loop.protos.push_back(Episode{factory.build(spec), factory.config().ego_lane});
      setup.build_world_us.push_back(static_cast<double>(now_ns() - b0) / 1e3);
    }
    return loop;
  });
}

// --- dense_blockers -------------------------------------------------------------

/// A five-lane platoon around the ego: 32 vehicles ahead of, beside and
/// behind it, all within reach of the 3 s tube. Each lane moves at one
/// speed (so nobody closes on anybody in its lane); the ego's lane moves at
/// the LBC cruise speed, so the ego follows without braking.
constexpr int kDenseLanes = 5;
constexpr int kDenseEgoLane = 2;
constexpr double kDenseEgoS = 80.0;

struct DenseVehicle {
  int lane = 0;
  double s = 0.0;  ///< arclength
  double speed = 0.0;
};

/// Draws one seeded scene (the dense counterpart of a scenario spec).
std::vector<DenseVehicle> dense_scene(std::uint64_t seed, double ego_speed) {
  common::Rng rng(seed);
  std::vector<DenseVehicle> out;
  for (int lane = 0; lane < kDenseLanes; ++lane) {
    const bool ego_lane = lane == kDenseEgoLane;
    const double speed = ego_lane ? ego_speed : ego_speed + rng.uniform(-0.6, 0.6);
    const std::vector<double> offsets =
        ego_lane ? std::vector<double>{-15.0, 14.0, 26.0, 38.0}
                 : std::vector<double>{-18.0, -9.0, 0.0, 9.0, 18.0, 27.0, 36.0};
    for (double offset : offsets) {
      out.push_back(DenseVehicle{lane, kDenseEgoS + offset + rng.uniform(-1.0, 1.0), speed});
    }
  }
  return out;
}

sim::World dense_world(const std::vector<DenseVehicle>& scene,
                       const scenario::ScenarioConfig& config) {
  auto map = std::make_shared<roadmap::StraightRoad>(kDenseLanes, config.lane_width, 600.0);
  sim::World world(map, config.dt);
  const auto state_at = [&](int lane, double s, double speed) {
    const geom::Vec2 p = map->point_at(s, map->lane_center_offset(lane));
    dynamics::VehicleState st;
    st.x = p.x;
    st.y = p.y;
    st.heading = map->heading_at(s);
    st.speed = speed;
    return st;
  };
  world.add_ego(state_at(kDenseEgoLane, kDenseEgoS, config.ego_speed));
  for (const DenseVehicle& v : scene) {
    sim::LaneFollowBehavior::Params lf;
    lf.lane = v.lane;
    lf.target_speed = v.speed;
    // The ego-lane follower keeps its gap, so it cannot rear-end the ego.
    lf.keep_gap = v.lane == kDenseEgoLane && v.s < kDenseEgoS;
    sim::Actor a;
    a.kind = sim::ActorKind::kVehicle;
    a.state = state_at(v.lane, v.s, v.speed);
    a.behavior = std::make_unique<sim::LaneFollowBehavior>(lf);
    world.add_actor(std::move(a));
  }
  return world;
}

Report dense_blockers(const RunConfig& config) {
  core::RiskMonitorParams params;
  params.tube.num_threads = 0;
  const int scenes = scaled(config.seconds, kDenseScenesPerSecond, 2);
  return run_closed_loop(config, params, [&](SetupTimes& setup) {
    const scenario::ScenarioConfig scenario_config;
    ClosedLoop loop;
    loop.rules.max_steps = kDenseEpisodeSteps;
    loop.rules.stop_at_road_end = false;
    loop.rules.collisions_fail = true;
    const std::uint64_t start = now_ns();
    std::vector<std::vector<DenseVehicle>> suite;
    for (int i = 0; i < scenes; ++i) {
      suite.push_back(dense_scene(derive(config.seed, 0xD00 + static_cast<std::uint64_t>(i)),
                                  scenario_config.ego_speed));
    }
    setup.suite_s.push_back(seconds_between(start, now_ns()));
    for (const auto& scene : suite) {
      const std::uint64_t b0 = now_ns();
      loop.protos.push_back(Episode{dense_world(scene, scenario_config), kDenseEgoLane});
      setup.build_world_us.push_back(static_cast<double>(now_ns() - b0) / 1e3);
    }
    return loop;
  });
}

// --- fleet_streams ----------------------------------------------------------------

bool same_outcome(const eval::StreamOutcome& a, const eval::StreamOutcome& b) {
  // NOLINTNEXTLINE(iprism-float-eq): the stream runner's guarantee is bit-identity
  return a.stream == b.stream && a.label == b.label && a.steps == b.steps &&
         a.monitor_updates == b.monitor_updates && a.max_sti == b.max_sti &&
         a.mean_sti == b.mean_sti && a.escalations == b.escalations &&
         a.final_level == b.final_level && a.last_riskiest_actor == b.last_riskiest_actor &&
         a.ego_collided == b.ego_collided;
}

std::string check_outcome(const eval::StreamOutcome& o, int steps) {
  if (o.steps != steps || o.monitor_updates != steps) return "stream did not run its horizon";
  if (!(o.max_sti >= 0.0 && o.max_sti <= 1.0)) return "max STI outside [0, 1]";
  if (!(o.mean_sti >= 0.0 && o.mean_sti <= o.max_sti)) return "mean STI outside [0, max]";
  return "";
}

Report fleet_streams(const RunConfig& config) {
  Report report;
  SetupTimes setup;
  common::ThreadPool& pool = common::ThreadPool::shared();
  const std::size_t m = kFleetStreamsPerWorker * pool.thread_count();
  // A timed run gives every batch its own set of M streams: with one set,
  // the tail percentile would hinge on which few scenarios the seed drew.
  // A traced run measures the first set only.
  const std::size_t sets =
      config.trace ? 1
                   : static_cast<std::size_t>(scaled(config.seconds, kFleetBatchesPerSecond, 1));
  eval::StreamRunner::Options options;
  options.max_seconds = kFleetSeconds;
  options.stop_on_ego_collision = false;
  options.monitor.tube.num_threads = 0;  // parallel across streams only
  std::vector<std::vector<sim::World>> protos;  // [set][stream]
  std::optional<eval::StreamRunner> runner;
  const scenario::ScenarioFactory factory;
  repeat_setup(setup, [&] {
    const std::uint64_t start = now_ns();
    // The factory discards invalid samples (about one in ten): ask for half
    // as many again, and grow the suite in the rare case that falls short.
    std::vector<scenario::ScenarioSpec> specs;
    for (int per_typology = static_cast<int>((sets * m * 3 / 2 + 4) / 5); specs.size() < sets * m;
         per_typology += per_typology / 2 + 1) {
      specs = typology_suite(factory, per_typology, config.seed);
    }
    setup.suite_s.push_back(seconds_between(start, now_ns()));
    protos.clear();
    protos.resize(sets);
    for (std::size_t k = 0; k < sets * m; ++k) {
      const std::uint64_t b0 = now_ns();
      protos[k / m].push_back(factory.build(specs[k]));
      setup.build_world_us.push_back(static_cast<double>(now_ns() - b0) / 1e3);
    }
    runner.emplace(options);
  });
  const int steps = static_cast<int>(options.max_seconds / protos.front().front().dt());
  const smc::SmcController policy = make_policy(config.seed);

  struct Batch {
    std::vector<eval::StreamOutcome> outcomes;
    double wall_s = 0.0;
    std::vector<std::string> failures;
  };
  // One batch: the M streams of `set`, every stream with its own probe log.
  // Writes only `pass`, `tracing` and the returned batch, so batches of
  // different sets may run at once.
  const auto run_batch = [&](const eval::StreamRunner& r, std::size_t set, bool trace,
                             PassStats& pass, Tracing* tracing) {
    std::vector<ProbeLog> logs(m);
    for (std::size_t i = 0; i < m; ++i) {
      logs[i].next_tick = static_cast<std::int64_t>(i) * 1000000;
    }
    ProbeOptions probe;
    probe.route_lane = factory.config().ego_lane;
    probe.infer_every = smc::SmcControlParams{}.decision_period;
    probe.first_tick_from_construction = true;
    probe.thread_cpu_ticks = true;
    probe.trace = trace;
    probe.policy = &policy;
    const auto maker = [&](std::size_t i) { return protos[set][i].clone(); };
    const auto agent_maker = [&](std::size_t i) -> std::unique_ptr<agents::DrivingAgent> {
      return std::make_unique<TickProbe>(logs[i], probe);
    };
    Batch batch;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    batch.outcomes = r.run(m, maker, agent_maker);
    batch.wall_s = seconds_between(t0, now_ns());
    pass.wall_s += batch.wall_s;
    pass.cpu_s += process_cpu_s() - cpu0;
    for (std::size_t i = 0; i < m; ++i) {
      pass.ticks += batch.outcomes[i].monitor_updates;
      batch.failures.insert(batch.failures.end(), logs[i].failures.begin(),
                            logs[i].failures.end());
      merge_probe(logs[i], pass, tracing);
    }
    return batch;
  };
  const auto report_failures = [&](const Batch& batch) {
    for (const std::string& f : batch.failures) report.failed_op(f);
  };

  // The bit-identity reference: each set's streams, strictly serially
  // (StreamRunner without a pool). Distinct sets are independent, so their
  // serial runs share the pool's workers, one set per task; with a single
  // set its serial wall time is undisturbed.
  const eval::StreamRunner serial(options, nullptr);
  std::vector<Batch> reference(sets);
  std::vector<PassStats> serial_passes(sets);
  common::parallel_for_each(&pool, sets, [&](std::size_t set) {
    reference[set] = run_batch(serial, set, false, serial_passes[set], nullptr);
  });
  Digest digest;
  for (const Batch& batch : reference) {
    report_failures(batch);
    for (const auto& o : batch.outcomes) {
      digest.add(static_cast<std::uint64_t>(o.steps));
      digest.add(o.max_sti);
      digest.add(o.mean_sti);
      digest.add(o.escalations);
      digest.add(static_cast<int>(o.final_level));
      digest.add(o.last_riskiest_actor.value_or(-1));
      digest.add(static_cast<int>(o.ego_collided));
    }
  }
  report.digest = digest.value();

  const auto check_batch = [&](const Batch& batch, std::size_t set) {
    report_failures(batch);
    for (std::size_t i = 0; i < m; ++i) {
      ++report.attempted;
      std::string failure = check_outcome(batch.outcomes[i], steps);
      if (failure.empty() && !same_outcome(batch.outcomes[i], reference[set].outcomes[i])) {
        failure = "concurrent outcome differs from the serial run";
      }
      if (!failure.empty()) {
        report.failed_op("set " + std::to_string(set) + " stream " + std::to_string(i) + ": " +
                         failure);
      }
    }
  };

  {
    PassStats warm;  // warm-up batch, outside every measurement
    check_batch(run_batch(*runner, 0, false, warm, nullptr), 0);
  }
  if (!config.trace) {
    std::vector<PassStats> batches(sets);
    for (std::size_t set = 0; set < sets; ++set) {
      check_batch(run_batch(*runner, set, false, batches[set], nullptr), set);
    }
    add_end_to_end(report, setup, batches);
    return report;
  }

  PassStats untraced;
  const Batch untraced_batch = run_batch(*runner, 0, false, untraced, nullptr);
  check_batch(untraced_batch, 0);
  PassStats traced;
  Tracing tracing;
  check_batch(run_batch(*runner, 0, true, traced, &tracing), 0);
  WorkloadLayers layers;
  layers.pool_threads = static_cast<double>(pool.thread_count());
  layers.speedup_vs_serial = reference[0].wall_s / untraced_batch.wall_s;
  finish_traced(config, report, setup, untraced, traced, tracing, layers, options.monitor, policy,
                policy.policy().output_size());
  return report;
}

// --- smc_training -----------------------------------------------------------------

Report smc_training(const RunConfig& config) {
  Report report;
  SetupTimes setup;
  const scenario::ScenarioFactory factory;
  scenario::ScenarioSpec spec;
  std::optional<smc::SmcTrainer> trainer;
  smc::SmcTrainConfig cfg;
  repeat_setup(setup, [&] {
    // The paper's pipeline: among the baseline's accident scenarios of a
    // seeded suite, train on the one with the highest pre-accident STI.
    const std::uint64_t start = now_ns();
    const auto specs =
        scenario::generate_suite(factory, kSmcTypology, kSmcSuiteSize, derive(config.seed, 0x5C))
            .specs;
    const core::StiCalculator sti;
    spec = specs[bench::select_training_spec(factory, specs, sti).value_or(0)];
    setup.suite_s.push_back(seconds_between(start, now_ns()));
    const std::uint64_t b0 = now_ns();
    const sim::World built = factory.build(spec);
    setup.build_world_us.push_back(static_cast<double>(now_ns() - b0) / 1e3);
    // bench::train_smc_for's configuration for a non-rear-end typology, with
    // a single training attempt so every call does the same work.
    cfg = smc::SmcTrainConfig{};
    cfg.episodes = kSmcEpisodes;
    cfg.reward.use_sti = true;
    cfg.seed = derive(config.seed, 0x5D);
    cfg.action_count = smc::kActionCountBrakeOnly;
    cfg.max_attempts = 1;
    trainer.emplace(cfg);
  });
  const smc::SmcController policy = make_policy(config.seed);
  const double jitter = bench::SmcPipelineOptions{}.jitter;

  // One training call: fresh jitter stream, so every call sees the same
  // episodes and must return the same training statistics.
  const auto train_call = [&](bool trace, PassStats& pass, Tracing* tracing) {
    ProbeLog log;
    ProbeOptions probe;
    probe.route_lane = factory.config().ego_lane;
    probe.tick_every = cfg.control.decision_period;
    probe.trace = trace;
    probe.policy = &policy;
    TickProbe agent(log, probe);
    common::Rng jitter_rng(cfg.seed ^ 0x5EEDULL);
    smc::SmcTrainStats stats;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const rl::Mlp trained = trainer->train(
        [&](int) {
          return factory.build(scenario::jitter_spec(spec, jitter, jitter_rng));
        },
        agent, &stats);
    pass.wall_s += seconds_between(t0, now_ns());
    pass.cpu_s += process_cpu_s() - cpu0;
    long decisions = 0;
    for (int d : stats.episode_decisions) decisions += d;
    pass.ticks += decisions;
    Digest digest;
    for (std::size_t e = 0; e < stats.episode_returns.size(); ++e) {
      digest.add(stats.episode_returns[e]);
      digest.add(static_cast<int>(stats.episode_collided[e]));
      digest.add(stats.episode_decisions[e]);
    }
    std::string failure;
    for (double r : stats.episode_returns) {
      if (!std::isfinite(r)) failure = "non-finite training return";
    }
    if (static_cast<int>(stats.episode_returns.size()) != cfg.episodes) {
      failure = "training ran a different number of episodes";
    }
    if (log.stats.ticks != decisions) failure = "probe saw a different number of decisions";
    const auto q = trained.forward(smc::extract_features(factory.build(spec)));
    for (double v : q) {
      if (!std::isfinite(v)) failure = "trained policy returns non-finite Q-values";
    }
    for (const std::string& f : log.failures) failure = f;
    merge_probe(log, pass, tracing);
    return std::make_tuple(digest.value(), decisions, failure);
  };

  {
    PassStats warm;  // warm-up call, outside every measurement
    train_call(false, warm, nullptr);
  }
  std::optional<std::uint64_t> first_digest;
  const auto account = [&](const std::tuple<std::uint64_t, long, std::string>& call) {
    const auto& [digest, decisions, failure] = call;
    report.attempted += decisions;
    std::string why = failure;
    if (why.empty() && first_digest && *first_digest != digest) {
      why = "training returns differ between identical calls";
    }
    if (!first_digest) first_digest = digest;
    if (!why.empty()) {
      // Every decision of a failed call counts as failed.
      report.failed_op(why);
      report.failed += std::max(0L, decisions - 1);
    }
  };

  if (!config.trace) {
    std::vector<PassStats> calls(
        static_cast<std::size_t>(scaled(config.seconds, kSmcCallsPerSecond, 1)));
    for (PassStats& pass : calls) account(train_call(false, pass, nullptr));
    report.digest = *first_digest;
    add_end_to_end(report, setup, calls);
    return report;
  }

  PassStats untraced;
  account(train_call(false, untraced, nullptr));
  PassStats traced;
  Tracing tracing;
  account(train_call(true, traced, &tracing));
  report.digest = *first_digest;
  core::RiskMonitorParams monitor;
  monitor.tube = cfg.tube;
  finish_traced(config, report, setup, untraced, traced, tracing, WorkloadLayers{}, monitor,
                policy, cfg.action_count);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"typology_ticks", "dense_blockers",
                                                 "fleet_streams", "smc_training"};
  return names;
}

Report run_workload(const RunConfig& config) {
  Report report;
  if (config.workload == "typology_ticks") {
    report = typology_ticks(config);
  } else if (config.workload == "dense_blockers") {
    report = dense_blockers(config);
  } else if (config.workload == "fleet_streams") {
    report = fleet_streams(config);
  } else if (config.workload == "smc_training") {
    report = smc_training(config);
  } else {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  report.note("output digest: " + hex(report.digest));
  return report;
}

}  // namespace e2e
