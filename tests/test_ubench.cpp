// The ubench harness replaced the system google-benchmark so that committed
// BENCH_*.json baselines can never again carry a debug-built benchmark
// library. These tests pin the pieces the guard and the JSON consumers rely
// on: registration/Arg naming, filter semantics (including the failure on a
// filter that selects nothing), the gbench-compatible JSON shape, and the
// library_build_type the context block reports.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "ubench.hpp"

namespace iprism {
namespace {

std::atomic<std::int64_t> g_plain_iterations{0};
std::atomic<std::int64_t> g_arg_sum{0};

void BM_UbenchSelfPlain(ubench::State& state) {
  std::int64_t n = 0;
  for (auto _ : state) ++n;
  g_plain_iterations += n;
  ubench::DoNotOptimize(n);
}
UBENCH(BM_UbenchSelfPlain);

void BM_UbenchSelfArgs(ubench::State& state) {
  g_arg_sum += state.range(0);
  std::int64_t acc = 0;
  for (auto _ : state) acc += state.range(0);
  ubench::DoNotOptimize(acc);
}
UBENCH(BM_UbenchSelfArgs)->Arg(3)->Arg(7);

TEST(Ubench, FilterSelectsRunsAndArgsNameThem) {
  ubench::RunOptions options;
  options.filter = "BM_UbenchSelfArgs";
  options.min_time_s = 0.0;  // one calibration batch is enough for shape tests
  const auto results = ubench::run_registered(options, nullptr);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "BM_UbenchSelfArgs/3");
  EXPECT_EQ(results[1].name, "BM_UbenchSelfArgs/7");
  for (const auto& r : results) {
    EXPECT_GE(r.iterations, 1);
    EXPECT_GE(r.real_ns, 0.0);
    EXPECT_GE(r.cpu_ns, 0.0);
  }
}

TEST(Ubench, TimedLoopRunsExactlyTheReportedIterations) {
  g_plain_iterations = 0;
  ubench::RunOptions options;
  options.filter = "BM_UbenchSelfPlain";
  options.min_time_s = 0.0;
  const auto results = ubench::run_registered(options, nullptr);
  ASSERT_EQ(results.size(), 1u);
  // Every calibration batch counts toward the global, and the final batch is
  // the reported one — with min_time 0 the first batch already qualifies.
  EXPECT_EQ(g_plain_iterations.load(), results[0].iterations);
}

TEST(Ubench, JsonReportCarriesContextAndBenchmarks) {
  ubench::add_context("test_context_key", "test_context_value");
  ubench::RunOptions options;
  options.filter = "BM_UbenchSelfArgs/3";
  options.min_time_s = 0.0;
  const auto results = ubench::run_registered(options, nullptr);
  ASSERT_EQ(results.size(), 1u);
  const std::string json = ubench::json_report(results);
  EXPECT_NE(json.find("\"library_build_type\": \"" +
                      std::string(ubench::library_build_type()) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test_context_key\": \"test_context_value\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"BM_UbenchSelfArgs/3\""), std::string::npos);
  EXPECT_NE(json.find("\"time_unit\": \"ns\""), std::string::npos);
}

/// ubench::run_main over argv-style arguments (argv[0] is the program name).
int run_main_with(std::vector<std::string> args) {
  args.insert(args.begin(), "ubench_test");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ubench::run_main(static_cast<int>(argv.size()), argv.data());
}

TEST(Ubench, RunMainFailsWhenFilterSelectsNothing) {
  // A stale filter in a CI step must not pass having run nothing.
  EXPECT_NE(run_main_with({"--benchmark_filter=BM_NoSuchThing"}), 0);
  EXPECT_EQ(run_main_with({"--benchmark_filter=BM_UbenchSelfPlain",
                           "--benchmark_min_time=0"}),
            0);
}

TEST(Ubench, LibraryBuildTypeMatchesThisBuild) {
  // The harness compiles under the same preset as this test: NDEBUG without
  // sanitizers/DCHECKS must report "release", anything else "debug" — the
  // property require_release_guard's debug-library rejection stands on.
  const std::string type = ubench::library_build_type();
  EXPECT_TRUE(type == "release" || type == "debug");
#if defined(NDEBUG) && !defined(IPRISM_ENABLE_DCHECKS) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_EQ(type, "release");
#endif
}

}  // namespace
}  // namespace iprism
