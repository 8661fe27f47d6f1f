// Minimal in-repo micro-benchmark harness, google-benchmark flag- and
// JSON-compatible for the subset the overheads binary uses.
//
// Why not the system google-benchmark: committed BENCH_*.json context blocks
// must be fully release-built, and the distro package ships a library whose
// self-reported "library_build_type" is "debug" — which is exactly the taint
// require_release_guard exists to reject. Building here, the "library" is
// this translation unit, compiled under the same preset as the code being
// measured, so the context block is truthful by construction (and the build
// needs no system benchmark package at all).
//
// Supported surface:
//   UBENCH(fn);  UBENCH(fn)->Arg(2)->Arg(8);        // registration
//   void fn(ubench::State& state) {
//     for (auto _ : state) { ... }                   // timed region
//     state.range(0);                                // the Arg value
//   }
//   DoNotOptimize(v);
//   Flags: --benchmark_filter=<regex> --benchmark_out=<path>
//          --benchmark_out_format=json --benchmark_min_time=<secs>[s]
//
// Timing uses common::telemetry::trace_now_ns (wall) and
// clock_gettime(CLOCK_PROCESS_CPUTIME_ID) (cpu) — std::chrono clock reads
// stay confined to the telemetry layer per the telemetry-discipline lint.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace iprism::ubench {

/// Build type of the harness itself — the "library_build_type" the JSON
/// context reports. "release" iff this TU compiled with NDEBUG and without
/// sanitizers; bench_util::require_release_guard rejects anything else under
/// --require-release.
const char* library_build_type();

/// Per-run state handed to a benchmark function. `for (auto _ : state)`
/// executes exactly the calibrated iteration count; work outside the loop is
/// untimed setup.
class State {
 public:
  class iterator {
   public:
    // [[maybe_unused]]: `for (auto _ : state)` never reads `_`, and GCC
    // would otherwise warn (-Wunused-but-set-variable) at every benchmark.
    struct [[maybe_unused]] Unit {};
    explicit iterator(std::int64_t remaining) : remaining_(remaining) {}
    bool operator!=(const iterator& other) const {
      return remaining_ != other.remaining_;
    }
    iterator& operator++() {
      --remaining_;
      return *this;
    }
    Unit operator*() const { return {}; }

   private:
    std::int64_t remaining_;
  };

  iterator begin() { return iterator(iterations_); }
  iterator end() { return iterator(0); }

  std::int64_t iterations() const { return iterations_; }
  /// The i-th Arg() of this run (benchmarks registered without Arg have none).
  std::int64_t range(std::size_t i = 0) const;

 private:
  friend struct StateAccess;  ///< the runner's construction backdoor (ubench.cpp)
  State(std::int64_t iterations, std::span<const std::int64_t> args)
      : iterations_(iterations), args_(args.begin(), args.end()) {}

  std::int64_t iterations_ = 0;
  std::vector<std::int64_t> args_;
};

using BenchFn = void (*)(State&);

/// One registered benchmark family; Arg() appends a parameterized run named
/// "<name>/<arg>" (none registered → a single run named "<name>").
class Benchmark {
 public:
  Benchmark(std::string name, BenchFn fn) : name_(std::move(name)), fn_(fn) {}
  Benchmark* Arg(std::int64_t value) {
    args_.push_back(value);
    return this;
  }

  const std::string& name() const { return name_; }
  BenchFn fn() const { return fn_; }
  const std::vector<std::int64_t>& args() const { return args_; }

 private:
  std::string name_;
  BenchFn fn_;
  std::vector<std::int64_t> args_;
};

/// Registers into the global registry (static-init time via UBENCH).
Benchmark* RegisterBenchmark(const char* name, BenchFn fn);

#define UBENCH(fn)                                            \
  static ::iprism::ubench::Benchmark* const ubench_reg_##fn = \
      ::iprism::ubench::RegisterBenchmark(#fn, fn)

/// Prevents the optimizer from deleting a computed value.
template <class T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// One measured run (one name/arg combination).
struct RunResult {
  std::string name;
  std::int64_t iterations = 0;
  double real_ns = 0.0;  ///< wall time per iteration
  double cpu_ns = 0.0;   ///< process-CPU time per iteration
};

struct RunOptions {
  std::string filter;       ///< ECMAScript regex, substring-searched; "" = all
  double min_time_s = 0.5;  ///< calibration target per run
};

/// Key/value added to the JSON context block (e.g. "iprism_build_type").
void add_context(const std::string& key, const std::string& value);

/// Runs every registered benchmark matching the filter, in registration
/// order; prints a console table to `console` when non-null.
std::vector<RunResult> run_registered(const RunOptions& options, std::ostream* console);

/// google-benchmark-compatible JSON document: a context block (date,
/// num_cpus, library_build_type, custom contexts) plus one entry per run.
std::string json_report(std::span<const RunResult> results);

/// CLI driver: parses the --benchmark_* flags above, runs, writes the JSON
/// file when --benchmark_out is given. Returns a process exit code (non-zero
/// on unrecognized arguments, bad regex, a filter that selects no benchmark,
/// or unwritable output path).
int run_main(int argc, char** argv);

}  // namespace iprism::ubench
