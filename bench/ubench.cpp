#include "ubench.hpp"

#include <time.h>  // clock_gettime: CPU time without std::chrono (lint: telemetry-discipline)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

// Sanitizer instrumentation detection, mirroring bench_util: gcc defines
// __SANITIZE_*__, clang exposes __has_feature. Checked in addition to NDEBUG
// because the asan/tsan presets build RelWithDebInfo, where NDEBUG is set.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPRISM_UBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IPRISM_UBENCH_SANITIZED 1
#endif
#endif

#include "common/check.hpp"
#include "common/telemetry.hpp"

namespace iprism::ubench {

struct StateAccess {
  static State make(std::int64_t iterations, std::span<const std::int64_t> args) {
    return State(iterations, args);
  }
};

namespace {

// deque: registration hands out stable Benchmark* for Arg() chaining, so
// later registrations must never relocate earlier entries.
std::deque<Benchmark>& registry() {
  static std::deque<Benchmark> benchmarks;
  return benchmarks;
}

std::vector<std::pair<std::string, std::string>>& contexts() {
  static std::vector<std::pair<std::string, std::string>> entries;
  return entries;
}

std::uint64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Scales a human time-per-iteration into the unit gbench would pick.
const char* humanize(double ns, double* scaled) {
  if (ns < 1e3) {
    *scaled = ns;
    return "ns";
  }
  if (ns < 1e6) {
    *scaled = ns / 1e3;
    return "us";
  }
  if (ns < 1e9) {
    *scaled = ns / 1e6;
    return "ms";
  }
  *scaled = ns / 1e9;
  return "s";
}

RunResult run_one(const Benchmark& bench, std::span<const std::int64_t> args,
                  const std::string& run_name, double min_time_s) {
  // Calibrate like google-benchmark: grow the iteration count until one
  // batch covers min_time, then report that final batch. Each batch re-runs
  // the whole function, so per-batch setup stays out of the loop numbers.
  constexpr std::int64_t kMaxIterations = 1'000'000'000;
  const double min_time_ns = min_time_s * 1e9;
  std::int64_t n = 1;
  for (;;) {
    State state = StateAccess::make(n, args);
    const std::uint64_t cpu0 = cpu_now_ns();
    const std::uint64_t wall0 = common::telemetry::trace_now_ns();
    bench.fn()(state);
    const std::uint64_t wall = common::telemetry::trace_now_ns() - wall0;
    const std::uint64_t cpu = cpu_now_ns() - cpu0;
    if (static_cast<double>(wall) >= min_time_ns || n >= kMaxIterations) {
      RunResult result;
      result.name = run_name;
      result.iterations = n;
      result.real_ns = static_cast<double>(wall) / static_cast<double>(n);
      result.cpu_ns = static_cast<double>(cpu) / static_cast<double>(n);
      return result;
    }
    // Overshoot the target slightly (gbench's multiplier), bounded so a
    // mispredicted first batch cannot jump straight to minutes of work.
    const double per_iter = static_cast<double>(wall) / static_cast<double>(n);
    const double want = min_time_ns * 1.4 / std::max(per_iter, 1.0);
    n = std::clamp<std::int64_t>(static_cast<std::int64_t>(want), n + 1,
                                 std::min<std::int64_t>(n * 100, kMaxIterations));
  }
}

}  // namespace

const char* library_build_type() {
#if defined(NDEBUG) && !defined(IPRISM_ENABLE_DCHECKS) && \
    !defined(IPRISM_UBENCH_SANITIZED)
  return "release";
#else
  return "debug";
#endif
}

std::int64_t State::range(std::size_t i) const {
  IPRISM_CHECK(i < args_.size(), "ubench: State::range index out of bounds");
  return static_cast<std::int64_t>(args_[i]);
}

Benchmark* RegisterBenchmark(const char* name, BenchFn fn) {
  registry().emplace_back(name, fn);
  return &registry().back();
}

void add_context(const std::string& key, const std::string& value) {
  contexts().emplace_back(key, value);
}

std::vector<RunResult> run_registered(const RunOptions& options, std::ostream* console) {
  const std::regex filter(options.filter.empty() ? std::string(".") : options.filter);
  std::vector<RunResult> results;
  if (console != nullptr) {
    *console << "----------------------------------------------------------------------\n"
             << "Benchmark                                    Time        Iterations\n"
             << "----------------------------------------------------------------------\n";
  }
  for (const Benchmark& bench : registry()) {
    // One run per Arg; argless benchmarks run once under their bare name.
    std::vector<std::pair<std::string, std::vector<std::int64_t>>> runs;
    if (bench.args().empty()) {
      runs.emplace_back(bench.name(), std::vector<std::int64_t>{});
    } else {
      for (std::int64_t arg : bench.args()) {
        runs.emplace_back(bench.name() + "/" + std::to_string(arg),
                          std::vector<std::int64_t>{arg});
      }
    }
    for (const auto& [run_name, args] : runs) {
      if (!std::regex_search(run_name, filter)) continue;
      RunResult result = run_one(bench, args, run_name, options.min_time_s);
      if (console != nullptr) {
        double scaled = 0.0;
        const char* unit = humanize(result.real_ns, &scaled);
        char line[160];
        std::snprintf(line, sizeof(line), "%-40s %10.3f %-2s %12lld\n",
                      result.name.c_str(), scaled, unit,
                      static_cast<long long>(result.iterations));
        *console << line;
      }
      results.push_back(std::move(result));
    }
  }
  return results;
}

std::string json_report(std::span<const RunResult> results) {
  std::ostringstream out;
  char date[64] = "";
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  if (localtime_r(&now, &tm_buf) != nullptr) {
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S%z", &tm_buf);
  }
  out << "{\n  \"context\": {\n";
  out << "    \"date\": \"" << date << "\",\n";
  out << "    \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "    \"library_build_type\": \"" << library_build_type() << "\"";
  for (const auto& [key, value] : contexts()) {
    out << ",\n    \"" << json_escape(key) << "\": \"" << json_escape(value) << "\"";
  }
  out << "\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\n"
        << "      \"name\": \"" << json_escape(r.name) << "\",\n"
        << "      \"run_name\": \"" << json_escape(r.name) << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"repetitions\": 1,\n"
        << "      \"repetition_index\": 0,\n"
        << "      \"threads\": 1,\n"
        << "      \"iterations\": " << r.iterations << ",\n"
        << "      \"real_time\": " << r.real_ns << ",\n"
        << "      \"cpu_time\": " << r.cpu_ns << ",\n"
        << "      \"time_unit\": \"ns\"\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

int run_main(int argc, char** argv) {
  RunOptions options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> std::optional<std::string> {
      const std::size_t len = std::string(prefix).size();
      if (arg.rfind(prefix, 0) == 0) return arg.substr(len);
      return std::nullopt;
    };
    if (auto v = value_of("--benchmark_filter=")) {
      options.filter = *v;
    } else if (auto v = value_of("--benchmark_out_format=")) {
      if (*v != "json") {
        std::cerr << "ubench: only --benchmark_out_format=json is supported\n";
        return 1;
      }
    } else if (auto v = value_of("--benchmark_out=")) {
      out_path = *v;
    } else if (auto v = value_of("--benchmark_min_time=")) {
      // Accept gbench's "0.5" and "0.5s" spellings.
      std::string secs = *v;
      if (!secs.empty() && secs.back() == 's') secs.pop_back();
      try {
        options.min_time_s = std::stod(secs);
      } catch (const std::exception&) {
        std::cerr << "ubench: bad --benchmark_min_time value: " << *v << "\n";
        return 1;
      }
    } else {
      std::cerr << "ubench: unrecognized argument: " << arg << "\n";
      return 1;
    }
  }

  std::vector<RunResult> results;
  try {
    results = run_registered(options, &std::cout);
  } catch (const std::regex_error&) {
    std::cerr << "ubench: bad --benchmark_filter regex: " << options.filter << "\n";
    return 1;
  }
  if (results.empty()) {
    // A stale filter (a renamed or deleted benchmark) must fail loudly, not
    // pass having measured nothing.
    std::cerr << "ubench: no benchmark matches --benchmark_filter=" << options.filter << "\n";
    return 1;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "ubench: cannot write " << out_path << "\n";
      return 1;
    }
    out << json_report(results);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace iprism::ubench
