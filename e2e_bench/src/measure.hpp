// Measurement primitives of the end-to-end benchmark: the clock, in-memory
// spans, sample summaries, the output digest and the metric report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace e2e {

/// Nanoseconds on the library's steady clock (common::telemetry).
std::uint64_t now_ns();

/// Process CPU time (all threads), in seconds.
double process_cpu_s();

/// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// CPU brand string from CPUID ("unknown" where unavailable).
std::string cpu_model();

/// One timed interval. `parent` indexes the same SpanLog (-1 = root);
/// spans of one tick share `tick`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t tick = -1;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Spans kept in memory until the run ends. One log per thread of the
/// benchmark; logs are merged after the threads finish.
class SpanLog {
 public:
  std::int64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t tick, std::int64_t parent = -1);
  /// Sets the interval of a span added before its children.
  void set_interval(std::int64_t index, std::uint64_t start_ns, std::uint64_t end_ns) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.start_ns = start_ns;
    s.end_ns = end_ns;
  }
  /// Appends `other`, rebasing its parent indices.
  void append(const SpanLog& other);

  /// Durations (µs) of every span called `name`, in log order.
  std::vector<double> durations_us(std::string_view name) const;
  /// Total duration (µs) of spans called `name`.
  double total_us(std::string_view name) const;

  const std::vector<Span>& spans() const { return spans_; }
  void write_json(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

/// Times `fn()` into `log` as span `name`; returns fn's result.
template <class Fn>
auto timed(SpanLog& log, const char* name, std::int64_t tick, std::int64_t parent, Fn&& fn) {
  const std::uint64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log.add(name, start, now_ns(), tick, parent);
  } else {
    auto result = fn();
    log.add(name, start, now_ns(), tick, parent);
    return result;
  }
}

/// Median, the highest percentile with at least ten samples beyond it, and
/// the sample count of a set of timings.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;  ///< the percentile reported as the tail (e.g. 99)
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& values);
double median_of(const std::vector<double>& values);
/// Percentile `q` (0..100); 0 for an empty set.
double percentile_of(const std::vector<double>& values, double q);

/// FNV-1a over the bits the benchmark checks, so two runs (or two builds) on
/// the same seed can be compared output for output.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: its metrics, the ops it attempted and failed, and
/// human-readable lines printed above the result.
struct Report {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;
  std::uint64_t digest = 0;

  void metric(std::string name, double value, std::string unit);
  /// Adds a note with a timing's median, tail percentile and sample count.
  void timing_note(const std::string& what, const std::vector<double>& values,
                   const char* unit);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// One op (tick, stream, decision) failed a check or threw: counted, and
  /// the first few reasons kept for the notes.
  void failed_op(const std::string& why);
};

/// Prints `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
void write_result_json(std::ostream& os, const Report& report);

}  // namespace e2e
