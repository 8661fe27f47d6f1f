// Lightweight, thread-safe observability for the STI pipeline (DESIGN.md
// §11): a process-wide MetricsRegistry of counters, gauges, and fixed-bucket
// latency histograms (p50/p95/p99), RAII ScopedTimers, and per-thread trace
// rings exporting Chrome about://tracing JSON.
//
// Design constraints, in order:
//   1. Compile-time removable. Instrumentation goes through the IPRISM_*
//      macros below; without IPRISM_ENABLE_TELEMETRY every macro expands to
//      nothing (arguments unevaluated), so the instrumented hot paths are
//      bit-for-bit the uninstrumented code. The overhead criterion is ≤1%
//      on e2e_bench `typology_ticks` `tick_p50_ms`, telemetry on vs off.
//   2. Allocation-free on the hot path. Registration (the first time a
//      macro's enclosing scope runs) takes the registry mutex and may
//      allocate; every subsequent hit is a relaxed atomic add (counters,
//      histograms), an atomic store (gauges), or a ring write under a
//      per-thread uncontended mutex. Histogram buckets are a fixed array;
//      trace rings are fixed-capacity (overwrite-oldest) — consistent with
//      DESIGN §9's container discipline.
//   3. Thread-safe by annotation. All shared mutable state is capability-
//      annotated (IPRISM_GUARDED_BY) like the ThreadPool's queue, so clang
//      proves the lock discipline at compile time and tsan re-checks it at
//      runtime (tests/test_telemetry.cpp runs under the tsan preset).
//
// Timing uses std::chrono::steady_clock, and this file (plus bench_util) is
// the only sanctioned home for it — tools/iprism_lint.py telemetry-discipline
// keeps ad-hoc clock reads from bypassing the registry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace iprism::common::telemetry {

/// Nanoseconds since the process's trace epoch (the first telemetry clock
/// read). The single sanctioned steady_clock access point.
std::uint64_t trace_now_ns();

/// Monotonic event counter. add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, current risk level).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram: 4 sub-buckets per power of two over
/// uint64 nanoseconds (relative bucket error ≤ 12.5%), plus exact count,
/// sum, min, and max. record() touches only pre-sized atomics — no
/// allocation, no lock. Percentiles return the midpoint of the bucket that
/// crosses the requested rank (0 when empty — telemetry reads are
/// best-effort, unlike common::percentile which IPRISM_CHECKs its input).
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 256;

  void record(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  std::uint64_t min() const;  ///< 0 when empty
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Bucket-midpoint estimate of the q-th percentile, q in [0, 100].
  std::uint64_t percentile_ns(double q) const;
  void reset();

  /// Bucket index for a value (exposed for the bucket-resolution tests).
  static std::size_t bucket_of(std::uint64_t ns);
  /// Representative (midpoint) value of a bucket.
  static std::uint64_t bucket_mid(std::size_t bucket);

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// One completed span in a thread's trace ring. `name` and `category` must
/// be string literals (the ring stores the pointers, never copies).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Fixed-capacity per-thread span buffer (overwrite-oldest). Each ring is
/// written by exactly one thread; the mutex exists so an export racing that
/// thread reads consistent events (uncontended in steady state).
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 4096;

  explicit TraceRing(std::uint32_t tid) : tid_(tid) {}

  std::uint32_t tid() const { return tid_; }

  void record(const TraceEvent& event) {
    const MutexLock lock(mutex_);
    events_[head_ % kCapacity] = event;
    ++head_;
  }

  /// Copies the retained events (oldest first) into `out`; returns the total
  /// number ever recorded (so callers can report drops).
  std::uint64_t snapshot(TraceEvent* out, std::size_t capacity) const;

  void reset() {
    const MutexLock lock(mutex_);
    head_ = 0;
  }

 private:
  std::uint32_t tid_;
  mutable Mutex mutex_;
  TraceEvent events_[kCapacity] IPRISM_GUARDED_BY(mutex_) = {};
  std::uint64_t head_ IPRISM_GUARDED_BY(mutex_) = 0;
};

/// Process-wide metric/trace registry. Lookup-or-create is mutex-guarded
/// and allocates; the returned references are stable for the process
/// lifetime, which is what lets the macros cache them in function-local
/// statics and keep the steady-state path allocation- and lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// nullptr when no such metric has been registered (the disabled-build
  /// test probes that the no-op macros register nothing).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// The calling thread's trace ring (created and registered on first use).
  TraceRing& this_thread_ring();

  /// Chrome about://tracing JSON: {"traceEvents": [...]} plus a "metrics"
  /// object (counters/gauges/histogram summaries) that the trace viewer
  /// ignores but humans and scripts can read from the same file.
  void write_chrome_trace(std::ostream& os) const;
  /// write_chrome_trace to a file; false when the file cannot be opened.
  bool write_chrome_trace_file(const std::string& path) const;

  /// Zeroes every registered metric and trace ring *in place* (entries and
  /// rings stay allocated, so references cached by the macros — including
  /// thread_local ring pointers — remain valid). Test isolation only.
  void reset_for_testing();

 private:
  MetricsRegistry() = default;

  mutable Mutex mutex_;
  // std::deque: push_back never moves existing elements, so handed-out
  // references stay valid as the registry grows.
  struct NamedCounter {
    std::string name;
    Counter value;
  };
  struct NamedGauge {
    std::string name;
    Gauge value;
  };
  struct NamedHistogram {
    std::string name;
    Histogram value;
  };
  std::deque<NamedCounter> counters_ IPRISM_GUARDED_BY(mutex_);
  std::deque<NamedGauge> gauges_ IPRISM_GUARDED_BY(mutex_);
  std::deque<NamedHistogram> histograms_ IPRISM_GUARDED_BY(mutex_);
  std::deque<TraceRing> rings_ IPRISM_GUARDED_BY(mutex_);
};

/// RAII span: measures its scope with the telemetry clock, records the
/// duration into `hist`, and appends a TraceEvent to the calling thread's
/// ring. `name`/`category` must be string literals.
class ScopedTimer {
 public:
  ScopedTimer(Histogram& hist, const char* name, const char* category)
      : hist_(hist), name_(name), category_(category), start_ns_(trace_now_ns()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const std::uint64_t dur = trace_now_ns() - start_ns_;
    hist_.record(dur);
    MetricsRegistry::instance().this_thread_ring().record(
        TraceEvent{name_, category_, start_ns_, dur});
  }

 private:
  Histogram& hist_;
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_;
};

}  // namespace iprism::common::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros. All call sites go through these, never the classes
// directly, so one compile switch removes the entire layer. `name` must be a
// string literal; metric names are dot-separated (e.g. "reachtube.compute").

#if defined(IPRISM_ENABLE_TELEMETRY)

#define IPRISM_TELEMETRY_ENABLED 1

#define IPRISM_TELE_CONCAT_INNER(a, b) a##b
#define IPRISM_TELE_CONCAT(a, b) IPRISM_TELE_CONCAT_INNER(a, b)

/// Adds `delta` to the named counter.
#define IPRISM_COUNT_ADD(name, delta)                                  \
  do {                                                                 \
    static ::iprism::common::telemetry::Counter& iprism_tele_entry =   \
        ::iprism::common::telemetry::MetricsRegistry::instance().counter(name); \
    iprism_tele_entry.add(static_cast<std::uint64_t>(delta));          \
  } while (false)

/// Increments the named counter by one.
#define IPRISM_COUNT(name) IPRISM_COUNT_ADD(name, 1)

/// Sets the named gauge to `value`.
#define IPRISM_GAUGE_SET(name, value)                                  \
  do {                                                                 \
    static ::iprism::common::telemetry::Gauge& iprism_tele_entry =     \
        ::iprism::common::telemetry::MetricsRegistry::instance().gauge(name); \
    iprism_tele_entry.set(static_cast<double>(value));                 \
  } while (false)

/// Times the rest of the enclosing scope into histogram `name` and the
/// thread's trace ring under `category`. Uniquely named per line, so nested
/// scopes may each carry one.
#define IPRISM_SCOPED_TIMER(name, category)                                        \
  static ::iprism::common::telemetry::Histogram& IPRISM_TELE_CONCAT(               \
      iprism_tele_hist_, __LINE__) =                                               \
      ::iprism::common::telemetry::MetricsRegistry::instance().histogram(name);    \
  const ::iprism::common::telemetry::ScopedTimer IPRISM_TELE_CONCAT(               \
      iprism_tele_timer_, __LINE__)(IPRISM_TELE_CONCAT(iprism_tele_hist_, __LINE__), \
                                    name, category)

#else  // !IPRISM_ENABLE_TELEMETRY — every macro is a no-op; arguments are
       // never evaluated (sizeof keeps them semantically checked and
       // silences unused-variable warnings on telemetry-only locals).

#define IPRISM_TELEMETRY_ENABLED 0

#define IPRISM_COUNT_ADD(name, delta) \
  do {                                \
    (void)sizeof(name);               \
    (void)sizeof(delta);              \
  } while (false)
#define IPRISM_COUNT(name) \
  do {                     \
    (void)sizeof(name);    \
  } while (false)
#define IPRISM_GAUGE_SET(name, value) \
  do {                                \
    (void)sizeof(name);               \
    (void)sizeof(value);              \
  } while (false)
#define IPRISM_SCOPED_TIMER(name, category) \
  do {                                      \
    (void)sizeof(name);                     \
    (void)sizeof(category);                 \
  } while (false)

#endif  // IPRISM_ENABLE_TELEMETRY
