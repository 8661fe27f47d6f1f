#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"

namespace iprism::common::telemetry {
namespace {

TEST(TelemetryHistogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_mid(Histogram::bucket_of(v)), v) << v;
  }
}

TEST(TelemetryHistogram, BucketMidWithin12Point5Percent) {
  for (std::uint64_t v : {8ULL, 13ULL, 100ULL, 999ULL, 4096ULL, 123456ULL,
                          9999999ULL, 123456789012ULL}) {
    const std::uint64_t mid = Histogram::bucket_mid(Histogram::bucket_of(v));
    const double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                       static_cast<double>(v);
    EXPECT_LE(rel, 0.125) << "v=" << v << " mid=" << mid;
  }
}

TEST(TelemetryHistogram, CountSumMinMaxAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty: best-effort zero, unlike common::percentile
  EXPECT_EQ(h.percentile_ns(99.0), 0u);
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_EQ(h.sum(), 1000u * 1001u / 2u * 1000u);
  // Bucket midpoints: allow the 12.5% resolution plus rank rounding.
  const auto p50 = static_cast<double>(h.percentile_ns(50.0));
  EXPECT_NEAR(p50, 500000.0, 500000.0 * 0.15);
  const auto p99 = static_cast<double>(h.percentile_ns(99.0));
  EXPECT_NEAR(p99, 990000.0, 990000.0 * 0.15);
  EXPECT_LE(h.percentile_ns(50.0), h.percentile_ns(95.0));
  EXPECT_LE(h.percentile_ns(95.0), h.percentile_ns(99.0));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(TelemetryRegistry, FindOrCreateIsStableAndFindMisses) {
  auto& reg = MetricsRegistry::instance();
  Counter& a = reg.counter("test.registry_stable");
  Counter& b = reg.counter("test.registry_stable");
  EXPECT_EQ(&a, &b);  // same entry, reference stable across lookups
  EXPECT_EQ(reg.find_counter("test.registry_never_created"), nullptr);
  EXPECT_EQ(reg.find_gauge("test.registry_never_created"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.registry_never_created"), nullptr);
}

// --- Concurrency suite (runs under the tsan preset, see .github CI) -------

TEST(TelemetryConcurrency, CounterExactUnderThreadPoolLoad) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("test.concurrent_counter");
  c.reset();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kAddsPerTask = 1000;
  parallel_for_each(&pool, kTasks, [&](std::size_t) {
    for (std::uint64_t k = 0; k < kAddsPerTask; ++k) c.add();
  });
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
}

TEST(TelemetryConcurrency, HistogramExactCountUnderThreadPoolLoad) {
  auto& reg = MetricsRegistry::instance();
  Histogram& h = reg.histogram("test.concurrent_histogram");
  h.reset();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kRecordsPerTask = 500;
  parallel_for_each(&pool, kTasks, [&](std::size_t i) {
    for (std::uint64_t k = 0; k < kRecordsPerTask; ++k) {
      h.record(i * 1000 + k);  // mixes magnitudes across threads
    }
  });
  EXPECT_EQ(h.count(), kTasks * kRecordsPerTask);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_GE(h.max(), (kTasks - 1) * 1000u);
}

TEST(TelemetryConcurrency, ScopedTimersAndExportRaceCleanly) {
  auto& reg = MetricsRegistry::instance();
  Histogram& h = reg.histogram("test.concurrent_span");
  h.reset();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 48;
  // Export concurrently with recording: the exporter takes the registry
  // lock then each ring's lock, writers take only their own ring's lock —
  // tsan verifies the snapshot discipline.
  parallel_for_each(&pool, kTasks, [&](std::size_t i) {
    const ScopedTimer t(h, "test.concurrent_span", "test");
    if (i % 16 == 0) {
      std::ostringstream sink;
      reg.write_chrome_trace(sink);
    }
  });
  EXPECT_EQ(h.count(), kTasks);
}

TEST(TelemetryConcurrency, TraceRingOverwritesOldestAndReportsTotal) {
  TraceRing ring(99);
  const std::uint64_t total = TraceRing::kCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.record(TraceEvent{"ev", "test", i, 1});
  }
  std::vector<TraceEvent> events(TraceRing::kCapacity);
  EXPECT_EQ(ring.snapshot(events.data(), events.size()), total);
  // Oldest retained is event #100; newest is #(total - 1).
  EXPECT_EQ(events.front().start_ns, 100u);
  EXPECT_EQ(events.back().start_ns, total - 1);
}

TEST(TelemetryExport, ChromeTraceIsWellFormedJson) {
  auto& reg = MetricsRegistry::instance();
  Histogram& h = reg.histogram("test.export_span");
  {
    const ScopedTimer t(h, "test.export_span", "test");
  }
  std::ostringstream os;
  reg.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"test.export_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms_ns\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- Macro layer: behavior in both build modes ----------------------------
//
// With IPRISM_ENABLE_TELEMETRY the macros must register and update metrics;
// compiled out (the release-notelemetry preset builds this same file) they
// must expand to nothing — this branch proves no metric gets registered.

TEST(TelemetryMacros, MacrosFollowBuildMode) {
  IPRISM_COUNT("test.macro_counter");
  IPRISM_COUNT_ADD("test.macro_counter", 4);
  IPRISM_GAUGE_SET("test.macro_gauge", 2.5);
  {
    IPRISM_SCOPED_TIMER("test.macro_span", "test");
  }
  auto& reg = MetricsRegistry::instance();
#if IPRISM_TELEMETRY_ENABLED
  const Counter* c = reg.find_counter("test.macro_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 5u);
  const Gauge* g = reg.find_gauge("test.macro_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  const Histogram* span = reg.find_histogram("test.macro_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count(), 1u);
#else
  EXPECT_EQ(reg.find_counter("test.macro_counter"), nullptr);
  EXPECT_EQ(reg.find_gauge("test.macro_gauge"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.macro_span"), nullptr);
#endif
}

TEST(TelemetryRegistry, ResetForTestingZeroesInPlace) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("test.reset_counter");
  c.add(7);
  Histogram& h = reg.histogram("test.reset_hist");
  h.record(42);
  reg.reset_for_testing();
  EXPECT_EQ(c.value(), 0u);  // same reference, zeroed in place
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&reg.counter("test.reset_counter"), &c);
}

}  // namespace
}  // namespace iprism::common::telemetry
