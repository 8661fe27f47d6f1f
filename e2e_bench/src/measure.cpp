#include "measure.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <ostream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/stats.hpp"
#include "common/telemetry.hpp"

namespace e2e {

std::uint64_t now_ns() { return iprism::common::telemetry::trace_now_ns(); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image alone. getrusage's
  // ru_maxrss also keeps the peak of the image before exec — the launching
  // interpreter's — which would hide the benchmark's own footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::int64_t SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::int64_t tick, std::int64_t parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, tick});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

double SpanLog::total_us(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.us();
  }
  return total;
}

void SpanLog::write_json(std::ostream& os) const {
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"tick\": " << s.tick << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double percentile_of(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  return iprism::common::percentile(values, q);
}

double median_of(const std::vector<double>& values) { return percentile_of(values, 50.0); }

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.median = median_of(values);
  // Highest of these with at least ten samples above it.
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(s.n) * (100.0 - q) / 100.0 >= 10.0 || q == 50.0) {
      s.tail_q = q;
      s.tail = percentile_of(values, q);
      break;
    }
  }
  return s;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Report::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    failed_op("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::timing_note(const std::string& what, const std::vector<double>& values,
                         const char* unit) {
  const Summary s = summarize(values);
  char line[256];
  std::snprintf(line, sizeof line, "%-28s median %12.4f %s   p%-4g %12.4f %s   n=%zu",
                what.c_str(), s.median, unit, s.tail_q, s.tail, unit, s.n);
  note(line);
}

void Report::failed_op(const std::string& why) {
  ++failed;
  if (failed <= 20) note("FAILED: " + why);
}

void write_result_json(std::ostream& os, const Report& report) {
  char num[64];
  os << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}" << std::endl;
}

}  // namespace e2e
