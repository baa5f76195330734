#include "harness.hpp"

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) return std::stoll(line.substr(key_len));
  }
  return 0;
}

}  // namespace

void SpanRecorder::set_enabled(bool on, std::int32_t rep) {
  enabled_ = on;
  rep_ = rep;
  stack_.clear();
}

std::int32_t SpanRecorder::open(const char* name) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back(), rep_});
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping stays outside the span
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

void RepResult::count(const std::string& name, std::uint64_t v) {
  values[name] = static_cast<double>(v);
  digest[name] = std::to_string(v);
}

void run_sliced(vw::sim::Simulator& sim, vw::SimTime until) {
  const vw::SimTime slice = vw::millis(100);
  for (vw::SimTime t = slice; t <= until; t += slice) {
    Span span("sim.run_until");
    sim.run_until(t);
  }
}

std::uint64_t counter(const vw::obs::MetricsSnapshot& snap, const std::string& name) {
  const vw::obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->count;
}

std::int64_t rss_kb() { return status_kb("VmRSS:"); }
std::int64_t peak_rss_kb() { return status_kb("VmHWM:"); }

void release_heap() { malloc_trim(0); }

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string digest_hex(const std::map<std::string, std::string>& items) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : items) {
    mix(name);
    mix("=");
    mix(value);
    mix("\n");
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
