#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

// Shared plumbing for the benchmark driver: the span recorder that times
// the driver's own calls into each layer, one repetition's result, and
// process memory readings.
//
// Spans are recorded only in traced repetitions. They are kept in memory
// (name, start, end, parent) and written out once, when the driver exits;
// perfbench/metrics.py turns them into per-layer times. Nothing here hooks
// into the library: a span covers exactly one call the driver makes.

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< string literal; lives for the program
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int32_t rep = 0;
};

class SpanRecorder {
 public:
  /// Turn recording on for repetition `rep` (off when `on` is false).
  void set_enabled(bool on, std::int32_t rep);
  bool enabled() const { return enabled_; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::int32_t rep_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// The driver is single-threaded; one recorder serves every workload.
SpanRecorder& recorder();

/// RAII span around one call into a layer; free when recording is off.
class Span {
 public:
  explicit Span(const char* name)
      : index_(recorder().enabled() ? recorder().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) recorder().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

/// Host wall time, for the untraced set-up and run phases.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One output check: a failed check is a failed operation.
struct Check {
  std::string name;
  bool ok = false;
};

/// Everything one repetition of a workload produces.
struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  /// Per-layer counts and workload outputs, by metric name.
  std::map<std::string, double> values;
  /// Per-window or per-call series the Python side reduces (named arrays).
  std::map<std::string, std::vector<double>> series;
  /// Simulated statistics that must repeat exactly for one seed.
  std::map<std::string, std::string> digest;
  std::vector<Check> checks;

  void check(std::string name, bool ok) { checks.push_back({std::move(name), ok}); }
  /// Record a count both as a value and in the exact-repeat digest.
  void count(const std::string& name, std::uint64_t v);
};

/// Advance `sim` to `until` in 0.1 s slices, each a "sim.run_until" span
/// (perfbench/run.py turns them into host ms per simulated second).
void run_sliced(vw::sim::Simulator& sim, vw::SimTime until);

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, vw::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(v[i - 1], v[j]);
  }
}

/// A counter from the vw.metrics.v1 snapshot; 0 when not registered.
std::uint64_t counter(const vw::obs::MetricsSnapshot& snap, const std::string& name);

/// Resident set size now and its high-water mark, in KiB (/proc/self/status).
std::int64_t rss_kb();
std::int64_t peak_rss_kb();
/// Hand freed heap back to the OS so the next repetition's RSS readings
/// start from the same floor.
void release_heap();

/// A double with all its digits (%.17g), for digests and JSON.
std::string exact(double v);

/// 64-bit FNV-1a over "name=value\n" lines, as 16 hex digits.
std::string digest_hex(const std::map<std::string, std::string>& items);

using WorkloadFn = RepResult (*)(std::uint64_t seed);

RepResult run_bsp_wan(std::uint64_t seed);
RepResult run_chaos(std::uint64_t seed);
RepResult run_fleet(std::uint64_t seed);
RepResult run_readapt(std::uint64_t seed);

/// The chaos_cluster scenario for one system seed: its one-line signature,
/// in the format examples/chaos_cluster prints and tests/golden stores.
std::string chaos_signature(std::uint64_t system_seed);

}  // namespace perfbench
