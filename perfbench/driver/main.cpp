// perfbench_driver: runs one workload for a given time and prints what it
// measured as one JSON document on stdout. perfbench/run.py builds this
// binary, runs it, checks the outputs and reduces the raw numbers to the
// benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// The workload repeats, each repetition with the same seed (so the same
// inputs), until S seconds have passed and at least kMinReps repetitions
// ran. With --trace 1 the repetitions alternate untraced and traced, and
// the traced ones record spans, written to FILE when the driver ends.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/check.hpp"

using namespace perfbench;

namespace {

constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload bsp_wan|chaos|fleet_1k|readapt_1k"
               " --seed N --seconds S --trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  return opt;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) { return std::isfinite(v) ? exact(v) : "null"; }

void write_rep(std::ostream& out, const RepResult& rep, bool traced) {
  out << "{\"traced\": " << (traced ? "true" : "false") << ", \"setup_s\": " << number(rep.setup_s)
      << ", \"run_s\": " << number(rep.run_s) << ", \"digest\": " << quote(digest_hex(rep.digest))
      << ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, v] : rep.values) {
    out << sep << quote(name) << ": " << number(v);
    sep = ", ";
  }
  out << "}, \"series\": {";
  sep = "";
  for (const auto& [name, values] : rep.series) {
    out << sep << quote(name) << ": [";
    const char* vsep = "";
    for (const double v : values) {
      out << vsep << number(v);
      vsep = ", ";
    }
    out << "]";
    sep = ", ";
  }
  out << "}, \"checks\": [";
  sep = "";
  for (const Check& c : rep.checks) {
    out << sep << "[" << quote(c.name) << ", " << (c.ok ? "true" : "false") << "]";
    sep = ", ";
  }
  out << "]}";
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench_driver: cannot write " << path << "\n";
    std::exit(1);
  }
  const auto& spans = recorder().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"id\": " << i << ", \"rep\": " << s.rep << ", \"name\": " << quote(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  WorkloadFn fn = nullptr;
  if (opt.workload == "bsp_wan") fn = run_bsp_wan;
  if (opt.workload == "chaos") fn = run_chaos;
  if (opt.workload == "fleet_1k") fn = run_fleet;
  if (opt.workload == "readapt_1k") fn = run_readapt;
  if (fn == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
  if (opt.trace && opt.spans_path.empty()) usage("--trace 1 needs --spans FILE");

  std::ostringstream out;
  out << "{\"workload\": " << quote(opt.workload) << ", \"seed\": " << opt.seed
      << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
      << ", \"cpus\": " << std::thread::hardware_concurrency()
      << ", \"audit_compiled\": " << (VW_ENABLE_AUDIT ? "true" : "false")
      << ", \"audit_enabled\": " << (vw::contracts::audit_enabled() ? "true" : "false");

  // The golden chaos signatures are checked once per invocation, untimed.
  out << ", \"golden\": {";
  if (opt.workload == "chaos") {
    out << "\"42\": " << quote(chaos_signature(42)) << ", \"7\": " << quote(chaos_signature(7));
    release_heap();
  }
  out << "}, \"reps\": [";

  const Stopwatch clock;
  int reps = 0, traced_reps = 0;
  while (clock.seconds() < opt.seconds || reps < kMinReps ||
         (opt.trace && traced_reps < kMinTracedReps)) {
    const bool traced = opt.trace && reps % 2 == 1;
    recorder().set_enabled(traced, reps);
    const RepResult rep = fn(opt.seed);
    recorder().set_enabled(false, reps);
    release_heap();
    out << (reps == 0 ? "" : ", ");
    write_rep(out, rep, traced);
    ++reps;
    traced_reps += traced ? 1 : 0;
  }
  out << "], \"peak_rss_kb\": " << peak_rss_kb() << "}\n";

  if (opt.trace) write_spans(opt.spans_path);
  std::cout << out.str();
  return 0;
}
