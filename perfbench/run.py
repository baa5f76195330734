#!/usr/bin/env python3
"""Benchmark of the whole Wren + Virtuoso loop.

    python3 perfbench/run.py --workload bsp_wan --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) under .bench_build/, runs the driver for one workload, checks its
outputs and prints, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics. The line before it is a record of how the result was
made (revision, command, build, compiler, CPUs, VW_AUDIT, seed, digests).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Metric names and units come from BENCHMARK.json; this file says how to
# compute each. A per-layer metric a workload does not exercise reads 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

# Counts taken as the driver read them (identical in every repetition).
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
# Per-call span medians: metric -> (span name, scale from ns).
SPAN_MEDIANS = {
    "virtuoso.add_daemon_ms": ("virtuoso.add_daemon", 1e-6),
    "topo.build_ms": ("topo.build", 1e-6),
    "virtuoso.bootstrap_ms": ("virtuoso.bootstrap", 1e-6),
    "soap.report_encode_us": ("soap.report_encode", 1e-3),
    "soap.send_us": ("soap.send", 1e-3),
    "soap.parse_us": ("soap.parse", 1e-3),
    "wren.federation.summary_build_ms": ("wren.federation.summary_build", 1e-6),
    "wren.federation.codec_ms": ("wren.federation.codec", 1e-6),
    "wren.federation.apply_ms": ("wren.federation.apply", 1e-6),
    "vadapt.warm.narrow_ms_p50": ("vadapt.warm.narrow", 1e-6),
    "vadapt.warm.widen_ms_p50": ("vadapt.warm.widen", 1e-6),
    "vadapt.cold.solve_ms": ("vadapt.cold.solve", 1e-6),
}
SLICES_PER_SIM_SECOND = 10  # the driver advances the simulator 0.1 s per call


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (ROOT / base if not base.is_absolute() else base) / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def git_revision():
    """HEAD of the repository this checkout is, or None when it is not one."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over the library and benchmark sources: the revision when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def load_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    return spans


def per_layer(doc, spans):
    reps = doc["reps"]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    first = traced[0]
    values = first["values"]
    out = {name: float(values.get(name, 0.0)) for name in COUNTS}

    by_name = {}
    for s in spans.values():
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: s["end_ns"] - s["start_ns"]
    for metric, (span, scale) in SPAN_MEDIANS.items():
        found = by_name.get(span)
        out[metric] = m.median([dur(s) for s in found]) * scale if found else 0.0

    slices = by_name.get("sim.run_until", [])
    if slices:
        selfs = m.self_times(spans)
        per_rep = {}
        for s in slices:
            per_rep[s["rep"]] = per_rep.get(s["rep"], 0) + selfs[s["id"]]
        events = {r_index: r["values"]["sim.events"]
                  for r_index, r in enumerate(reps) if r["traced"]}
        out["sim.ns_per_event"] = m.median([ns / events[rep] for rep, ns in per_rep.items()])
        ms_per_sim_s = [dur(s) * 1e-6 * SLICES_PER_SIM_SECOND for s in slices]
        out["sim.slice_ms_p50"] = m.percentile(ms_per_sim_s, 50)
        out["sim.slice_ms_p99"] = m.percentile(ms_per_sim_s, 99)
    else:
        out["sim.ns_per_event"] = out["sim.slice_ms_p50"] = out["sim.slice_ms_p99"] = 0.0
    delivered = values.get("net.packets_delivered", 0)
    out["net.events_per_packet"] = values.get("sim.events", 0) / delivered if delivered else 0.0

    analyze = by_name.get("wren.analyze_offline")
    out["wren.analyze_ns_per_record"] = (
        m.median([dur(s) / reps[s["rep"]]["values"]["wren.offline.records"] for s in analyze])
        if analyze else 0.0)
    out["wren.rss_per_daemon_kb"] = m.median(
        [r["values"].get("wren.rss_per_daemon_kb", 0.0) for r in reps])

    warm = by_name.get("vadapt.warm.narrow", []) + by_name.get("vadapt.warm.widen", [])
    if warm:
        warm_ms = [dur(s) * 1e-6 for s in warm]
        out["readapt_ms_p50"] = m.percentile(warm_ms, 50)
        out["readapt_ms_p99"] = m.percentile(warm_ms, 99)
        iterations = sum(r["values"]["vadapt.warm.burst_iterations"] for r in traced)
        out["vadapt.warm.us_per_burst_iteration"] = sum(warm_ms) * 1e3 / iterations
    else:
        out["readapt_ms_p50"] = out["readapt_ms_p99"] = 0.0
        out["vadapt.warm.us_per_burst_iteration"] = 0.0

    out.update(outcomes(first))
    out["trace.overhead"] = (m.median([r["run_s"] for r in traced]) /
                             m.median([r["run_s"] for r in plain]))
    return named(out, PER_LAYER)


def named(values, spec):
    missing = sorted(set(spec) - set(values))
    if missing:
        fail(f"no value computed for {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in spec.items()}


def outcomes(rep):
    """The workload's simulated outcomes (deterministic for one seed)."""
    series, values = rep["series"], rep["values"]
    out = {"wren_err_p50": 0.0, "wren_err_p90": 0.0, "wren_coverage": 0.0,
           "plan_cost_ratio": 0.0}
    if "wren.estimate_bps" in series:
        errors = m.relative_errors(series["wren.estimate_bps"], series["wren.truth_bps"],
                                   series["wren.window_observations"])
        out["wren_coverage"] = m.coverage(series["wren.window_observations"])
        if errors:
            out["wren_err_p50"] = m.percentile(errors, 50)
            out["wren_err_p90"] = m.percentile(errors, 90)
    if series.get("plan_cost_ratio"):
        out["plan_cost_ratio"] = m.median(series["plan_cost_ratio"])
    out["plan_cost_mbps"] = values.get("plan_cost_mbps", 0.0)
    out["root_bytes_per_daemon_s"] = values.get("root_bytes_per_daemon_s", 0.0)
    return out


def end_to_end(doc):
    reps = doc["reps"]
    values = {
        "setup_s": m.median([r["setup_s"] for r in reps]),
        "run_s": m.median([r["run_s"] for r in reps]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    return named(values, END_TO_END)


def sample_counts(doc, spans):
    """Sample count and supported tail percentile of each timing series."""
    counts = {"reps": len(doc["reps"])}
    names = {}
    for s in spans.values():
        names[s["name"]] = names.get(s["name"], 0) + 1
    for name, n in sorted(names.items()):
        counts[name] = {"n": n, "tail_percentile": m.tail_percentile(n)}
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    spans_path = driver.parent / f"spans-{os.getpid()}.jsonl"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    doc = json.loads(proc.stdout)
    spans = {}
    if args.trace:
        spans = load_spans(spans_path)
        spans_path.unlink()

    checks = [tuple(c) for r in doc["reps"] for c in r["checks"]]
    golden_ok = True
    for seed, signature in doc["golden"].items():
        expected = (ROOT / "tests" / "golden" / f"chaos_signature_seed{seed}.txt").read_text()
        ok = signature == expected.strip()
        golden_ok = golden_ok and ok
        checks.append((f"chaos: seed {seed} signature equals tests/golden", ok))
    digests = sorted({r["digest"] for r in doc["reps"]})
    repeat_ok = len(digests) == 1

    result_metrics = per_layer(doc, spans) if args.trace else end_to_end(doc)
    finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                 for v in result_metrics.values())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "command": [Path(sys.executable).name] + sys.argv,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "build_type": doc["build_type"], "compiler": doc["compiler"], "cpus": doc["cpus"],
        "vw_audit": {"compiled": doc["audit_compiled"], "enabled": doc["audit_enabled"]},
        "digests": digests, "samples": sample_counts(doc, spans),
        "failed_checks": sorted({name for name, ok in checks if not ok}),
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": repeat_ok and golden_ok and finite,
        "attempted": len(checks),
        "failed": sum(1 for _, ok in checks if not ok),
        "metrics": result_metrics,
    }))


if __name__ == "__main__":
    main()
