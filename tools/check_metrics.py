#!/usr/bin/env python3
"""Validate telemetry artifacts exported by examples/adaptive_cluster.

Checks a "vw.metrics.v1" metrics JSON document (structure, name grammar,
kind-specific fields, per-kind invariants) and optionally a Chrome
trace_event JSON file. With --require-nonzero, asserts that at least one
counter under each named subsystem prefix has a nonzero value — the CI
smoke proof that instrumentation is actually wired through the stack, not
merely registered.

With --require-present, asserts that each exact metric name exists
regardless of kind or value — used for gauges (e.g. wren.trace.capacity_bytes)
and for counters that may legitimately be zero (wren.trace.dropped).
A name ending in ".*" is a prefix glob: at least one metric under that
prefix must exist (e.g. wren.federation.* for the whole federation tier).

Usage:
    tools/check_metrics.py metrics.json [--trace trace.json]
                           [--require-nonzero wren,transport,vnet]
                           [--require-present wren.trace.capacity_bytes,...]

Only the standard library is used. Exit code 0 = all checks passed.
"""

import argparse
import json
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
KINDS = {"counter", "gauge", "histogram"}


class CheckFailure(Exception):
    pass


def fail(message: str) -> None:
    raise CheckFailure(message)


def check_histogram(name: str, m: dict) -> None:
    for field in ("count", "sum", "min", "max", "mean", "p50", "p90", "p99", "buckets"):
        if field not in m:
            fail(f"{name}: histogram missing field {field!r}")
    count = m["count"]
    if not isinstance(count, int) or count < 0:
        fail(f"{name}: histogram count must be a non-negative integer")
    buckets = m["buckets"]
    if not isinstance(buckets, list):
        fail(f"{name}: buckets must be a list")
    bucket_total = 0
    prev_le = None
    for b in buckets:
        if not isinstance(b, dict) or "le" not in b or "count" not in b:
            fail(f"{name}: malformed bucket entry {b!r}")
        if prev_le is not None and b["le"] <= prev_le:
            fail(f"{name}: bucket upper bounds must be strictly increasing")
        prev_le = b["le"]
        bucket_total += b["count"]
    if bucket_total != count:
        fail(f"{name}: bucket counts sum to {bucket_total}, expected {count}")
    if count == 0:
        for field in ("min", "max"):
            if m[field] is not None:
                fail(f"{name}: empty histogram must export {field}=null")
    else:
        if m["min"] is None or m["max"] is None:
            fail(f"{name}: populated histogram must export numeric min/max")
        if m["min"] > m["max"]:
            fail(f"{name}: min {m['min']} > max {m['max']}")
        for q in ("p50", "p90", "p99"):
            if m[q] is None:
                fail(f"{name}: populated histogram must export numeric {q}")
            if not (m["min"] <= m[q] <= m["max"]):
                fail(f"{name}: {q}={m[q]} outside [min, max]")


def check_metrics(doc: dict) -> dict:
    """Validate the document; return {name: metric} for further checks."""
    if doc.get("schema") != "vw.metrics.v1":
        fail(f"unexpected schema: {doc.get('schema')!r}")
    if not isinstance(doc.get("taken_at_s"), (int, float)):
        fail("taken_at_s must be a number")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        fail("metrics must be a non-empty list")

    by_name = {}
    names = []
    for m in metrics:
        name = m.get("name")
        if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
            fail(f"invalid metric name: {name!r}")
        if name in by_name:
            fail(f"duplicate metric name: {name}")
        kind = m.get("kind")
        if kind not in KINDS:
            fail(f"{name}: unknown kind {kind!r}")
        if kind == "counter":
            if not isinstance(m.get("value"), int) or m["value"] < 0:
                fail(f"{name}: counter value must be a non-negative integer")
        elif kind == "gauge":
            if not isinstance(m.get("value"), (int, float)) and m.get("value") is not None:
                fail(f"{name}: gauge value must be numeric or null")
        else:
            check_histogram(name, m)
        by_name[name] = m
        names.append(name)
    if names != sorted(names):
        fail("metrics are not sorted by name")
    return by_name


def check_nonzero_prefixes(by_name: dict, prefixes: list) -> None:
    for prefix in prefixes:
        hits = [
            m
            for name, m in by_name.items()
            if (name == prefix or name.startswith(prefix + "."))
            and m["kind"] == "counter"
            and m["value"] > 0
        ]
        if not hits:
            fail(f"no nonzero counter under prefix {prefix!r}")
        print(f"  {prefix}: {len(hits)} nonzero counter(s)")


def check_present_names(by_name: dict, names: list) -> None:
    for name in names:
        if name.endswith(".*"):
            prefix = name[:-2]
            hits = [
                n for n in by_name if n == prefix or n.startswith(prefix + ".")
            ]
            if not hits:
                fail(f"no metric under required prefix {prefix!r}")
            print(f"  {name}: {len(hits)} metric(s) present")
            continue
        m = by_name.get(name)
        if m is None:
            fail(f"required metric {name!r} is absent")
        print(f"  {name}: present ({m['kind']})")


def check_trace(doc: dict) -> int:
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")
    for ev in events:
        for field in ("name", "cat", "ph", "ts", "pid", "tid"):
            if field not in ev:
                fail(f"trace event missing field {field!r}: {ev!r}")
        if ev["ph"] not in ("X", "i"):
            fail(f"unexpected trace phase {ev['ph']!r}")
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                fail(f"complete event needs a non-negative dur: {ev!r}")
        if ev["ts"] < 0:
            fail(f"negative timestamp: {ev!r}")
    return len(events)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="metrics JSON file (vw.metrics.v1)")
    parser.add_argument("--trace", help="Chrome trace_event JSON file to validate")
    parser.add_argument(
        "--require-nonzero",
        default="",
        help="comma-separated subsystem prefixes that must each have a nonzero counter",
    )
    parser.add_argument(
        "--require-present",
        default="",
        help="comma-separated exact metric names that must exist (any kind/value)",
    )
    args = parser.parse_args()

    try:
        with open(args.metrics, encoding="utf-8") as fh:
            by_name = check_metrics(json.load(fh))
        print(f"{args.metrics}: {len(by_name)} metrics, schema OK")

        prefixes = [p for p in args.require_nonzero.split(",") if p]
        if prefixes:
            check_nonzero_prefixes(by_name, prefixes)

        required = [n for n in args.require_present.split(",") if n]
        if required:
            check_present_names(by_name, required)

        if args.trace:
            with open(args.trace, encoding="utf-8") as fh:
                n_events = check_trace(json.load(fh))
            print(f"{args.trace}: {n_events} trace events, structure OK")
    except CheckFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    print("all telemetry checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
