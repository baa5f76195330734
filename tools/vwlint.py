#!/usr/bin/env python3
"""vwlint — semantic determinism / hygiene analyzer for the Virtuoso/Wren tree.

Subsumes the old regex lint.py (one entry point, same exit-code contract:
0 clean, 1 findings) and adds the semantic rule set that guards the
reproduction's core claim — bit-identical runs per seed:

  R1 virtual-clock purity    no wall-clock sources (std::chrono::*_clock::now,
                             time(), clock(), gettimeofday, clock_gettime) in
                             src/ outside the whitelist (util/time.hpp).
  R2 seeded randomness only  no std::random_device, rand()/srand(), or
                             default-constructed std::mt19937[_64] outside
                             util/rng.{hpp,cpp}; all draws flow from
                             RngService's named streams.
  R3 ordered iteration       no range-for / .begin() iteration over
                             std::unordered_map/set in ordering-sensitive
                             modules (sim, net, vadapt, wren, vnet) without a
                             `// vwlint: unordered-ok(<reason>)` waiver —
                             hash order must never feed event order, float
                             accumulation, or trace/signature output.
  R4 hot-path allocation     no std::function in src/sim+src/net headers
                             (net/fault.hpp exempt) and no by-value
                             std::shared_ptr parameters there: per-packet
                             signatures must not churn refcounts.
  R5 contract coverage       VW_REQUIRE/VW_ENSURE count per public header must
                             not regress vs tools/vwlint_baseline.json.

  hygiene                    the legacy checks: #pragma once, no `using
                             namespace` in headers, no raw assert(), no
                             std::cout/printf in src/, tabs/trailing
                             whitespace, include order, metric-name grammar.

Waiver grammar (audited by --list-waivers): a finding on line N is suppressed
when line N or line N-1 carries `// vwlint: <tag>(<reason>)` with the tag
matching the rule (wallclock-ok for R1, rand-ok for R2, unordered-ok for R3,
alloc-ok for R4). The reason is mandatory; an empty reason is itself a
finding.

Analysis modes: `--semantic` parses every .cpp TU with libclang over
compile_commands.json (cursor-level resolution, no false positives from
strings/macros); headers and any TU that fails to parse are still covered by
the token-level scanner in the same run, so both modes see the whole tree.
When the libclang python bindings are unavailable the analyzer degrades to
the token-level scanner everywhere, which is tuned to produce the same
verdicts on this tree; CI runs the semantic mode on the clang job.

Usage:
  vwlint.py                      # token-level scan of src/ + tests/
  vwlint.py --semantic           # libclang scan (token fallback)
  vwlint.py --rules R1,R3        # subset of rules
  vwlint.py --list-waivers       # audit table of every waiver, exit 0
  vwlint.py --update-baseline    # rewrite the R5 contract-coverage baseline
  vwlint.py FILE...              # scan explicit files (fixture/test mode:
                                 # treated as src/ files in a sensitive module)
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"
FIXTURES = TESTS / "lint_fixtures"  # intentionally-bad inputs; never scanned
BASELINE = REPO / "tools" / "vwlint_baseline.json"

HEADER_EXTS = {".hpp", ".h"}
SOURCE_EXTS = {".cpp", ".cc", ".cxx"}

# Modules where iteration order can feed event order, float accumulation, or
# trace/signature bytes — R3's scope.
ORDER_SENSITIVE_MODULES = {"sim", "net", "vadapt", "wren", "vnet"}

# R1 whitelist: files allowed to touch the wall clock (the virtual-time shim
# layer itself). Everything else in src/ must take a ClockFn / SimTime.
WALLCLOCK_WHITELIST = {"util/time.hpp"}

# R2 home: the deterministic randomness service.
RNG_HOME = {"util/rng.hpp", "util/rng.cpp"}

# R4 scope: the event-engine / datapath hot path.
HOT_PATH_DIRS = ("sim", "net")
HOT_PATH_EXEMPT = {"net/fault.hpp"}  # cold construction-time scripting API
# Headers outside the hot-path dirs whose code still runs per packet: the
# capture datapath (tap callback -> buffered shard append).
HOT_PATH_EXTRA = {
    "wren/trace_writer.hpp",
    "wren/capture.hpp",
}

ALL_RULES = ("hygiene", "R1", "R2", "R3", "R4", "R5")

WAIVER_TAGS = {
    "R1": "wallclock-ok",
    "R2": "rand-ok",
    "R3": "unordered-ok",
    "R4": "alloc-ok",
}

WAIVER_RE = re.compile(r"//\s*vwlint:\s*([a-z-]+)\(([^)]*)\)")

# --- R1 patterns -------------------------------------------------------------
WALLCLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "std::chrono::{0} wall clock"),
    (re.compile(r"(?<![\w_.:])(gettimeofday|clock_gettime|timespec_get)\s*\("),
     "{0}() wall clock"),
    (re.compile(r"(?<![\w_.:~])(time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "C {0}() wall clock"),
]

# --- R2 patterns -------------------------------------------------------------
RANDOM_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device (non-deterministic seed source)"),
    (re.compile(r"(?<![\w_.:])s?rand\s*\("), "C rand()/srand() (global hidden state)"),
    (re.compile(r"std::mt19937(?:_64)?\s+\w+\s*;"),
     "default-constructed std::mt19937 (fixed implicit seed, bypasses RngService)"),
    (re.compile(r"std::mt19937(?:_64)?\s*(?:\(\s*\)|\{\s*\})"),
     "default-constructed std::mt19937 (fixed implicit seed, bypasses RngService)"),
]

# --- R3 patterns -------------------------------------------------------------
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*>\s+(\w+)\s*(?:;|=|\{)")
RANGE_FOR = re.compile(r"for\s*\([^;()]*?:\s*(?:this->)?([\w.>-]+)\s*\)")
BEGIN_CALL = re.compile(r"(?<![\w_])(\w+)\s*\.\s*c?begin\s*\(")

# --- R4 patterns -------------------------------------------------------------
STD_FUNCTION = re.compile(r"(?<![\w_])std::function\b")
# A shared_ptr followed by a parameter name and `,` or `)` is a by-value
# parameter; members/locals end in `;`, `=` or `{`.
SHARED_PTR_BYVAL = re.compile(
    r"std::shared_ptr\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>\s+\w+\s*[,)]")

# --- R5 patterns -------------------------------------------------------------
CONTRACT_MACRO = re.compile(r"(?<![\w_])VW_(?:REQUIRE|ENSURE)\s*\(")

# --- legacy hygiene patterns -------------------------------------------------
RAW_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\s", re.MULTILINE)
BANNED_IO = re.compile(r"(?<![\w_])(std::cout|std::cerr|printf\s*\()")
METRIC_CALL = re.compile(r'(?<![\w_])(?:counter|gauge|histogram)\s*\(\s*"([^"]*)"')
METRIC_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


@dataclass
class Finding:
    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        try:
            rel = self.path.relative_to(REPO)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Waiver:
    path: Path
    line: int
    tag: str
    reason: str
    used: bool = False


@dataclass
class FileContext:
    """Where a file sits in the tree, which decides which rules apply."""

    path: Path
    raw: str
    code: str  # comments and string/char literals stripped, newlines kept
    lines: list[str] = field(default_factory=list)
    is_src: bool = False
    is_header: bool = False
    rel_src: str = ""  # path relative to src/ ("" outside src/)
    module: str = ""   # first directory under src/ ("" outside src/)
    order_sensitive: bool = False
    hot_path_header: bool = False
    waivers: list[Waiver] = field(default_factory=list)


# R"delim( at the opening quote of a raw string literal; the delimiter is at
# most 16 chars and cannot contain space, parens, backslash, or newline.
RAW_STRING_OPEN = re.compile(r'"([^ ()\\\t\v\f\r\n]{0,16})\(')


def _raw_string_end(text: str, i: int) -> int | None:
    """`i` points at the opening quote of a raw string literal (an `R` prefix
    precedes it). Returns the offset just past the closing quote, or None if
    the literal is malformed/unterminated."""
    m = RAW_STRING_OPEN.match(text, i)
    if m is None:
        return None
    close = ")" + m.group(1) + '"'
    j = text.find(close, m.end())
    return None if j == -1 else j + len(close)


def _is_raw_string_quote(text: str, i: int) -> bool:
    """True when the quote at `i` is opened by a raw-string prefix
    (R, uR, u8R, UR, LR) rather than being an ordinary string literal."""
    j = i - 1
    if j < 0 or text[j] != "R":
        return False
    j -= 1
    if j >= 1 and text[j] == "8" and text[j - 1] == "u":
        j -= 2
    elif j >= 0 and text[j] in "uUL":
        j -= 1
    # The prefix must not be the tail of a longer identifier (e.g. `FooR"x"`).
    return j < 0 or not (text[j].isalnum() or text[j] == "_")


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments and string literals so patterns only
    match real code. Newlines are preserved so line numbers survive. Raw
    string literals (R"delim(...)delim") are recognized so embedded quotes
    and backslashes cannot desync the scan."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            chunk = text[i : n if j == -1 else j + 2]
            out.append("\n" * chunk.count("\n"))
            i = n if j == -1 else j + 2
        elif ch == '"' and _is_raw_string_quote(text, i):
            end = _raw_string_end(text, i)
            if end is None:  # malformed: blank the rest, keep line numbers
                out.append('""' + "\n" * text.count("\n", i))
                i = n
            else:
                out.append('""' + "\n" * text.count("\n", i, end))
                i = end
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""')
            i = min(j + 1, n)
        elif ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("''")
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def make_context(path: Path, *, fixture_mode: bool = False) -> FileContext:
    raw = path.read_text(encoding="utf-8")
    ctx = FileContext(path=path, raw=raw, code=strip_comments(raw))
    ctx.lines = raw.splitlines()
    ctx.is_header = path.suffix in HEADER_EXTS
    if fixture_mode:
        # Explicit file arguments (fixtures under test) are analyzed as if
        # they lived in an ordering-sensitive src/ module.
        ctx.is_src = True
        ctx.order_sensitive = True
        ctx.hot_path_header = ctx.is_header
        ctx.rel_src = path.name
    elif SRC in path.parents:
        ctx.is_src = True
        ctx.rel_src = str(path.relative_to(SRC))
        ctx.module = path.relative_to(SRC).parts[0]
        ctx.order_sensitive = ctx.module in ORDER_SENSITIVE_MODULES
        ctx.hot_path_header = ctx.is_header and (
            (ctx.module in HOT_PATH_DIRS and ctx.rel_src not in HOT_PATH_EXEMPT)
            or ctx.rel_src in HOT_PATH_EXTRA
        )
    for m in WAIVER_RE.finditer(raw):
        ctx.waivers.append(
            Waiver(path=path, line=line_of(raw, m.start()),
                   tag=m.group(1), reason=m.group(2).strip()))
    return ctx


def waived(ctx: FileContext, rule: str, line: int) -> bool:
    """A finding is waived by a matching tag on its own line or the line
    above. Marks the waiver used for the audit table."""
    tag = WAIVER_TAGS.get(rule)
    if tag is None:
        return False
    hit = False
    for w in ctx.waivers:
        if w.tag == tag and w.line in (line, line - 1):
            w.used = True
            hit = True
    return hit


# --- rule implementations (token level) --------------------------------------


def check_r1_wallclock(ctx: FileContext) -> list[Finding]:
    if not ctx.is_src or ctx.rel_src in WALLCLOCK_WHITELIST:
        return []
    out = []
    for pattern, msg in WALLCLOCK_PATTERNS:
        for m in pattern.finditer(ctx.code):
            line = line_of(ctx.code, m.start())
            if waived(ctx, "R1", line):
                continue
            out.append(Finding(ctx.path, line, "R1",
                               msg.format(m.group(1)) +
                               "; simulated code takes virtual time (util/time.hpp SimTime "
                               "/ ClockFn), or add `// vwlint: wallclock-ok(<reason>)`"))
    return out


def check_r2_random(ctx: FileContext) -> list[Finding]:
    if not ctx.is_src or ctx.rel_src in RNG_HOME:
        return []
    out = []
    for pattern, msg in RANDOM_PATTERNS:
        for m in pattern.finditer(ctx.code):
            line = line_of(ctx.code, m.start())
            if waived(ctx, "R2", line):
                continue
            out.append(Finding(ctx.path, line, "R2",
                               msg + "; draw from a named RngService stream "
                               "(util/rng.hpp), or add `// vwlint: rand-ok(<reason>)`"))
    return out


def unordered_names(code: str) -> set[str]:
    """Identifiers declared in this file with an unordered container type
    (members, locals, params — anywhere the declaration regex can see)."""
    return {m.group(1) for m in UNORDERED_DECL.finditer(code)}


def check_r3_unordered(ctx: FileContext) -> list[Finding]:
    if not (ctx.is_src and ctx.order_sensitive):
        return []
    names = unordered_names(ctx.code)
    # Members declared in the matching header are iterated from the .cpp.
    if ctx.path.suffix in SOURCE_EXTS:
        own = ctx.path.with_suffix(".hpp")
        if own.exists():
            names |= unordered_names(strip_comments(own.read_text(encoding="utf-8")))
    if not names:
        return []
    out = []
    seen: set[tuple[int, str]] = set()

    def flag(line: int, name: str, how: str) -> None:
        if (line, name) in seen or waived(ctx, "R3", line):
            return
        seen.add((line, name))
        out.append(Finding(ctx.path, line, "R3",
                           f"{how} over unordered container `{name}` in "
                           f"ordering-sensitive module; hash order must not feed "
                           f"event order / float accumulation / signatures — iterate "
                           f"a sorted copy or add `// vwlint: unordered-ok(<reason>)`"))

    for m in RANGE_FOR.finditer(ctx.code):
        expr = m.group(1)
        leaf = re.split(r"[.>-]", expr)[-1] or expr
        if leaf in names:
            flag(line_of(ctx.code, m.start()), leaf, "range-for")
    for m in BEGIN_CALL.finditer(ctx.code):
        if m.group(1) in names:
            flag(line_of(ctx.code, m.start()), m.group(1), "iterator loop")
    return out


def check_r4_alloc(ctx: FileContext) -> list[Finding]:
    if not ctx.hot_path_header:
        return []
    out = []
    for m in STD_FUNCTION.finditer(ctx.code):
        line = line_of(ctx.code, m.start())
        if waived(ctx, "R4", line):
            continue
        out.append(Finding(ctx.path, line, "R4",
                           "std::function in a hot-path header; use vw::SmallFn "
                           "(util/small_fn.hpp) so the datapath never allocates per event"))
    for m in SHARED_PTR_BYVAL.finditer(ctx.code):
        line = line_of(ctx.code, m.start())
        if waived(ctx, "R4", line):
            continue
        out.append(Finding(ctx.path, line, "R4",
                           "by-value std::shared_ptr parameter in a hot-path header; "
                           "pass const& (or move) so per-packet calls never touch the "
                           "refcount, or add `// vwlint: alloc-ok(<reason>)`"))
    return out


def contract_counts(files: list[FileContext]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ctx in files:
        if ctx.is_src and ctx.is_header and ctx.rel_src:
            # Skip #define lines so util/check.hpp's own macro definitions
            # don't count as call sites.
            code = "\n".join(l for l in ctx.code.splitlines()
                             if not l.lstrip().startswith("#define"))
            counts[f"src/{ctx.rel_src}"] = len(CONTRACT_MACRO.findall(code))
    return dict(sorted(counts.items()))


def check_r5_contracts(files: list[FileContext], baseline_path: Path) -> list[Finding]:
    if not baseline_path.exists():
        return [Finding(baseline_path, 1, "R5",
                        "contract-coverage baseline missing; run "
                        "`tools/vwlint.py --update-baseline` and commit it")]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    expected: dict[str, int] = baseline.get("contracts", {})
    current = contract_counts(files)
    out = []
    for rel, want in sorted(expected.items()):
        have = current.get(rel)
        if have is None:
            out.append(Finding(baseline_path, 1, "R5",
                               f"{rel} is in the baseline but no longer exists; "
                               f"run --update-baseline if the removal is intentional"))
        elif have < want:
            out.append(Finding(REPO / rel, 1, "R5",
                               f"VW_REQUIRE/VW_ENSURE coverage regressed: {have} < "
                               f"baseline {want}; restore the contracts or justify via "
                               f"--update-baseline in the same change"))
    return out


def check_hygiene(ctx: FileContext) -> list[Finding]:
    out = []
    path, raw, code = ctx.path, ctx.raw, ctx.code

    if "\t" in raw:
        out.append(Finding(path, line_of(raw, raw.index("\t")), "hygiene", "tab character"))
    for i, line in enumerate(ctx.lines, start=1):
        if line != line.rstrip():
            out.append(Finding(path, i, "hygiene", "trailing whitespace"))

    if ctx.is_header:
        first_directive = next(
            (l.strip() for l in ctx.lines if l.strip() and not l.strip().startswith("//")),
            "",
        )
        if first_directive != "#pragma once":
            out.append(Finding(path, 1, "hygiene", "header does not start with #pragma once"))
        m = USING_NAMESPACE.search(code)
        if m:
            out.append(Finding(path, line_of(code, m.start()), "hygiene",
                               "`using namespace` in header"))

    if ctx.is_src:
        m = RAW_ASSERT.search(code)
        if m:
            out.append(Finding(path, line_of(code, m.start()), "hygiene",
                               "raw assert(); use VW_REQUIRE/VW_ASSERT from util/check.hpp"))
        m = BANNED_IO.search(code)
        if m:
            out.append(Finding(path, line_of(code, m.start()), "hygiene",
                               f"banned IO `{m.group(1)}` in library code; use util/log.hpp"))
        # Raw text, not `code`: strip_comments blanks string literals.
        for m in METRIC_CALL.finditer(raw):
            if not METRIC_NAME.match(m.group(1)):
                out.append(Finding(path, line_of(raw, m.start()), "hygiene",
                                   f'invalid metric name literal "{m.group(1)}" '
                                   "(want dotted lowercase, e.g. wren.trains.extracted)"))

    if ctx.is_src and path.suffix in SOURCE_EXTS:
        own = path.with_suffix(".hpp")
        if own.exists():
            includes = re.findall(r'#include\s+"([^"]+)"', code)
            expect = ctx.rel_src[: -len(path.suffix)] + ".hpp"
            if includes and includes[0] != expect:
                out.append(Finding(path, 1, "hygiene",
                                   f'first #include should be "{expect}"'))

    # Waivers with an empty reason defeat the audit trail.
    for w in ctx.waivers:
        if not w.reason:
            out.append(Finding(path, w.line, "hygiene",
                               f"vwlint waiver `{w.tag}` has an empty reason"))
    return out


# --- semantic (libclang) layer ----------------------------------------------

# Wall-clock callees by qualified name, for cursor-level resolution.
SEMANTIC_WALLCLOCK_CALLEES = {
    "std::chrono::system_clock::now", "std::chrono::steady_clock::now",
    "std::chrono::high_resolution_clock::now",
    "time", "clock", "gettimeofday", "clock_gettime", "timespec_get",
}
SEMANTIC_RANDOM_TYPES = {"std::random_device"}
SEMANTIC_RANDOM_CALLEES = {"rand", "srand"}


def clean_compile_args(arguments: list[str], filename: str) -> list[str]:
    """Strip a compile-command argv down to the flags index.parse accepts:
    one pass dropping -c (a bare flag), -o plus its operand, and the source
    file itself (matched against the database's record of it, so .cxx and
    relative/absolute spellings are handled). The compiler binary is
    arguments[0] and is skipped."""
    src_name = Path(filename).name
    cleaned: list[str] = []
    args_iter = iter(arguments[1:])
    for a in args_iter:
        if a == "-c":
            continue
        if a == "-o":
            next(args_iter, None)
            continue
        if a == filename or (
                Path(a).suffix in SOURCE_EXTS and Path(a).name == src_name):
            continue
        cleaned.append(a)
    return cleaned


def try_semantic(files: list[FileContext], compile_commands: Path,
                 rules: set[str]) -> tuple[list[Finding], set[Path]] | None:
    """libclang pass over the compilation database. Returns the semantic
    findings plus the set of files actually covered by a parsed TU; the
    caller runs the token-level rules on everything else (headers have no
    compile commands, and a TU can fail to parse). Returns None when the
    bindings (or the database) are unavailable — then the token-level
    verdicts cover the whole tree."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        db = cindex.CompilationDatabase.fromDirectory(str(compile_commands.parent))
    except Exception:
        return None

    findings: list[Finding] = []
    index = cindex.Index.create()

    def qualified(cursor) -> str:
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def visit(cursor, ctx: FileContext) -> None:
        loc = cursor.location
        if loc.file is None or str(loc.file) != str(ctx.path):
            for child in cursor.get_children():
                visit(child, ctx)
            return
        if "R1" in rules and cursor.kind == cindex.CursorKind.CALL_EXPR:
            callee = cursor.referenced
            if callee is not None and qualified(callee) in SEMANTIC_WALLCLOCK_CALLEES:
                if ctx.rel_src not in WALLCLOCK_WHITELIST and not waived(ctx, "R1", loc.line):
                    findings.append(Finding(ctx.path, loc.line, "R1",
                                            f"call to wall clock `{qualified(callee)}`"))
        if "R2" in rules:
            if cursor.kind == cindex.CursorKind.CALL_EXPR:
                callee = cursor.referenced
                if callee is not None and qualified(callee) in SEMANTIC_RANDOM_CALLEES:
                    if ctx.rel_src not in RNG_HOME and not waived(ctx, "R2", loc.line):
                        findings.append(Finding(ctx.path, loc.line, "R2",
                                                f"call to `{qualified(callee)}`"))
            if cursor.kind == cindex.CursorKind.VAR_DECL:
                spelling = cursor.type.get_canonical().spelling
                if ("random_device" in spelling or
                        ("mersenne_twister" in spelling and
                         not any(ch.kind == cindex.CursorKind.CALL_EXPR or
                                 ch.kind == cindex.CursorKind.UNEXPOSED_EXPR
                                 for ch in cursor.get_children()))):
                    if ctx.rel_src not in RNG_HOME and not waived(ctx, "R2", loc.line):
                        findings.append(Finding(ctx.path, loc.line, "R2",
                                                f"non-deterministic RNG `{spelling}`"))
        if ("R3" in rules and ctx.order_sensitive and
                cursor.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT):
            children = list(cursor.get_children())
            if children:
                range_t = children[-2].type.get_canonical().spelling if len(children) >= 2 else ""
                if "unordered_map" in range_t or "unordered_set" in range_t:
                    if not waived(ctx, "R3", loc.line):
                        findings.append(Finding(ctx.path, loc.line, "R3",
                                                f"range-for over `{range_t}`"))
        for child in cursor.get_children():
            visit(child, ctx)

    covered: set[Path] = set()
    for ctx in files:
        if ctx.path.suffix not in SOURCE_EXTS or not ctx.is_src:
            continue
        cmds = db.getCompileCommands(str(ctx.path))
        if not cmds:
            continue
        cmd = cmds[0]
        cleaned = clean_compile_args(list(cmd.arguments), cmd.filename)
        try:
            tu = index.parse(str(ctx.path), args=cleaned)
            fatal = any(d.severity >= cindex.Diagnostic.Fatal
                        for d in tu.diagnostics)
        except Exception as exc:
            tu, fatal = None, True
            print(f"vwlint: semantic parse failed for "
                  f"{ctx.path.relative_to(REPO)}: {exc}")
        if tu is None or fatal:
            print(f"vwlint: token-level fallback for "
                  f"{ctx.path.relative_to(REPO)} (TU did not parse cleanly)")
            continue
        covered.add(ctx.path)
        visit(tu.cursor, ctx)

    return (findings, covered) if covered else None


# --- driver ------------------------------------------------------------------


def collect_tree_files() -> list[Path]:
    return sorted(
        p
        for root in (SRC, TESTS)
        for p in root.rglob("*")
        if p.suffix in HEADER_EXTS | SOURCE_EXTS and FIXTURES not in p.parents
    )


def list_waivers(files: list[FileContext]) -> None:
    rows = [w for ctx in files for w in ctx.waivers]
    if not rows:
        print("vwlint: no waivers in the tree")
        return
    width = max(len(f"{w.path.relative_to(REPO)}:{w.line}") for w in rows)
    print(f"vwlint: {len(rows)} waiver(s)")
    for w in sorted(rows, key=lambda w: (str(w.path), w.line)):
        where = f"{w.path.relative_to(REPO)}:{w.line}"
        print(f"  {where:<{width}}  {w.tag:<14} {w.reason or '<EMPTY REASON>'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--semantic", action="store_true",
                    help="use libclang over compile_commands.json when available")
    ap.add_argument("--rules", default="all",
                    help="comma list from {hygiene,R1,R2,R3,R4,R5} or 'all'")
    ap.add_argument("--list-waivers", action="store_true",
                    help="print every waiver with its reason and exit 0")
    ap.add_argument("--compile-commands", type=Path,
                    default=REPO / "build" / "compile_commands.json",
                    help="compilation database for --semantic")
    ap.add_argument("--baseline", type=Path, default=BASELINE,
                    help="R5 contract-coverage baseline json")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the R5 baseline from the current tree and exit")
    ap.add_argument("paths", nargs="*", type=Path,
                    help="explicit files to scan (fixture mode: treated as "
                         "src/ files in an ordering-sensitive module)")
    opts = ap.parse_args(argv)

    if opts.rules == "all":
        rules = set(ALL_RULES)
    else:
        rules = {r.strip() for r in opts.rules.split(",") if r.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            ap.error(f"unknown rules: {sorted(unknown)} (choose from {ALL_RULES})")

    fixture_mode = bool(opts.paths)
    paths = [p.resolve() for p in opts.paths] if fixture_mode else collect_tree_files()
    files = [make_context(p, fixture_mode=fixture_mode) for p in paths]

    if opts.list_waivers:
        list_waivers(files)
        return 0

    if opts.update_baseline:
        counts = contract_counts(files)
        opts.baseline.write_text(json.dumps(
            {"comment": "VW_REQUIRE/VW_ENSURE count per public header; vwlint R5 "
                        "fails when a header drops below its baseline. Regenerate "
                        "with tools/vwlint.py --update-baseline.",
             "contracts": counts}, indent=2) + "\n", encoding="utf-8")
        print(f"vwlint: baseline updated ({len(counts)} headers) -> "
              f"{opts.baseline.relative_to(REPO)}")
        return 0

    findings: list[Finding] = []

    semantic_findings: list[Finding] | None = None
    semantic_covered: set[Path] = set()
    if opts.semantic:
        result = try_semantic(files, opts.compile_commands,
                              rules & {"R1", "R2", "R3"})
        if result is None:
            print("vwlint: libclang unavailable; token-level fallback "
                  "(same verdict set on this tree)")
        else:
            semantic_findings, semantic_covered = result

    for ctx in files:
        if "hygiene" in rules:
            findings.extend(check_hygiene(ctx))
        # Token-level R1-R3 still cover every file the semantic pass did not
        # parse as a TU — all headers (which have no compile commands) and
        # any .cpp whose TU failed — so a wall-clock call in a src/ header
        # cannot slip through --semantic.
        if ctx.path not in semantic_covered:
            if "R1" in rules:
                findings.extend(check_r1_wallclock(ctx))
            if "R2" in rules:
                findings.extend(check_r2_random(ctx))
            if "R3" in rules:
                findings.extend(check_r3_unordered(ctx))
        if "R4" in rules:
            findings.extend(check_r4_alloc(ctx))
    if semantic_findings is not None:
        findings.extend(semantic_findings)

    if "R5" in rules and not fixture_mode:
        findings.extend(check_r5_contracts(files, opts.baseline))

    if findings:
        print(f"vwlint: {len(findings)} finding(s)")
        for f in sorted(findings, key=lambda f: (str(f.path), f.line)):
            print(f"  {f.render()}")
        return 1

    n_waivers = sum(len(ctx.waivers) for ctx in files)
    mode = ("semantic+token-headers" if (opts.semantic and semantic_findings is not None)
            else "token")
    print(f"vwlint: OK ({len(files)} files clean, {mode} mode, "
          f"rules={','.join(sorted(rules))}, {n_waivers} waiver(s) — "
          f"audit with --list-waivers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
