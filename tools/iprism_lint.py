#!/usr/bin/env python3
"""Repo-specific invariant lint for iPrism.

Generic tools (clang-tidy, compiler warnings) cannot see project conventions;
this lint enforces the ones that keep the risk monitor trustworthy:

  params-validated  Every top-level ``struct *Params`` / ``struct *Config``
                    declared in a public header must be validated by an
                    ``IPRISM_CHECK`` somewhere in src/ whose message is
                    prefixed with the struct name (the repo's established
                    convention, e.g. "ReachTubeParams: dt must be positive").
                    A config struct nobody validates is a config struct whose
                    invalid values travel silently into Algorithm 1.

  header-hygiene    Every header under src/ carries ``#pragma once`` and
                    lives in the ``iprism`` namespace.

  telemetry-discipline
                    No raw ``std::chrono::*_clock::now()`` timing outside
                    ``src/common/telemetry`` and ``bench/bench_util``
                    (scanned over src/ AND bench/). Ad-hoc clock reads
                    bypass the MetricsRegistry (DESIGN.md §11): their
                    numbers never reach ``--telemetry`` output, and they
                    stay in the binary when telemetry is compiled out.
                    Time code through IPRISM_SCOPED_TIMER, or
                    bench::WallTimer for bench table reporting.

Four former rules now live in the clang-tidy plugin (tools/tidy-plugin/),
which sees the AST instead of regexes and therefore has no false positives
on comments, strings, or macro bodies:

  rng-discipline        -> iprism-rng-discipline
  thread-discipline     -> iprism-raw-thread
  container-discipline  -> iprism-no-unordered-in-core
  float-eq              -> iprism-float-eq

Run them via ``tools/run_tidy.sh`` (or the ``tidy`` CMake preset); suppress
with ``// NOLINTNEXTLINE(iprism-<check>)``. A leftover
``iprism-lint: allow(<migrated-rule>)`` comment is reported as stale.

Suppression (for the rules still here): append
``// iprism-lint: allow(<rule>) <one-line justification>`` to the flagged
line (or the line directly above). The justification is mandatory — a bare
allow() is itself a finding.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = ("params-validated", "header-hygiene", "telemetry-discipline")

# Rules that moved into the clang-tidy plugin (tools/tidy-plugin/). Kept here
# so stale allow() comments get a pointed message instead of "unknown rule".
MIGRATED_RULES = {
    "rng-discipline": "iprism-rng-discipline",
    "thread-discipline": "iprism-raw-thread",
    "container-discipline": "iprism-no-unordered-in-core",
    "float-eq": "iprism-float-eq",
}

SUPPRESS_RE = re.compile(r"//\s*iprism-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# Top-level (column-0) config structs only: nested `struct Params` inside a
# class is owned by that class's constructor checks and named via the outer
# type's message prefix.
STRUCT_RE = re.compile(r"^struct\s+(\w+(?:Params|Config))\b", re.MULTILINE)

LINE_COMMENT_RE = re.compile(r"//.*")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
CHAR_RE = re.compile(r"'(?:\\.|[^'\\])'")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based; 0 = whole file
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{loc}: [{self.rule}] {self.message}"


def strip_noncode(text):
    """Blanks out comments, string and char literals, preserving line count."""

    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    out_lines = []
    for line in text.splitlines():
        line = STRING_RE.sub(lambda m: " " * len(m.group(0)), line)
        line = CHAR_RE.sub(lambda m: " " * len(m.group(0)), line)
        line = LINE_COMMENT_RE.sub(lambda m: " " * len(m.group(0)), line)
        out_lines.append(line)
    return "\n".join(out_lines)


def suppressions(lines):
    """Maps 1-based line number -> (rule, justification) for allow() comments.

    An allow() on its own line covers the next line; an allow() trailing code
    covers its own line.
    """
    by_line = {}
    bare = []
    for i, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rule, why = m.group(1), m.group(2).strip()
        if rule in MIGRATED_RULES:
            bare.append(Finding(
                "suppression", "?", i,
                f"stale allow({rule}) — this rule moved to the clang-tidy "
                f"plugin; use // NOLINTNEXTLINE({MIGRATED_RULES[rule]}) instead"))
            continue
        if rule not in RULES:
            bare.append(Finding("suppression", "?", i,
                                f"unknown rule '{rule}' in allow()"))
            continue
        if not why:
            bare.append(Finding("suppression", "?", i,
                                "allow() without a justification"))
            continue
        target = i + 1 if line.lstrip().startswith("//") else i
        by_line[(target, rule)] = why
    return by_line, bare


def check_params_validated(src, sources):
    """Config structs must have a name-prefixed IPRISM_CHECK somewhere."""
    findings = []
    all_text = "".join(text for _, text in sources)
    for path, text in sources:
        if path.suffix != ".hpp":
            continue
        for m in STRUCT_RE.finditer(text):
            name = m.group(1)
            line = text.count("\n", 0, m.start()) + 1
            lines = text.splitlines()
            sup, _ = suppressions(lines)
            if (line, "params-validated") in sup:
                continue
            if f'"{name}:' not in all_text:
                findings.append(Finding(
                    "params-validated", path.relative_to(src.parent), line,
                    f"struct {name} has no IPRISM_CHECK validation "
                    f'(no check message starting with "{name}: ..." found in src/)'))
    return findings


def check_header_hygiene(src, sources):
    findings = []
    for path, text in sources:
        if path.suffix != ".hpp":
            continue
        rel = path.relative_to(src.parent)
        lines = text.splitlines()
        sup, _ = suppressions(lines)
        if "#pragma once" not in text and (0, "header-hygiene") not in sup:
            findings.append(Finding("header-hygiene", rel, 0,
                                    "public header missing '#pragma once'"))
        if not re.search(r"namespace\s+iprism", text) and (0, "header-hygiene") not in sup:
            findings.append(Finding("header-hygiene", rel, 0,
                                    "public header does not open the iprism:: namespace"))
    return findings


CLOCK_NOW_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b")

# The only sanctioned homes for raw clock reads (relative to the repo root):
# the telemetry layer itself and the bench stopwatch built on top of it.
TELEMETRY_ALLOWED = (
    "src/common/telemetry.hpp",
    "src/common/telemetry.cpp",
    "bench/bench_util.hpp",
    "bench/bench_util.cpp",
)


def check_telemetry_discipline(root, sources):
    """Raw clock reads are confined to the telemetry layer (+ bench_util)."""
    findings = []
    for path, text in sources:
        rel = path.relative_to(root)
        if str(rel).replace("\\", "/") in TELEMETRY_ALLOWED:
            continue
        lines = text.splitlines()
        sup, _ = suppressions(lines)
        stripped = strip_noncode(text)
        for i, line in enumerate(stripped.splitlines(), start=1):
            if not CLOCK_NOW_RE.search(line):
                continue
            if (i, "telemetry-discipline") in sup:
                continue
            findings.append(Finding(
                "telemetry-discipline", rel, i,
                "raw std::chrono clock read outside src/common/telemetry — "
                "use IPRISM_SCOPED_TIMER (or "
                "bench::WallTimer in bench tables)"))
    return findings


def check_suppression_quality(src, sources):
    findings = []
    for path, text in sources:
        _, bad = suppressions(text.splitlines())
        for f in bad:
            f.path = path.relative_to(src.parent)
            findings.append(f)
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if not src.is_dir():
        print(f"iprism_lint: no src/ under {args.root}", file=sys.stderr)
        return 2

    sources = []
    for path in sorted(src.rglob("*")):
        if path.suffix in (".hpp", ".cpp"):
            sources.append((path, path.read_text(encoding="utf-8")))

    # telemetry-discipline also covers bench/ (the bench mains time things
    # too); the struct/header rules stay scoped to src/'s public surface.
    timed_sources = list(sources)
    bench = (args.root / "bench").resolve()
    if bench.is_dir():
        for path in sorted(bench.rglob("*")):
            if path.suffix in (".hpp", ".cpp"):
                timed_sources.append((path, path.read_text(encoding="utf-8")))

    findings = []
    findings += check_params_validated(src, sources)
    findings += check_header_hygiene(src, sources)
    findings += check_telemetry_discipline(src.parent, timed_sources)
    findings += check_suppression_quality(src, sources)

    for f in findings:
        print(f)
    if findings:
        print(f"iprism_lint: {len(findings)} finding(s) in {len(sources)} files",
              file=sys.stderr)
        return 1
    migrated = ", ".join(f"{k} -> {v}" for k, v in MIGRATED_RULES.items())
    print(f"iprism_lint: OK ({len(sources)} files clean; "
          f"rules {', '.join(RULES)}; migrated to clang-tidy: {migrated})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
