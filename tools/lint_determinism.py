#!/usr/bin/env python3
"""Ban nondeterminism APIs from the deterministic core.

The deterministic core promises bit-identical replays: same seed, same
bytes. That covers the simulator, engine, optimizer and serving layer,
and what they are built from: lint reports, plans and the queries that
build them, generated tables, memory packets, expressions, operators and
common utilities. Wall clocks and ambient PRNGs break that silently, so
this checker greps src/sim, src/engine, src/opt, src/serve, src/lint,
src/queries, src/storage, src/memory, src/expr, src/ops and src/common
for the APIs that smuggle in nondeterminism and fails the build when one
appears. src/obs (where the host clock is to be injected) and
src/codegen (whose calibration times kernels on the host) are not
checked.

Seeded, owned PRNGs (the sim's own RNG, std::mt19937 with an explicit
seed) are fine and not flagged. A line that genuinely needs an exemption
can carry `// lint-determinism: allow` with a justification next to it.

Usage: lint_determinism.py <repo-root>
"""

import pathlib
import re
import sys

CHECKED_DIRS = [
    "src/sim", "src/engine", "src/opt", "src/serve", "src/lint",
    "src/queries", "src/storage", "src/memory", "src/expr", "src/ops",
    "src/common",
]
SUFFIXES = {".cc", ".h"}
ALLOW_MARK = "lint-determinism: allow"

BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand() (ambient PRNG)"),
    (re.compile(r"\brandom_device\b"), "std::random_device (entropy source)"),
    (re.compile(r"\bsystem_clock\b"), "system_clock (wall clock)"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock (wall clock)"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "high_resolution_clock (wall clock)"),
    (re.compile(r"\b(?:std::)?clock\s*\("), "clock() (CPU clock)"),
    (re.compile(r"\b(?:std::)?time\s*\("), "time() (wall clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday() (wall clock)"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime() (wall clock)"),
]

STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
LINE_COMMENT_RE = re.compile(r"//.*$")


def strip_noise(line: str) -> str:
    """Drop string literals and // comments so prose never trips the ban."""
    return LINE_COMMENT_RE.sub("", STRING_RE.sub('""', line))


def check_file(path: pathlib.Path) -> list[str]:
    findings = []
    in_block_comment = False
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2:]
        if ALLOW_MARK in raw:
            continue
        code = strip_noise(line)
        for pattern, why in BANNED:
            if pattern.search(code):
                findings.append(f"{path}:{lineno}: {why}\n    {raw.strip()}")
    return findings


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <repo-root>", file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1])
    findings = []
    checked = 0
    for rel in CHECKED_DIRS:
        base = root / rel
        if not base.is_dir():
            print(f"error: missing directory {base}", file=sys.stderr)
            return 2
        for path in sorted(base.rglob("*")):
            if path.suffix in SUFFIXES:
                checked += 1
                findings.extend(check_file(path))
    if findings:
        print("nondeterminism APIs found in the deterministic core:",
              file=sys.stderr)
        for f in findings:
            print(f, file=sys.stderr)
        print(f"\n{len(findings)} finding(s). The deterministic core "
              "must stay bit-deterministic; use the simulated clock and "
              "seeded RNGs, or annotate a justified exemption with "
              f"`// {ALLOW_MARK}`.", file=sys.stderr)
        return 1
    print(f"lint_determinism: {checked} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
