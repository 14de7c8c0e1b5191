#!/usr/bin/env python3
"""Drive hape_lint over the checked-in manifests and verify its verdicts.

Two legs, both required:
  1. The shipped example manifest must lint clean: exit 0, zero
     error-severity diagnostics.
  2. Every deliberately-broken manifest under tests/lint_corpus must
     trigger exactly the HL### rule its filename names
     (HL###_description.json), as its one diagnostic: each file holds one
     fault, and each fault is reported once. Files naming an
     error-severity rule must make hape_lint exit 1; files naming a
     warning rule must keep exit 0 with zero errors.

Usage: check_lint_corpus.py <hape_lint-binary> <repo-root>
"""

import json
import pathlib
import subprocess
import sys

# Warning-severity rules (must mirror lint::RuleTable); everything else
# is error severity.
WARNING_RULES = {"HL007", "HL010", "HL012", "HL013", "HL014"}

MIN_CORPUS_FILES = 8


def run_lint(binary: str, manifest: pathlib.Path):
    proc = subprocess.run(
        [binary, "--json", "-", str(manifest)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"{binary} {manifest}: unexpected exit {proc.returncode}\n"
            f"{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def codes_of(report: dict) -> list[str]:
    return [diag.get("code", "")
            for entry in report.get("files", [])
            for diag in entry.get("report", {}).get("diagnostics", [])]


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <hape_lint-binary> <repo-root>",
              file=sys.stderr)
        return 2
    binary, root = sys.argv[1], pathlib.Path(sys.argv[2])
    failures = []

    # Leg 1: the shipped manifest is clean.
    shipped = root / "examples" / "manifests" / "mix_q3_q5_q9.json"
    rc, report = run_lint(binary, shipped)
    if rc != 0 or report.get("errors", -1) != 0:
        failures.append(
            f"{shipped}: expected a clean report, got exit {rc} with "
            f"{report.get('errors')} error(s): {json.dumps(report)}")
    else:
        print(f"ok: {shipped.name} lints clean")

    # Leg 2: each corpus file trips its named rule.
    corpus = sorted((root / "tests" / "lint_corpus").glob("*.json"))
    if len(corpus) < MIN_CORPUS_FILES:
        failures.append(
            f"corpus has {len(corpus)} files, expected >= {MIN_CORPUS_FILES}")
    for manifest in corpus:
        code = manifest.name[:5]
        rc, report = run_lint(binary, manifest)
        codes = codes_of(report)
        if codes != [code]:
            failures.append(
                f"{manifest.name}: expected exactly one {code} diagnostic "
                f"(got {codes or 'nothing'})")
            continue
        if code in WARNING_RULES:
            if rc != 0 or report.get("errors", -1) != 0:
                failures.append(
                    f"{manifest.name}: warning rule {code} must not produce "
                    f"errors (exit {rc}, {report.get('errors')} error(s)): "
                    f"{json.dumps(report)}")
                continue
        elif rc != 1:
            failures.append(
                f"{manifest.name}: error rule {code} must fail the lint "
                f"(exit {rc})")
            continue
        print(f"ok: {manifest.name} -> {code}")

    if failures:
        print("\ncorpus check failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"check_lint_corpus: {len(corpus)} corpus files + shipped "
          "manifest verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
