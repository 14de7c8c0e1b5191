#!/usr/bin/env python3
"""Drive hape_lint over the shipped manifest and verify its verdicts.

The shipped example manifest must lint clean: exit 0, zero error-severity
diagnostics. Two broken copies of it, written to a temporary directory, pin
the CLI's exit-code contract: a truncated copy must exit 1 with exactly one
HL000 diagnostic (an error rule), and a copy with a duplicate query label
must exit 0 with exactly one HL013 diagnostic (a warning rule). Every
other rule's case is an edit of the same manifest in lint_test's
CorpusFilesTriggerTheirNamedRule.

Usage: check_lint_corpus.py <hape_lint-binary> <repo-root>
"""

import json
import pathlib
import subprocess
import sys
import tempfile

TRUNCATE_AFTER = '"policy":{"dev'


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

    shipped = root / "examples" / "manifests" / "mix_q3_q5_q9.json"
    rc, report = run_lint(binary, shipped)
    if rc != 0 or report.get("errors", -1) != 0:
        failures.append(
            f"{shipped}: expected a clean report, got exit {rc} with "
            f"{report.get('errors')} error(s): {json.dumps(report)}")
    else:
        print(f"ok: {shipped.name} lints clean")

    text = shipped.read_text()
    at = text.find(TRUNCATE_AFTER)
    truncated = text[:at + len(TRUNCATE_AFTER)] if at >= 0 else text
    cases = [
        ("truncated.json", truncated, 1, "HL000"),
        ("duplicate_label.json",
         text.replace('"label":"q5"', '"label":"q3"', 1), 0, "HL013"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, body, want_rc, code in cases:
            if body == text:
                failures.append(f"{name}: the edit no longer applies")
                continue
            path = pathlib.Path(tmp) / name
            path.write_text(body)
            rc, report = run_lint(binary, path)
            codes = codes_of(report)
            if codes != [code] or rc != want_rc:
                failures.append(
                    f"{name}: expected exit {want_rc} and exactly one {code} "
                    f"diagnostic (got exit {rc}, {codes or 'nothing'})")
            else:
                print(f"ok: {name} -> {code}, exit {rc}")

    if failures:
        print("\nlint check failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_lint_corpus: shipped manifest + 2 exit-code cases verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
