#!/usr/bin/env python3
"""Run every example program and check what the run claims.

Each example must exit 0. Two of them are also checked on their output:
  - example_serve_replay: a traced replay writes the same
    SERVE_schedule.json as an untraced one (tracing is observation-only),
    and its trace is JSON with a non-empty traceEvents array;
  - example_manifest_run: it runs the shipped manifest, and --write
    regenerates that manifest byte for byte.
The programs run in a temporary directory, since several of them write
their schedule records to the working directory.

Usage: check_examples.py <directory-of-example-binaries> <repo-root>
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <bin-dir> <repo-root>", file=sys.stderr)
        return 2
    bin_dir, root = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
    shipped = root / "examples" / "manifests" / "mix_q3_q5_q9.json"

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)

        def run(example, *args):
            cmd = [str(bin_dir / f"example_{example}"), *map(str, args)]
            print("$ example_" + " ".join([example, *cmd[1:]]), flush=True)
            subprocess.run(cmd, cwd=tmp, check=True, timeout=300)

        run("quickstart")
        run("routing_policies")
        run("tpch_hybrid", "0.01")
        run("coprocessing_join", "256")
        run("serve_replay")
        untraced = (tmp / "SERVE_schedule.json").read_bytes()
        run("serve_replay", "--burst")
        run("serve_replay", "--trace", tmp / "serve_trace.json")
        if (tmp / "SERVE_schedule.json").read_bytes() != untraced:
            print("tracing changed the schedule record", file=sys.stderr)
            return 1
        trace = json.loads((tmp / "serve_trace.json").read_text())
        if not trace["traceEvents"]:
            print("empty trace", file=sys.stderr)
            return 1
        run("manifest_run", shipped)
        run("manifest_run", "--write", tmp / "mix_regen.json")
        if (tmp / "mix_regen.json").read_bytes() != shipped.read_bytes():
            print(f"manifest_run --write does not reproduce {shipped}",
                  file=sys.stderr)
            return 1

    print("check_examples: every example ran; traced replay schedule "
          "identical to untraced; manifest regenerated byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
