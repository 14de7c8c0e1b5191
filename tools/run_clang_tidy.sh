#!/usr/bin/env bash
# Run clang-tidy (config: .clang-tidy at the repo root) over every
# first-party translation unit in the exported compilation database.
#
# Usage: tools/run_clang_tidy.sh [build-dir] [-- extra clang-tidy args]
# The build dir must have been configured already (CMakeLists.txt exports
# compile_commands.json unconditionally). Exits nonzero on any finding:
# WarningsAsErrors promotes the whole check set.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
if [[ "${1:-}" == "--" ]]; then shift; fi

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "error: $BUILD_DIR/compile_commands.json not found;" \
       "configure first: cmake -B $BUILD_DIR -S ." >&2
  exit 2
fi

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null; then
  echo "error: $TIDY not found (set CLANG_TIDY to the binary)" >&2
  exit 2
fi

# The library, tests, tools and examples: the database also lists the
# bench/ programs, which this profile does not cover.
mapfile -t FILES < <(python3 - "$BUILD_DIR" <<'PY'
import json, os, sys
root = os.path.dirname(os.path.abspath(sys.argv[1].rstrip("/")))
seen = set()
for entry in json.load(open(os.path.join(sys.argv[1],
                                         "compile_commands.json"))):
    path = os.path.normpath(os.path.join(entry["directory"], entry["file"]))
    rel = os.path.relpath(path, root)
    if rel.startswith(("src/", "tests/", "tools/", "examples/")):
        seen.add(path)
print("\n".join(sorted(seen)))
PY
)

echo "clang-tidy over ${#FILES[@]} translation units (config .clang-tidy)"
status=0
for f in "${FILES[@]}"; do
  "$TIDY" -p "$BUILD_DIR" --quiet "$@" "$f" || status=1
done
exit $status
