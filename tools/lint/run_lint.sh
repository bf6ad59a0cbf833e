#!/usr/bin/env bash
# Lint entry point — runs identically locally and in CI (DESIGN.md
# Section 14).
#
#   tools/lint/run_lint.sh [build-dir]       lint the tree (default: build/)
#   tools/lint/run_lint.sh --check-fixtures  prove every checker fires: each
#                                            negative fixture under
#                                            tools/lint/fixtures/ must make
#                                            sjoin_lint exit non-zero
#
# Two passes over compile_commands.json (exported by CMake unconditionally):
#   1. clang-tidy with the repo .clang-tidy config — skipped with a warning
#      when clang-tidy is not installed (diagnostics are informational; the
#      gating rules live in pass 2, which has no external dependency).
#   2. tools/lint/sjoin_lint.py — the repo-specific rules (exhaustive
#      MsgKind switches, hot-path container bans, env-knob discipline, raw
#      new/delete, raw std::mutex, hot-path sleeps, unmarked hot-path
#      clock reads). Findings fail the run.
set -u

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
LINT="$ROOT/tools/lint/sjoin_lint.py"
FIXTURES="$ROOT/tools/lint/fixtures"

if [ "${1:-}" = "--check-fixtures" ]; then
  status=0
  found_any=0
  for fixture in "$FIXTURES"/*; do
    [ -f "$fixture" ] || continue
    found_any=1
    if python3 "$LINT" "$fixture" > /dev/null 2>&1; then
      echo "run_lint.sh: FIXTURE DID NOT FIRE: $fixture" >&2
      status=1
    else
      echo "run_lint.sh: fixture fires as expected: $(basename "$fixture")"
    fi
  done
  if [ "$found_any" = 0 ]; then
    echo "run_lint.sh: no fixtures found under $FIXTURES" >&2
    status=1
  fi
  exit "$status"
fi

BUILD_DIR="${1:-$ROOT/build}"
CDB="$BUILD_DIR/compile_commands.json"
if [ ! -f "$CDB" ]; then
  echo "run_lint.sh: $CDB not found — configure first:" >&2
  echo "  cmake -B $BUILD_DIR -S $ROOT" >&2
  exit 2
fi

status=0

if command -v clang-tidy > /dev/null 2>&1; then
  # Translation units only; headers are covered via HeaderFilterRegex.
  mapfile -t tus < <(python3 - "$CDB" <<'EOF'
import json, os, sys
for e in json.load(open(sys.argv[1])):
    p = os.path.realpath(os.path.join(e.get("directory", ""), e["file"]))
    print(p)
EOF
)
  if ! clang-tidy --quiet -p "$BUILD_DIR" "${tus[@]}"; then
    echo "run_lint.sh: clang-tidy reported errors" >&2
    status=1
  fi
else
  echo "run_lint.sh: clang-tidy not installed; skipping .clang-tidy pass" >&2
fi

python3 "$LINT" "$BUILD_DIR" || status=1

exit "$status"
