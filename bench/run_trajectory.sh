#!/usr/bin/env bash
# Bench trajectory automation (ROADMAP): re-runs the tracked benchmarks and
# appends host-tagged JSON rows to the repo's BENCH_*.json files, so
# performance regressions stay visible across PRs.
#
#   bench/run_trajectory.sh [--smoke] [build_dir]
#
# Tracked:
#   micro_runtime        -> BENCH_MICRO_RUNTIME.json   (google-benchmark
#                           snapshot; regenerated in place when the binary
#                           exists — the gbench JSON format is one document,
#                           not appendable rows)
#   fig17_throughput     -> BENCH_FIG17_THROUGHPUT.json      (appended)
#   fig19_llhj_latency   -> BENCH_FIG19_LLHJ_LATENCY.json    (appended)
#   ablation_multi_query -> BENCH_ABLATION_MULTI_QUERY.json  (appended)
#   ablation_simd_probe  -> BENCH_ABLATION_SIMD_PROBE.json   (appended)
#   ablation_query_churn -> BENCH_ABLATION_QUERY_CHURN.json  (appended)
#   ablation_placement   -> BENCH_ABLATION_PLACEMENT.json    (appended)
#   ablation_overload    -> BENCH_ABLATION_OVERLOAD.json     (appended)
#   ablation_sharding    -> BENCH_ABLATION_SHARDING.json     (appended)
#
# Untracked (smoke only, so CI proves they still run and emit rows; tracking
# them is ROADMAP item 8): fig05_hsj_latency, fig18_latency_vs_cores,
# fig20_llhj_batch4, fig21_sorter_buffer, table2_index, ablation_batch and
# ablation_queue_capacity.
#
# --smoke: CI mode. Runs every tracked bench at short duration, writes the
# JSON rows to a throwaway directory (override with SMOKE_OUT=dir, e.g. so
# CI can upload the rows as a failure artifact) instead of the repo
# trajectory files, and FAILS if any bench that was built emits no JSON row
# or if a row drifts from the trajectory schema (valid JSON, bench/host/
# stamp tags, and the latency_p50/p95/p99/p999_ms quantiles on the
# latency-tracking benches) — so the BENCH_* automation cannot silently
# rot. The repo files are never touched.
#
# Row tags: every appended row carries "host" and "stamp" fields (see
# JsonEmitter in bench/bench_common.hpp). Override the sizing knobs through
# the environment, e.g. DURATION=20 NODES=4 bench/run_trajectory.sh.
set -euo pipefail

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
# Host tag carries core, socket, and NUMA-node counts so trajectory rows
# from single-socket and multi-socket hosts stay distinguishable (placement
# results only mean something relative to the hardware model).
SOCKETS="$(lscpu 2>/dev/null | awk '/^Socket\(s\):/{print $2}')"
NUMA_NODES="$(ls -d /sys/devices/system/node/node[0-9]* 2>/dev/null | wc -l)"
[[ "$NUMA_NODES" -ge 1 ]] || NUMA_NODES=1
HOST_TAG="${HOST_TAG:-$(hostname)-$(nproc)c-${SOCKETS:-1}s${NUMA_NODES}n}"
STAMP="${STAMP:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}"

# Sizing knobs (defaults match the committed trajectory rows; scale up on
# bigger hosts).
DURATION="${DURATION:-6}"
NODES="${NODES:-2}"
RATE="${RATE:-3000}"
PUSH_TUPLES="${PUSH_TUPLES:-20000}"
MQ_TUPLES="${MQ_TUPLES:-20000}"
FIG17_NODES="${FIG17_NODES:-1,2,4}"  # fig17 sweeps a node-count list
FIG17_DURATION="${FIG17_DURATION:-2}"
FIG19_BATCH="${FIG19_BATCH:-1}"      # matches the existing trajectory rows
SIMD_WINDOW="${SIMD_WINDOW:-16384}"
SIMD_DURATION="${SIMD_DURATION:-0.4}"
CHURN_TUPLES="${CHURN_TUPLES:-20000}"
CHURN_INTERVAL="${CHURN_INTERVAL:-32}"
PLACEMENT_TUPLES="${PLACEMENT_TUPLES:-20000}"
PLACEMENT_LAT_TUPLES="${PLACEMENT_LAT_TUPLES:-6000}"
PLACEMENT_RATE="${PLACEMENT_RATE:-3000}"
OVERLOAD_DURATION="${OVERLOAD_DURATION:-4}"
OVERLOAD_WINDOW="${OVERLOAD_WINDOW:-8}"
OVERLOAD_RATE="${OVERLOAD_RATE:-2000}"
OVERLOAD_BUDGET_MS="${OVERLOAD_BUDGET_MS:-100}"
SHARD_TUPLES="${SHARD_TUPLES:-30000}"
SHARD_WINDOW="${SHARD_WINDOW:-32768}"
SHARD_DOMAIN="${SHARD_DOMAIN:-8192}"

OUT="$ROOT"
if [[ "$SMOKE" == "1" ]]; then
  OUT="${SMOKE_OUT:-$(mktemp -d)}"
  mkdir -p "$OUT"
  DURATION=1
  FIG17_DURATION=0.5
  FIG17_NODES=1
  PUSH_TUPLES=4000
  MQ_TUPLES=3000
  SIMD_WINDOW=2048
  SIMD_DURATION=0.05
  CHURN_TUPLES=3000
  CHURN_INTERVAL=8
  PLACEMENT_TUPLES=3000
  PLACEMENT_LAT_TUPLES=600
  PLACEMENT_RATE=20000
  OVERLOAD_DURATION=0.5
  OVERLOAD_WINDOW=2
  SHARD_TUPLES=4000
  SHARD_WINDOW=4096
  SHARD_DOMAIN=1024
  echo "smoke mode: rows -> $OUT (repo BENCH_*.json untouched)"
fi

TAGS=(--host_tag="$HOST_TAG" --stamp="$STAMP")
FAILED=0

run() {
  local bin="$1"
  shift
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "SKIP $bin (not built in $BUILD)"
    return 0
  fi
  echo "== $bin $*"
  "$BUILD/$bin" "$@"
}

# In smoke mode every bench that ran must have produced at least one row.
check_rows() {
  local bin="$1" file="$2"
  [[ "$SMOKE" == "1" ]] || return 0
  [[ -x "$BUILD/$bin" ]] || return 0
  if [[ ! -s "$file" ]]; then
    echo "FAIL: $bin emitted no JSON row ($file empty or missing)"
    FAILED=1
  fi
}

# google-benchmark microbenches: one JSON document per run, regenerated.
if [[ -x "$BUILD/micro_runtime" ]]; then
  echo "== micro_runtime"
  GBENCH_ARGS=()
  # Plain-seconds form: accepted by both pre-1.7 and current gbench.
  [[ "$SMOKE" == "1" ]] && GBENCH_ARGS+=(--benchmark_min_time=0.05)
  "$BUILD/micro_runtime" --benchmark_out="$OUT/BENCH_MICRO_RUNTIME.json" \
    --benchmark_out_format=json "${GBENCH_ARGS[@]}"
  check_rows micro_runtime "$OUT/BENCH_MICRO_RUNTIME.json"
else
  echo "SKIP micro_runtime (google-benchmark not available at configure time)"
fi

run fig17_throughput --duration="$FIG17_DURATION" --nodes="$FIG17_NODES" \
  --json_out="$OUT/BENCH_FIG17_THROUGHPUT.json" "${TAGS[@]}"
check_rows fig17_throughput "$OUT/BENCH_FIG17_THROUGHPUT.json"

run fig19_llhj_latency --duration="$DURATION" --nodes="$NODES" \
  --rate="$RATE" --batch="$FIG19_BATCH" --push_tuples="$PUSH_TUPLES" \
  --json_out="$OUT/BENCH_FIG19_LLHJ_LATENCY.json" "${TAGS[@]}"
check_rows fig19_llhj_latency "$OUT/BENCH_FIG19_LLHJ_LATENCY.json"

run ablation_multi_query --tuples="$MQ_TUPLES" --nodes="$NODES" \
  --json_out="$OUT/BENCH_ABLATION_MULTI_QUERY.json" "${TAGS[@]}"
check_rows ablation_multi_query "$OUT/BENCH_ABLATION_MULTI_QUERY.json"

run ablation_simd_probe --window="$SIMD_WINDOW" --duration="$SIMD_DURATION" \
  --json_out="$OUT/BENCH_ABLATION_SIMD_PROBE.json" "${TAGS[@]}"
check_rows ablation_simd_probe "$OUT/BENCH_ABLATION_SIMD_PROBE.json"

run ablation_query_churn --tuples="$CHURN_TUPLES" --nodes="$NODES" \
  --interval="$CHURN_INTERVAL" \
  --json_out="$OUT/BENCH_ABLATION_QUERY_CHURN.json" "${TAGS[@]}"
check_rows ablation_query_churn "$OUT/BENCH_ABLATION_QUERY_CHURN.json"

run ablation_placement --tuples="$PLACEMENT_TUPLES" \
  --lat_tuples="$PLACEMENT_LAT_TUPLES" --rate="$PLACEMENT_RATE" \
  --nodes="$NODES" \
  --json_out="$OUT/BENCH_ABLATION_PLACEMENT.json" "${TAGS[@]}"
check_rows ablation_placement "$OUT/BENCH_ABLATION_PLACEMENT.json"

# --assert=1: the load-independent invariants (exact loss accounting, zero
# sheds at sub-saturation load) hold at any duration, so they gate the
# smoke run too. The saturation-dependent 10x tail assertions need the full
# duration and run in the dedicated CI leg (--assert_tail).
run ablation_overload --duration="$OVERLOAD_DURATION" \
  --window="$OVERLOAD_WINDOW" --base_rate="$OVERLOAD_RATE" \
  --budget_ms="$OVERLOAD_BUDGET_MS" --assert=1 \
  --json_out="$OUT/BENCH_ABLATION_OVERLOAD.json" "${TAGS[@]}"
check_rows ablation_overload "$OUT/BENCH_ABLATION_OVERLOAD.json"

# --assert=1: the shard-count-independence of the result multiset (hash
# equality across 1/2/4 shards) is load-independent and gates the smoke
# run too; the bench exits nonzero on any divergence or pipeline anomaly.
run ablation_sharding --tuples="$SHARD_TUPLES" --window="$SHARD_WINDOW" \
  --domain="$SHARD_DOMAIN" --assert=1 \
  --json_out="$OUT/BENCH_ABLATION_SHARDING.json" "${TAGS[@]}"
check_rows ablation_sharding "$OUT/BENCH_ABLATION_SHARDING.json"

# Untracked benches on the same session harness, smoke size only: their
# rows go to the throwaway directory and pass the same row/schema checks.
if [[ "$SMOKE" == "1" ]]; then
  run fig05_hsj_latency --duration=0.5 --window=1 --nodes=2 \
    --json_out="$OUT/BENCH_FIG05_HSJ_LATENCY.json" "${TAGS[@]}"
  check_rows fig05_hsj_latency "$OUT/BENCH_FIG05_HSJ_LATENCY.json"
  run fig18_latency_vs_cores --duration=0.5 --window=1 --nodes=1,2 \
    --json_out="$OUT/BENCH_FIG18_LATENCY_VS_CORES.json" "${TAGS[@]}"
  check_rows fig18_latency_vs_cores "$OUT/BENCH_FIG18_LATENCY_VS_CORES.json"
  run fig20_llhj_batch4 --duration=0.5 --window=1 --nodes=2 \
    --json_out="$OUT/BENCH_FIG20_LLHJ_BATCH4.json" "${TAGS[@]}"
  check_rows fig20_llhj_batch4 "$OUT/BENCH_FIG20_LLHJ_BATCH4.json"
  run fig21_sorter_buffer --duration=0.5 --window=1 --nodes=1,2 \
    --json_out="$OUT/BENCH_FIG21_SORTER_BUFFER.json" "${TAGS[@]}"
  check_rows fig21_sorter_buffer "$OUT/BENCH_FIG21_SORTER_BUFFER.json"
  run table2_index --duration=0.3 --nodes=2 --window_tuples=4096 \
    --json_out="$OUT/BENCH_TABLE2_INDEX.json" "${TAGS[@]}"
  check_rows table2_index "$OUT/BENCH_TABLE2_INDEX.json"
  run ablation_batch --duration=0.3 --nodes=2 \
    --json_out="$OUT/BENCH_ABLATION_BATCH.json" "${TAGS[@]}"
  check_rows ablation_batch "$OUT/BENCH_ABLATION_BATCH.json"
  run ablation_queue_capacity --duration=0.3 --nodes=2 \
    --window_tuples=4096 \
    --json_out="$OUT/BENCH_ABLATION_QUEUE_CAPACITY.json" "${TAGS[@]}"
  check_rows ablation_queue_capacity "$OUT/BENCH_ABLATION_QUEUE_CAPACITY.json"
fi

# Schema drift gate (smoke only): every appended row must be valid JSON
# carrying the bench/host/stamp tags, and the latency-tracking benches must
# keep their full quantile set — downstream trajectory tooling reads these
# fields by name. micro_runtime is exempt (google-benchmark owns its
# format, one JSON document rather than appendable rows).
if [[ "$SMOKE" == "1" ]] && command -v python3 >/dev/null 2>&1; then
  if ! python3 - "$OUT" <<'PYEOF'
import json, pathlib, sys

out = pathlib.Path(sys.argv[1])
QUANTILES = ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
             "latency_p999_ms")
NEEDS_QUANTILES = {"fig19_llhj_latency", "ablation_overload",
                   "ablation_sharding"}
failed = False

def fail(msg):
    global failed
    failed = True
    print(f"SCHEMA DRIFT: {msg}")

for path in sorted(out.glob("BENCH_*.json")):
    if path.name == "BENCH_MICRO_RUNTIME.json":
        continue
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as e:
            fail(f"{path.name}:{lineno} not valid JSON ({e})")
            continue
        for tag in ("bench", "host", "stamp"):
            if tag not in row:
                fail(f"{path.name}:{lineno} missing '{tag}' tag")
        if row.get("bench") in NEEDS_QUANTILES:
            for q in QUANTILES:
                if not isinstance(row.get(q), (int, float)):
                    fail(f"{path.name}:{lineno} bench '{row.get('bench')}' "
                         f"missing numeric '{q}'")
if failed:
    sys.exit(1)
print("trajectory schema check passed")
PYEOF
  then
    echo "FAIL: trajectory rows drifted from the BENCH_* schema"
    FAILED=1
  fi
fi

if [[ "$FAILED" == "1" ]]; then
  echo "trajectory smoke FAILED: missing rows or schema drift"
  exit 1
fi
echo "trajectory updated: host=$HOST_TAG stamp=$STAMP out=$OUT"
