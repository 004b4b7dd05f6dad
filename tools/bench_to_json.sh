#!/usr/bin/env bash
# Runs the tracked benches, merges their axbench-v1 JSON reports into one
# BENCH_BASELINE.json, and gates eight regressions: the batch-at-a-time
# scan→select→project pipeline must not be slower than tuple-at-a-time,
# the bounded (top-k) sort for ORDER BY ... LIMIT must not be slower than
# a full sort followed by the limit, a compiled field-read expression
# shared by two threads must cost at most 5x the same logic written by
# hand (both fresh runs only until the committed baseline is regenerated
# with their rows),
# the Basic-policy feed must retain >= 80% of direct-upsert ingest
# throughput, the columnar scan must not be slower than the row scan
# on the projection-heavy query, async LSM maintenance must not have
# worse p99 write latency than inline (sync) maintenance, and governed
# (admission-controlled) query p99 must not be worse than ungoverned under
# the oversubscribed workload — with admission overload shedding at least
# one query — and a SQL++ primary-key lookup must cost at most 10x
# Instance::GetByKey at 2 partitions and must not grow by more than 1.5x
# from 1 to 8 partitions — all on the same build.
#
#   tools/bench_to_json.sh [--build-dir DIR] [--smoke] [--out FILE]
#   tools/bench_to_json.sh --check [FILE]
#
# Without --check: runs bench_batch_pipeline, bench_fig1_cluster_scaling,
# bench_feed_ingestion, bench_columnar_scan, bench_lsm_ingestion,
# bench_admission and bench_point_lookup from DIR (default: build-rel),
# writes the merged report
# to FILE (default: BENCH_BASELINE.json), and fails if any fresh-run gate
# trips.
#
# With --check: no benches run; validates that the committed FILE (default:
# BENCH_BASELINE.json) parses, carries the axbench-v1 schema, contains the
# tracked entries, and records the gates (batch ≥ tuple, feed_basic ≥ 80%
# of direct upsert, columnar scan ≥ 1.5x over row scan, async p99 write
# latency ≤ sync, governed p99 ≤ ungoverned p99, SQL++ pk lookup ≤ 10x
# GetByKey at p2 and ≤ 1.5x its p1 cost at p8 — the committed baseline
# is a quiet full run, so it must hold the ISSUE 7/9 ratios that CI smoke
# runs on shared runners cannot pin).
# CI runs both modes: --check keeps the committed baseline honest, a fresh
# --smoke run keeps the current commit honest.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-rel
OUT=BENCH_BASELINE.json
SMOKE=""
CHECK=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --smoke)     SMOKE="--smoke"; shift ;;
    --out)       OUT="$2"; shift 2 ;;
    --check)     CHECK=1; shift
                 if [[ $# -gt 0 && "$1" != --* ]]; then OUT="$1"; shift; fi ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Pull the "ms" value of the named result out of an axbench-v1 file (the
# writer emits one result object per line, so line-oriented sed suffices).
ms_of() {  # <file> <result name>
  sed -n 's/.*"name":"'"$2"'","tuples":[0-9]*,"ms":\([0-9.]*\).*/\1/p' "$1"
}

# Same, but the "tuples" field (the admission bench reports query counts).
tuples_of() {  # <file> <result name>
  sed -n 's/.*"name":"'"$2"'","tuples":\([0-9]*\),"ms":.*/\1/p' "$1"
}

gate_topk_vs_sort() {  # <file with bench_batch_pipeline results>
  local topk_ms sort_ms
  topk_ms=$(ms_of "$1" order_limit_topk)
  sort_ms=$(ms_of "$1" order_full_sort)
  if [[ -z "$topk_ms" || -z "$sort_ms" ]]; then
    echo "FAIL: $1 is missing the order_limit_topk/order_full_sort entries" >&2
    return 1
  fi
  # ORDER BY ... LIMIT lowers to a bounded sort that keeps limit+offset
  # tuples; it must not be slower than sorting everything and then limiting.
  if ! awk -v k="$topk_ms" -v s="$sort_ms" 'BEGIN{exit !(k <= s)}'; then
    echo "FAIL: top-k sort (${topk_ms} ms) slower than full sort + limit (${sort_ms} ms)" >&2
    return 1
  fi
  echo "OK: top-k ${topk_ms} ms <= full sort ${sort_ms} ms" \
       "($(awk -v k="$topk_ms" -v s="$sort_ms" 'BEGIN{printf "%.2f", s/k}')x)"
}

gate_expr_vs_handwritten() {  # <file with bench_batch_pipeline results>
  local compiled_ms hand_ms
  compiled_ms=$(ms_of "$1" expr_compiled)
  hand_ms=$(ms_of "$1" expr_handwritten)
  if [[ -z "$compiled_ms" || -z "$hand_ms" ]]; then
    echo "FAIL: $1 is missing the expr_compiled/expr_handwritten entries" >&2
    return 1
  fi
  # mod(field-access($0, "authorId"), 128) from algebricks::CompileExpr
  # against GetField and %: the compiled form reads the field in place and
  # allocates nothing per row, so it may cost at most 5x the hand-written
  # one. (With every call's arguments boxed in a heap vector and a shared
  # constant's refcount bouncing between the threads it read ~11x on a
  # 4-core VM; in place it reads ~2x.)
  if ! awk -v c="$compiled_ms" -v h="$hand_ms" 'BEGIN{exit !(c <= 5 * h)}'; then
    echo "FAIL: compiled expression (${compiled_ms} ms) costs more than 5x hand-written (${hand_ms} ms)" >&2
    return 1
  fi
  echo "OK: compiled expression ${compiled_ms} ms vs hand-written ${hand_ms} ms" \
       "($(awk -v c="$compiled_ms" -v h="$hand_ms" 'BEGIN{printf "%.2f", c/h}')x, gate 5x)"
}

gate_feed_vs_direct() {  # <file with bench_feed_ingestion results>
  local direct_ms basic_ms
  direct_ms=$(ms_of "$1" direct_upsert)
  basic_ms=$(ms_of "$1" feed_basic)
  if [[ -z "$direct_ms" || -z "$basic_ms" ]]; then
    echo "FAIL: $1 is missing the direct_upsert/feed_basic entries" >&2
    return 1
  fi
  # Gate at feed_basic >= 80% of direct-upsert throughput: the pipeline's
  # queues, record codec and progress tracking may cost at most 20%
  # against raw storage ingest (same records, same WAL'd upsert path).
  if ! awk -v b="$basic_ms" -v d="$direct_ms" 'BEGIN{exit !(d / b >= 0.8)}'; then
    echo "FAIL: Basic-policy feed (${basic_ms} ms) retains <80% of direct upsert (${direct_ms} ms)" >&2
    return 1
  fi
  echo "OK: feed_basic ${basic_ms} ms vs direct ${direct_ms} ms" \
       "($(awk -v b="$basic_ms" -v d="$direct_ms" 'BEGIN{printf "%.0f%%", 100*d/b}') retained)"
}

gate_batch_vs_tuple() {  # <file with bench_batch_pipeline results>
  local tuple_ms batch_ms
  tuple_ms=$(ms_of "$1" scan_select_project_tuple)
  batch_ms=$(ms_of "$1" scan_select_project_batch)
  if [[ -z "$tuple_ms" || -z "$batch_ms" ]]; then
    echo "FAIL: $1 is missing the scan_select_project_{tuple,batch} entries" >&2
    return 1
  fi
  # Gate at batch <= tuple. The committed full-run baseline shows ~2x; the
  # CI smoke gate only rejects outright regressions (batch slower than
  # tuple), because shared runners are too noisy to pin a larger ratio.
  if ! awk -v b="$batch_ms" -v t="$tuple_ms" 'BEGIN{exit !(b <= t)}'; then
    echo "FAIL: batch pipeline (${batch_ms} ms) slower than tuple (${tuple_ms} ms)" >&2
    return 1
  fi
  echo "OK: batch ${batch_ms} ms <= tuple ${tuple_ms} ms" \
       "($(awk -v b="$batch_ms" -v t="$tuple_ms" 'BEGIN{printf "%.2f", t/b}')x)"
}

gate_columnar_vs_row() {  # <file with bench_columnar_scan results> <min ratio>
  local row_ms col_ms min_ratio="$2"
  row_ms=$(ms_of "$1" columnar_scan_row)
  col_ms=$(ms_of "$1" columnar_scan_col)
  if [[ -z "$row_ms" || -z "$col_ms" ]]; then
    echo "FAIL: $1 is missing the columnar_scan_{row,col} entries" >&2
    return 1
  fi
  if ! awk -v r="$row_ms" -v c="$col_ms" -v m="$min_ratio" \
       'BEGIN{exit !(r / c >= m)}'; then
    echo "FAIL: columnar scan (${col_ms} ms) is <${min_ratio}x over row scan (${row_ms} ms)" >&2
    return 1
  fi
  echo "OK: columnar scan ${col_ms} ms vs row ${row_ms} ms" \
       "($(awk -v r="$row_ms" -v c="$col_ms" 'BEGIN{printf "%.2f", r/c}')x," \
       "gate ${min_ratio}x)"
}

gate_async_vs_sync() {  # <file with bench_lsm_ingestion results>
  local sync_p99 async_p99
  sync_p99=$(ms_of "$1" lsm_sync_p99)
  async_p99=$(ms_of "$1" lsm_async_p99)
  if [[ -z "$sync_p99" || -z "$async_p99" ]]; then
    echo "FAIL: $1 is missing the lsm_{sync,async}_p99 entries" >&2
    return 1
  fi
  # Gate at async p99 <= sync p99: background maintenance must take flush
  # work off the write path, so the tail of per-op Put latency cannot be
  # worse than paying for flushes inline. (The committed full-run baseline
  # shows a much larger gap; shared CI runners only gate the inversion.)
  if ! awk -v a="$async_p99" -v s="$sync_p99" 'BEGIN{exit !(a <= s)}'; then
    echo "FAIL: async p99 write latency (${async_p99} ms) worse than sync (${sync_p99} ms)" >&2
    return 1
  fi
  echo "OK: async p99 ${async_p99} ms <= sync p99 ${sync_p99} ms" \
       "($(awk -v a="$async_p99" -v s="$sync_p99" 'BEGIN{if (a > 0) printf "%.1f", s/a; else printf "inf"}')x lower)"
}

gate_governed_vs_ungoverned() {  # <file with bench_admission results> <max ratio>
  local un_p99 gov_p99 rejects max_ratio="$2"
  un_p99=$(ms_of "$1" admission_ungoverned_p99)
  gov_p99=$(ms_of "$1" admission_governed_p99)
  rejects=$(tuples_of "$1" admission_overload_rejects)
  if [[ -z "$un_p99" || -z "$gov_p99" || -z "$rejects" ]]; then
    echo "FAIL: $1 is missing the admission_{ungoverned,governed}_p99 /" \
         "admission_overload_rejects entries" >&2
    return 1
  fi
  # Gate at governed p99 <= ungoverned p99 (the ISSUE 9 acceptance ratio,
  # held strictly by the committed full-run baseline; fresh smoke runs on
  # shared runners get a little noise headroom via max_ratio). Per-query
  # latency includes admission-queue time, so this only passes if bounded
  # concurrency really beats time-slicing the whole burst at once.
  if ! awk -v g="$gov_p99" -v u="$un_p99" -v m="$max_ratio" \
       'BEGIN{exit !(g <= u * m)}'; then
    echo "FAIL: governed p99 (${gov_p99} ms) worse than ungoverned p99" \
         "(${un_p99} ms) x ${max_ratio}" >&2
    return 1
  fi
  # Overload shedding must have fired: a burst into 2 slots + 2 queue
  # spots has to reject queries, or admission control is not engaging.
  if [[ "$rejects" -lt 1 ]]; then
    echo "FAIL: admission overload section shed no queries" >&2
    return 1
  fi
  echo "OK: governed p99 ${gov_p99} ms vs ungoverned ${un_p99} ms" \
       "($(awk -v g="$gov_p99" -v u="$un_p99" 'BEGIN{printf "%.2f", u/g}')x," \
       "gate ${max_ratio}x), overload shed ${rejects}"
}

gate_point_lookup() {  # <file with bench_point_lookup results>
  local sql_p1 sql_p2 sql_p8 get_p2
  sql_p1=$(ms_of "$1" pk_lookup_sqlpp_p1)
  sql_p2=$(ms_of "$1" pk_lookup_sqlpp_p2)
  sql_p8=$(ms_of "$1" pk_lookup_sqlpp_p8)
  get_p2=$(ms_of "$1" pk_lookup_get_p2)
  if [[ -z "$sql_p1" || -z "$sql_p2" || -z "$sql_p8" || -z "$get_p2" ]]; then
    echo "FAIL: $1 is missing the pk_lookup_{sqlpp_p1,sqlpp_p2,sqlpp_p8,get_p2}" \
         "entries" >&2
    return 1
  fi
  # Each row is already the median of 5 reps of the same key sequence. A
  # pk statement pruned to one partition and run on the caller's thread
  # costs parse + translate + optimize + one GetByKey-sized search, so it
  # stays within 10x the storage call and does not grow with partitions.
  if ! awk -v s="$sql_p2" -v g="$get_p2" 'BEGIN{exit !(s <= 10 * g)}'; then
    echo "FAIL: SQL++ pk lookup at p2 (${sql_p2} ms) costs >10x GetByKey" \
         "(${get_p2} ms)" >&2
    return 1
  fi
  if ! awk -v a="$sql_p8" -v b="$sql_p1" 'BEGIN{exit !(a <= 1.5 * b)}'; then
    echo "FAIL: SQL++ pk lookup at p8 (${sql_p8} ms) costs >1.5x p1" \
         "(${sql_p1} ms)" >&2
    return 1
  fi
  echo "OK: SQL++ pk lookup p2 ${sql_p2} ms vs GetByKey ${get_p2} ms" \
       "($(awk -v s="$sql_p2" -v g="$get_p2" 'BEGIN{printf "%.1f", s/g}')x, gate 10x)," \
       "p8/p1 $(awk -v a="$sql_p8" -v b="$sql_p1" 'BEGIN{printf "%.2f", a/b}')x (gate 1.5x)"
}

if [[ $CHECK -eq 1 ]]; then
  if [[ ! -s "$OUT" ]]; then
    echo "FAIL: $OUT does not exist (regenerate with tools/bench_to_json.sh)" >&2
    exit 1
  fi
  grep -q '"schema":"axbench-v1"' "$OUT" || {
    echo "FAIL: $OUT is not an axbench-v1 document" >&2; exit 1; }
  for entry in scan_select_project_tuple scan_select_project_batch \
               exchange_1to1_tuple exchange_1to1_batch \
               speedup_agg_p1 direct_upsert feed_basic feed_spill \
               feed_discard feed_throttle feed_stall_recovery \
               columnar_scan_row columnar_scan_col \
               lsm_sync_ingest lsm_async_ingest lsm_sync_p99 lsm_async_p99 \
               admission_ungoverned_total admission_governed_total \
               admission_ungoverned_p99 admission_governed_p99 \
               admission_overload_served admission_overload_rejects \
               pk_lookup_sqlpp_p1 pk_lookup_sqlpp_p2 pk_lookup_sqlpp_p4 \
               pk_lookup_sqlpp_p8 pk_lookup_get_p1 pk_lookup_get_p2 \
               pk_lookup_get_p4 pk_lookup_get_p8; do
    grep -q '"name":"'"$entry"'"' "$OUT" || {
      echo "FAIL: $OUT is missing tracked entry '$entry'" >&2; exit 1; }
  done
  gate_batch_vs_tuple "$OUT"
  gate_feed_vs_direct "$OUT"
  # The committed baseline comes from a quiet full run: hold the ISSUE 7
  # acceptance ratio here (fresh smoke runs below gate only col <= row).
  gate_columnar_vs_row "$OUT" 1.5
  gate_async_vs_sync "$OUT"
  gate_governed_vs_ungoverned "$OUT" 1.0
  gate_point_lookup "$OUT"
  echo "OK: $OUT validates"
  exit 0
fi

for bin in bench_batch_pipeline bench_fig1_cluster_scaling bench_feed_ingestion \
           bench_columnar_scan bench_lsm_ingestion bench_admission \
           bench_point_lookup; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "FAIL: $BUILD_DIR/bench/$bin not built" >&2
    echo "  (configure with: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release)" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The benches run back-to-back and several are write-heavy; background
# writeback of one bench's dirty pages perturbs the next bench's
# fsync-sensitive sections. Settle the page cache between benches so each
# measures its own I/O, not its predecessor's.
settle() { sync; sleep 1; }

"$BUILD_DIR"/bench/bench_batch_pipeline $SMOKE --json "$tmp/batch.json"
settle
"$BUILD_DIR"/bench/bench_fig1_cluster_scaling $SMOKE --json "$tmp/fig1.json"
settle
"$BUILD_DIR"/bench/bench_feed_ingestion $SMOKE --json "$tmp/feeds.json"
settle
"$BUILD_DIR"/bench/bench_columnar_scan $SMOKE --json "$tmp/colscan.json"
settle
"$BUILD_DIR"/bench/bench_lsm_ingestion $SMOKE --json "$tmp/lsm.json"
settle
"$BUILD_DIR"/bench/bench_admission $SMOKE --json "$tmp/admission.json"
settle
"$BUILD_DIR"/bench/bench_point_lookup $SMOKE --json "$tmp/point.json"

gate_batch_vs_tuple "$tmp/batch.json"
gate_topk_vs_sort "$tmp/batch.json"
gate_expr_vs_handwritten "$tmp/batch.json"
gate_feed_vs_direct "$tmp/feeds.json"
gate_columnar_vs_row "$tmp/colscan.json" 1.0
gate_async_vs_sync "$tmp/lsm.json"
gate_governed_vs_ungoverned "$tmp/admission.json" 1.25
gate_point_lookup "$tmp/point.json"

# Merge: one top-level axbench-v1 document with each bench's report under
# "benches". The per-bench files are single JSON objects from
# bench/bench_json.h, so plain concatenation is safe.
{
  printf '{"schema":"axbench-v1","generator":"tools/bench_to_json.sh","mode":"%s","benches":[\n' \
         "${SMOKE:+smoke}${SMOKE:-full}"
  cat "$tmp/batch.json"
  printf ',\n'
  cat "$tmp/fig1.json"
  printf ',\n'
  cat "$tmp/feeds.json"
  printf ',\n'
  cat "$tmp/colscan.json"
  printf ',\n'
  cat "$tmp/lsm.json"
  printf ',\n'
  cat "$tmp/admission.json"
  printf ',\n'
  cat "$tmp/point.json"
  printf ']}\n'
} > "$OUT"

echo "OK: wrote $OUT"
