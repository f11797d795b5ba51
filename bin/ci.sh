#!/bin/sh
# Local CI driver: the checks a change must pass before it lands.
#   bin/ci.sh            -- typecheck, build, tests (sequential, 2- and 8-domain)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @check (typecheck) =="
dune build @check

echo "== dune build (full build) =="
dune build

echo "== dune runtest (PB_DOMAINS=1) =="
dune runtest

# The parallel evaluation layer must be invisible in test output: the
# same suite, same seed, run on a 2-domain pool (the benchmark's pool
# size) and on an 8-domain pool has to produce the same results
# test-by-test as the sequential run. Run the built binary directly (no
# dune noise), normalise timings away, and fail on any difference.
echo "== determinism: test output identical at PB_DOMAINS=1 vs 2 and 8 =="
mkdir -p _build/ci
# The server stages below poll their logs for a ready banner while the
# background server is still being started; a log left by an earlier
# run would hand them its stale port.
rm -f _build/ci/*.log
# Stop a backgrounded server: SIGTERM, then poll for up to STOP_WAIT_S
# seconds. A server still running after that fails the stage (and is
# killed) instead of hanging CI; one that exits must exit 0.
STOP_WAIT_S=10
stop_server() {
  stop_pid=$1
  stop_label=$2
  if ! kill -TERM "$stop_pid"; then
    echo "CI FAIL: $stop_label was no longer running at SIGTERM"
    exit 1
  fi
  stop_ticks=0
  while kill -0 "$stop_pid" 2>/dev/null; do
    if [ "$stop_ticks" -ge $((STOP_WAIT_S * 10)) ]; then
      echo "CI FAIL: $stop_label still running ${STOP_WAIT_S}s after SIGTERM; sent SIGKILL"
      kill -9 "$stop_pid" 2>/dev/null || true
      wait "$stop_pid" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
    stop_ticks=$((stop_ticks + 1))
  done
  stop_exit=0
  wait "$stop_pid" || stop_exit=$?
  if [ "$stop_exit" -ne 0 ]; then
    echo "CI FAIL: $stop_label exited $stop_exit on SIGTERM (expected 0)"
    exit 1
  fi
}
normalize() {
  sed -e 's/[0-9][0-9]*\.[0-9][0-9]*s/<time>/g' \
      -e "s/run has ID \`[A-Z0-9]*'/run has ID <id>/" "$1"
}
for d in 1 2 8; do
  QCHECK_SEED=20260806 PB_DOMAINS=$d ./_build/default/test/test_main.exe \
    >_build/ci/run_d$d.txt 2>&1
  normalize _build/ci/run_d$d.txt >_build/ci/run_d$d.norm
done
for d in 2 8; do
  if ! diff -u _build/ci/run_d1.norm _build/ci/run_d$d.norm; then
    echo "CI FAIL: test output differs between PB_DOMAINS=1 and PB_DOMAINS=$d"
    exit 1
  fi
done

# LP warm-start differential: the lp suite's properties (warm re-solve =
# cold solve after branch-and-bound bound changes and after right-hand-
# side changes, some infeasible, with the warm dual bound still bounding
# the optimum; MILP = enumeration; next_packages' no-good cuts = ranked
# enumeration) at a fixed seed with QCHECK_LONG's larger counts.
echo "== LP differential (warm vs cold simplex, long qcheck counts) =="
if ! QCHECK_SEED=20260806 QCHECK_LONG=1 ./_build/default/test/test_main.exe \
  test lp >_build/ci/lp_long.txt 2>&1; then
  echo "CI FAIL: LP differential suite failed at QCHECK_SEED=20260806"
  tail -n 40 _build/ci/lp_long.txt
  exit 1
fi

# Partitioner differential: the partition suite's properties (the
# segment/quickselect build = the sort-every-split reference oracle, with
# centroids compared bitwise; O(1) group_of = a membership scan) at a
# fixed seed with QCHECK_LONG's larger counts.
echo "== partition differential (build vs reference oracle, long qcheck counts) =="
if ! QCHECK_SEED=20260806 QCHECK_LONG=1 ./_build/default/test/test_main.exe \
  test partition >_build/ci/partition_long.txt 2>&1; then
  echo "CI FAIL: partition differential suite failed at QCHECK_SEED=20260806"
  tail -n 40 _build/ci/partition_long.txt
  exit 1
fi

# SQL print/parse fixpoint: the sql suite's property at a fixed seed
# with QCHECK_LONG's larger counts — every generated statement printed
# and parsed back is the same tree, and printing it again gives the same
# text (the router forwards statements to shards as printed text, so
# float digits and quotes must survive).
echo "== SQL print/parse fixpoint (long qcheck counts) =="
if ! QCHECK_SEED=20260806 QCHECK_LONG=1 ./_build/default/test/test_main.exe \
  test sql >_build/ci/sql_long.txt 2>&1; then
  echo "CI FAIL: sql suite failed at QCHECK_SEED=20260806"
  tail -n 40 _build/ci/sql_long.txt
  exit 1
fi

# Strategy differential: the differential suite's properties at a fixed
# seed with QCHECK_LONG's larger counts — exact strategies = brute force,
# SketchRefine (the strategy with its LP front, and the partition/
# sketch/refine pipeline alone) returns valid packages with sound proofs,
# bounds and gaps, never ends empty-handed on a feasible query, and its
# front's proofs match whole-relation ILP on tables past the front's
# kept-column count; and the compiled row and group closures equal the
# test oracle's tree-walking interpreter ("compiled expression ==
# interpreter", "compiled group expression == interpreter": empty groups,
# NULLs, type errors with equal error text, aggregates in CASE branches
# not taken).
echo "== strategy differential (SketchRefine, compiled vs interpreter, long qcheck counts) =="
if ! QCHECK_SEED=20260806 QCHECK_LONG=1 ./_build/default/test/test_main.exe \
  test differential >_build/ci/differential_long.txt 2>&1; then
  echo "CI FAIL: strategy differential suite failed at QCHECK_SEED=20260806"
  tail -n 40 _build/ci/differential_long.txt
  exit 1
fi

# Columnar differential: the columnar suite's properties at a fixed seed
# with QCHECK_LONG's larger counts — random SQL sessions answer the same
# in both storage modes, tables roundtrip through the columnar image,
# and PaQL candidates gathered through a (compressed) image are the
# stored rows themselves, equal to the row path, with bitwise equal
# coefficient vectors across random write sessions.
echo "== columnar differential (row vs columnar, long qcheck counts) =="
if ! QCHECK_SEED=20260806 QCHECK_LONG=1 ./_build/default/test/test_main.exe \
  test columnar >_build/ci/columnar_long.txt 2>&1; then
  echo "CI FAIL: columnar differential suite failed at QCHECK_SEED=20260806"
  tail -n 40 _build/ci/columnar_long.txt
  exit 1
fi

# The serving path under GC pressure: the net suite (event loop, poller,
# wire codec, admission, drain) with a 4k-word minor heap and an
# aggressive major-GC pace, so minor and major collections keep landing
# around the epoll stub's ready buffer and the worker/event-loop
# handoffs. Any test failure (or a crash from a corrupted heap) fails CI.
echo "== net suite under GC pressure (OCAMLRUNPARAM=s=4k,o=20) =="
if ! OCAMLRUNPARAM='s=4k,o=20' ./_build/default/test/test_main.exe \
  test net >_build/ci/net_gc.txt 2>&1; then
  echo "CI FAIL: net suite failed under OCAMLRUNPARAM=s=4k,o=20"
  tail -n 40 _build/ci/net_gc.txt
  exit 1
fi

# Bench writer smoke: --sql and --paql-scale (quick sweeps) must write
# JSON that parses and carries perfbench's run envelope, and the harness
# must refuse a flag it does not know with a usage message and exit code
# 2: a stale --clients skipped silently would run a different load.
echo "== bench writers (--sql, --paql-scale JSON envelope; unknown flag exits 2) =="
./_build/default/bench/main.exe --sql --quick --sql-json _build/ci/sql.json \
  >_build/ci/bench_sql.txt 2>&1
./_build/default/bench/main.exe --paql-scale --quick \
  --paql-json _build/ci/paql.json >_build/ci/bench_paql.txt 2>&1
for out in _build/ci/sql.json _build/ci/paql.json; do
  if ! python3 -c '
import json, sys
env = json.load(open(sys.argv[1]))["envelope"]
missing = [k for k in ("host", "nproc", "PB_DOMAINS", "PB_STORE") if k not in env]
sys.exit("missing envelope keys: %s" % missing if missing else 0)' "$out"; then
    echo "CI FAIL: $out is not JSON with the run envelope"
    exit 1
  fi
done
BENCH_EXIT=0
./_build/default/bench/main.exe --loadgen --clients 6 \
  >_build/ci/bench_badflag.txt 2>&1 || BENCH_EXIT=$?
if [ "$BENCH_EXIT" -ne 2 ] || ! grep -q '^usage:' _build/ci/bench_badflag.txt; then
  echo "CI FAIL: bench --clients exited $BENCH_EXIT (expected 2 with a usage message)"
  cat _build/ci/bench_badflag.txt
  exit 1
fi

# Storage-engine differential gate: the same scripted session (DDL, DML,
# duplicate rows, NULLs, scans, joins, grouped aggregates) replayed
# against a PB_STORE=row server and a PB_STORE=columnar server must
# produce byte-identical transcripts — the columnar engine is only
# allowed to be faster, never different. The columnar server also
# exposes /metrics, where the resident-bytes gauge must show the
# storage subsystem actually engaged (tables converted and cached).
echo "== storage differential (PB_STORE=row vs columnar transcripts) =="
ROW_LOG=_build/ci/store_row_server.log
COL_LOG=_build/ci/store_col_server.log
PB_STORE=row ./_build/default/bin/pb_server.exe --port 0 --size 80 \
  --seed 7 >"$ROW_LOG" 2>&1 &
ROW_PID=$!
PB_STORE=columnar ./_build/default/bin/pb_server.exe --port 0 --size 80 \
  --seed 7 --metrics-port 0 >"$COL_LOG" 2>&1 &
COL_PID=$!
for log in "$ROW_LOG" "$COL_LOG"; do
  i=0
  while [ $i -lt 100 ]; do
    grep -q "pb_server ready" "$log" 2>/dev/null && break
    i=$((i + 1))
    sleep 0.1
  done
done
ROW_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$ROW_LOG")
COL_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$COL_LOG")
if [ -z "$ROW_PORT" ] || [ -z "$COL_PORT" ]; then
  echo "CI FAIL: storage differential servers did not come up; logs follow"
  cat "$ROW_LOG" "$COL_LOG"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$ROW_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/store_row.txt 2>&1
./_build/default/bin/pb_client.exe --port "$COL_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/store_col.txt 2>&1
normalize _build/ci/store_row.txt >_build/ci/store_row.norm
normalize _build/ci/store_col.txt >_build/ci/store_col.norm
if ! diff -u _build/ci/store_row.norm _build/ci/store_col.norm; then
  echo "CI FAIL: PB_STORE=row and PB_STORE=columnar transcripts differ"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
STORE_METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$COL_LOG")
curl -sf "http://127.0.0.1:$STORE_METRICS_PORT/metrics" \
  >_build/ci/store_scrape.txt || {
  echo "CI FAIL: curl /metrics on the columnar server failed"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
}
STORE_BYTES=$(sed -n 's/^pb_store_bytes_resident \([0-9][0-9]*\).*/\1/p' \
  _build/ci/store_scrape.txt | head -n 1)
if [ -z "$STORE_BYTES" ] || [ "$STORE_BYTES" -lt 1 ]; then
  echo "CI FAIL: expected pb_store_bytes_resident > 0 on the columnar"
  echo "         server; /metrics reported: ${STORE_BYTES:-no gauge}"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
stop_server "$ROW_PID" "row-store pb_server"
stop_server "$COL_PID" "columnar pb_server"

# Serving-path smoke test: boot pb_server on an ephemeral port with a
# fixed synthetic workload, replay a scripted pb_client session, and
# diff the (timing-normalised) transcript against the checked-in
# expectation. Then SIGTERM the server and require a clean exit.
echo "== server smoke test (pb_server + scripted pb_client session) =="
SMOKE_LOG=_build/ci/smoke_server.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --metrics-port 0 >"$SMOKE_LOG" 2>&1 &
SMOKE_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_server ready" "$SMOKE_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
SMOKE_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SMOKE_LOG")
if [ -z "$SMOKE_PORT" ]; then
  echo "CI FAIL: pb_server did not come up; log follows"
  cat "$SMOKE_LOG"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$SMOKE_PORT" --echo \
  <test/smoke/session.txt >_build/ci/smoke_out.txt 2>&1
normalize _build/ci/smoke_out.txt >_build/ci/smoke_out.norm
if ! diff -u test/smoke/expected.txt _build/ci/smoke_out.norm; then
  echo "CI FAIL: pb_client session output differs from test/smoke/expected.txt"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
# The session above repeats a statement, so the server's prepared-plan
# cache must have registered at least one hit. Probe \metrics on a fresh
# connection (counter values are nondeterministic, so this stays out of
# the diffed transcript).
echo "== plan cache smoke (pb_sql_plan_cache_hits_total > 0) =="
printf '\\metrics\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$SMOKE_PORT" \
  >_build/ci/smoke_metrics.txt 2>&1
PLAN_HITS=$(sed -n 's/^pb_sql_plan_cache_hits_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/smoke_metrics.txt | head -n 1)
if [ -z "$PLAN_HITS" ] || [ "$PLAN_HITS" -lt 1 ]; then
  echo "CI FAIL: expected pb_sql_plan_cache_hits_total > 0 after a repeated"
  echo "         statement; \\metrics reported: ${PLAN_HITS:-no counter}"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi

# Warm LP front smoke: two SketchRefine queries in one session that
# differ only in a right-hand side share the front's LP, so the second
# must re-solve it from the first one's basis. Probed through \metrics
# like the plan cache above (out of the diffed transcript).
echo "== warm LP front smoke (pb_engine_lp_front_warm_total > 0) =="
printf '%s\n' '\strategy sketch-refine' \
  'SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) BETWEEN 3 AND 5 AND SUM(P.calories) <= 3000 MAXIMIZE SUM(P.protein)' \
  'SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) BETWEEN 3 AND 5 AND SUM(P.calories) <= 3200 MAXIMIZE SUM(P.protein)' \
  '\metrics' '\quit' | \
  ./_build/default/bin/pb_client.exe --port "$SMOKE_PORT" \
  >_build/ci/smoke_warm_front.txt 2>&1
WARM_FRONTS=$(sed -n 's/^pb_engine_lp_front_warm_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/smoke_warm_front.txt | head -n 1)
if [ -z "$WARM_FRONTS" ] || [ "$WARM_FRONTS" -lt 1 ]; then
  echo "CI FAIL: expected pb_engine_lp_front_warm_total > 0 after two"
  echo "         sketch-refine queries differing in a right-hand side;"
  echo "         \\metrics reported: ${WARM_FRONTS:-no counter}"
  tail -n 20 _build/ci/smoke_warm_front.txt
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi

# Pull-based exposition smoke: the sidecar HTTP endpoint must serve the
# Prometheus text format with the request counter advanced by the
# scripted session above, and /healthz must report an ok status with
# the admission limits.
echo "== metrics endpoint smoke (curl /metrics + /healthz) =="
METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$SMOKE_LOG")
if [ -z "$METRICS_PORT" ]; then
  echo "CI FAIL: pb_server did not announce a metrics port; log follows"
  cat "$SMOKE_LOG"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$METRICS_PORT/metrics" \
  >_build/ci/smoke_scrape.txt || {
  echo "CI FAIL: curl /metrics failed"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
}
# Exposition grammar: TYPE headers, and every sample line is
# "name[{labels}] value".
if ! grep -q '^# TYPE pb_net_requests_total counter' _build/ci/smoke_scrape.txt; then
  echo "CI FAIL: /metrics lacks the TYPE header for pb_net_requests_total"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
if grep -v '^#' _build/ci/smoke_scrape.txt | grep -q -v \
  '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} [0-9+.eE-]*$'; then
  echo "CI FAIL: /metrics sample line breaks the exposition grammar:"
  grep -v '^#' _build/ci/smoke_scrape.txt | grep -v \
    '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} [0-9+.eE-]*$' | head -n 3
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
NET_REQS=$(sed -n 's/^pb_net_requests_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/smoke_scrape.txt | head -n 1)
if [ -z "$NET_REQS" ] || [ "$NET_REQS" -lt 1 ]; then
  echo "CI FAIL: pb_net_requests_total did not advance over the scrape;"
  echo "         /metrics reported: ${NET_REQS:-no counter}"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$METRICS_PORT/healthz" \
  >_build/ci/smoke_health.txt || {
  echo "CI FAIL: curl /healthz failed"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
}
if ! grep -q '"status":"ok"' _build/ci/smoke_health.txt || \
   ! grep -q '"max_inflight"' _build/ci/smoke_health.txt; then
  echo "CI FAIL: /healthz did not report an ok status with limits:"
  cat _build/ci/smoke_health.txt
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi

stop_server "$SMOKE_PID" "pb_server"
if ! grep -q "pb_server stopped" "$SMOKE_LOG"; then
  echo "CI FAIL: pb_server did not log a graceful stop"
  exit 1
fi

# Admission + cancellation smoke: a deliberately starved server (one
# evaluation slot, one queue slot, 200ms deadline) hit by a burst of
# poison cross-join queries must (a) reject overflow with busy, (b)
# cooperatively cancel the poison it does admit, and (c) still answer a
# fresh query immediately afterwards.
echo "== saturation smoke (admission busy + cooperative cancellation) =="
POISON_LOG=_build/ci/poison_server.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --max-inflight 1 --max-queue 1 --deadline 0.2 >"$POISON_LOG" 2>&1 &
POISON_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_server ready" "$POISON_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
POISON_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$POISON_LOG")
if [ -z "$POISON_PORT" ]; then
  echo "CI FAIL: saturation pb_server did not come up; log follows"
  cat "$POISON_LOG"
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
# Six closed-loop connections against one slot and one queue place: the
# overflow is turned away busy and the admitted poison hits the deadline.
./_build/default/bench/main.exe --loadgen --port "$POISON_PORT" \
  --connections 6 --duration 1 --workload bench/workloads/net_poison.txt \
  --label poison-burst --json-out _build/ci/poison.json \
  >_build/ci/poison_loadgen.txt 2>&1
BUSY=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["busy"])' \
  _build/ci/poison.json 2>/dev/null || true)
if [ -z "$BUSY" ] || [ "$BUSY" -lt 1 ]; then
  echo "CI FAIL: expected >= 1 busy rejection past the admission queue;"
  echo "         loadgen reported: ${BUSY:-no busy field}"
  cat _build/ci/poison_loadgen.txt
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
printf '\\metrics\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$POISON_PORT" \
  >_build/ci/poison_metrics.txt 2>&1
NET_CANCELLED=$(sed -n 's/^pb_net_cancelled_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/poison_metrics.txt | head -n 1)
if [ -z "$NET_CANCELLED" ] || [ "$NET_CANCELLED" -lt 1 ]; then
  echo "CI FAIL: expected pb_net_cancelled_total > 0 after the poison burst;"
  echo "         \\metrics reported: ${NET_CANCELLED:-no counter}"
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
# The server must be healthy, not merely alive: a fresh query answers.
printf 'SELECT COUNT(*) FROM recipes\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$POISON_PORT" \
  >_build/ci/poison_fresh.txt 2>&1
if ! grep -q "80" _build/ci/poison_fresh.txt; then
  echo "CI FAIL: server did not answer a fresh query after the poison burst"
  cat _build/ci/poison_fresh.txt
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
stop_server "$POISON_PID" "saturation pb_server"

# SketchRefine serving smoke: a 100k-row server with a 10s request
# deadline must answer a package query evaluated with the sticky
# \strategy sketch-refine — a package plus objective and a
# sketch-refine footer, never a "(cancelled)" one: even when the
# deadline fires mid-refine, the anytime contract serves the current
# incumbent with status ok.
echo "== sketch-refine smoke (100k rows through pb_server, 10s deadline) =="
SR_LOG=_build/ci/sr_server.log
./_build/default/bin/pb_server.exe --port 0 --size 100000 --seed 7 \
  --deadline 10 >"$SR_LOG" 2>&1 &
SR_PID=$!
i=0
while [ $i -lt 200 ]; do
  grep -q "pb_server ready" "$SR_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.2
done
SR_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SR_LOG")
if [ -z "$SR_PORT" ]; then
  echo "CI FAIL: sketch-refine pb_server did not come up; log follows"
  cat "$SR_LOG"
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
printf '\\strategy sketch-refine\nSELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) BETWEEN 3 AND 5 AND SUM(P.calories) <= 3000 MAXIMIZE SUM(P.protein)\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$SR_PORT" \
  >_build/ci/sr_smoke_out.txt 2>&1
if ! grep -q "strategy set to sketch-refine" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: \\strategy sketch-refine was not accepted:"
  cat _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
if ! grep -q "^objective:" _build/ci/sr_smoke_out.txt || \
   ! grep -q "strategy: sketch-refine" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: sketch-refine query did not return a package + objective:"
  tail -n 20 _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
if grep -q "(cancelled)" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: sketch-refine run reported (cancelled) instead of serving"
  echo "         its anytime incumbent:"
  tail -n 20 _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
stop_server "$SR_PID" "sketch-refine pb_server"

# Shared-nothing router differential: the same scripted session replayed
# against a single pb_server and against a pb_router fronting two hash
# partitions of the same seeded data must produce byte-identical
# transcripts (partial-aggregate merge and scan-pull are not allowed to
# change answers). The router's /healthz must aggregate per-shard health.
echo "== router differential (pb_router over 2 shards vs single node) =="
SH0_LOG=_build/ci/shard0_server.log
SH1_LOG=_build/ci/shard1_server.log
ONE_LOG=_build/ci/router_single.log
RT_LOG=_build/ci/router.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --shard 0/2 >"$SH0_LOG" 2>&1 &
SH0_PID=$!
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --shard 1/2 >"$SH1_LOG" 2>&1 &
SH1_PID=$!
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  >"$ONE_LOG" 2>&1 &
ONE_PID=$!
for log in "$SH0_LOG" "$SH1_LOG" "$ONE_LOG"; do
  i=0
  while [ $i -lt 100 ]; do
    grep -q "pb_server ready" "$log" 2>/dev/null && break
    i=$((i + 1))
    sleep 0.1
  done
done
SH0_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SH0_LOG")
SH1_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SH1_LOG")
ONE_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$ONE_LOG")
if [ -z "$SH0_PORT" ] || [ -z "$SH1_PORT" ] || [ -z "$ONE_PORT" ]; then
  echo "CI FAIL: router-stage pb_servers did not come up; logs follow"
  cat "$SH0_LOG" "$SH1_LOG" "$ONE_LOG"
  kill "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_router.exe --port 0 \
  --shard "127.0.0.1:$SH0_PORT" --shard "127.0.0.1:$SH1_PORT" \
  --metrics-port 0 >"$RT_LOG" 2>&1 &
RT_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_router ready" "$RT_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
RT_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\) .*/\1/p' "$RT_LOG")
if [ -z "$RT_PORT" ]; then
  echo "CI FAIL: pb_router did not come up; log follows"
  cat "$RT_LOG"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$ONE_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/router_one.txt 2>&1
./_build/default/bin/pb_client.exe --port "$RT_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/router_rt.txt 2>&1
normalize _build/ci/router_one.txt >_build/ci/router_one.norm
normalize _build/ci/router_rt.txt >_build/ci/router_rt.norm
if ! diff -u _build/ci/router_one.norm _build/ci/router_rt.norm; then
  echo "CI FAIL: router transcript differs from the single-node transcript"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
RT_METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$RT_LOG")
curl -sf "http://127.0.0.1:$RT_METRICS_PORT/healthz" \
  >_build/ci/router_health.txt || {
  echo "CI FAIL: curl /healthz on pb_router failed"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
}
if ! grep -q '"status":"ok"' _build/ci/router_health.txt || \
   ! grep -q '"shard":0' _build/ci/router_health.txt || \
   ! grep -q '"shard":1' _build/ci/router_health.txt; then
  echo "CI FAIL: router /healthz did not aggregate per-shard health:"
  cat _build/ci/router_health.txt
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
stop_server "$RT_PID" "pb_router"
for pid in "$SH0_PID" "$SH1_PID" "$ONE_PID"; do
  stop_server "$pid" "router-stage pb_server"
done

echo "CI OK"
