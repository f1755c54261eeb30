#!/usr/bin/env bash
# obs-live-smoke: end-to-end drill of the live serving-tier
# observability surface.
#
#  1. start aldaserve with a journal, a flight-recorder snapshot path,
#     and an injected journal-write fault primed to fire mid-burst
#  2. submit one job and check the trace ID contract: the
#     X-Alda-Trace-Id response header matches the trace_id in the body
#  3. aldaload burst — the summary must report zero lost jobs and carry
#     the p50/p95/p99 latency fields the dashboards grep
#  4. scrape /metrics three ways: default (JSON), Accept: text/plain
#     (Prometheus text exposition), and ?format=prom; the exposition is
#     validated with the strict in-repo parser (aldabench
#     -prom-validate) and probed for the labeled families
#  5. /debug/flight and /debug/spans must serve ring and span dumps,
#     and the serve.spans.live gauge, which the flight recorder keeps at
#     record time, must equal the number of traces in the span view
#  6. the journal fault must have auto-dumped a flight snapshot with
#     reason "journal-degraded"; SIGQUIT must overwrite it with a
#     "sigquit" snapshot while the server keeps serving
#  7. SIGTERM drain must still exit 0
#
# On failure the server log and snapshot are dumped (CI uploads the
# workdir as an artifact). No network beyond localhost.
set -uo pipefail

ADDR=127.0.0.1:18322
URL=http://$ADDR
DIR=${OBS_SMOKE_DIR:-$(mktemp -d /tmp/obs-live-smoke.XXXXXX)}
mkdir -p "$DIR"
JOURNAL=$DIR/jobs.jsonl
SNAP=$DIR/flight.json
LOG=$DIR/aldaserve.log
SERVER_PID=

cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null
  true
}
trap cleanup EXIT

fail() {
  echo "obs-live-smoke: FAIL: $*" >&2
  echo "--- server log ($LOG) ---" >&2
  cat "$LOG" 2>/dev/null >&2
  echo "--- flight snapshot ($SNAP) ---" >&2
  cat "$SNAP" 2>/dev/null >&2
  exit 1
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$URL/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "obs-live-smoke: workdir $DIR"
go build -o "$DIR/aldaserve" ./cmd/aldaserve || fail "build aldaserve"
go build -o "$DIR/aldaload" ./cmd/aldaload || fail "build aldaload"
go build -o "$DIR/aldabench" ./cmd/aldabench || fail "build aldabench"

# --- 1. start: journal + flight snapshot + primed fault --------------
"$DIR/aldaserve" -addr "$ADDR" -journal "$JOURNAL" -workers 4 -queue-depth 128 \
  -flight-snapshot "$SNAP" -chaos-journal-write-nth 40 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_ready || fail "server never became ready"

# --- 2. trace-ID contract -------------------------------------------
curl -fsS -D "$DIR/headers" -o "$DIR/job.json" -X POST "$URL/v1/jobs?wait=1" \
  -d '{"workload":"sort","analysis":"uaf","tenant":"smoke"}' || fail "submit"
hdr=$(grep -i '^x-alda-trace-id:' "$DIR/headers" | tr -d '\r' | awk '{print $2}')
[[ "$hdr" == t-* ]] || fail "missing/invalid X-Alda-Trace-Id header: '$hdr'"
grep -q "\"trace_id\":\"$hdr\"" "$DIR/job.json" || fail "body trace_id does not match header $hdr"
echo "obs-live-smoke: trace contract ok ($hdr)"

# --- 3. burst with latency summary ----------------------------------
"$DIR/aldaload" -url "$URL" -n 48 -c 6 -quiet | tee "$DIR/load.out" \
  || fail "aldaload burst reported lost jobs"
grep -q 'lost=0' "$DIR/load.out" || fail "burst summary missing lost=0"
grep -Eq 'p50_ms=[0-9.]+ p95_ms=[0-9.]+ p99_ms=[0-9.]+' "$DIR/load.out" \
  || fail "burst summary missing latency percentiles"

# --- 4. metrics: JSON default, prom via Accept and ?format ----------
curl -fsS "$URL/metrics" >"$DIR/metrics.json" || fail "scrape JSON"
grep -q '"serve.jobs.accepted"' "$DIR/metrics.json" || fail "JSON export missing serve.jobs.accepted"
curl -fsS -H 'Accept: text/plain' "$URL/metrics" >"$DIR/metrics.prom" || fail "scrape prom"
head -1 "$DIR/metrics.prom" | grep -q '^# TYPE' || fail "Accept: text/plain did not negotiate the exposition"
"$DIR/aldabench" -prom-validate "$DIR/metrics.prom" || fail "exposition fails the strict parser"
for family in alda_serve_stage_wall_us_bucket alda_serve_endpoint_wall_us_count \
  alda_serve_tenant_wall_us_count serve_queue_depth alda_serve_jobs_by_analysis_total; do
  grep -q "^$family" "$DIR/metrics.prom" || fail "exposition missing family $family"
done
curl -fsS "$URL/metrics?format=prom" >"$DIR/metrics2.prom" || fail "scrape ?format=prom"
head -1 "$DIR/metrics2.prom" | grep -q '^# TYPE' || fail "?format=prom ignored"

# --- 5. debug endpoints ---------------------------------------------
curl -fsS "$URL/debug/flight" >"$DIR/flight-live.json" || fail "scrape /debug/flight"
grep -q '"rings"' "$DIR/flight-live.json" || fail "/debug/flight has no ring dump"
curl -fsS "$URL/debug/spans" >"$DIR/spans.json" || fail "scrape /debug/spans"
grep -q '"stages"' "$DIR/spans.json" || fail "/debug/spans has no spans"
# The burst has drained, so the gauge and the view it counts must agree.
# They are scraped back to back; a mismatch is retried briefly in case
# a flight event lands between the two scrapes.
live= traces=
for _ in $(seq 1 10); do
  curl -fsS "$URL/metrics" >"$DIR/metrics-live.json" || fail "scrape /metrics"
  curl -fsS "$URL/debug/spans?volatile=0" >"$DIR/spans-live.json" || fail "scrape /debug/spans?volatile=0"
  live=$(grep -o '"serve.spans.live": *[0-9]*' "$DIR/metrics-live.json" | grep -o '[0-9]*$')
  traces=$(grep -o '"trace":"' "$DIR/spans-live.json" | wc -l | tr -d ' ')
  [[ -n "$live" && "$live" == "$traces" ]] && break
  sleep 0.2
done
[[ -n "$live" && "$live" == "$traces" ]] \
  || fail "serve.spans.live is '$live' but /debug/spans?volatile=0 holds $traces traces"
echo "obs-live-smoke: serve.spans.live = $live traces in the span view"

# --- 6. flight snapshots: journal fault, then SIGQUIT ---------------
# The snapshot fires from the worker that hits the failing journal
# write; give the tail of the burst a moment to land it.
for _ in $(seq 1 50); do
  grep -q '"journal-degraded"' "$SNAP" 2>/dev/null && break
  sleep 0.1
done
grep -q '"journal-degraded"' "$SNAP" || fail "journal fault did not auto-dump a flight snapshot"
kill -QUIT "$SERVER_PID"
for _ in $(seq 1 50); do
  grep -q '"sigquit"' "$SNAP" 2>/dev/null && break
  sleep 0.1
done
grep -q '"sigquit"' "$SNAP" || fail "SIGQUIT did not rewrite the flight snapshot"
curl -fsS "$URL/healthz" >/dev/null || fail "server died on SIGQUIT"

# --- 7. drain --------------------------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=
[[ $rc == 0 ]] || fail "server exited $rc on SIGTERM"

echo "obs-live-smoke: PASS"
