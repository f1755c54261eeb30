#!/usr/bin/env bash
# serve-smoke: end-to-end drill of the aldaserve robustness contract.
#
#  1. start aldaserve with a write-ahead journal, wait for /readyz
#  2. aldaload burst with deterministic VM fault seeds mixed in —
#     every job must reach a typed terminal state (lost=0)
#  3. queue async jobs, SIGTERM mid-stream — the drain must finish them
#     all and exit 0, and the journal must balance (accepts == dones)
#  4. restart on the same journal — recovery must come up ready with
#     nothing to re-run (the drain left no unfinished work)
#  5. separate server with an injected journal-fsync fault — /readyz
#     must report degradation while jobs keep completing
#
# On failure the server log and journal are dumped (CI uploads them as
# artifacts). Deterministic except for timing; no network beyond
# localhost.
set -uo pipefail

ADDR=127.0.0.1:18321
URL=http://$ADDR
DIR=${SERVE_SMOKE_DIR:-$(mktemp -d /tmp/serve-smoke.XXXXXX)}
mkdir -p "$DIR"
JOURNAL=$DIR/jobs.jsonl
LOG=$DIR/aldaserve.log
SERVER_PID=

cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null
  true
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  echo "--- server log ($LOG) ---" >&2
  cat "$LOG" 2>/dev/null >&2
  echo "--- journal ($JOURNAL) ---" >&2
  cat "$JOURNAL" 2>/dev/null >&2
  exit 1
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$URL/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "serve-smoke: workdir $DIR"
go build -o "$DIR/aldaserve" ./cmd/aldaserve || fail "build aldaserve"
go build -o "$DIR/aldaload" ./cmd/aldaload || fail "build aldaload"

# --- 1. start + ready ------------------------------------------------
"$DIR/aldaserve" -addr "$ADDR" -journal "$JOURNAL" -workers 4 -queue-depth 32 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_ready || fail "server never became ready"
[[ "$(curl -fsS "$URL/readyz")" == "ok" ]] || fail "readyz not ok at startup"

# --- 2. chaos burst --------------------------------------------------
"$DIR/aldaload" -url "$URL" -n 60 -c 8 -fault-seed-every 5 -quiet | tee "$DIR/load.out" \
  || fail "aldaload burst reported lost jobs"
grep -q 'lost=0' "$DIR/load.out" || fail "burst summary missing lost=0"

# --- 3. SIGTERM drain with work in flight ----------------------------
for i in 1 2 3 4 5 6; do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/v1/jobs" \
    -d '{"workload":"sort","analysis":"uaf","tenant":"drain"}') || fail "async submit $i"
  [[ "$code" == 202 ]] || fail "async submit $i got HTTP $code"
done
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=
[[ $rc == 0 ]] || fail "server exited $rc on SIGTERM (drain failed)"
grep -q 'drained cleanly' "$LOG" || fail "no clean-drain log line"

accepts=$(grep -c '"type":"accept"' "$JOURNAL")
dones=$(grep -c '"type":"done"' "$JOURNAL")
[[ "$accepts" == "$dones" ]] || fail "journal imbalance: $accepts accepts vs $dones dones (lost jobs)"
[[ "$accepts" -ge 66 ]] || fail "journal too small: $accepts accepts, expected >= 66"
echo "serve-smoke: drain balanced ($accepts accepts == $dones dones)"

# --- 4. restart on the drained journal -------------------------------
"$DIR/aldaserve" -addr "$ADDR" -journal "$JOURNAL" >"$LOG.2" 2>&1 &
SERVER_PID=$!
LOG=$LOG.2
wait_ready || fail "restart on drained journal never became ready"
curl -fsS "$URL/metrics" | grep -q '"serve.jobs.recovered"' \
  && fail "drained journal still produced recovered jobs"
kill -TERM "$SERVER_PID"; wait "$SERVER_PID" || fail "restart drain failed"
SERVER_PID=

# --- 5. journal-fault degradation ------------------------------------
"$DIR/aldaserve" -addr "$ADDR" -journal "$DIR/chaos.jsonl" -chaos-journal-sync-nth 2 >"$DIR/chaos.log" 2>&1 &
SERVER_PID=$!
LOG=$DIR/chaos.log
wait_ready || fail "chaos server never became ready"
"$DIR/aldaload" -url "$URL" -n 6 -c 2 -quiet >"$DIR/chaos-load.out" \
  || fail "jobs failed under journal fault (availability must survive durability loss)"
grep -q 'lost=0' "$DIR/chaos-load.out" || fail "chaos burst lost jobs"
curl -fsS "$URL/readyz" | grep -q 'degraded: journal' || fail "readyz does not report journal degradation"
kill -TERM "$SERVER_PID"; wait "$SERVER_PID"
SERVER_PID=

echo "serve-smoke: PASS"
