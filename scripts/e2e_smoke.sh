#!/usr/bin/env bash
# Loopback end-to-end smoke test for `fivm serve` / `fivm follow`:
# two real processes over TCP — a durable primary shipping its WAL and a
# durable follower serving read-only HTTP. The primary syncs every record
# (-fsync always), so concurrent writers commit in groups. Asserts epoch
# convergence, byte-identical lookups, concurrent writes that all land,
# follower restart mid-stream, graceful signal shutdown on both sides, and a
# primary restarted on its WAL directory (recovery in its own process) that
# answers as before and that the follower reconnects to.
# Run from the repo root; CI runs it after the unit tests.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp /tmp/fivm-smoke.XXXXXX)
WORK=$(mktemp -d /tmp/fivm-smoke-dir.XXXXXX)
PRIMARY_PID=""
FOLLOWER_PID=""
cleanup() {
  [ -n "$FOLLOWER_PID" ] && kill "$FOLLOWER_PID" 2>/dev/null || true
  [ -n "$PRIMARY_PID" ] && kill "$PRIMARY_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/fivm

HTTP_P=$((20000 + RANDOM % 10000))
HTTP_F=$((HTTP_P + 1))
REPL=$((HTTP_P + 2))
CATALOG="R(A,B);S(A,C)"
P="http://127.0.0.1:$HTTP_P"
F="http://127.0.0.1:$HTTP_F"

wait_healthy() { # url
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: $1 never became healthy" >&2
  exit 1
}

applied_of() { # url
  curl -sf "$1/stats" | grep -o '"applied":[0-9]*' | grep -o '[0-9]*'
}

wait_converged() { # follower_url want_applied
  for _ in $(seq 1 100); do
    [ "$(applied_of "$1")" = "$2" ] && return 0
    sleep 0.1
  done
  echo "FAIL: follower stuck at applied=$(applied_of "$1"), want $2" >&2
  exit 1
}

start_follower() {
  "$BIN" follow -primary "127.0.0.1:$REPL" -listen "127.0.0.1:$HTTP_F" \
    -wal-dir "$WORK/follower" -catalog "$CATALOG" &
  FOLLOWER_PID=$!
  wait_healthy "$F"
}

start_primary() {
  "$BIN" serve -listen "127.0.0.1:$HTTP_P" -replication-listen "127.0.0.1:$REPL" \
    -wal-dir "$WORK/primary" -fsync always -catalog "$CATALOG" &
  PRIMARY_PID=$!
  wait_healthy "$P"
}

echo "--- starting primary"
start_primary

echo "--- starting follower"
start_follower

echo "--- DDL + writes on the primary"
curl -sf -X POST -d '{"sql":"CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"}' "$P/exec" >/dev/null
curl -sf -X POST -d '{"updates":[{"rel":"R","mult":1,"tuples":[[1,2],[2,3]]}]}' "$P/apply" >/dev/null
curl -sf -X POST -d '{"updates":[{"rel":"S","mult":1,"tuples":[[1,10],[2,20]]}]}' "$P/apply" >/dev/null

echo "--- follower converges"
wait_converged "$F" "$(applied_of "$P")"

echo "--- lookups agree"
PV=$(curl -sf "$P/view/sums/lookup?key=1")
FV=$(curl -sf "$F/view/sums/lookup?key=1")
[ "$PV" = "$FV" ] || { echo "FAIL: lookup mismatch: primary=$PV follower=$FV" >&2; exit 1; }
echo "$PV" | grep -q '"value":20' || { echo "FAIL: wrong value: $PV" >&2; exit 1; }

echo "--- 8 concurrent writers on disjoint keys"
# Each inserts R(50, i); S(50, 10) is there first, so sums[50] = 10 * (1+...+8).
# Only the outcome is asserted: how the queue groups the writes is timing.
curl -sf -X POST -d '{"updates":[{"rel":"S","mult":1,"tuples":[[50,10]]}]}' "$P/apply" >/dev/null
PIDS=()
for i in $(seq 1 8); do
  curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d "{\"updates\":[{\"rel\":\"R\",\"mult\":1,\"tuples\":[[50,$i]]}]}" "$P/apply" >"$WORK/post-$i" &
  PIDS+=($!)
done
for pid in "${PIDS[@]}"; do wait "$pid"; done
for i in $(seq 1 8); do
  [ "$(cat "$WORK/post-$i")" = "200" ] || { echo "FAIL: concurrent POST $i returned $(cat "$WORK/post-$i")" >&2; exit 1; }
done
wait_converged "$F" "$(applied_of "$P")"
PV=$(curl -sf "$P/view/sums/lookup?key=50")
FV=$(curl -sf "$F/view/sums/lookup?key=50")
[ "$PV" = "$FV" ] || { echo "FAIL: lookup mismatch after concurrent writes: primary=$PV follower=$FV" >&2; exit 1; }
echo "$PV" | grep -q '"value":360' || { echo "FAIL: wrong value after concurrent writes: $PV" >&2; exit 1; }

echo "--- follower writes are rejected"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"updates":[{"rel":"R","tuples":[[9,9]]}]}' "$F/apply")
[ "$CODE" = "403" ] || { echo "FAIL: follower /apply returned $CODE, want 403" >&2; exit 1; }

echo "--- restart follower mid-stream"
kill -TERM "$FOLLOWER_PID"
wait "$FOLLOWER_PID" || { echo "FAIL: follower did not exit cleanly on SIGTERM" >&2; exit 1; }
FOLLOWER_PID=""
curl -sf -X POST -d '{"updates":[{"rel":"R","mult":1,"tuples":[[3,5]]}]}' "$P/apply" >/dev/null
curl -sf -X POST -d '{"updates":[{"rel":"S","mult":1,"tuples":[[3,7]]}]}' "$P/apply" >/dev/null
start_follower
wait_converged "$F" "$(applied_of "$P")"
PV=$(curl -sf "$P/view/sums/lookup?key=3")
FV=$(curl -sf "$F/view/sums/lookup?key=3")
[ "$PV" = "$FV" ] || { echo "FAIL: post-restart lookup mismatch: primary=$PV follower=$FV" >&2; exit 1; }
echo "$PV" | grep -q '"value":35' || { echo "FAIL: wrong post-restart value: $PV" >&2; exit 1; }

echo "--- graceful primary shutdown, then restart on its WAL directory"
APPLIED_BEFORE=$(applied_of "$P")
PV_BEFORE=$(curl -sf "$P/view/sums/lookup?key=3")
kill -TERM "$PRIMARY_PID"
wait "$PRIMARY_PID" || { echo "FAIL: primary did not exit cleanly on SIGTERM" >&2; exit 1; }
PRIMARY_PID=""
start_primary
[ "$(applied_of "$P")" = "$APPLIED_BEFORE" ] || { echo "FAIL: recovered primary at applied=$(applied_of "$P"), want $APPLIED_BEFORE" >&2; exit 1; }
PV=$(curl -sf "$P/view/sums/lookup?key=3")
[ "$PV" = "$PV_BEFORE" ] || { echo "FAIL: recovered lookup $PV, want $PV_BEFORE" >&2; exit 1; }

echo "--- follower reconnects to the recovered primary and converges"
curl -sf -X POST -d '{"updates":[{"rel":"R","mult":1,"tuples":[[3,1]]}]}' "$P/apply" >/dev/null
wait_converged "$F" "$(applied_of "$P")"
PV=$(curl -sf "$P/view/sums/lookup?key=3")
FV=$(curl -sf "$F/view/sums/lookup?key=3")
[ "$PV" = "$FV" ] || { echo "FAIL: lookup mismatch after primary restart: primary=$PV follower=$FV" >&2; exit 1; }
echo "$PV" | grep -q '"value":42' || { echo "FAIL: wrong value after primary restart: $PV" >&2; exit 1; }

echo "--- graceful shutdown"
kill -TERM "$FOLLOWER_PID"
wait "$FOLLOWER_PID" || { echo "FAIL: follower shutdown" >&2; exit 1; }
FOLLOWER_PID=""
kill -TERM "$PRIMARY_PID"
wait "$PRIMARY_PID" || { echo "FAIL: primary shutdown" >&2; exit 1; }
PRIMARY_PID=""

echo "e2e smoke OK"
