#!/usr/bin/env bash
# End-to-end robustness exercise of lazymcd / lazymc-ctl:
#
#   1. concurrent solves with mixed deadlines, health-counter
#      reconciliation (admitted == completed + failed + shed + in_flight),
#      and bounded-admission load shedding;
#   2. SIGHUP journal rotation;
#   3. SIGTERM mid-request: the in-flight solve returns a *verified*
#      best-so-far report with "interrupted":true, the daemon drains and
#      exits 0, and its socket/pidfile are cleaned up;
#   4. kill -9, then restart: stale-pidfile recovery and journal-backed
#      accounting ("journal_recovered");
#   5. (faults builds, LAZYMC_SMOKE_FAULTS=1) request.exec injection:
#      faulted requests answer with structured errors, their neighbours
#      still verify, the daemon never crashes.
#
# Usage: daemon_smoke.sh <lazymcd> <lazymc-ctl>
set -u

LAZYMCD=${1:?usage: daemon_smoke.sh <lazymcd> <lazymc-ctl>}
CTL=${2:?usage: daemon_smoke.sh <lazymcd> <lazymc-ctl>}

# Short paths: sun_path caps Unix socket names at ~107 bytes.
DIR=$(mktemp -d /tmp/lazymc_smoke.XXXXXX)
SOCK=$DIR/d.sock
PIDFILE=$DIR/d.pid
JOURNAL=$DIR/journal.jsonl
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

FAILURES=0
fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }
note() { echo "--- $*"; }

# json_field FILE KEY -> raw value of a flat JSON field ('' if absent)
json_field() {
  grep -o "\"$2\":[^,}]*" "$1" | head -n1 | cut -d: -f2- | tr -d '"'
}

start_daemon() {  # extra flags in "$@"
  "$LAZYMCD" --socket "$SOCK" --pidfile "$PIDFILE" --journal "$JOURNAL" \
             --executors 2 --max-queue 2 "$@" 2>>"$DIR/daemon.log" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    "$CTL" --socket "$SOCK" status >/dev/null 2>&1 && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || { fail "daemon died on startup"; cat "$DIR/daemon.log" >&2; return 1; }
    sleep 0.1
  done
  fail "daemon did not come up"
  return 1
}

check_reconciled() {  # status-file label
  local admitted completed failed shed inflight
  admitted=$(json_field "$1" admitted)
  completed=$(json_field "$1" completed)
  failed=$(json_field "$1" failed)
  shed=$(json_field "$1" shed)
  inflight=$(json_field "$1" in_flight)
  if [ "$admitted" != "$((completed + failed + shed + inflight))" ]; then
    fail "$2: counters do not reconcile: admitted=$admitted completed=$completed failed=$failed shed=$shed in_flight=$inflight"
  fi
}

# A dense random graph whose exact solve takes far longer than any budget
# used below, while staying promptly cancellable (stop checks every few
# thousand B&B nodes).
awk 'BEGIN{seed=42; n=280;
  for(i=0;i<n;i++) for(j=i+1;j<n;j++){
    seed=(seed*1103515245+12345)%2147483648;
    if(seed/2147483648.0<0.9) print i, j}}' > "$DIR/hard.el"

# ---------------------------------------------------------------- phase 1
note "phase 1: concurrent solves, mixed deadlines, counter reconciliation"
start_daemon || exit 1

"$CTL" --socket "$SOCK" load gen:dblp:small > "$DIR/load.json"
[ "$(json_field "$DIR/load.json" ok)" = "true" ] || fail "load did not ack"

# solve_retrying OUT ARGS...: three solves meet 2 executors and 2 queue
# slots, so the third can be shed as "overloaded" before the executors
# have dequeued the first two.  Shedding is phase 1b's subject, so here a
# shed answer is retried, at most 10 times; the exit code is the last
# attempt's.
solve_retrying() {
  local out=$1 rc
  shift
  for _ in 1 2 3 4 5 6 7 8 9 10; do
    "$CTL" --socket "$SOCK" solve "$@" > "$out"
    rc=$?
    grep -q '"error_kind":"overloaded"' "$out" || break
    sleep 0.2
  done
  return $rc
}

solve_retrying "$DIR/r1.json" gen:dblp:small --id fast-1 &
P1=$!
solve_retrying "$DIR/r2.json" "$DIR/hard.el" --time-limit 2 --id deadline-1 &
P2=$!
solve_retrying "$DIR/r3.json" gen:flickr:small --id fast-2 &
P3=$!
wait $P1; E1=$?
wait $P2; E2=$?
wait $P3; E3=$?

[ "$E1" = 0 ] || fail "fast-1 exit $E1 (want 0)"
[ "$E3" = 0 ] || fail "fast-2 exit $E3 (want 0)"
[ "$E2" = 2 ] || fail "deadline-1 exit $E2 (want 2 = timeout)"
[ "$(json_field "$DIR/r1.json" status)" = "ok" ] || fail "fast-1 not ok"
[ "$(json_field "$DIR/r2.json" status)" = "timeout" ] || fail "deadline-1 not timeout"
for r in r1 r2 r3; do
  [ "$(json_field "$DIR/$r.json" verification)" = "ok" ] \
    || fail "$r: verification not ok"
done

"$CTL" --socket "$SOCK" status > "$DIR/s1.json"
check_reconciled "$DIR/s1.json" "phase 1"
[ "$(json_field "$DIR/s1.json" completed)" -ge 3 ] || fail "completed < 3"
grep -q '"graph_store":' "$DIR/s1.json" \
  || fail "status lacks the graph_store section"
grep -q '"load_path":"gen"' "$DIR/s1.json" \
  || fail "status graph_store lacks per-graph load_path"

# phase 1a: the load verb accepts .lmg binary stores and the status verb
# reports them as mmap-loaded.
CONVERT="$(dirname "$LAZYMCD")/lazymc-convert"
if [ -x "$CONVERT" ]; then
  note "phase 1a: binary graph store through the daemon"
  "$CONVERT" "$DIR/hard.el" "$DIR/hard.lmg" --with-rows --verify \
    > /dev/null || fail "lazymc-convert failed"
  "$CTL" --socket "$SOCK" load "$DIR/hard.lmg" > "$DIR/load_lmg.json"
  [ "$(json_field "$DIR/load_lmg.json" ok)" = "true" ] \
    || fail "lmg load did not ack"
  "$CTL" --socket "$SOCK" solve "$DIR/hard.lmg" --time-limit 2 \
    --id store-1 > "$DIR/rs.json" || true
  grep -q '"load_path":"mmap"' "$DIR/rs.json" \
    || fail "store solve does not report mmap load path"
  [ "$(json_field "$DIR/rs.json" verification)" = "ok" ] \
    || fail "store solve verification not ok"
  "$CTL" --socket "$SOCK" status > "$DIR/s1a.json"
  grep -q '"load_path":"mmap"' "$DIR/s1a.json" \
    || fail "status does not report the mmap-loaded store"
fi

note "phase 1b: load shedding under a full queue"
# 2 executors + 2 queue slots; 6 concurrent slow solves must shed >= 2.
PIDS=()
for i in 1 2 3 4 5 6; do
  "$CTL" --socket "$SOCK" solve "$DIR/hard.el" --time-limit 2 --id "flood-$i" \
    > "$DIR/flood$i.json" 2>/dev/null &
  PIDS+=($!)
done
SHED_SEEN=0
for i in 1 2 3 4 5 6; do
  wait "${PIDS[$((i-1))]}"
  grep -q '"error_kind":"overloaded"' "$DIR/flood$i.json" && SHED_SEEN=$((SHED_SEEN + 1))
done
[ "$SHED_SEEN" -ge 1 ] || fail "no request was shed with overloaded"
"$CTL" --socket "$SOCK" status > "$DIR/s2.json"
check_reconciled "$DIR/s2.json" "phase 1b"
[ "$(json_field "$DIR/s2.json" shed)" -ge 1 ] || fail "status shed counter is 0"

# ---------------------------------------------------------------- phase 2
note "phase 2: SIGHUP journal rotation"
mv "$JOURNAL" "$JOURNAL.rotated"
kill -HUP "$DAEMON_PID"
sleep 0.3
"$CTL" --socket "$SOCK" solve gen:dblp:small --id after-hup >/dev/null
[ -s "$JOURNAL" ] || fail "journal was not re-created after SIGHUP"

# ---------------------------------------------------------------- phase 3
note "phase 3: SIGTERM mid-request drains with verified best-so-far"
"$CTL" --socket "$SOCK" solve "$DIR/hard.el" --time-limit 120 --id victim \
  > "$DIR/victim.json" &
VICTIM=$!
sleep 1
kill -TERM "$DAEMON_PID"
wait $VICTIM; VE=$?
wait "$DAEMON_PID"; DE=$?
[ "$VE" = 6 ] || fail "victim exit $VE (want 6 = interrupted)"
[ "$(json_field "$DIR/victim.json" interrupted)" = "true" ] \
  || fail "victim response not marked interrupted"
[ "$(json_field "$DIR/victim.json" status)" = "interrupted" ] \
  || fail "victim status not interrupted"
[ "$(json_field "$DIR/victim.json" verification)" = "ok" ] \
  || fail "victim best-so-far did not verify"
[ "$(json_field "$DIR/victim.json" omega)" -ge 1 ] \
  || fail "victim carried no best-so-far clique"
[ "$DE" = 0 ] || fail "daemon exit $DE after SIGTERM (want 0)"
[ ! -e "$SOCK" ] || fail "socket not cleaned up after SIGTERM"
[ ! -e "$PIDFILE" ] || fail "pidfile not cleaned up after SIGTERM"
DAEMON_PID=""

# ---------------------------------------------------------------- phase 4
note "phase 4: kill -9, restart, stale-pidfile + journal recovery"
start_daemon || exit 1
"$CTL" --socket "$SOCK" solve gen:dblp:small --id pre-crash >/dev/null
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null
[ -e "$PIDFILE" ] || fail "kill -9 should leave the pidfile behind"
[ -e "$SOCK" ] || fail "kill -9 should leave the socket behind"
DAEMON_PID=""

start_daemon || exit 1
"$CTL" --socket "$SOCK" status > "$DIR/s3.json"
[ "$(json_field "$DIR/s3.json" recovered_stale)" = "true" ] \
  || fail "restart did not report stale-instance recovery"
[ "$(json_field "$DIR/s3.json" journal_recovered)" -ge 1 ] \
  || fail "restart did not recover journaled requests"
"$CTL" --socket "$SOCK" solve gen:dblp:small --id post-crash > "$DIR/r4.json" \
  || fail "solve after recovery failed"
[ "$(json_field "$DIR/r4.json" verification)" = "ok" ] \
  || fail "post-recovery solve did not verify"

# ---------------------------------------------------------------- phase 5
if [ "${LAZYMC_SMOKE_FAULTS:-0}" = "1" ]; then
  note "phase 5: request.exec fault injection (faults build)"
  "$CTL" --socket "$SOCK" drain >/dev/null
  wait "$DAEMON_PID"; DAEMON_PID=""

  LAZYMC_FAULTS="request.exec=every:2" start_daemon || exit 1
  OK=0; FAULTED=0
  for i in 1 2 3 4; do
    "$CTL" --socket "$SOCK" solve gen:dblp:small --id "faulty-$i" \
      > "$DIR/f$i.json" 2>/dev/null
    if [ "$(json_field "$DIR/f$i.json" status)" = "ok" ]; then
      [ "$(json_field "$DIR/f$i.json" verification)" = "ok" ] \
        || fail "faulty-$i: surviving request did not verify"
      OK=$((OK + 1))
    elif grep -q '"error_kind"' "$DIR/f$i.json"; then
      FAULTED=$((FAULTED + 1))
    else
      fail "faulty-$i: neither a report nor a structured error"
    fi
  done
  [ "$OK" -ge 1 ] || fail "no request survived fault injection"
  [ "$FAULTED" -ge 1 ] || fail "no request was faulted (site not armed?)"
  "$CTL" --socket "$SOCK" status > "$DIR/s4.json" \
    || fail "daemon unhealthy after fault injection"
  check_reconciled "$DIR/s4.json" "phase 5"
  [ "$(json_field "$DIR/s4.json" failed)" -ge 1 ] \
    || fail "status failed counter is 0 under injection"
fi

# ---------------------------------------------------------------- shutdown
note "shutdown: drain verb"
"$CTL" --socket "$SOCK" drain > "$DIR/drain.json"
[ "$(json_field "$DIR/drain.json" ok)" = "true" ] || fail "drain did not ack"
wait "$DAEMON_PID"; DE=$?
[ "$DE" = 0 ] || fail "daemon exit $DE after drain (want 0)"
DAEMON_PID=""

if [ "$FAILURES" -ne 0 ]; then
  echo "daemon_smoke: $FAILURES failure(s)" >&2
  echo "--- daemon log ---" >&2
  cat "$DIR/daemon.log" >&2
  exit 1
fi
echo "daemon_smoke: all phases passed"
