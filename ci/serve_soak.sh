#!/usr/bin/env bash
# Soak harness for mlpart_serve (DESIGN.md §11, §13, §16), three phases:
#
#   1. stdin mode: a mixed-priority job stream with the serve.* fault
#      sites armed per-job — crash-once, crash-always, hang-until-
#      watchdog, torn result pipe — proving the supervisor never dies,
#      every request gets exactly one response, and SIGTERM drains to
#      exit 0.
#   2. socket mode: N concurrent clients against --socket --pool --cache
#      with the same fault mix plus cancellations, repeat jobs that must
#      hit the result cache, and clients that disconnect abruptly with
#      jobs in flight. Every surviving request gets exactly one result,
#      crashes recycle pool workers, and the drain still exits 0.
#   3. durable mode: SIGKILL the supervisor mid-barrage with a write-
#      ahead journal armed (--state-dir), restart it on the same state
#      dir, and prove every journaled job gets exactly one response
#      across the crash with zero duplicate side effects — a job the
#      first process already answered may only reappear as a journal
#      re-emission carrying "replayed":true, never as a re-execution.
#
# Phases 1 and 2 also mix in comparator jobs (DESIGN.md §15) with a fault
# inside the engine's loop: "engine":"lsmc" faulted on its first attempt
# only, which the retry-once policy must turn into "OK" with
# "retried":true, and "engine":"genetic" faulted on every attempt, which
# must come back classified as INJECTED_FAULT.
#
# Run it against a sanitizer build directory to catch lifetime bugs on
# the containment paths.
#
#   ci/serve_soak.sh [build-dir] [duration-seconds]
set -euo pipefail

cd "$(dirname "$0")/.."

build="${1:-build}"
duration="${2:-60}"
serve="$build/tools/mlpart_serve"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

[ -x "$serve" ] || { echo "serve_soak.sh: $serve not built" >&2; exit 2; }

phase=$((duration / 2))
[ "$phase" -lt 10 ] && phase=10

hgr='6 8\n1 2\n3 4\n5 6\n7 8\n2 3\n6 7\n'

# ---------------------------------------------------------------- phase 1
# Single stdin client, fault barrage, strict one-request/one-response.

mkfifo "$work/in"
"$serve" --workers 2 --queue 32 --grace 1 --drain-grace 0.2 \
    <"$work/in" >"$work/out.ndjson" 2>"$work/err.log" &
pid=$!
exec 3>"$work/in"

sent=0
start=$SECONDS
while [ $((SECONDS - start)) -lt "$phase" ]; do
    sent=$((sent + 1))
    prio=$((sent % 4))
    if [ $((sent % 3)) -eq 0 ]; then
        # Comparator mix: a fault inside the engine's loop, retried once.
        if [ $((sent % 2)) -eq 0 ]; then
            id="soak-lsmc-$sent"
            extra=',"engine":"lsmc","fault":"site=lsmc.descent,p=1.0","fault_attempts":1'
        else
            id="soak-ga-$sent"
            extra=',"engine":"genetic","fault":"site=genetic.generation,p=1.0"'
        fi
        printf '{"op":"partition","id":"%s","hgr":"%s","priority":%d%s}\n' \
            "$id" "$hgr" "$prio" "$extra" >&3
        sleep 0.1
        continue
    fi
    extra=""
    if [ $((sent % 5)) -eq 0 ]; then
        extra=',"fault":"site=serve.worker_crash,at=1","fault_attempts":1'
    elif [ $((sent % 7)) -eq 0 ]; then
        extra=',"fault":"site=serve.worker_crash,at=1"'
    elif [ $((sent % 11)) -eq 0 ]; then
        extra=',"fault":"site=serve.worker_hang,at=1","deadline":0.4'
    elif [ $((sent % 13)) -eq 0 ]; then
        extra=',"fault":"site=serve.pipe,at=1","fault_attempts":1'
    fi
    printf '{"op":"partition","id":"soak-%d","hgr":"%s","runs":50,"priority":%d%s}\n' \
        "$sent" "$hgr" "$prio" "$extra" >&3
    sleep 0.1
done

# Zero supervisor deaths: the one service process is still alive after
# the whole fault barrage.
kill -0 "$pid" || { echo "serve_soak.sh: supervisor died mid-soak" >&2; exit 1; }

kill -TERM "$pid"
exec 3>&-
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "serve_soak.sh: SIGTERM drain exited $rc, want 0" >&2
    tail -5 "$work/err.log" >&2 || true
    exit 1
fi

responses=$(grep -c '"event":"result"' "$work/out.ndjson" || true)
echo "serve_soak.sh: stdin phase sent $sent jobs, got $responses responses"
if [ "$responses" -ne "$sent" ]; then
    echo "serve_soak.sh: one-request/one-response broken ($responses != $sent)" >&2
    exit 1
fi
grep -q '"event":"drained"' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no drained event after SIGTERM" >&2; exit 1; }

# The fault mix must actually have exercised the containment machinery.
grep -q '"status":"OK"' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no job succeeded" >&2; exit 1; }
grep -q '"retried":true' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no crash-once job was retried" >&2; exit 1; }
grep -q '"status":"WORKER_CRASHED"' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no persistent crash was classified" >&2; exit 1; }
grep -q '"watchdog_killed":true' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no hung worker was watchdog-killed" >&2; exit 1; }

# ... and the comparator jobs (DESIGN.md §15): a fault on the first attempt
# is retried into "OK", one on every attempt is classified.
grep -q '"id":"soak-lsmc-[0-9]*","status":"OK".*"retried":true' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no faulted lsmc job was retried into OK" >&2; exit 1; }
grep -q '"id":"soak-ga-[0-9]*","status":"INJECTED_FAULT"' "$work/out.ndjson" ||
    { echo "serve_soak.sh: no always-faulted genetic job was classified" >&2; exit 1; }

if grep -q "ERROR: .*Sanitizer" "$work/err.log"; then
    echo "serve_soak.sh: sanitizer report in the supervisor" >&2
    tail -20 "$work/err.log" >&2
    exit 1
fi

# ---------------------------------------------------------------- phase 2
# Concurrent socket clients against the pooled, cached front end.

sock="$work/serve.sock"
"$serve" --socket "$sock" --workers 4 --pool --cache 64 --queue 64 \
    --grace 1 --drain-grace 0.2 --max-line 64k \
    >"$work/sock_out.ndjson" 2>"$work/sock_err.log" &
pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "serve_soak.sh: socket never appeared" >&2; exit 1; }

cat >"$work/clients.py" <<'PYEOF'
"""Multi-client soak driver: N job-stream clients with faults and
cancellations, one cache-probing client, and two clients that vanish
abruptly with work in flight. Fails loudly on any lost or duplicated
response."""
import json
import socket
import sys
import threading
import time

SOCK, DURATION = sys.argv[1], float(sys.argv[2])
HGR = "6 8\n1 2\n3 4\n5 6\n7 8\n2 3\n6 7\n"

failures = []
flock = threading.Lock()
tally = {"ok": 0, "cancelled": 0, "crashed": 0, "cached": 0, "rejected": 0,
         "comparator_retried": 0, "comparator_failed": 0}


def fail(msg):
    with flock:
        failures.append(msg)


def note(key):
    with flock:
        tally[key] += 1


def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    # Per-read silence bound, not a total budget: sized for a 2-core CI
    # runner draining a full queue of faulty jobs under ASan backoffs.
    s.settimeout(300)
    s.connect(SOCK)
    return s


def job(jid, seed, **extra):
    req = {"op": "partition", "id": jid, "hgr": HGR, "runs": 20, "seed": seed}
    req.update(extra)
    return (json.dumps(req) + "\n").encode()


def stream_client(n):
    """Mixed-priority faults + cancels; every request must get exactly
    one result line by EOF."""
    try:
        s = connect()
        f = s.makefile("rb")
        sent = {}
        deadline = time.time() + DURATION
        seq = 0
        while time.time() < deadline:
            seq += 1
            jid = "c%d-%d" % (n, seq)
            extra = {"priority": seq % 4}
            m = seq % 10
            if m == 0:
                extra.update(fault="site=serve.worker_crash,at=1", fault_attempts=1)
            elif m == 1:
                extra["fault"] = "site=serve.worker_crash,at=1"
            elif m == 2:
                extra.update(fault="site=serve.worker_hang,at=1", deadline=0.4)
            elif m == 3:
                extra.update(fault="site=serve.pipe,at=1", fault_attempts=1)
            elif m == 5:
                extra.update(engine="lsmc", fault="site=lsmc.descent,p=1.0",
                             fault_attempts=1)
            elif m == 6:
                extra.update(engine="genetic", fault="site=genetic.generation,p=1.0")
            s.sendall(job(jid, seed=1000 * n + seq, **extra))
            sent[jid] = 0
            if m == 4:
                s.sendall((json.dumps({"op": "cancel", "id": jid}) + "\n").encode())
            time.sleep(0.05)
        s.shutdown(socket.SHUT_WR)
        for raw in f:
            obj = json.loads(raw)
            if obj.get("event") != "result":
                continue
            jid = obj.get("id")
            if jid not in sent:
                fail("client %d: response for foreign id %s" % (n, jid))
                continue
            sent[jid] += 1
            st = obj.get("status")
            m = int(jid.split("-")[1]) % 10
            if m == 5 and st == "OK" and obj.get("retried"):
                note("comparator_retried")
            elif m == 5 and st == "INJECTED_FAULT":
                fail("client %d: id %s: the retry did not recover" % (n, jid))
            if m == 6 and st == "INJECTED_FAULT":
                note("comparator_failed")
            elif m == 6 and st == "OK":
                fail("client %d: id %s: an always-armed fault did not fail" % (n, jid))
            if st == "OK":
                note("ok")
            elif st == "CANCELLED":
                note("cancelled")
            elif st == "WORKER_CRASHED":
                note("crashed")
            elif st == "REJECTED":
                note("rejected")
        for jid, count in sent.items():
            if count != 1:
                fail("client %d: id %s got %d results, want 1" % (n, jid, count))
        s.close()
    except Exception as exc:  # noqa: BLE001 - soak driver reports, not raises
        fail("client %d: %r" % (n, exc))


def cache_client():
    """Sequential repeats of one cacheable request: after the cold run,
    every repeat must be answered from the cache, bit-identical."""
    try:
        s = connect()
        f = s.makefile("rb")
        first = None
        for i in range(6):
            jid = "warm-%d" % i
            # Priority above the stream mix (0-3): a full queue sheds a
            # stream job for the warm arrival instead of rejecting it.
            s.sendall(job(jid, seed=7777, priority=5))
            for raw in f:
                obj = json.loads(raw)
                if obj.get("event") == "result" and obj.get("id") == jid:
                    if obj.get("status") != "OK":
                        fail("warm job %s: status %s" % (jid, obj.get("status")))
                    if first is None:
                        first = (obj.get("cut"), obj.get("part_crc"))
                    elif (obj.get("cut"), obj.get("part_crc")) != first:
                        fail("warm job %s: cache replay not bit-identical" % jid)
                    if i > 0 and not obj.get("cached"):
                        fail("warm job %s: expected a cache hit" % jid)
                    if obj.get("cached"):
                        note("cached")
                    break
        s.sendall(b'{"op":"status"}\n')
        for raw in f:
            obj = json.loads(raw)
            if obj.get("event") == "status":
                if not obj.get("pool"):
                    fail("status: pool not reported active")
                if not obj.get("pool_workers"):
                    fail("status: no per-worker pool stats")
                break
        s.shutdown(socket.SHUT_WR)
        for _ in f:
            pass
        s.close()
    except Exception as exc:  # noqa: BLE001
        fail("cache client: %r" % exc)


def dropper(n):
    """Submits a long job, then vanishes without reading: the server
    must orphan the work and keep serving everyone else."""
    try:
        s = connect()
        s.sendall(job("drop-%d" % n, seed=5000 + n, runs=100000))
        time.sleep(0.5)
        s.close()
    except Exception as exc:  # noqa: BLE001
        fail("dropper %d: %r" % (n, exc))


threads = [threading.Thread(target=stream_client, args=(n,)) for n in range(4)]
threads.append(threading.Thread(target=cache_client))
threads += [threading.Thread(target=dropper, args=(n,)) for n in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()

print("serve_soak clients:", json.dumps(tally))
if tally["ok"] == 0:
    failures.append("no streamed job succeeded")
if tally["cancelled"] == 0:
    failures.append("no cancellation resolved to CANCELLED")
if tally["crashed"] == 0:
    failures.append("no persistent crash was classified")
if tally["cached"] < 5:
    failures.append("cache hits %d < 5" % tally["cached"])
if tally["comparator_retried"] == 0:
    failures.append("no faulted lsmc job was retried into OK")
if tally["comparator_failed"] == 0:
    failures.append("no always-faulted genetic job was classified")
for msg in failures:
    print("serve_soak FAIL:", msg, file=sys.stderr)
sys.exit(1 if failures else 0)
PYEOF

if ! python3 "$work/clients.py" "$sock" "$phase"; then
    echo "serve_soak.sh: multi-client phase failed" >&2
    kill -KILL "$pid" 2>/dev/null || true
    exit 1
fi

kill -0 "$pid" || { echo "serve_soak.sh: supervisor died in socket phase" >&2; exit 1; }
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "serve_soak.sh: socket-mode drain exited $rc, want 0" >&2
    tail -5 "$work/sock_err.log" >&2 || true
    exit 1
fi
grep -q '"event":"drained"' "$work/sock_out.ndjson" ||
    { echo "serve_soak.sh: no drained event after socket-mode SIGTERM" >&2; exit 1; }

if grep -q "ERROR: .*Sanitizer" "$work/sock_err.log"; then
    echo "serve_soak.sh: sanitizer report in the socket-mode supervisor" >&2
    tail -20 "$work/sock_err.log" >&2
    exit 1
fi

# ---------------------------------------------------------------- phase 3
# Durable state: SIGKILL mid-barrage, restart on the same --state-dir.

state="$work/state"
njobs=30
mkfifo "$work/in3"
"$serve" --workers 2 --queue 64 --grace 1 --drain-grace 0.2 \
    --state-dir "$state" \
    <"$work/in3" >"$work/dur_a.ndjson" 2>"$work/dur_a_err.log" &
pid=$!
exec 5>"$work/in3"

# 4000 runs keep the batch busy for over half a second: with lighter jobs
# the whole batch can finish between two polls below, and the kill would
# then find nothing left to recover.
for i in $(seq 1 "$njobs"); do
    printf '{"op":"partition","id":"dur-%d","hgr":"%s","runs":4000,"seed":%d,"priority":%d}\n' \
        "$i" "$hgr" $((4000 + i)) $((i % 4)) >&5
done

# Let a few jobs complete so the crash straddles done-and-delivered,
# done-but-possibly-undelivered, and never-started journal states.
for _ in $(seq 1 200); do
    n=$(grep -c '"event":"result"' "$work/dur_a.ndjson" 2>/dev/null || true)
    [ "${n:-0}" -ge 3 ] && break
    sleep 0.1
done
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
exec 5>&-
rm -f "$work/in3"

mkfifo "$work/in3b"
"$serve" --workers 2 --queue 64 --grace 1 --drain-grace 0.2 \
    --state-dir "$state" \
    <"$work/in3b" >"$work/dur_b.ndjson" 2>"$work/dur_b_err.log" &
pid=$!
exec 5>"$work/in3b"

# Every journaled job must resolve across the two output streams.
deadline=$((SECONDS + 180))
while [ "$SECONDS" -lt "$deadline" ]; do
    seen=$(cat "$work/dur_a.ndjson" "$work/dur_b.ndjson" 2>/dev/null |
        grep -o '"id":"dur-[0-9]*"' | sort -u | wc -l)
    [ "$seen" -ge "$njobs" ] && break
    sleep 0.2
done

printf '{"op":"status"}\n' >&5
for _ in $(seq 1 100); do
    grep -q '"event":"status"' "$work/dur_b.ndjson" && break
    sleep 0.1
done

kill -TERM "$pid"
exec 5>&-
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "serve_soak.sh: durable-phase drain exited $rc, want 0" >&2
    tail -5 "$work/dur_b_err.log" >&2 || true
    exit 1
fi

python3 - "$work/dur_a.ndjson" "$work/dur_b.ndjson" "$njobs" <<'PYEOF'
"""Exactly-one-response-per-journaled-job across a SIGKILL, and zero
duplicate side effects: an id answered by both processes is legal only
as a journal re-emission ("replayed":true), never a re-execution."""
import json
import sys


def load(path):
    out = []
    for line in open(path):
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def results(events):
    byid = {}
    for obj in events:
        if obj.get("event") == "result" and str(obj.get("id", "")).startswith("dur-"):
            byid.setdefault(obj["id"], []).append(obj)
    return byid


before, after = load(sys.argv[1]), load(sys.argv[2])
njobs = int(sys.argv[3])
ra, rb = results(before), results(after)
fails = []
replays = 0
for i in range(1, njobs + 1):
    jid = "dur-%d" % i
    ca, cb = len(ra.get(jid, [])), len(rb.get(jid, []))
    if ca > 1:
        fails.append("%s answered %d times before the kill" % (jid, ca))
    if cb > 1:
        fails.append("%s answered %d times after the restart" % (jid, cb))
    if ca + cb == 0:
        fails.append("%s was journaled but never answered" % jid)
    if ca >= 1 and cb >= 1:
        if rb[jid][0].get("replayed"):
            replays += 1
        else:
            fails.append("%s was re-executed after the restart "
                         "(duplicate side effect)" % jid)
if not any(obj.get("event") == "recovered" for obj in after):
    fails.append("restart produced no recovered event")
status = [obj for obj in after if obj.get("event") == "status"]
if not status:
    fails.append("no status response after recovery")
else:
    st = status[-1]
    if not st.get("durable"):
        fails.append("status says the restarted service is not durable")
    if st.get("journal_replayed", 0) < 1:
        fails.append("status counters show no journal replay")
    if st.get("degraded_nondurable"):
        fails.append("restart degraded to non-durable without any fault")
print("serve_soak durable: %d jobs, %d answered pre-kill, %d replayed re-emissions"
      % (njobs, len(ra), replays))
for msg in fails:
    print("serve_soak FAIL:", msg, file=sys.stderr)
sys.exit(1 if fails else 0)
PYEOF

grep -q '"event":"drained"' "$work/dur_b.ndjson" ||
    { echo "serve_soak.sh: no drained event after durable-phase SIGTERM" >&2; exit 1; }

for log in dur_a_err.log dur_b_err.log; do
    if grep -q "ERROR: .*Sanitizer" "$work/$log"; then
        echo "serve_soak.sh: sanitizer report in the durable phase ($log)" >&2
        tail -20 "$work/$log" >&2
        exit 1
    fi
done

echo "serve_soak.sh: ${duration}s soak clean — all three phases survived, drains exited 0"
