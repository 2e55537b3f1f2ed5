#!/usr/bin/env bash
# Smoke-test the spurd experiment daemon end to end: start it on a random
# port, run one experiment twice (the second must be answered from the
# content-addressed result store without re-simulating), kill it with
# SIGKILL mid-job and check the restarted daemon recovers the journaled
# job, corrupt a stored blob and check it is quarantined and recomputed,
# then shut down cleanly with SIGTERM. CI runs this; it also works locally:
#
#   ./scripts/smoke_service.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/spurd" ./cmd/spurd
go build -o "$workdir/sweep" ./cmd/sweep

start_spurd() {
    : >"$workdir/log"
    "$workdir/spurd" -addr 127.0.0.1:0 -store "$workdir/store" >"$workdir/log" 2>&1 &
    pid=$!
    # The first log line carries the resolved address (we asked for port 0).
    base=""
    for _ in $(seq 1 50); do
        base=$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$workdir/log" | head -1)
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "spurd died on startup:"; cat "$workdir/log"; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "spurd never logged its address:"; cat "$workdir/log"; exit 1; }
}

start_spurd
echo "spurd is up at $base"

curl -fsS "$base/healthz" | grep -q '"status": "ok"'

req='{"workload":"slc","refs":200000}'

echo "first run (must be computed)..."
r1=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/run")
echo "$r1" | grep -q '"cached": false' || { echo "first run claimed cached: $r1"; exit 1; }

echo "second run (must come from the result store)..."
r2=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/run")
echo "$r2" | grep -q '"cached": true' || { echo "re-run was not served from the store: $r2"; exit 1; }

# Same request, same content address, same payload.
key1=$(echo "$r1" | sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p')
key2=$(echo "$r2" | sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p')
[ -n "$key1" ] && [ "$key1" = "$key2" ] || { echo "keys differ: $key1 vs $key2"; exit 1; }

# The store counted the hit, and the key landed on disk.
curl -fsS "$base/healthz" | grep -Eq '"(mem|disk)_hits": [1-9]' \
    || { echo "store hit not counted:"; curl -fsS "$base/healthz"; exit 1; }
ls "$workdir/store/${key1:0:2}/$key1.json" >/dev/null

echo "kill-and-resume: SIGKILL mid-sweep, restart, the journaled job completes..."
# 10M references keep the sweep computing for about 2 s on 2 vCPUs, far
# longer than the poll below takes to see it journaled.
sweep_req='{"workloads":["SLC"],"sizes_mb":[4,5],"refs":10000000,"seed":3}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweep_req" "$base/v1/sweep" \
    -o "$workdir/unused.csv" &
curl_pid=$!
# "pending": 1 means the job's accept record is fsynced in the journal and
# its done record is not: the sweep is computing. Pull the plug then.
for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" | grep -q '"pending": 1' && break
    sleep 0.1
done
curl -fsS "$base/healthz" | grep -q '"pending": 1' \
    || { echo "sweep was never journaled as pending:"; curl -fsS "$base/healthz"; exit 1; }
kill -9 "$pid"
wait "$curl_pid" 2>/dev/null && { echo "in-flight sweep request survived SIGKILL?"; exit 1; }
[ -s "$workdir/store/jobs.journal" ] || { echo "no job journal survived the kill"; exit 1; }

start_spurd
echo "spurd restarted at $base"
grep -q "recovering 1 journaled job" "$workdir/log" \
    || { echo "restarted spurd recovered nothing:"; cat "$workdir/log"; exit 1; }
# Recovery runs in the background; wait until the owed job is settled.
for _ in $(seq 1 600); do
    curl -fsS "$base/healthz" | grep -q '"pending": 0' && break
    sleep 0.5
done
curl -fsS "$base/healthz" | grep -q '"pending": 0' \
    || { echo "recovered job never settled:"; curl -fsS "$base/healthz"; exit 1; }
curl -fsS "$base/healthz" | grep -q '"recovered": 1' \
    || { echo "healthz does not count the recovery:"; curl -fsS "$base/healthz"; exit 1; }

# The recovered result is served from the store, byte-identical to a local run.
curl -fsSD "$workdir/sweep.hdr" -X POST -H 'Content-Type: application/json' \
    -d "$sweep_req" "$base/v1/sweep" -o "$workdir/sweep.csv"
grep -qi 'X-Spur-Cached: true' "$workdir/sweep.hdr" \
    || { echo "recovered sweep was not served from the store"; cat "$workdir/sweep.hdr"; exit 1; }
"$workdir/sweep" -w slc -sizes 4,5 -refs 10000000 -seed 3 -csv >"$workdir/local.csv" 2>/dev/null
diff "$workdir/sweep.csv" "$workdir/local.csv" \
    || { echo "recovered sweep differs from local run"; exit 1; }

echo "bit-flip drill: a corrupted blob is quarantined and recomputed, never served..."
blob="$workdir/store/${key1:0:2}/$key1.json"
printf 'X' | dd of="$blob" bs=1 seek=100 conv=notrunc status=none
r3=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/run")
echo "$r3" | grep -q '"cached": false' || { echo "corrupt blob was served as a hit: $r3"; exit 1; }
curl -fsS "$base/healthz" | grep -Eq '"corrupt": [1-9]' \
    || { echo "corruption not counted:"; curl -fsS "$base/healthz"; exit 1; }
ls "$blob.corrupt" >/dev/null || { echo "corrupt blob was not quarantined aside"; exit 1; }
ls "$blob" >/dev/null || { echo "blob was not healed by the recompute"; exit 1; }
r4=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/run")
echo "$r4" | grep -q '"cached": true' || { echo "healed blob not served from the store: $r4"; exit 1; }

echo "draining with SIGTERM..."
kill -TERM "$pid"
wait "$pid" || { echo "spurd exited non-zero:"; cat "$workdir/log"; exit 1; }
grep -q "drained cleanly" "$workdir/log" || { echo "no clean-drain log line:"; cat "$workdir/log"; exit 1; }

echo "service smoke test passed"
