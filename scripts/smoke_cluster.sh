#!/usr/bin/env bash
# Cluster kill drill: bring up a 3-node spurd fleet (consistent-hash
# sharding, replication 2), drive mixed load with spurload, SIGKILL one
# node mid-drill, and check that every request still completes with
# byte-identical bodies, that the fleet reports the dead peer, and that the
# restarted node gets a lost blob back on its next request from a replica —
# blob-for-blob identical, no recompute. CI runs this; it also works locally:
#
#   ./scripts/smoke_cluster.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

# -race: the drill exercises the daemon's real concurrency (queue, flight
# dedup, outbox sender, replica fetches) under kill/restart; the detector
# turns a latent data race into a hard failure instead of a flaky pass.
go build -race -o "$workdir/spurd" ./cmd/spurd
go build -race -o "$workdir/spurload" ./cmd/spurload

# Static peer lists need the ports before any node starts: probe for free
# ones. The bind race against other processes is acceptable in a smoke test.
pick_port() {
    local p
    while :; do
        p=$((20000 + RANDOM % 20000))
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            echo "$p"
            return
        fi
    done
}
p1=$(pick_port); p2=$(pick_port); p3=$(pick_port)
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"
peers="$u1,$u2,$u3"

# start_node <n> starts fleet member n over its persistent store dir and
# records its pid in pid<n>. Background scrubbing is off so that nothing but
# the drill's own requests touches the stores.
start_node() {
    local n=$1 url port
    eval "url=\$u$n"
    port=${url##*:}
    : >"$workdir/log$n"
    "$workdir/spurd" -addr "127.0.0.1:$port" -store "$workdir/store$n" \
        -self "$url" -peers "$peers" -replicas 2 -scrub 0 \
        >"$workdir/log$n" 2>&1 &
    eval "pid$n=$!"
    pids+=("$!")
    for _ in $(seq 1 50); do
        grep -q "listening on" "$workdir/log$n" && break
        kill -0 "$!" 2>/dev/null || { echo "node $n died on startup:"; cat "$workdir/log$n"; exit 1; }
        sleep 0.1
    done
    grep -q "listening on" "$workdir/log$n" || { echo "node $n never came up:"; cat "$workdir/log$n"; exit 1; }
}

start_node 1; start_node 2; start_node 3
echo "fleet is up: $peers"

# Membership: every peer healthy from node 1's view.
cluster=$(curl -fsS "$u1/v1/cluster")
echo "$cluster" | grep -q '"self": "'"$u1"'"' || { echo "bad self in membership: $cluster"; exit 1; }
[ "$(echo "$cluster" | grep -c '"status": "\(ok\|self\)"')" = 3 ] \
    || { echo "not all 3 peers healthy: $cluster"; exit 1; }

# Baseline: three distinct sweeps through node 1, keys and bodies recorded.
sweep_req() { echo '{"workloads":["SLC"],"sizes_mb":[2,3],"policies":["MISS"],"refs":50000,"seed":'"$1"'}'; }
keys=()
for s in 1 2 3; do
    curl -fsSD "$workdir/hdr$s" -X POST -H 'Content-Type: application/json' \
        -d "$(sweep_req "$s")" "$u1/v1/sweep" -o "$workdir/base$s.csv"
    key=$(sed -n 's/^X-Spur-Key: \([0-9a-f]*\).*/\1/Ip' "$workdir/hdr$s")
    [ -n "$key" ] || { echo "no X-Spur-Key for seed $s"; cat "$workdir/hdr$s"; exit 1; }
    keys+=("$key")
done

# The async outbox must land every baseline blob on each of its replicas:
# node 1 computed them all and owes each to every replica but itself.
outbox_drained() { curl -fsS "$u1/healthz" | grep -A4 '"outbox"' | grep -q '"pending": 0'; }
for _ in $(seq 1 100); do
    outbox_drained && break
    sleep 0.1
done
outbox_drained || { echo "node 1's outbox never drained:"; curl -fsS "$u1/healthz"; exit 1; }
blob_copies() { ls "$workdir"/store{1,2,3}/"${1:0:2}/$1.json" 2>/dev/null | wc -l; }
for key in "${keys[@]}"; do
    [ "$(blob_copies "$key")" -ge 2 ] \
        || { echo "blob $key never reached 2 replicas"; ls -R "$workdir"/store*; exit 1; }
done
echo "replication delivered 2 copies of every baseline blob"

# Pick the victim: node 3 or 2, whichever holds the first baseline blob, so
# the post-restart drill must fetch that exact key. Only node 1's computes
# and its pushes to replicas have written blobs so far, so the victim
# replicates it; once every node has served the baseline below, every
# node holds a copy.
key=${keys[0]}
victim=""
for n in 3 2; do
    if [ -f "$workdir/store$n/${key:0:2}/$key.json" ]; then victim=$n; break; fi
done
[ -n "$victim" ] || { echo "neither node 2 nor node 3 replicates $key?"; exit 1; }
eval "victim_pid=\$pid$victim"
eval "victim_url=\$u$victim"

# Every node answers every baseline sweep byte-identically, wherever the
# blob lives (its own store, or a fetch from a replica).
for s in 1 2 3; do
    for u in "$u1" "$u2" "$u3"; do
        curl -fsS -X POST -H 'Content-Type: application/json' \
            -d "$(sweep_req "$s")" "$u/v1/sweep" -o "$workdir/check.csv"
        diff "$workdir/base$s.csv" "$workdir/check.csv" \
            || { echo "seed $s from $u differs from baseline"; exit 1; }
    done
done
echo "baseline sweeps byte-identical across all 3 nodes"

echo "kill drill: SIGKILL node $victim mid-load..."
"$workdir/spurload" -peers "$peers" -n 120 -c 6 -mix run=6,sweep=3,tables=1 \
    -refs 50000 -seeds 24 -seed 9 >"$workdir/load1.txt" 2>&1 &
load_pid=$!
sleep 0.4
kill -9 "$victim_pid"
wait "$load_pid" || { echo "load failed across the kill:"; cat "$workdir/load1.txt"; exit 1; }
cat "$workdir/load1.txt"
echo "every request completed across the SIGKILL"

# The degraded fleet still serves the baseline byte-identically...
for s in 1 2 3; do
    for u in "$u1" "$u2" "$u3"; do
        [ "$u" = "$victim_url" ] && continue
        curl -fsS -X POST -H 'Content-Type: application/json' \
            -d "$(sweep_req "$s")" "$u/v1/sweep" -o "$workdir/check.csv"
        diff "$workdir/base$s.csv" "$workdir/check.csv" \
            || { echo "seed $s from $u differs with node $victim dead"; exit 1; }
    done
done
# ...and the survivors report the dead peer.
for u in "$u1" "$u2" "$u3"; do
    [ "$u" = "$victim_url" ] && continue
    curl -fsS "$u/v1/cluster" | grep -q '"status": "down"' \
        || { echo "$u does not report node $victim down"; exit 1; }
done
echo "degraded fleet: byte-identical serves, dead peer reported down"

# Lose a blob from the dead node's disk; the restarted node must get it
# back on the blob's next request from a replica — hash-verified, served
# with the baseline bytes, not recomputed.
rm "$workdir/store$victim/${key:0:2}/$key.json"
start_node "$victim"
echo "node $victim restarted"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$(sweep_req 1)" "$victim_url/v1/sweep" -o "$workdir/check.csv"
diff "$workdir/base1.csv" "$workdir/check.csv" \
    || { echo "seed 1 from the restarted node $victim differs from baseline"; exit 1; }
curl -fsS "$victim_url/healthz" | grep -Eq '"repaired": [1-9]' \
    || { echo "healthz does not count the repair:"; curl -fsS "$victim_url/healthz"; exit 1; }
# Blob-for-blob identical to the surviving replica's copy.
restored="$workdir/store$victim/${key:0:2}/$key.json"
[ -f "$restored" ] || { echo "blob $key not restored on node $victim"; exit 1; }
for n in 1 2 3; do
    [ "$n" = "$victim" ] && continue
    other="$workdir/store$n/${key:0:2}/$key.json"
    if [ -f "$other" ]; then
        cmp "$restored" "$other" || { echo "restored blob differs from replica copy"; exit 1; }
    fi
done
# The victim never simulated: the repair was a replica fetch.
grep -q "computed" "$workdir/log$victim" \
    && { echo "restarted node recomputed instead of repairing:"; grep computed "$workdir/log$victim"; exit 1; }
echo "restarted node repaired the lost blob from a replica without recompute"

# Healed fleet: one more identical load pass must be all-hit and error-free.
"$workdir/spurload" -peers "$peers" -n 120 -c 6 -mix run=6,sweep=3,tables=1 \
    -refs 50000 -seeds 24 -seed 9 >"$workdir/load2.txt" 2>&1 \
    || { echo "post-heal load failed:"; cat "$workdir/load2.txt"; exit 1; }
cat "$workdir/load2.txt"

echo "draining the fleet with SIGTERM..."
for n in 1 2 3; do
    eval "kill -TERM \$pid$n"
done
for n in 1 2 3; do
    eval "wait \$pid$n" || { echo "node $n exited non-zero:"; cat "$workdir/log$n"; exit 1; }
    grep -q "drained cleanly" "$workdir/log$n" \
        || { echo "node $n did not drain cleanly:"; cat "$workdir/log$n"; exit 1; }
done

echo "cluster smoke test passed"
