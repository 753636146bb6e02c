#!/usr/bin/env bash
# Cluster smoke: three llld nodes behind one lllrouter, driven end to end
# with real binaries. Asserts the PR-8 acceptance contract:
#
#   1. placement balance: 30 distinct jobs spread within 2x of the mean;
#   2. cache locality: an identical resubmission lands on the same node
#      and is served from its cache without re-solving;
#   3. fault tolerance: with 50 chaos jobs in flight and one long
#      checkpointing job mid-run, SIGKILL the long job's node — zero jobs
#      lost, the long job migrates with its checkpoint, keeps one trace ID
#      across the move, and finishes with the same assignment hash as an
#      uninterrupted run of the same spec;
#
# and the PR-9 elasticity contract on top:
#
#   4. recovery: the killed node restarts and the failure detector
#      re-admits it — no router restart;
#   5. runtime join under load: a fourth node announces itself to the
#      router, every member converges on the new epoch, the previous
#      owners stream the joiner's ring slice (bounded key movement), and
#      resubmitting the warmed workload stays >= 90% cache-served;
#   6. planned leave: SIGTERM on the joiner runs the reverse warm handoff
#      before the drain — survivors hold its entries, no hit regression;
#   7. hot replication: a hot key's owner is SIGKILLed and the ring
#      successor serves the key warm, bit-identically, from the replica.
#
# Run from the repository root: scripts/cluster_smoke.sh
set -euo pipefail

BIN=${BIN:-/tmp/cluster-smoke}
LOG=${LOG:-/tmp/cluster-smoke/log}
mkdir -p "$BIN" "$LOG"

go build -o "$BIN/llld" ./cmd/llld
go build -o "$BIN/lllrouter" ./cmd/lllrouter
go build -o "$BIN/lllload" ./cmd/lllload

ROUTER=http://127.0.0.1:18090
NODES="a=http://127.0.0.1:18091,b=http://127.0.0.1:18092,c=http://127.0.0.1:18093"

declare -A PORT=([a]=18091 [b]=18092 [c]=18093 [d]=18094)
declare -A PID
# running <pid>...: succeeds while any of the processes is alive (a zombie
# has exited, so it does not count).
running() {
  local p st
  for p in "$@"; do
    st=$(ps -o stat= -p "$p" 2>/dev/null || true)
    case "$st" in ''|Z*) ;; *) return 0 ;; esac
  done
  return 1
}
# cleanup stops every daemon and load generator still running and reaps
# them before the script exits. A clustered llld runs its leave handoff on
# SIGTERM first, so they get up to grace seconds before SIGKILL.
cleanup() {
  # Guard every pid: an unset one must not become `kill 0` (process group).
  local pids=() n i grace=20
  for n in a b c d; do
    [ -n "${PID[$n]:-}" ] && pids+=("${PID[$n]}")
  done
  [ -n "${ROUTER_PID:-}" ] && pids+=("$ROUTER_PID")
  [ -n "${LOAD_PID:-}" ] && pids+=("$LOAD_PID")
  [ "${#pids[@]}" -eq 0 ] && return 0
  kill "${pids[@]}" 2>/dev/null || true
  for (( i = 0; i < grace * 10; i++ )); do
    running "${pids[@]}" || break
    sleep 0.1
  done
  if running "${pids[@]}"; then
    echo "cleanup: SIGKILL after ${grace}s" >&2
    kill -9 "${pids[@]}" 2>/dev/null || true
  fi
  wait "${pids[@]}" 2>/dev/null || true
  return 0
}
trap cleanup EXIT

# start_node <name> [extra flags...]: one llld member with the elasticity
# knobs tightened for a fast smoke (replication every 300ms).
start_node() {
  local n=$1; shift
  "$BIN/llld" -addr "127.0.0.1:${PORT[$n]}" -queue 64 -inflight 4 -cache-size 256 \
    -retries 3 -retry-backoff 20ms -retry-backoff-max 200ms \
    -cluster-self "$n" -cluster-hot-replicas 32 -cluster-replicate-interval 300ms \
    "$@" > "$LOG/llld_$n.log" 2>&1 &
  PID[$n]=$!
}

for n in a b c; do
  start_node "$n" -cluster-nodes "$NODES"
done
"$BIN/lllrouter" -addr 127.0.0.1:18090 -nodes "$NODES" -probe-interval 200ms \
  > "$LOG/lllrouter.log" 2>&1 &
ROUTER_PID=$!
# Wait until the router has probed every node up, not just until it is
# reachable: placement (and therefore the balance and locality phases)
# must see the full membership, or the home node of a key may be skipped
# as down and the test measures spill behavior instead.
for i in $(seq 1 120); do
  UP=$(curl -sf "$ROUTER/cluster" 2>/dev/null | grep -c '"state": *"up"' || true)
  [ "$UP" = 3 ] && break
  sleep 0.5
done
UP=$(curl -sf "$ROUTER/cluster" | grep -c '"state": *"up"')
test "$UP" = 3 || { echo "FAIL: only $UP of 3 nodes came up"; exit 1; }

# Helpers: submit a job through the router, wait for it to end, fetch views.
submit() { # $1=spec json -> job id
  curl -sf -X POST "$ROUTER/v1/jobs" -d "$1" | grep -o '"id": *"[^"]*"' | head -1 | cut -d'"' -f4
}
follow() { # $1=id -> full NDJSON stream (blocks to terminal)
  curl -sf "$ROUTER/v1/jobs/$1/events" > "$LOG/follow.ndjson" || return
  cat "$LOG/follow.ndjson"
  # Re-read from ?from=5, the routed stream is its tail from line 6 on,
  # byte for byte.
  curl -sf "$ROUTER/v1/jobs/$1/events?from=5" | cmp -s - <(tail -n +6 "$LOG/follow.ndjson") \
    || { echo "FAIL: job $1's stream from ?from=5 is not its tail from line 6" >&2; exit 1; }
}
view() { curl -sf "$ROUTER/v1/jobs/$1"; }
field() { # $1=json $2=string field name
  echo "$1" | tr ',{' '\n\n' | grep -o "\"$2\": *\"[^\"]*\"" | head -1 | cut -d'"' -f4
}
metric() { # $1=node name $2=metric name -> value (0 when absent/unreachable)
  curl -sf "http://127.0.0.1:${PORT[$1]}/metrics" 2>/dev/null \
    | awk -v m="$2" '$1 == m {print $2; f=1} END {if (!f) print 0}'
}
node_entries() { # $1=node name -> its GET /cluster cache_entries
  curl -sf "http://127.0.0.1:${PORT[$1]}/cluster" 2>/dev/null \
    | grep -o '"cache_entries": *[0-9]*' | grep -o '[0-9]*$' || echo 0
}
state_of() { # $1=node name -> the router's detector verdict for it
  curl -sf "$ROUTER/cluster" | tr -d ' ' | grep -A6 "\"name\":\"$1\"" \
    | grep -o '"state":"[a-z]*"' | head -1 | cut -d'"' -f4
}
router_epoch() {
  curl -sf "$ROUTER/cluster" | grep -o '"epoch": *[0-9]*' | head -1 | grep -o '[0-9]*$'
}
cache_hits_cluster() { # sum of local + peer-fill cache hits over live nodes
  local sum=0 v
  for n in "$@"; do
    v=$(metric "$n" cache_hits_total); sum=$((sum + v))
    v=$(metric "$n" peer_fill_hits_total); sum=$((sum + v))
  done
  echo "$sum"
}

echo "== phase 1: placement balance over 30 distinct jobs =="
"$BIN/lllload" -addr "$ROUTER" -cluster -c 6 -jobs 30 -duration 120s \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"mtpar"}' \
  | tee "$LOG/load_balance.out"
BAL=$(grep -o 'max/mean = [0-9.]*' "$LOG/load_balance.out" | grep -o '[0-9.]*$')
test -n "$BAL"
awk -v b="$BAL" 'BEGIN { exit !(b <= 2.0) }' \
  || { echo "FAIL: per-node balance $BAL exceeds 2x the mean"; exit 1; }

echo "== phase 2: cache locality across the cluster =="
CSPEC='{"family":"sinkless","n":4096,"algorithm":"mtpar","seed":4242,"cache":true}'
C1=$(submit "$CSPEC"); follow "$C1" > /dev/null
V1=$(view "$C1")
N1=$(field "$V1" node)
C2=$(submit "$CSPEC"); follow "$C2" > /dev/null
V2=$(view "$C2")
N2=$(field "$V2" node)
test -n "$N1" && test "$N1" = "$N2" \
  || { echo "FAIL: identical resubmission moved nodes ($N1 -> $N2)"; exit 1; }
echo "$V2" | grep -q '"cache_hit": *true' \
  || { echo "FAIL: identical resubmission on $N2 re-solved instead of hitting the cache"; exit 1; }
echo "resubmission stayed on node $N1 and hit its cache"

echo "== phase 3: uninterrupted baseline of the long checkpointing job =="
LSPEC='{"family":"sinkless","n":20000,"algorithm":"mtseq","seed":77,"checkpoint_every":200}'
L0=$(submit "$LSPEC")
follow "$L0" > "$LOG/long_baseline.ndjson"
V0=$(view "$L0")
HASH0=$(echo "$V0" | grep -o '"assignment_hash": *[0-9]*' | grep -o '[0-9]*$')
VICTIM=$(field "$V0" node)
test -n "$HASH0" && test -n "$VICTIM"
echo "baseline done on node $VICTIM, assignment hash $HASH0"

echo "== phase 4: 50 chaos jobs + SIGKILL node $VICTIM mid-run =="
L1=$(submit "$LSPEC")   # same placement key -> lands on $VICTIM
# Panic-only injection: panics are recoverable by retry (each attempt draws
# an independent pattern), so chaos jobs exercise the retry machinery and
# still complete; message drops would demonstrate designed give-up failures,
# which is a different smoke (see the chaos step).
"$BIN/lllload" -addr "$ROUTER" -cluster -c 8 -jobs 50 -duration 180s \
  -chaos 0.5 -chaos-panic 0.01 -chaos-drop 0 \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"dist"}' \
  > "$LOG/load_chaos.out" 2>&1 &
LOAD_PID=$!
sleep 4   # long job mid-run, chaos load in flight
kill -9 "${PID[$VICTIM]}"
echo "killed llld node $VICTIM (pid ${PID[$VICTIM]})"

wait "$LOAD_PID" \
  || { echo "FAIL: lllload lost jobs across the node kill"; cat "$LOG/load_chaos.out"; exit 1; }
LOAD_PID=
cat "$LOG/load_chaos.out"

follow "$L1" > "$LOG/long_migrated.ndjson" || true
V1=$(view "$L1")
tail -1 "$LOG/long_migrated.ndjson" | grep -q '"state":"done"' \
  || { echo "FAIL: migrated long job did not finish done"; tail -3 "$LOG/long_migrated.ndjson"; exit 1; }
grep -q '"kind":"migrated"' "$LOG/long_migrated.ndjson" \
  || { echo "FAIL: no migrated event on the long job's stream"; exit 1; }
grep -q '"kind":"checkpoint"' "$LOG/long_migrated.ndjson" \
  && { echo "FAIL: internal checkpoint event leaked to the client stream"; exit 1; }
TRACES=$(grep -o '"trace":"[0-9a-f]*"' "$LOG/long_migrated.ndjson" | sort -u | wc -l)
test "$TRACES" -eq 1 \
  || { echo "FAIL: $TRACES distinct trace IDs across the migration, want 1"; exit 1; }
HASH1=$(echo "$V1" | grep -o '"assignment_hash": *[0-9]*' | grep -o '[0-9]*$')
test "$HASH1" = "$HASH0" \
  || { echo "FAIL: migrated run hash $HASH1 != uninterrupted hash $HASH0"; exit 1; }
echo "long job migrated off $VICTIM, one trace, bit-identical hash $HASH1"

CLUSTER=$(curl -sf "$ROUTER/cluster")
echo "$CLUSTER" | grep -q '"lost": *0' \
  || { echo "FAIL: router reports lost jobs"; echo "$CLUSTER"; exit 1; }
echo "$CLUSTER" | grep -qo '"migrations": *0' \
  && { echo "FAIL: router reports zero migrations after a node kill"; exit 1; }

# Federation keeps serving for the survivors, with node labels injected.
curl -sf "$ROUTER/cluster/metrics" > "$LOG/federated.prom"
for n in a b c; do
  [ "$n" = "$VICTIM" ] && continue
  grep -q "node=\"$n\"" "$LOG/federated.prom" \
    || { echo "FAIL: federated metrics missing node=\"$n\" series"; exit 1; }
done

echo "== phase 5: restart $VICTIM — detector re-admits it, router untouched =="
start_node "$VICTIM" -cluster-nodes "$NODES"
for i in $(seq 1 120); do
  UP=$(curl -sf "$ROUTER/cluster" 2>/dev/null | grep -c '"state": *"up"' || true)
  [ "$UP" = 3 ] && break
  sleep 0.5
done
test "$UP" = 3 \
  || { echo "FAIL: restarted $VICTIM never re-admitted (states: $(curl -sf "$ROUTER/cluster" | grep -o '"state": *"[a-z]*"' | tr '\n' ' '))"; exit 1; }
echo "node $VICTIM recovered to up without restarting the router"

echo "== phase 6: warm the cache, then join node d under load =="
"$BIN/lllload" -addr "$ROUTER" -c 4 -jobs 24 -duration 120s -cache \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"mtpar"}' \
  > "$LOG/load_warm.out"
TOTAL=0
for n in a b c; do
  E=$(node_entries "$n"); TOTAL=$((TOTAL + E))
done
test "$TOTAL" -gt 0 || { echo "FAIL: warm sweep cached nothing"; exit 1; }

"$BIN/lllload" -addr "$ROUTER" -c 4 -jobs 40 -duration 120s \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"dist"}' \
  > "$LOG/load_join.out" 2>&1 &
LOAD_PID=$!

start_node d -cluster-url "http://127.0.0.1:${PORT[d]}" -cluster-join "$ROUTER"
for i in $(seq 1 120); do
  [ "$(state_of d 2>/dev/null || true)" = "up" ] && break
  sleep 0.5
done
test "$(state_of d)" = "up" || { echo "FAIL: joined node d never probed up"; exit 1; }
EPOCH=$(router_epoch)
test "$EPOCH" -ge 1 || { echo "FAIL: router epoch $EPOCH after a join, want >= 1"; exit 1; }

# The previous owners stream d's ring slice; wait for the transfer to
# settle (two stable reads of the receive counter).
MOVED=0
for i in $(seq 1 60); do
  M=$(metric d peer_handoff_entries_received_total)
  [ "$M" -gt 0 ] && [ "$M" = "$MOVED" ] && break
  MOVED=$M
  sleep 0.5
done
test "$MOVED" -gt 0 || { echo "FAIL: no warm-handoff entries reached the joiner"; exit 1; }
# Bounded key movement: a 4th node may take at most ~1/4 of the cached
# keys (x1.5 smoke slack). TOTAL double-counts write-through copies, so
# the bound is conservative.
BOUND=$(( (TOTAL * 15) / (4 * 10) + 1 ))
test "$MOVED" -le "$BOUND" \
  || { echo "FAIL: join moved $MOVED of $TOTAL entries, bound $BOUND (movement not bounded)"; exit 1; }
echo "join moved $MOVED of $TOTAL cached entries (bound $BOUND), epoch $EPOCH"

wait "$LOAD_PID" \
  || { echo "FAIL: lllload lost jobs across the elastic join"; cat "$LOG/load_join.out"; exit 1; }
LOAD_PID=

# Warm-hit rate: resubmitting the warmed workload must stay cache-served
# (>= 90%) — the moved slice now hits on d, the rest on its old owners.
HITS0=$(cache_hits_cluster a b c d)
"$BIN/lllload" -addr "$ROUTER" -c 4 -jobs 24 -duration 120s -cache \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"mtpar"}' \
  > "$LOG/load_rewarm.out"
HITS1=$(cache_hits_cluster a b c d)
DELTA=$((HITS1 - HITS0))
test "$DELTA" -ge 22 \
  || { echo "FAIL: only $DELTA of 24 resubmissions were cache-served after the join"; exit 1; }
echo "post-join resweep: $DELTA of 24 cache-served"

echo "== phase 7: planned leave — SIGTERM d, reverse handoff before exit =="
D_ENTRIES=$(node_entries d)
RECV0=$(( $(metric a peer_handoff_entries_received_total) \
        + $(metric b peer_handoff_entries_received_total) \
        + $(metric c peer_handoff_entries_received_total) ))
kill -TERM "${PID[d]}"
wait "${PID[d]}" || { echo "FAIL: llld d exited non-zero on SIGTERM"; exit 1; }
PID[d]=
grep -q 'left cluster' "$LOG/llld_d.log" \
  || { echo "FAIL: d never ran the leave protocol"; tail -5 "$LOG/llld_d.log"; exit 1; }
RECV1=$(( $(metric a peer_handoff_entries_received_total) \
        + $(metric b peer_handoff_entries_received_total) \
        + $(metric c peer_handoff_entries_received_total) ))
test "$((RECV1 - RECV0))" -ge 1 \
  || { echo "FAIL: no reverse-handoff entries reached the survivors (d held $D_ENTRIES)"; exit 1; }
# The router learns the leave through anti-entropy against the nodes.
for i in $(seq 1 120); do
  curl -sf "$ROUTER/cluster" | grep -q '"name": *"d"' || break
  sleep 0.5
done
curl -sf "$ROUTER/cluster" | grep -q '"name": *"d"' \
  && { echo "FAIL: router still lists d after its leave"; exit 1; }
# No hit regression: the workload d was serving is warm on the survivors.
HITS2=$(cache_hits_cluster a b c)
"$BIN/lllload" -addr "$ROUTER" -c 4 -jobs 24 -duration 120s -cache \
  -spec '{"family":"sinkless","n":256,"degree":3,"margin":0.9,"algorithm":"mtpar"}' \
  > "$LOG/load_postleave.out"
HITS3=$(cache_hits_cluster a b c)
test "$((HITS3 - HITS2))" -ge 22 \
  || { echo "FAIL: only $((HITS3 - HITS2)) of 24 resubmissions cache-served after d left"; exit 1; }
echo "d left cleanly: $((RECV1 - RECV0)) entries handed back, resweep $((HITS3 - HITS2)) of 24 warm"

echo "== phase 8: SIGKILL a hot key's owner — successor serves it warm =="
HSPEC='{"family":"sinkless","n":4096,"algorithm":"mtpar","seed":31337,"cache":true}'
H1=$(submit "$HSPEC"); follow "$H1" > /dev/null
HV=$(view "$H1")
HOWNER=$(field "$HV" node)
HHASH=$(echo "$HV" | grep -o '"assignment_hash": *[0-9]*' | grep -o '[0-9]*$')
test -n "$HOWNER" && test -n "$HHASH"
for i in 1 2 3; do   # heat the entry: replication picks the top hit counts
  HID=$(submit "$HSPEC"); follow "$HID" > /dev/null
done
sleep 2   # > 2 replication cadences at 300ms, with margin
kill -9 "${PID[$HOWNER]}"
PID[$HOWNER]=
echo "killed hot-key owner $HOWNER"
for i in $(seq 1 120); do
  [ "$(state_of "$HOWNER")" = "down" ] && break
  sleep 0.5
done
test "$(state_of "$HOWNER")" = "down" || { echo "FAIL: $HOWNER never marked down"; exit 1; }
H2=$(submit "$HSPEC"); follow "$H2" > /dev/null
HV2=$(view "$H2")
HNODE2=$(field "$HV2" node)
test "$HNODE2" != "$HOWNER" || { echo "FAIL: job placed on the killed owner"; exit 1; }
echo "$HV2" | grep -q '"cache_hit": *true' \
  || { echo "FAIL: successor $HNODE2 re-solved the hot key (replica not warm)"; exit 1; }
HHASH2=$(echo "$HV2" | grep -o '"assignment_hash": *[0-9]*' | grep -o '[0-9]*$')
test "$HHASH2" = "$HHASH" \
  || { echo "FAIL: replica hash $HHASH2 != owner hash $HHASH"; exit 1; }
echo "hot key served warm on $HNODE2, bit-identical hash $HHASH2"

CLUSTER=$(curl -sf "$ROUTER/cluster")
echo "$CLUSTER" | grep -q '"lost": *0' \
  || { echo "FAIL: router reports lost jobs after the elasticity phases"; echo "$CLUSTER"; exit 1; }

echo "cluster smoke: all phases passed (victim $VICTIM, balance $BAL, join moved $MOVED/$TOTAL, hot owner $HOWNER)"
