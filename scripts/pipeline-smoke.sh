#!/usr/bin/env bash
# Pipelined-transport smoke test: start `citesys serve --event-loop` on
# an ephemeral port, run a `client --pipeline` script whose whole body
# goes out before the first response comes back (asserting the commit
# burst coalesced into one group window), check raw `@tag` framing over
# /dev/tcp, attach a `serve --follow` replica through the event
# transport's feed handoff, then shut the primary down over the wire.
# CI runs this as a step of the check job; it needs only
# loopback networking.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/citesys
if [ ! -x "$BIN" ]; then
    cargo build --release --bin citesys
fi

workdir=$(mktemp -d)
primary_pid=""
follower_pid=""
cleanup() {
    for pid in "$primary_pid" "$follower_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

# Polls `listening on <addr>` out of a server log; sets $addr.
read_addr() {
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$1" | tail -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: server did not report its address"
        cat "${1%.out}.err" 2>/dev/null || true
        exit 1
    fi
}

# Polls until `cmd...` succeeds (exit 0) or ~10s pass.
wait_until() {
    local desc=$1
    shift
    for _ in $(seq 1 100); do
        if "$@" > /dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: timed out waiting for $desc"
    exit 1
}

# --- Phase 1: event-loop primary, pipelined scripted client -----------------
"$BIN" serve --listen 127.0.0.1:0 --event-loop --max-connections 512 \
    --commit-window-ms 200 --data-dir "$workdir/primary" \
    > "$workdir/primary.out" 2> "$workdir/primary.err" &
primary_pid=$!
read_addr "$workdir/primary.out"
paddr=$addr
grep -qF "event loop enabled (max 512 connections)" "$workdir/primary.out" || {
    echo "FAIL: server did not announce the event transport"
    cat "$workdir/primary.out"; exit 1; }
echo "event-loop primary listening on $paddr"

# The whole script is pipelined up front, so the two `commit` lines are
# in flight together and must coalesce into one group-commit window.
cat > "$workdir/smoke.cts" <<'EOF'
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
begin
insert Family(12, 'Dopamine', 'D1')
insert FamilyIntro(12, '2nd')
commit
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
verify
stats
EOF
"$BIN" client --pipeline "$paddr" "$workdir/smoke.cts" > "$workdir/client.out"

assert_out() {
    if ! grep -qF "$1" "$workdir/client.out"; then
        echo "FAIL: pipelined client output lacks '$1'"
        cat "$workdir/client.out"
        exit 1
    fi
}
assert_out "schema Family (3 attributes)"
assert_out "view V2 registered"
# Both commits merged: one version, group of 2, twice.
assert_out "committed version 1 (2 op(s), group of 2)"
if [ "$(grep -cF 'group of 2' "$workdir/client.out")" -ne 2 ]; then
    echo "FAIL: expected both commit acks to report the merged group"
    cat "$workdir/client.out"
    exit 1
fi
assert_out "2 answer tuple(s) at version 1"
assert_out "GtoPdb"
assert_out "fixity verified: v1"
assert_out "commits 2"
echo "pipelined script ok (commit burst coalesced into one window)"

# --- Phase 2: raw tagged framing over /dev/tcp ------------------------------
host=${paddr%:*}
port=${paddr##*:}
exec 3<>"/dev/tcp/$host/$port"
printf '@t1 tables\n@t2 quit\n' >&3
timeout 10 cat <&3 > "$workdir/raw.out" || true
exec 3>&- 3<&-
grep -q '^citesys-net v1' "$workdir/raw.out" || {
    echo "FAIL: no banner on raw connection"; cat "$workdir/raw.out"; exit 1; }
grep -q '^ok @t1 ' "$workdir/raw.out" || {
    echo "FAIL: tagged response for @t1 missing"; cat "$workdir/raw.out"; exit 1; }
grep -q '^ok @t2 1' "$workdir/raw.out" || {
    echo "FAIL: tagged farewell for @t2 missing"; cat "$workdir/raw.out"; exit 1; }
echo "raw @tag framing ok"

# --- Phase 3: error exit codes through the pipelined client -----------------
set +e
echo "cite Q(X) :- Nope(X)" | "$BIN" client --pipeline "$paddr" \
    > /dev/null 2> "$workdir/err.out"
code=$?
set -e
if [ "$code" -ne 4 ]; then
    echo "FAIL: citation error exit code was $code (want 4)"
    cat "$workdir/err.out"
    exit 1
fi
echo "pipelined citation error exited 4"

# --- Phase 4: replication follower through the event transport --------------
"$BIN" serve --listen 127.0.0.1:0 --event-loop --data-dir "$workdir/follower" \
    --follow "$paddr" \
    > "$workdir/follower.out" 2> "$workdir/follower.err" &
follower_pid=$!
read_addr "$workdir/follower.out"
faddr=$addr
grep -qF "following $paddr" "$workdir/follower.out" || {
    echo "FAIL: follower did not announce its primary"
    cat "$workdir/follower.out"; exit 1; }

cat > "$workdir/read.cts" <<'EOF'
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
verify
EOF
follower_matches_primary() {
    "$BIN" client --pipeline "$paddr" "$workdir/read.cts" \
        > "$workdir/primary.read" 2>/dev/null
    "$BIN" client --pipeline "$faddr" "$workdir/read.cts" \
        > "$workdir/follower.read" 2>/dev/null
    cmp -s "$workdir/primary.read" "$workdir/follower.read"
}
wait_until "follower catch-up over the event transport" follower_matches_primary
grep -qF "fixity verified" "$workdir/follower.read" || {
    echo "FAIL: follower did not verify fixity"
    cat "$workdir/follower.read"; exit 1; }
echo "follower replicated through the event transport (byte-identical reads)"

set +e
echo "insert Family(99, 'Nope', 'X')" | "$BIN" client --pipeline "$faddr" \
    > /dev/null 2> "$workdir/ro.err"
rc=$?
set -e
[ "$rc" -eq 4 ] || {
    echo "FAIL: readonly rejection exited $rc, expected 4"
    cat "$workdir/ro.err"; exit 1; }
echo "follower rejected a pipelined write (exit 4)"

# --- Phase 5: wire shutdown of both servers ---------------------------------
echo "shutdown" | "$BIN" client --pipeline "$faddr" > /dev/null
wait "$follower_pid"
follower_pid=""
echo "shutdown" | "$BIN" client --pipeline "$paddr" > /dev/null
wait "$primary_pid"
primary_pid=""

echo "pipeline smoke ok ($paddr)"
