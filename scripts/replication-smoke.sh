#!/usr/bin/env bash
# Replication smoke test: start a primary (`citesys serve`), attach a
# follower (`serve --follow`) on an ephemeral port, and assert the
# replica serves byte-identical cite answers and fixity digests, rejects
# writes naming the primary (exit code 4), and reports zero
# `replica_lag_versions` once caught up. Then SIGKILL the follower,
# commit on the primary while it is down, restart the follower from the
# same data dir, and assert it resumes from its local WAL — the primary
# ships exactly the one missed record, not a fresh checkpoint. CI runs
# this as a step of the check job.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/citesys
if [ ! -x "$BIN" ]; then
    cargo build --release --bin citesys
fi

workdir=$(mktemp -d)
pdata="$workdir/primary"
fdata="$workdir/follower"
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

start_primary() {
    "$BIN" serve --listen 127.0.0.1:0 --data-dir "$pdata" \
        > "$workdir/primary.out" 2> "$workdir/primary.err" &
    primary_pid=$!
    read_addr "$workdir/primary.out"
    paddr=$addr
}

start_follower() {
    "$BIN" serve --listen 127.0.0.1:0 --data-dir "$fdata" --follow "$paddr" \
        > "$workdir/follower.out" 2> "$workdir/follower.err" &
    follower_pid=$!
    read_addr "$workdir/follower.out"
    faddr=$addr
    grep -qF "following $paddr" "$workdir/follower.out" || {
        echo "FAIL: follower did not announce its primary"
        cat "$workdir/follower.out"; exit 1; }
}

# The read-side script both servers must answer identically.
cat > "$workdir/read.cts" <<'EOF'
tables
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
verify
EOF

# Pulls one stats counter off a server; prints its value.
stat_of() {
    echo "stats" | "$BIN" client "$1" | sed -n "s/^$2 //p"
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
    cat "$workdir/follower.err" 2>/dev/null || true
    exit 1
}

follower_matches_primary() {
    "$BIN" client "$paddr" "$workdir/read.cts" > "$workdir/primary.read" 2>/dev/null
    "$BIN" client "$faddr" "$workdir/read.cts" > "$workdir/follower.read" 2>/dev/null
    cmp -s "$workdir/primary.read" "$workdir/follower.read"
}

# --- Phase 1: primary up, populated -----------------------------------------
cat > "$workdir/setup.cts" <<'EOF'
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
EOF
start_primary
echo "primary listening on $paddr (data dir $pdata)"
"$BIN" client "$paddr" "$workdir/setup.cts" > "$workdir/setup.out"
grep -qF "committed version 1" "$workdir/setup.out" || {
    echo "FAIL: primary setup commit not acked"; cat "$workdir/setup.out"; exit 1; }

# --- Phase 2: follower bootstraps and serves identical reads ----------------
start_follower
echo "follower listening on $faddr (data dir $fdata), following $paddr"
wait_until "follower catch-up" follower_matches_primary
grep -qF "fixity verified" "$workdir/follower.read" || {
    echo "FAIL: follower did not verify fixity"; cat "$workdir/follower.read"; exit 1; }
echo "follower read output byte-identical to primary (incl. fixity digest)"

# --- Phase 3: follower rejects writes, naming the primary -------------------
set +e
echo "insert Family(99, 'Nope', 'X')" | "$BIN" client "$faddr" \
    > "$workdir/ro.out" 2> "$workdir/ro.err"
rc=$?
set -e
[ "$rc" -eq 4 ] || {
    echo "FAIL: readonly rejection exited $rc, expected 4"; cat "$workdir/ro.err"; exit 1; }
grep -qF "read-only replica of $paddr" "$workdir/ro.err" || {
    echo "FAIL: readonly error does not name the primary"; cat "$workdir/ro.err"; exit 1; }
echo "follower rejected a write with a readonly error naming the primary"

# --- Phase 4: lag stays bounded across primary commits ----------------------
cat > "$workdir/storm.cts" <<'EOF'
insert Family(12, 'Dopamine', 'D1')
commit
insert FamilyIntro(12, '2nd')
commit
insert Family(13, 'Ghrelin', 'G1')
commit
EOF
"$BIN" client "$paddr" "$workdir/storm.cts" > /dev/null
lag_is_zero() { [ "$(stat_of "$faddr" replica_lag_versions)" = "0" ]; }
wait_until "replica lag to drain" lag_is_zero
wait_until "follower convergence" follower_matches_primary
stat_of "$faddr" following | grep -qF "$paddr" || {
    echo "FAIL: follower stats do not report the primary"; exit 1; }
echo "replica_lag_versions drained to 0 after the commit storm"

# --- Phase 5: SIGKILL the follower, commit while down, resume from WAL ------
kill -9 "$follower_pid"
wait "$follower_pid" 2>/dev/null || true
follower_pid=""
echo "follower killed (SIGKILL)"
no_feed() { [ "$(stat_of "$paddr" replicas_connected)" = "0" ]; }
wait_until "primary to drop the dead feed" no_feed
shipped_before=$(stat_of "$paddr" replica_records_shipped)
printf "insert Family(14, 'Orexin', 'O1')\ncommit\n" | "$BIN" client "$paddr" > /dev/null
start_follower
wait_until "follower to resume and converge" follower_matches_primary
shipped_after=$(stat_of "$paddr" replica_records_shipped)
delta=$((shipped_after - shipped_before))
[ "$delta" -eq 1 ] || {
    echo "FAIL: expected exactly 1 shipped record after restart, got $delta"
    echo "(a checkpoint re-bootstrap ships 0; a full WAL replay ships more)"
    exit 1; }
echo "restarted follower resumed from its local WAL (1 record shipped)"

echo "replication smoke ok (primary $pdata, follower $fdata)"
