#!/usr/bin/env bash
# Crash-recovery smoke test: start `citesys serve --listen --data-dir`,
# commit through the group-commit window, SIGKILL the server right
# after the commit is acked (before any further checkpoint), then
# assert that `citesys recover` and a restarted server replay the
# write-ahead log to the acked version with warm views and plans. Also
# checks that a torn final WAL record truncates cleanly. CI runs it
# through net-smoke.sh, which chains into it.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/citesys
if [ ! -x "$BIN" ]; then
    cargo build --release --bin citesys
fi

workdir=$(mktemp -d)
data="$workdir/data"
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

start_server() {
    "$BIN" serve --listen 127.0.0.1:0 --data-dir "$data" \
        > "$workdir/server.out" 2> "$workdir/server.err" &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$workdir/server.out" | tail -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "server did not report its address"
        cat "$workdir/server.err"
        exit 1
    fi
}

# --- Phase 1: populate, checkpoint, then one WAL-only commit ---------------
cat > "$workdir/setup.cts" <<'EOF'
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
checkpoint
begin
insert Family(12, 'Dopamine', 'D1')
insert FamilyIntro(12, '2nd')
commit
EOF
start_server
echo "server listening on $addr (data dir $data)"
"$BIN" client "$addr" "$workdir/setup.cts" > "$workdir/setup.out"
grep -qF "checkpoint at version 1" "$workdir/setup.out" || {
    echo "FAIL: checkpoint did not run"; cat "$workdir/setup.out"; exit 1; }
grep -qF "committed version 2" "$workdir/setup.out" || {
    echo "FAIL: post-checkpoint commit not acked"; cat "$workdir/setup.out"; exit 1; }

# --- Phase 2: crash. SIGKILL right after the ack, before any further
# checkpoint — the v2 commit exists only in the write-ahead log. --------
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "server killed (SIGKILL) after ack, before checkpoint"

# --- Phase 3: offline recovery sees the acked version ----------------------
"$BIN" recover "$data" > "$workdir/recover.out"
grep -qF "recovered to version 2" "$workdir/recover.out" || {
    echo "FAIL: recover did not reach the acked version"; cat "$workdir/recover.out"; exit 1; }
grep -qF "wal: 1 record(s) replayed" "$workdir/recover.out" || {
    echo "FAIL: wal record not replayed"; cat "$workdir/recover.out"; exit 1; }
"$BIN" wal dump "$data" | grep -qF "i Family(12, 'Dopamine', 'D1')" || {
    echo "FAIL: wal dump lacks the logged changeset"; exit 1; }

# --- Phase 4: a restarted server serves the recovered state, warm ----------
cat > "$workdir/after.cts" <<'EOF'
tables
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
verify
stats
EOF
start_server
"$BIN" client "$addr" "$workdir/after.cts" > "$workdir/after.out"
assert_out() {
    if ! grep -qF "$1" "$workdir/after.out"; then
        echo "FAIL: restarted server output lacks '$1'"
        cat "$workdir/after.out"
        exit 1
    fi
}
assert_out "Family: 2 tuples"
assert_out "2 answer tuple(s) at version 2"
assert_out "fixity verified: v2"
# Warmth: recovery seeded the checkpointed views and carried the WAL
# replay by delta maintenance — the cite above materialized nothing and
# reused the checkpointed plan.
assert_out "view_materializations 0"
assert_out "plan_cache_misses 0"
echo "shutdown" | "$BIN" client "$addr" > /dev/null
wait "$server_pid"
server_pid=""

# --- Phase 5: a torn final WAL record truncates cleanly --------------------
printf 'record 3 2\ni Family(99, ' >> "$data/wal.log"
"$BIN" recover "$data" > "$workdir/torn.out" 2> "$workdir/torn.err"
grep -qF "recovered to version 2" "$workdir/torn.out" || {
    echo "FAIL: torn WAL tail broke recovery"; cat "$workdir/torn.out" "$workdir/torn.err"; exit 1; }

echo "recovery smoke ok ($data)"
