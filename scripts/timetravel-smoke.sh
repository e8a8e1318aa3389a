#!/usr/bin/env bash
# Time-travel smoke test: start a durable server with record-based
# auto-checkpointing (`--checkpoint-every`) and anchor retention, commit
# past several checkpoint anchors while capturing each version's LIVE
# cite output, then assert `cite … @ <version>` returns byte-identical
# output for every version — live, and again after a restart (so deep
# versions resolve through retained anchors, not the in-memory op log). Finally `compact`
# over the wire and assert in-window versions keep serving while
# pre-window versions fail with the distinct compacted-history error
# (exit 4 on the wire, exit 5 from `wal dump --since`). CI runs this as
# a step of the check job.
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

start_server() {
    "$BIN" serve --listen 127.0.0.1:0 --data-dir "$data" \
        --checkpoint-every 2 --retain-checkpoints 8 \
        > "$workdir/server.out" 2> "$workdir/server.err" &
    server_pid=$!
    read_addr "$workdir/server.out"
}

stop_server() {
    kill -9 "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
}

# Pulls one stats counter off the server; prints its value.
stat_of() {
    echo "stats" | "$BIN" client "$addr" | sed -n "s/^$1 //p"
}

CITE="cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"

# --- Phase 1: storm past several anchors, capturing live output -------------
start_server
echo "server listening on $addr (data dir $data, checkpoint every 2 records)"
cat > "$workdir/setup.cts" <<'EOF'
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
EOF
"$BIN" client "$addr" "$workdir/setup.cts" > "$workdir/setup.out"
grep -qF "committed version 1" "$workdir/setup.out" || {
    echo "FAIL: setup commit not acked"; cat "$workdir/setup.out"; exit 1; }
echo "$CITE" | "$BIN" client "$addr" > "$workdir/live.1"

latest=5
for v in $(seq 2 $latest); do
    fid=$((18 + v))
    printf "insert Family(%s, 'F%s', 'D')\ninsert FamilyIntro(%s, 'I%s')\ncommit\n" \
        "$fid" "$fid" "$fid" "$fid" | "$BIN" client "$addr" > /dev/null
    echo "$CITE" | "$BIN" client "$addr" > "$workdir/live.$v"
done
retained=$(stat_of checkpoints_retained)
[ "$retained" -gt 1 ] || {
    echo "FAIL: expected >1 retained checkpoints, got $retained"; exit 1; }
echo "committed $latest versions past $retained retained checkpoint(s)"

# --- Phase 2: @ version is byte-identical to the live cite -----------------
check_all_versions() { # arg: phase label
    for v in $(seq 1 $latest); do
        echo "$CITE @ $v" | "$BIN" client "$addr" > "$workdir/at.$v"
        cmp -s "$workdir/live.$v" "$workdir/at.$v" || {
            echo "FAIL ($1): cite @ $v differs from the live cite at version $v"
            diff "$workdir/live.$v" "$workdir/at.$v" || true
            exit 1
        }
    done
    echo "cite @ 1..$latest byte-identical to live cites ($1)"
}
check_all_versions "live server"
echo "snapshot @ 2" | "$BIN" client "$addr" > "$workdir/snap.a"
echo "snapshot @ 2" | "$BIN" client "$addr" > "$workdir/snap.b"
cmp -s "$workdir/snap.a" "$workdir/snap.b" || {
    echo "FAIL: snapshot @ 2 digest not stable"; exit 1; }
grep -q "^snapshot v2 sha256:" "$workdir/snap.a" || {
    echo "FAIL: snapshot output malformed"; cat "$workdir/snap.a"; exit 1; }

# --- Phase 3: restart; history now crosses anchors ---------------------------
stop_server
start_server
echo "restarted at $addr"
base=$(stat_of history_base_version)
[ "$base" = "0" ] || {
    echo "FAIL: anchors should reach genesis before compaction, base=$base"; exit 1; }
check_all_versions "post-restart (anchor reads)"

# --- Phase 4: compact trims the queryable window -----------------------------
echo "compact 1" | "$BIN" client "$addr" > "$workdir/compact.out"
grep -q "^compacted to version" "$workdir/compact.out" || {
    echo "FAIL: compact not acked"; cat "$workdir/compact.out"; exit 1; }
floor=$(stat_of history_base_version)
[ "$floor" -gt 1 ] || {
    echo "FAIL: compaction left base at $floor"; exit 1; }
for v in "$floor" "$latest"; do
    echo "$CITE @ $v" | "$BIN" client "$addr" > "$workdir/at.$v"
    cmp -s "$workdir/live.$v" "$workdir/at.$v" || {
        echo "FAIL: in-window cite @ $v changed after compact"; exit 1; }
done
set +e
echo "$CITE @ 1" | "$BIN" client "$addr" > "$workdir/gone.out" 2> "$workdir/gone.err"
rc=$?
set -e
[ "$rc" -eq 4 ] || {
    echo "FAIL: pre-window cite exited $rc, expected 4"; cat "$workdir/gone.err"; exit 1; }
grep -q "was compacted by a checkpoint (oldest kept is $floor)" "$workdir/gone.err" || {
    echo "FAIL: compacted error malformed"; cat "$workdir/gone.err"; exit 1; }
echo "window [$floor, $latest] serves; version 1 fails with the compacted error"

# --- Phase 5: wal dump below the window exits 5, naming the floor ------------
set +e
"$BIN" wal dump "$data" --since 1 > "$workdir/dump.out" 2> "$workdir/dump.err"
rc=$?
set -e
[ "$rc" -eq 5 ] || {
    echo "FAIL: wal dump --since 1 exited $rc, expected 5"; cat "$workdir/dump.err"; exit 1; }
grep -q "oldest retained version is $floor" "$workdir/dump.err" || {
    echo "FAIL: wal dump error does not name the floor"; cat "$workdir/dump.err"; exit 1; }
echo "wal dump --since 1 exited 5 naming oldest retained version $floor"

echo "timetravel smoke ok (data dir $data)"
