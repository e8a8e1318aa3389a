#!/usr/bin/env bash
# End-to-end smoke test of the TCP front end: start `citesys serve
# --listen --data-dir` on an ephemeral port, run a client script exercising
# schema / insert / view / cite / begin-commit / stats, assert the
# output, then shut the server down over the wire. CI runs this after
# the release build; it needs only loopback networking.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/citesys
if [ ! -x "$BIN" ]; then
    cargo build --release --bin citesys
fi

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

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

# The removed plans-only persistence flag is an unknown option, not a
# parsed-and-ignored one: usage error, and the message names it.
set +e
"$BIN" serve --plan-cache x > /dev/null 2> "$workdir/flag.err"
code=$?
set -e
if [ "$code" -ne 2 ] || ! grep -qF "unknown serve option '--plan-cache'" "$workdir/flag.err"; then
    echo "FAIL: serve --plan-cache exited $code (want 2, naming the option)"
    cat "$workdir/flag.err"
    exit 1
fi
# Likewise the removed transport switch: there is one transport.
set +e
"$BIN" serve --listen 127.0.0.1:0 --event-loop > /dev/null 2> "$workdir/flag.err"
code=$?
set -e
if [ "$code" -ne 2 ] || ! grep -qF "unknown serve option '--event-loop'" "$workdir/flag.err"; then
    echo "FAIL: serve --event-loop exited $code (want 2, naming the option)"
    cat "$workdir/flag.err"
    exit 1
fi

"$BIN" serve --listen 127.0.0.1:0 --data-dir "$workdir/data" \
    > "$workdir/server.out" 2> "$workdir/server.err" &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$workdir/server.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "server did not report its address"
    cat "$workdir/server.err"
    exit 1
fi
echo "server listening on $addr"

"$BIN" client "$addr" "$workdir/smoke.cts" > "$workdir/client.out"

assert_out() {
    if ! grep -qF "$1" "$workdir/client.out"; then
        echo "FAIL: client output lacks '$1'"
        cat "$workdir/client.out"
        exit 1
    fi
}
assert_out "schema Family (3 attributes)"
assert_out "view V2 registered"
assert_out "committed version 1"
assert_out "committed version 2 (2 op(s), group of 1)"
assert_out "2 answer tuple(s) at version 2"
assert_out "GtoPdb"
assert_out "fixity verified: v2"
assert_out "commits 2"

# A protocol/citation error must come back framed with the right exit
# code, without ending the server.
set +e
echo "cite Q(X) :- Nope(X)" | "$BIN" client "$addr" > /dev/null 2> "$workdir/err.out"
code=$?
set -e
if [ "$code" -ne 4 ]; then
    echo "FAIL: citation error exit code was $code (want 4)"
    cat "$workdir/err.out"
    exit 1
fi

# Graceful remote shutdown.
echo "shutdown" | "$BIN" client "$addr" > /dev/null
wait "$server_pid"
server_pid=""

echo "net smoke ok ($addr)"

# Crash-recovery phase: SIGKILL the server mid-commit-window (after the
# ack, before any checkpoint) and assert the reopened store replays the
# write-ahead log to the acked version with warm caches.
"$(dirname "$0")/recovery-smoke.sh"
