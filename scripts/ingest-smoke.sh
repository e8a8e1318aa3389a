#!/usr/bin/env bash
# Ingestion smoke test: emit a GtoPdb-shaped CSV dump with
# `citesys-gtopdb emit`, bulk-load it through BOTH transports — the
# offline `citesys ingest` CLI and the `ingest` wire command against a
# running server — then assert the pinned manifest verifies cleanly,
# that a one-byte tamper of a source file fails `dataset verify` with
# the dedicated exit code 6, and that the loaded relations are citable
# (including after a restart, recovered from WAL/checkpoint). CI runs
# this as a step of the check job.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/citesys
GTOPDB=target/release/citesys-gtopdb
if [ ! -x "$BIN" ] || [ ! -x "$GTOPDB" ]; then
    cargo build --release --bin citesys
    cargo build --release -p citesys-gtopdb --bin citesys-gtopdb
fi

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

# --- Phase 1: emit a deterministic dump ------------------------------------
dumps="$workdir/dumps"
"$GTOPDB" emit "$dumps" --scale 4 > "$workdir/emit.out"
grep -qE "emitted [0-9]+ records across 8 files" "$workdir/emit.out" || {
    echo "FAIL: emit did not report its files"; cat "$workdir/emit.out"; exit 1; }
records=$(sed -n 's/^emitted \([0-9]*\) records.*/\1/p' "$workdir/emit.out")
echo "emitted $records records to $dumps"

# --- Phase 2: offline transport — the ingest CLI ---------------------------
data="$workdir/data"
mkdir -p "$data"
"$BIN" ingest "$data" "$dumps" --as gtopdb-smoke --batch 100 > "$workdir/ingest.out"
grep -qF "ingested $records record(s) from 8 file(s) as dataset gtopdb-smoke" \
    "$workdir/ingest.out" || {
    echo "FAIL: CLI ingest did not load every record"; cat "$workdir/ingest.out"; exit 1; }
grep -qF "manifest $data/datasets.lock" "$workdir/ingest.out" || {
    echo "FAIL: manifest not written"; cat "$workdir/ingest.out"; exit 1; }
grep -qF "gtopdb-smoke" "$data/datasets.audit" || {
    echo "FAIL: audit log lacks the load"; cat "$data/datasets.audit"; exit 1; }

"$BIN" dataset verify "$data" > "$workdir/verify.out"
grep -qF "1 dataset(s), 8 source file(s) ok" "$workdir/verify.out" || {
    echo "FAIL: clean manifest did not verify"; cat "$workdir/verify.out"; exit 1; }
echo "CLI ingest + verify ok"

# --- Phase 3: the ingested data is citable after a restart -----------------
start_server() {
    "$BIN" serve --listen 127.0.0.1:0 --data-dir "$1" \
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
start_server "$data"
cat > "$workdir/cite.cts" <<'EOF'
datasets
view VF(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CVF(D) :- D = 'GtoPdb'
cite Q(FName) :- Family(FID, FName, Desc)
EOF
"$BIN" client "$addr" "$workdir/cite.cts" > "$workdir/cite.out"
grep -qF "dataset gtopdb-smoke: 8 file(s), $records record(s)" "$workdir/cite.out" || {
    echo "FAIL: registry listing lost after restart"; cat "$workdir/cite.out"; exit 1; }
grep -qE "[0-9]+ answer tuple\(s\) at version" "$workdir/cite.out" || {
    echo "FAIL: ingested data not citable"; cat "$workdir/cite.out"; exit 1; }
echo "shutdown" | "$BIN" client "$addr" > /dev/null
wait "$server_pid"
server_pid=""
echo "restart + cite over ingested data ok"

# --- Phase 4: one-byte tamper fails verification with exit code 6 ----------
printf 'X' | dd of="$dumps/Family.csv" bs=1 seek=64 conv=notrunc 2>/dev/null
set +e
"$BIN" dataset verify "$data" > "$workdir/tamper.out" 2> "$workdir/tamper.err"
code=$?
set -e
if [ "$code" -ne 6 ]; then
    echo "FAIL: tampered verify exited $code, want 6"
    cat "$workdir/tamper.out" "$workdir/tamper.err"
    exit 1
fi
grep -qF "Family.csv' digest mismatch (tampered)" "$workdir/tamper.err" || {
    echo "FAIL: tamper not named"; cat "$workdir/tamper.err"; exit 1; }
echo "tamper detected with exit code 6"

# --- Phase 5: wire transport — ingest through a live server ----------------
dumps2="$workdir/dumps2"
data2="$workdir/data2"
mkdir -p "$data2"
"$GTOPDB" emit "$dumps2" --scale 2 > /dev/null
start_server "$data2"
cat > "$workdir/wire.cts" <<EOF
ingest '$dumps2' as wire-smoke batch 50
datasets
dataset verify
view VF(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CVF(D) :- D = 'GtoPdb'
cite Q(FName) :- Family(FID, FName, Desc)
EOF
"$BIN" client "$addr" "$workdir/wire.cts" > "$workdir/wire.out"
grep -qE "ingested [0-9]+ record\(s\) from 8 file\(s\) as dataset wire-smoke" \
    "$workdir/wire.out" || {
    echo "FAIL: wire ingest did not run"; cat "$workdir/wire.out"; exit 1; }
grep -qF "1 dataset(s), 8 source file(s) ok" "$workdir/wire.out" || {
    echo "FAIL: wire-side verify failed"; cat "$workdir/wire.out"; exit 1; }
grep -qE "[0-9]+ answer tuple\(s\) at version" "$workdir/wire.out" || {
    echo "FAIL: wire-ingested data not citable"; cat "$workdir/wire.out"; exit 1; }
echo "shutdown" | "$BIN" client "$addr" > /dev/null
wait "$server_pid"
server_pid=""
echo "wire ingest + verify + cite ok"

echo "ingest smoke ok ($workdir)"
