#!/usr/bin/env bash
# The citesys benchmark, one command (see README.md):
#
#   benchmark/run.sh --workload <lookup|report|adhoc|curate|all> --seed <n>
#                    --seconds <s> --trace <0|1> [--smoke]
#
# Builds target/release/citesys from this checkout, the end-to-end
# driver and the layer probes, then runs the driver. Without --workload
# it runs all four workloads and prints one JSON line for each.
set -uo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$here/out"

# The driver's build directory (CARGO_TARGET_DIR, relative to where it
# starts us) serves all three builds; a developer's run keeps the root
# workspace's own target/ and puts the benchmark's beside this script.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) root_target=$CARGO_TARGET_DIR ;;
        *) root_target=$PWD/$CARGO_TARGET_DIR ;;
    esac
    bench_target=$root_target
else
    root_target=$root/target
    bench_target=$here/target
fi
unset CARGO_TARGET_DIR

# If this script dies (a signal, a bug), no server and no scratch
# directory may outlive it; the driver binary cleans up after itself on
# every path that unwinds.
child=""
sweep() {
    [ -n "$child" ] && kill "$child" 2>/dev/null && wait "$child" 2>/dev/null
    for pidfile in "$out"/work-*/server.pid "$out"/work-*/*/server.pid; do
        [ -f "$pidfile" ] || continue
        pid=$(cat "$pidfile")
        if grep -qs citesys "/proc/$pid/cmdline"; then
            kill -9 "$pid" 2>/dev/null
            # Not our child: poll until the kernel has reaped it.
            while [ -d "/proc/$pid" ]; do sleep 0.05; done
        fi
    done
    rm -rf "$out"/work-*
}
trap sweep EXIT
trap 'exit 130' INT TERM

build() { # <manifest> <target dir> <extra cargo args…>
    local manifest=$1 target=$2
    shift 2
    cargo build --release --offline --quiet \
        --manifest-path "$manifest" --target-dir "$target" "$@" >&2
}

if ! build "$root/Cargo.toml" "$root_target" --bin citesys; then
    echo "run.sh: building citesys failed" >&2
    exit 1
fi
if ! build "$here/e2e/Cargo.toml" "$bench_target"; then
    echo "run.sh: building the end-to-end driver failed" >&2
    exit 1
fi
# The layer probes link the library crates; if an API they lean on has
# moved, say so and go on: the end-to-end numbers do not depend on them.
layers="$bench_target/release/layers"
if ! build "$here/layers/Cargo.toml" "$bench_target"; then
    echo "run.sh: building the layer probes failed; per-layer metrics will be missing" >&2
    rm -f "$layers"
fi

mkdir -p "$out"
"$bench_target/release/e2e" \
    --citesys "$root_target/release/citesys" --layers "$layers" --out "$out" "$@" &
child=$!
wait "$child"
status=$?
child=""
exit "$status"
