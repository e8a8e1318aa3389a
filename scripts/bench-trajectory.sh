#!/usr/bin/env bash
# scripts/bench-trajectory.sh <parent-rev> [options]
#
# Benchmarks HEAD against a parent revision on this machine and writes
# one trajectory record (a BENCH_*.json file): both revisions, the core
# count, per side the median and spread of every metric of every
# workload, the verdicts of benchmark/compare.sh, and one traced run per
# side with its per-layer rows.
#
# Every run is the benchmark's own command, `benchmark/run.sh` with its
# defaults (all four workloads, seed 1, 10 s each), untraced in 10 pairs
# (parent and HEAD alternating, each side first in every other pair),
# then traced once per side.
#
#   --out <file>       the record (default BENCH.json)
#   --scratch <dir>    where the two checkouts are unpacked and built
#                      (default: a new temporary directory, removed after);
#                      builds are kept per revision, so a second call with
#                      the same directory and revisions does not rebuild
#
# Each revision is unpacked with `git archive` into its own directory and
# benchmarked with its own benchmark/run.sh, so each side builds and runs
# exactly what that revision holds. Only committed files are measured.
set -euo pipefail

usage() { sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_rev=$1
shift
pairs=10 out=BENCH.json scratch=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --out) out=$2 ;;
        --scratch) scratch=$2 ;;
        *) usage ;;
    esac
    shift 2
done

repo=$(git rev-parse --show-toplevel)
parent=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
head=$(git -C "$repo" rev-parse --verify "HEAD^{commit}")
if [ -z "$scratch" ]; then
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
fi
mkdir -p "$scratch"

for side in parent head; do
    rev=${!side}
    rm -rf "${scratch:?}/$side"
    mkdir -p "$scratch/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$scratch/$side"
    : >"$scratch/$side.jsonl"
    : >"$scratch/$side-trace.jsonl"
    # The first run builds both sides; a smoke run keeps build time out of
    # the first measured pair.
    echo "bench-trajectory: building $side ($rev)" >&2
    CARGO_TARGET_DIR="$scratch/target-$rev" \
        bash "$scratch/$side/benchmark/run.sh" --smoke >/dev/null
done

run() { # <side> <log> <run.sh args…>
    local side=$1 log=$2
    shift 2
    CARGO_TARGET_DIR="$scratch/target-${!side}" bash "$scratch/$side/benchmark/run.sh" "$@" >>"$log" ||
        echo "bench-trajectory: a $side run reported failures" >&2
}

# Which side runs first alternates from pair to pair, so a drift of the
# machine over the session does not favour one side.
for i in $(seq 1 "$pairs"); do
    order="parent head"
    [ $((i % 2)) -eq 0 ] && order="head parent"
    for side in $order; do
        echo "bench-trajectory: pair $i/$pairs, $side" >&2
        run "$side" "$scratch/$side.jsonl" --trace 0
    done
done
for side in parent head; do
    echo "bench-trajectory: traced run, $side" >&2
    run "$side" "$scratch/$side-trace.jsonl" --trace 1
done

compare="$scratch/compare.txt"
bash "$scratch/head/benchmark/compare.sh" "$scratch/parent.jsonl" "$scratch/head.jsonl" \
    >"$compare" || true

python3 - "$parent" "$head" "$(nproc)" "$pairs" "$scratch" "$out" <<'PY'
import json, statistics, sys

parent, head, cores, pairs, scratch, out = sys.argv[1:]


def runs(path):
    lines = (l for l in open(path) if l.startswith('{"workload"'))
    return [json.loads(l) for l in lines]


def summary(path):
    """Per workload and metric: median, quartile spread and every value."""
    values = {}
    failed = {}
    for run in runs(path):
        w = run["workload"]
        failed[w] = failed.get(w, 0) + run["failed"]
        for name, m in run["metrics"].items():
            values.setdefault(w, {}).setdefault(name, {"unit": m["unit"], "values": []})
            values[w][name]["values"].append(m["value"])
    for w, metrics in values.items():
        for m in metrics.values():
            vs = [v for v in m["values"] if v is not None]
            m["median"] = statistics.median(vs) if vs else None
            if len(vs) >= 4 and m["median"]:
                q = statistics.quantiles(vs, n=4)
                m["spread"] = (q[2] - q[0]) / abs(m["median"])
            else:
                m["spread"] = None
    return {"failed": failed, "metrics": values}


def number(text):
    return None if text == "-" else float(text)


verdicts = []
for line in open(f"{scratch}/compare.txt").read().splitlines()[1:]:
    w, metric, a, b, change, spread, bound, verdict = line.split()
    verdicts.append({"workload": w, "metric": metric, "parent": number(a),
                     "head": number(b), "change": change, "parent_spread": spread,
                     "bound": bound, "verdict": verdict})

first = runs(f"{scratch}/head.jsonl")[0]
record = {
    "revisions": {"parent": parent, "head": head},
    "cores": int(cores),
    "pairs": int(pairs),
    "seconds": float(first["seconds"]),
    "seed": int(first["seed"]),
    "untraced": {"parent": summary(f"{scratch}/parent.jsonl"),
                 "head": summary(f"{scratch}/head.jsonl")},
    "compare": verdicts,
    "traced": {"parent": summary(f"{scratch}/parent-trace.jsonl"),
               "head": summary(f"{scratch}/head-trace.jsonl")},
}
with open(out, "w") as f:
    json.dump(record, f, indent=1, sort_keys=False)
    f.write("\n")
print(open(f"{scratch}/compare.txt").read(), end="")
PY
echo "bench-trajectory: wrote $out" >&2
