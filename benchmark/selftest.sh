#!/usr/bin/env bash
# benchmark/selftest.sh — runs the whole benchmark in smoke mode (one
# second per workload, same code paths), untraced and traced, and checks
# that what it prints is what BENCHMARK.json declares: the workload and
# metric names exactly, every value a finite number, nothing failed,
# and no citesys process or scratch directory left behind.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
log=$(mktemp)
trap 'rm -f "$log"' EXIT

for trace in 0 1; do
    bash "$here/run.sh" --smoke --seed 7 --trace "$trace" >>"$log"
done

python3 - "$here/../BENCHMARK.json" "$log" <<'PY'
import json, math, sys

spec = json.load(open(sys.argv[1]))
declared = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
runs = [json.loads(l) for l in open(sys.argv[2]) if l.startswith('{"workload"')]
problems = []
for trace in (0, 1):
    seen = [r["workload"] for r in runs if r["trace"] == trace]
    if seen != [w["name"] for w in spec["workloads"]]:
        problems.append(f"trace {trace}: workloads {seen}")
for r in runs:
    where = f"{r['workload']} trace {r['trace']}"
    if list(r["metrics"]) != declared[r["trace"]]:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for name, m in r["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{where}: {name} = {v}")
        if m["unit"] != units.get(name):
            problems.append(f"{where}: {name} in {m['unit']}")
    if not r["correct"] or r["failed"] != 0:
        problems.append(f"{where}: correct={r['correct']} failed={r['failed']}")
for p in problems:
    print("selftest:", p)
sys.exit(1 if problems else 0)
PY

if ls "$here"/out/work-* >/dev/null 2>&1; then
    echo "selftest: scratch directories left behind:"; ls -d "$here"/out/work-*; exit 1
fi
for pid in $(pgrep -x citesys || true); do
    if tr '\0' ' ' <"/proc/$pid/cmdline" | grep -q "$here/out"; then
        echo "selftest: server $pid left behind"; exit 1
    fi
done
echo "selftest ok"
