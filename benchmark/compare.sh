#!/usr/bin/env bash
# benchmark/compare.sh a.jsonl b.jsonl
#
# Compares two sets of untraced runs (the JSON lines run.sh prints, any
# number of runs per workload in each file) under the bounds fixed in
# BENCHMARK.json. For every workload and end-to-end metric it prints
# both medians, A's run-to-run spread and a verdict:
#   unchanged / better  B's median is within the bound of A's, or better
#   REGRESSED           B's median is worse than A's by more than the bound
#   unresolved          A's own spread exceeds the bound: no verdict
# Exits 1 if anything regressed.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 a.jsonl b.jsonl" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
exec python3 - "$here/../BENCHMARK.json" "$1" "$2" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
metrics = spec["end_to_end"]


def load(path):
    runs = {}
    for line in open(path):
        line = line.strip()
        if not line.startswith('{"workload"'):
            continue
        run = json.loads(line)
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            if m["value"] is not None:
                runs.setdefault((run["workload"], name), []).append(m["value"])
    return runs


def spread(values):
    """Quartile distance over the median; the range when too few runs."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


a, b = load(sys.argv[2]), load(sys.argv[3])
regressed = False
print(f"{'workload':8} {'metric':14} {'A median':>12} {'B median':>12} "
      f"{'B vs A':>8} {'A spread':>9} {'bound':>6}  verdict")
for w in [w["name"] for w in spec["workloads"]]:
    for m in metrics:
        va, vb = a.get((w, m["name"])), b.get((w, m["name"]))
        if not va or not vb:
            print(f"{w:8} {m['name']:14} {'-':>12} {'-':>12} {'-':>8} {'-':>9} "
                  f"{m['bound']:6.1%}  missing")
            regressed = True
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa = spread(va)
        if sa is not None and sa > m["bound"]:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict, regressed = "REGRESSED", True
        elif worse < -m["bound"]:
            verdict = "better"
        else:
            verdict = "unchanged"
        shown = "-" if sa is None else f"{sa:.1%}"
        print(f"{w:8} {m['name']:14} {ma:12.4f} {mb:12.4f} {-worse:+8.1%} "
              f"{shown:>9} {m['bound']:6.1%}  {verdict}")
sys.exit(1 if regressed else 0)
PY
