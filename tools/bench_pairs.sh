#!/bin/sh
# Compare the end-to-end benchmark metrics of two revisions in alternated
# pairs of runs.  Each revision is exported with `git archive` into a
# sibling temporary directory, base/ and head/, whose paths have equal
# length, since the checkout path alone moves peak_rss_mb.  Each pair runs
#   python3 bench/run.py --workload WORKLOAD --seed 0 --seconds SECONDS
#                        --trace 0 [extra bench args]
# in both trees, BASE first in odd pairs and HEAD first in even ones.
# One line is printed per run, then one summary line for each of setup_s,
# run_s and peak_rss_mb: the BASE median and interquartile range, the HEAD
# median, in how many pairs HEAD reads lower and in how many higher (ties
# count for neither), and gain=yes when HEAD reads lower in at least 9/10
# of the pairs and its median is below BASE's by more than BASE's
# interquartile range, else gain=no.  The trees are removed on exit.
#
# Usage: tools/bench_pairs.sh BASE HEAD WORKLOAD PAIRS SECONDS [args...]
# Exit status: 0 when every run passed its checks, 1 when a run failed,
# 2 for a usage error.
set -eu
if [ $# -lt 5 ]; then
    echo "usage: $0 BASE HEAD WORKLOAD PAIRS SECONDS [bench args...]" >&2
    exit 2
fi
base_rev=$1 head_rev=$2 workload=$3 pairs=$4 seconds=$5
shift 5
case $pairs in
    "" | *[!0-9]* | 0)
        echo "$0: PAIRS must be a positive integer" >&2
        exit 2 ;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

for side in base head; do
    if [ "$side" = base ]; then rev=$base_rev; else rev=$head_rev; fi
    sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
    mkdir "$tmp/$side"
    git -C "$root" archive "$sha" | tar -x -C "$tmp/$side"
    echo "# $side $rev $sha"
done

# run SIDE PAIR [args...]: one benchmark run, its line kept in runs.txt
run() {
    side=$1 pair=$2
    shift 2
    out="$tmp/$side-$pair.out"
    code=0
    (cd "$tmp/$side" && python3 bench/run.py --workload "$workload" \
        --seed 0 --seconds "$seconds" --trace 0 "$@") > "$out" || code=$?
    python3 - "$side" "$pair" "$code" "$out" "$tmp/runs.txt" <<'PY'
import json
import sys

side, pair, code, out, runs = sys.argv[1:]
with open(out, encoding="utf-8") as handle:
    lines = handle.read().splitlines()
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    result = {"correct": False, "metrics": {}}
ok = code == "0" and result["correct"] is True
values = " ".join(f"{name}={metric['value']:.6g}"
                  for name, metric in result["metrics"].items())
print(f"pair {pair} {side} {'ok' if ok else 'FAILED'} {values}")
with open(runs, "a", encoding="utf-8") as handle:
    handle.write(json.dumps({"side": side, "pair": int(pair), "ok": ok,
                             "metrics": result["metrics"]}) + "\n")
PY
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i" "$@"
        run head "$i" "$@"
    else
        run head "$i" "$@"
        run base "$i" "$@"
    fi
    i=$((i + 1))
done

python3 - "$tmp/runs.txt" <<'PY'
import json
import statistics
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    runs = [json.loads(line) for line in handle]
value = {(r["side"], r["pair"], name): m["value"]
         for r in runs for name, m in r["metrics"].items()}
pairs = sorted({r["pair"] for r in runs})
for name in ("setup_s", "run_s", "peak_rss_mb"):
    base = [value[("base", p, name)] for p in pairs
            if ("base", p, name) in value]
    head = [value[("head", p, name)] for p in pairs
            if ("head", p, name) in value]
    both = [(value[("base", p, name)], value[("head", p, name)])
            for p in pairs
            if ("base", p, name) in value and ("head", p, name) in value]
    lower = sum(h < b for b, h in both)
    higher = sum(h > b for b, h in both)
    if not base or not head:
        print(f"{name} missing")
        continue
    q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                 if len(base) > 1 else (base[0],) * 3)
    base_median, head_median = statistics.median(base), statistics.median(head)
    gain = (10 * lower >= 9 * len(pairs)
            and base_median - head_median > q3 - q1)
    print(f"{name} base_median={base_median:.6g} "
          f"base_iqr={q3 - q1:.6g} head_median={head_median:.6g} "
          f"head_lower={lower}/{len(pairs)} "
          f"head_higher={higher}/{len(pairs)} "
          f"gain={'yes' if gain else 'no'}")
sys.exit(0 if all(r["ok"] for r in runs) else 1)
PY
