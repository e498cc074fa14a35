#!/usr/bin/env bash
# Compares two revisions on every workload, with the same benchmark code
# on both sides.
#
# Usage, from inside the repository:
#
#   bash bench/compare.sh <parentRev> <changeRev> [pairs=10] [seconds=15]
#
# Both revisions are exported with git archive into a temp directory.
# Each receives changeRev's bench/ (so both run identical benchmark
# code) and is built once. Then, for pair i = 1..pairs and every
# workload, the two builds run back to back with --seed i, alternating
# which side goes first. The report gives, per workload and end-to-end
# metric, each side's median and quartiles, the change's wins (ties
# count for neither) and a verdict: "gain" needs at least 10 pairs,
# wins in at least 9 of 10, and medians further apart than the parent's
# own quartile spread; "unresolved" means the parent's spread exceeds the metric's
# bound in BENCHMARK.json and the change did not beat every parent run;
# "worse" means the change's median is worse than the parent's by more
# than the bound.
set -euo pipefail

usage="usage: compare.sh <parentRev> <changeRev> [pairs=10] [seconds=15]"
parent=${1:?$usage}
change=${2:?$usage}
pairs=${3:-10}
seconds=${4:-15}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in parent change; do
	rev=$parent
	[ "$side" = change ] && rev=$change
	mkdir -p "$work/$side"
	git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
	rm -rf "$work/$side/bench"
	git -C "$repo" archive "$change" bench | tar -x -C "$work/$side"
	(cd "$work/$side/bench" && go build -o "$work/$side.bin" .)
done
git -C "$repo" show "$change:BENCHMARK.json" > "$work/BENCHMARK.json"

results="$work/results.jsonl"
for i in $(seq 1 "$pairs"); do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for w in table3 synth-corpus edit-loop; do
		for side in $order; do
			echo "pair $i: $w on $side" >&2
			line=$(cd "$work/$side" && "$work/$side.bin" --workload "$w" --seed "$i" \
				--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
			[ -n "$line" ] || line='{"correct":false,"metrics":{}}'
			printf '{"pair":%d,"workload":"%s","side":"%s","result":%s}\n' \
				"$i" "$w" "$side" "$line" >> "$results"
		done
	done
done

python3 - "$results" "$work/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
for r in runs:
    if not r["result"].get("correct"):
        print(f"pair {r['pair']} {r['workload']} {r['side']}: run failed or output incorrect")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

print(f"{'workload':13} {'metric':18} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        lower = m["better"] == "lower"
        val = {}
        for r in runs:
            if r["workload"] == w["name"] and r["result"].get("correct"):
                val[(r["pair"], r["side"])] = r["result"]["metrics"][m["name"]]["value"]
        pairs = sorted({p for p, s in val if (p, "parent") in val and (p, "change") in val})
        if not pairs:
            continue
        par = [val[(p, "parent")] for p in pairs]
        chg = [val[(p, "change")] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        pq, cq = quartiles(par), quartiles(chg)
        worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
        spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0
        all_better = (max(chg) < min(par)) if lower else (min(chg) > max(par))
        verdict = "unchanged"
        if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse > pq[2] - pq[0]:
            verdict = "gain"
        elif spread > m["bound"] and not all_better:
            verdict = f"unresolved (parent spread {100 * spread:.1f}% > bound {100 * m['bound']:.0f}%)"
        elif pq[1] and worse > m["bound"] * abs(pq[1]):
            verdict = f"worse by {100 * worse / abs(pq[1]):.1f}% (bound {100 * m['bound']:.0f}%)"
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{w['name']:13} {m['name']:18} {fmt(pq):>32} {fmt(cq):>32} {wins:>3}/{len(pairs):<2}  {verdict}")
EOF
