#!/usr/bin/env bash
# A/B runner for the monsem benchmark: builds two revisions side by side
# and runs them alternately, so that both sample the same stretches of
# host time.
#
#   bash scripts/ab.sh BASE CHANGE --workload W [--pairs N] [--seed S]
#                      [--seconds T] [--dir D]
#
# BASE and CHANGE are git revisions (commits, branches, tags), or
# WORKTREE for the working tree's tracked and untracked, not ignored,
# files. Each is exported (`git archive`) into D/base/src and
# D/change/src and built into its own target directory (D/base/target,
# D/change/target); an export leaves no worktree metadata in the
# repository. Pair k (k = 1..N) runs
#
#   bash monbench/run.sh --workload W --seed S+k --seconds T --trace 0
#
# once on each side, with the same seed, swapping which side goes first
# from one pair to the next. Every run's JSON result is kept in D/runs.
# The summary prints, per end-to-end metric of BENCHMARK.json, each side's
# median and quartiles and the number of pairs the change won, plus every
# run's correctness gate.
#
# Defaults: N = 10, S = 1000, T = 30, D = a fresh directory under
# ${TMPDIR:-/tmp}.
set -euo pipefail

usage() {
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1
change_rev=$2
shift 2
workload=""
pairs=10
seed=1000
seconds=30
dir=""
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workload=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] || usage

root="$(cd "$(dirname "$0")/.." && pwd)"
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/monsem-ab.XXXXXX")
mkdir -p "$dir/runs"

export_side() {
    local side=$1 rev=$2
    rm -rf "$dir/$side/src"
    mkdir -p "$dir/$side/src" "$dir/$side/target"
    if [ "$rev" = WORKTREE ]; then
        git -C "$root" ls-files -z --cached --others --exclude-standard |
            (cd "$root" && tar --null -T - -c) | tar -x -C "$dir/$side/src"
        echo "$side = the working tree" >&2
    else
        local commit
        commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
        git -C "$root" archive "$commit" | tar -x -C "$dir/$side/src"
        echo "$side = $rev ($commit)" >&2
    fi
    (
        cd "$dir/$side/src"
        export CARGO_TARGET_DIR="$dir/$side/target"
        cargo build --release --offline --quiet --bin monsem 1>&2
        cargo build --release --offline --quiet --manifest-path monbench/Cargo.toml 1>&2
    )
}

run_side() {
    local side=$1 k=$2
    local out="$dir/runs/$side-$k.json"
    (
        cd "$dir/$side/src"
        export CARGO_TARGET_DIR="$dir/$side/target"
        bash monbench/run.sh --workload "$workload" --seed $((seed + k)) \
            --seconds "$seconds" --trace 0 2>"$dir/runs/$side-$k.log" | tail -n 1 >"$out"
    ) || true
    echo "pair $k: $side done" >&2
}

export_side base "$base_rev"
export_side change "$change_rev"
for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run_side base "$k"
        run_side change "$k"
    else
        run_side change "$k"
        run_side base "$k"
    fi
done

python3 - "$root/BENCHMARK.json" "$dir/runs" "$pairs" "$workload" <<'PY'
import json, os, sys

spec_path, runs, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open(spec_path))

def load(side, k):
    try:
        return json.load(open(os.path.join(runs, f"{side}-{k}.json")))
    except (OSError, ValueError):
        return None

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        i = p * (len(xs) - 1)
        lo, hi = int(i), min(int(i) + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)
    return q(0.25), q(0.5), q(0.75)

results = {(s, k): load(s, k) for s in ("base", "change") for k in range(1, pairs + 1)}
print(f"workload {workload}: {pairs} pairs")
for (side, k), r in sorted(results.items(), key=lambda x: (x[0][1], x[0][0])):
    gate = "no result" if r is None else f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
    print(f"  pair {k:2} {side:6} {gate}")
print()
print(f"{'metric':28} {'unit':5} {'base q25/med/q75':>32} {'change q25/med/q75':>32} {'ratio':>7} {'wins':>6}")
for m in spec["end_to_end"]:
    name, better = m["name"], m["better"]
    base, change, wins, n = [], [], 0, 0
    for k in range(1, pairs + 1):
        b, c = results[("base", k)], results[("change", k)]
        bv = b and b["metrics"].get(name, {}).get("value")
        cv = c and c["metrics"].get(name, {}).get("value")
        if bv is None or cv is None:
            continue
        base.append(bv)
        change.append(cv)
        n += 1
        wins += (cv < bv) if better == "lower" else (cv > bv)
    if not n:
        continue
    bq, cq = quartiles(base), quartiles(change)
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    print(f"{name:28} {m['unit']:5} {fmt(bq):>32} {fmt(cq):>32} {ratio:7.3f} {wins:>3}/{n}")
PY
echo "runs kept in $dir/runs" >&2
