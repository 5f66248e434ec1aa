#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark between a base
# revision and the working tree.
#
# Usage: scripts/perf_ab.sh <base-ref> <workload> [pairs]
#
# Checks out <base-ref> and the working tree into two git worktrees,
# each with its own CARGO_TARGET_DIR, and runs
# `python3 perfbench/run.py --trace 0` on both in [pairs] (default 10)
# interleaved pairs. Both runs of pair i use seed PERF_AB_SEED + i, and
# the side that runs first alternates from pair to pair. The working
# tree side is HEAD plus every staged or unstaged edit to tracked files
# (`git stash create`, which touches neither the index nor the files);
# `git add` new files first, or they are left out.
#
# Prints, for every end-to-end metric that BENCHMARK.json declares,
# each side's median and interquartile range, how many pairs the
# change won, and the ratio of the medians; "gain" marks a metric
# whose change won at least 9 in 10 pairs by more than the base's
# interquartile range. Exits 1 when a median worsens past that
# metric's `bound`, when the change fails a larger share of operations
# than the base, or when one of its runs is incorrect; exits 2 on a
# usage error or a run that gives no result. BENCHMARK.json is only
# read.
#
# Environment:
#   PERF_AB_SEED     seed of the first pair (default 1)
#   PERF_AB_SECONDS  seconds per run (default: run_seconds from
#                    BENCHMARK.json)
#   PERF_AB_DIR      directory for the worktrees, build trees, logs and
#                    results.jsonl (default: a new temporary directory).
#                    The worktrees are removed on exit; the rest stays.
set -euo pipefail

usage() {
  echo "usage: $0 <base-ref> <workload> [pairs]" >&2
  exit 2
}

[[ $# -ge 2 && $# -le 3 ]] || usage
base_ref=$1
workload=$2
pairs=${3:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
[[ -f $spec ]] || { echo "perf_ab: no $spec" >&2; exit 2; }
seed0=${PERF_AB_SEED:-1}
seconds=${PERF_AB_SECONDS:-$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$spec")}

base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
change_sha=$(git -C "$root" stash create)
[[ -n $change_sha ]] || change_sha=$(git -C "$root" rev-parse HEAD)

dir=${PERF_AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")}
mkdir -p "$dir"
results="$dir/results.jsonl"
: >"$results"

cleanup() {
  for side in base change; do
    if [[ -d $dir/$side ]]; then
      git -C "$root" worktree remove --force "$dir/$side" || true
    fi
  done
  git -C "$root" worktree prune
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$dir/base" "$base_sha"
git -C "$root" worktree add --quiet --detach "$dir/change" "$change_sha"
echo "perf_ab: base $base_sha, change $change_sha, $workload," \
  "$pairs pairs x $seconds s from seed $seed0, in $dir" >&2

# run <side> <pair> <seed>: one measurement, its result line appended
# to results.jsonl tagged with side, pair and seed.
run() {
  local side=$1 pair=$2 seed=$3 out
  echo "perf_ab: pair $pair seed $seed $side" >&2
  if ! out=$(cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side-target" \
      python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>>"$dir/$side.log"); then
    echo "perf_ab: $side run failed, see $dir/$side.log" >&2
    exit 2
  fi
  python3 -c '
import json, sys
side, pair, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
result = json.loads(sys.stdin.read().strip().splitlines()[-1])
print(json.dumps({"side": side, "pair": pair, "seed": seed,
                  "result": result}))' "$side" "$pair" "$seed" \
    <<<"$out" >>"$results"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run base "$i" "$seed"
    run change "$i" "$seed"
  else
    run change "$i" "$seed"
    run base "$i" "$seed"
  fi
done

python3 - "$spec" "$results" "$workload" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2])]
workload = sys.argv[3]
by_pair = {}
for r in rows:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
pairs = [by_pair[p] for p in sorted(by_pair)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

status = 0
share = {}
for side in ("base", "change"):
    failed = sum(p[side]["failed"] for p in pairs)
    attempted = sum(p[side]["attempted"] for p in pairs)
    wrong = sum(not p[side]["correct"] for p in pairs)
    share[side] = failed / attempted if attempted else 0.0
    print(f"{workload} {side}: {failed} failed of {attempted} ops, "
          f"{wrong} incorrect runs")
    if side == "change" and wrong:
        status = 1
if share["change"] > share["base"]:
    status = 1

print(f"{'metric':<18} {'base median [IQR]':>28} "
      f"{'change median [IQR]':>28} {'wins':>6} {'ratio':>7}  verdict")
for m in spec["end_to_end"]:
    name, better, bound = m["name"], m["better"], m["bound"]
    vals = {s: [p[s]["metrics"][name]["value"] for p in pairs
                if name in p[s]["metrics"]] for s in ("base", "change")}
    if not vals["base"] or len(vals["base"]) != len(vals["change"]):
        print(f"{name:<18} missing from some runs")
        status = 1
        continue
    b = quartiles(vals["base"])
    c = quartiles(vals["change"])
    if better == "lower":
        wins = sum(y < x for x, y in zip(vals["base"], vals["change"]))
        worse = (c[1] - b[1]) / b[1] if b[1] else 0.0
    else:
        wins = sum(y > x for x, y in zip(vals["base"], vals["change"]))
        worse = (b[1] - c[1]) / b[1] if b[1] else 0.0
    ratio = c[1] / b[1] if b[1] else float("nan")
    verdict = "ok"
    # A gain counts when the change wins at least 9 in 10 pairs and its
    # median moves by more than the base's interquartile range.
    if wins >= 0.9 * len(pairs) and -worse * b[1] > b[2] - b[0]:
        verdict = "gain"
    if worse > bound:
        verdict = f"WORSE by {worse:.1%} (bound {bound:.0%})"
        status = 1
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
    print(f"{name:<18} {fmt(b):>28} {fmt(c):>28} "
          f"{wins:>3}/{len(pairs):<2} {ratio:>7.3f}  {verdict}")
sys.exit(status)
EOF
