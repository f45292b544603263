#!/usr/bin/env bash
# Alternating base/change pairs of the ee-serve benchmark suite.
#
# Usage: scripts/bench-pairs.sh --base <rev> --workload W --seeds A-B
#                               [--seconds S] [--trace 0|1] [--claim METRIC]
#
# The change side is the working tree this script lives in, uncommitted
# edits included; the base side is <rev>, exported with `git archive`
# under $TMPDIR (nothing is written to .git) and removed on exit. Each
# side builds into its own CARGO_TARGET_DIR (the change side: $CARGO_TARGET_DIR,
# default `target`; the base side: a fresh one under $TMPDIR, so expect
# one cold release build). After one discarded 1 s run per side (build +
# warm-up), every seed A..B runs crates/bench/src/bin/suite/run.sh on
# both sides with the same seed — base first on even pairs, change
# first on odd ones — printing one line per run. The summary gives, per
# metric, each side's median and quartiles, the change's wins over the
# pairs (ties count for neither; which way is better comes from
# BENCHMARK.json, default lower), whether the median gap exceeds the
# base's interquartile range, the median of the per-seed differences
# (change minus base; also as a share of the base median) with how many
# of those differences are negative and positive, and the correct/failed
# totals. The paired differences are for reading only: a host whose
# speed drifts during the set moves both sides' medians, and a per-seed
# difference cancels that drift; no verdict or claim uses them. Then one
# verdict per `end_to_end` metric of BENCHMARK.json, against its `bound`
# (a fraction of the base median):
#   regressed   the change's median is worse than the base's by more
#               than bound;
#   unresolved  the base's IQR/median exceeds bound (too noisy to tell),
#               unless every change run beats every base run;
#   ok          otherwise.
# With --claim METRIC, a last line `claim METRIC: met|not met` applies
# the rule for claiming a gain: the change wins at least 9 of every 10
# pairs (ties count for neither side), and its median beats the base's
# (direction from BENCHMARK.json) by more than the base's interquartile
# range.
# Exits 1 if any run failed its correctness verdict.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    sed -n '4,5p' "$0" | sed 's/^# //'
}

base='' workload='' seeds='' seconds=4 trace=0 claim=''
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base=${2:?}; shift 2 ;;
        --workload) workload=${2:?}; shift 2 ;;
        --seeds) seeds=${2:?}; shift 2 ;;
        --seconds) seconds=${2:?}; shift 2 ;;
        --trace) trace=${2:?}; shift 2 ;;
        --claim) claim=${2:?}; shift 2 ;;
        -h | --help) usage; exit 0 ;;
        *) echo "bench-pairs: unknown argument $1" >&2; usage >&2; exit 2 ;;
    esac
done
if [ -z "$base" ] || [ -z "$workload" ] || [ -z "$seeds" ]; then
    usage >&2
    exit 2
fi
if ! [[ $seeds =~ ^([0-9]+)-([0-9]+)$ ]] || ((BASH_REMATCH[1] > BASH_REMATCH[2])); then
    echo "bench-pairs: --seeds wants A-B with A <= B, got $seeds" >&2
    exit 2
fi
first=${BASH_REMATCH[1]} last=${BASH_REMATCH[2]}
rev=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

declare -A dir=([base]="$tmp/base" [change]="$root")
declare -A target=([base]="$tmp/target-base" [change]="${CARGO_TARGET_DIR:-$root/target}")

# run <side> <seed> <seconds>: the run's result JSON line (empty if it
# printed none); build and progress output goes to $tmp/<side>.log.
run() {
    (cd "${dir[$1]}" && CARGO_TARGET_DIR="${target[$1]}" \
        bash crates/bench/src/bin/suite/run.sh --workload "$workload" --seed "$2" \
        --seconds "$3" --trace "$trace" 2>>"$tmp/$1.log" | tail -1) || true
}

for side in base change; do
    echo "bench-pairs: building and warming $side (${dir[$side]})" >&2
    if [ -z "$(run "$side" "$first" 1)" ]; then
        echo "bench-pairs: $side produced no result; log:" >&2
        tail -20 "$tmp/$side.log" >&2
        exit 1
    fi
done

echo "base $rev, change $root, workload $workload, seeds $seeds, ${seconds}s, trace $trace"
for ((seed = first; seed <= last; seed++)); do
    if (((seed - first) % 2 == 0)); then order='base change'; else order='change base'; fi
    for side in $order; do
        line=$(run "$side" "$seed" "$seconds")
        printf '%s\t%s\t%s\n' "$side" "$seed" "$line" >>"$tmp/runs.tsv"
        printf '%-6s seed=%-4s %s\n' "$side" "$seed" "${line:-<no result>}"
    done
done

python3 - "$tmp/runs.tsv" "$root/BENCHMARK.json" "$claim" <<'EOF'
import json, statistics, sys

runs = {"base": {}, "change": {}}
for row in open(sys.argv[1]):
    side, seed, line = row.rstrip("\n").split("\t", 2)
    try:
        runs[side][seed] = json.loads(line)
    except ValueError:
        runs[side][seed] = None

spec = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for k in ("end_to_end", "per_layer") for m in spec.get(k, [])}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def value(r, name):
    m = (r or {}).get("metrics", {}).get(name)
    return m["value"] if m else None

names = sorted({n for side in runs.values() for r in side.values() if r for n in r["metrics"]})
seeds = sorted(set(runs["base"]) & set(runs["change"]), key=int)
print()
print(f"{'metric':<34} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} {'delta':>8} {'wins':>7}  gap>IQR"
      f"  {'paired delta':>22} {'-/+':>7}")
for name in names:
    b = [value(runs["base"][s], name) for s in seeds]
    c = [value(runs["change"][s], name) for s in seeds]
    pairs = [(x, y) for x, y in zip(b, c) if x is not None and y is not None]
    if not pairs:
        continue
    lower = better.get(name, "lower") == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    bq1, bmed, bq3 = quartiles([x for x, _ in pairs])
    cq1, cmed, cq3 = quartiles([y for _, y in pairs])
    delta = f"{100 * (cmed - bmed) / bmed:+.1f}%" if bmed else "n/a"
    gap = "yes" if abs(cmed - bmed) > bq3 - bq1 else "no"
    diffs = [y - x for x, y in pairs]
    dmed = statistics.median(diffs)
    paired = f"{dmed:+.4g}" + (f" ({100 * dmed / bmed:+.1f}%)" if bmed else "")
    signs = f"{sum(d < 0 for d in diffs)}/{sum(d > 0 for d in diffs)}"
    print(f"{name:<34} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<30} "
          f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<30} {delta:>8} {f'{wins}/{len(pairs)}':>7}  {gap:<7}"
          f"  {paired:>22} {signs:>7}")

print()
for m in spec.get("end_to_end", []):
    name, bound = m["name"], m["bound"]
    pairs = [(value(runs["base"][s], name), value(runs["change"][s], name)) for s in seeds]
    b = [x for x, y in pairs if x is not None and y is not None]
    c = [y for x, y in pairs if x is not None and y is not None]
    if not b:
        print(f"verdict {name}: unresolved (no paired runs)")
        continue
    lower = m.get("better", "lower") == "lower"
    bq1, bmed, bq3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    worse = ((cmed - bmed) if lower else (bmed - cmed)) / bmed if bmed else 0.0
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    beats_all = max(c) < min(b) if lower else min(c) > max(b)
    if worse > bound:
        verdict = "regressed"
    elif spread > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "ok"
    print(f"verdict {name}: {verdict} (median {100 * worse:+.1f}% in the worse direction, "
          f"base IQR/median {100 * spread:.1f}%, bound {100 * bound:.0f}%)")

claim = sys.argv[3]
if claim:
    pairs = [(value(runs["base"][s], claim), value(runs["change"][s], claim)) for s in seeds]
    pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
    met = False
    if pairs:
        lower = better.get(claim, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in pairs)
        bq1, bmed, bq3 = quartiles([x for x, _ in pairs])
        _, cmed, _ = quartiles([y for _, y in pairs])
        gain = (bmed - cmed) if lower else (cmed - bmed)
        met = 10 * wins >= 9 * len(pairs) and gain > bq3 - bq1
    print(f"claim {claim}: {'met' if met else 'not met'}")

bad = 0
for side in ("base", "change"):
    rs = list(runs[side].values())
    correct = sum(bool(r and r.get("correct")) for r in rs)
    failed = sum((r or {}).get("failed", 0) for r in rs)
    attempted = sum((r or {}).get("attempted", 0) for r in rs)
    bad += len(rs) - correct
    print(f"{side}: {correct}/{len(rs)} runs correct, {failed} of {attempted} operations failed")
sys.exit(1 if bad else 0)
EOF
