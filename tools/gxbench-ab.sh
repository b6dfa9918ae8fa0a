#!/bin/sh
# gxbench-ab.sh: parent against change, the way crates/benchmark/README.md
# ("Comparing two commits") says a speed claim is measured.
#
#   1. export the base revision into a scratch directory (git archive);
#   2. build gxbench on both sides with the command line of /BENCHMARK.json
#      (cargo ... --manifest-path crates/benchmark/Cargo.toml --bin gxbench),
#      each into its own target directory, once;
#   3. make N alternating pairs of runs (which side goes first alternates),
#      either `gxbench run` (all six workloads, end-to-end + per-layer) or,
#      with -w, `gxbench --workload W --trace T` (-t 0, the default:
#      end-to-end only, ~25 s; -t all: end-to-end and per-layer, so one
#      workload's pairs carry the rows a claim locates its saving in).
#      `-w service_mix` always runs `-t all` and refuses `-t 0`: its
#      job_latency_* rows are per-layer rows, and `gxbench compare` needs
#      them. There is no `-t 1`: a per-layer-only document has no
#      end_to_end section, so `compare` cannot read it;
#   4. `gxbench compare base/ change/`;
#   5. for `gxbench run` sets, per side: how many runs ended `ok: false` and
#      the min..max of every figure the shape guards measured (compare
#      reads neither, and a claim must report both).
#
# Every set also names the change side's two vector tiers: the lane tier,
# the width the DP fallback's lane kernel runs at (avx512bw+vl or portable),
# as gx_align::LaneTier::host reports it through gx-align's lane_tier
# example, and the scan tier, the width of the DRAM model's scheduler
# (avx512f+vl or portable), as gx_memsim::ScanTier::host reports it through
# gx-memsim's scan_tier example. noisy_sw's numbers depend on the first,
# clean_nmsl's and service_mix's on the second, so a set says which vector
# unit it had; the tiers are also written to <set>/lane-tier and
# <set>/scan-tier.
#
# The change side is the working tree this script lives in; the base side
# is a revision of the same repository (default HEAD: uncommitted work
# against its parent; after committing, pass -r HEAD~1). A claim needs the
# default ten pairs at the default seed and again at the held-out seed:
#
#   tools/gxbench-ab.sh                  # seed 20260930
#   tools/gxbench-ab.sh -s 7741001       # held-out seed
#
# Run nothing else on the box meanwhile. No network is used. Exit status is
# that of `gxbench compare`: 1 on any `worse` row, 2 on unusable input.
set -eu

pairs=10
seed=20260930
workload=
trace=
rev=HEAD
dir=

usage() {
    echo "usage: $0 [-n pairs] [-s seed] [-w workload [-t 0|all]] [-r base-rev] [-d scratch-dir]" >&2
    exit 2
}

while getopts n:s:w:t:r:d: opt; do
    case $opt in
    n) pairs=$OPTARG ;;
    s) seed=$OPTARG ;;
    w) workload=$OPTARG ;;
    t) trace=$OPTARG ;;
    r) rev=$OPTARG ;;
    d) dir=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 0 ] || usage
case $trace in '' | 0 | all) ;; *) usage ;; esac
if [ "$workload" = service_mix ]; then
    if [ "$trace" = 0 ]; then
        echo "$0: -w service_mix needs -t all: its job_latency_* rows are" \
            "per-layer rows, which -t 0 does not measure, and gxbench compare" \
            "needs them" >&2
        exit 2
    fi
    trace=all
fi
trace=${trace:-0}

repo=$(cd "$(dirname "$0")/.." && pwd)
dir=${dir:-$repo/.gxbench-ab}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
sets=$dir/sets/seed-$seed${workload:+-$workload}
[ "$trace" = 0 ] || sets=$sets-trace-$trace

# Both sides are built by the same command, from their own checkout, into
# their own target directory.
build() { # <checkout> <target-dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --quiet \
        --manifest-path crates/benchmark/Cargo.toml --bin gxbench)
}

base_commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
if [ "$(cat "$dir/base.rev" 2>/dev/null)" != "$base_commit" ]; then
    rm -rf "$dir/base-src" "$dir/base.rev"
    mkdir -p "$dir/base-src"
    git -C "$repo" archive "$base_commit" | tar -x -C "$dir/base-src"
    echo "$base_commit" >"$dir/base.rev"
fi
echo "gxbench-ab: base $base_commit, change: working tree of $repo" >&2
build "$dir/base-src" "$dir/base-target"
build "$repo" "$dir/change-target"
# The tiers the change side's DP fallback and DRAM scheduler run on this
# CPU, as the code reports them.
tier=$(cd "$repo" && CARGO_TARGET_DIR=$dir/change-target cargo run --release --quiet \
    -p gx-align --example lane_tier)
scan_tier=$(cd "$repo" && CARGO_TARGET_DIR=$dir/change-target cargo run --release --quiet \
    -p gx-memsim --example scan_tier)
echo "gxbench-ab: lane tier $tier, scan tier $scan_tier" >&2
base=$dir/base-target/release/gxbench
change=$dir/change-target/release/gxbench

# One run of one side into <out>/result.json.
measure() { # <gxbench> <out>
    mkdir -p "$2"
    if [ -z "$workload" ]; then
        "$1" run --seed "$seed" --out "$2" >/dev/null || true
    else
        # The single-workload form prints its detail as the line before the
        # result line (with whichever metric sections -t produced); wrapped
        # in a "workloads" array it is the document `gxbench compare` reads.
        "$1" --workload "$workload" --seed "$seed" --trace "$trace" >"$2/stdout" || true
        tail -n 2 "$2/stdout" | head -n 1 |
            sed -e 's/^{"gxbench_detail":/{"workloads":[/' -e 's/}$/]}/' >"$2/result.json"
    fi
}

rm -rf "$sets"
mkdir -p "$sets"
echo "$tier" >"$sets/lane-tier"
echo "$scan_tier" >"$sets/scan-tier"
i=1
while [ "$i" -le "$pairs" ]; do
    n=$(printf %02d "$i")
    if [ $((i % 2)) -eq 1 ]; then
        measure "$base" "$sets/base/$n"
        measure "$change" "$sets/change/$n"
    else
        measure "$change" "$sets/change/$n"
        measure "$base" "$sets/base/$n"
    fi
    echo "gxbench-ab: pair $n of $pairs done" >&2
    i=$((i + 1))
done

# The spread of one side's shape guards, straight off its result.json files.
guards() { # <side>
    runs=$(find "$sets/$1" -mindepth 1 -maxdepth 1 -type d | wc -l)
    ok=$(grep -l '^  "ok": true' "$sets/$1"/*/result.json 2>/dev/null | wc -l)
    echo "gxbench-ab: $1: $((runs - ok)) of $runs runs ended ok: false"
    sed -n 's/^ *"rule": "\(.*\)",$/\1/p' "$sets/$1"/*/result.json | sort -u |
        while IFS= read -r rule; do
            # "measured" is two lines below its rule: Some(x), or [Some(x), ...].
            grep -h -F -A 2 "\"rule\": \"$rule\"" "$sets/$1"/*/result.json |
                sed -n 's/^ *"measured": "\(.*\)"$/\1/p' |
                sed -e 's/[^0-9. ]//g' -e 's/\(\.[0-9]\{3\}\)[0-9]*/\1/g' >"$sets/$1.measured"
            spread=
            col=1
            while [ "$col" -le "$(head -n 1 "$sets/$1.measured" | wc -w)" ]; do
                spread="$spread $(cut -d ' ' -f "$col" "$sets/$1.measured" | sort -n |
                    sed -n -e '1p' -e '$p' | tr '\n' ' ' | sed -e 's/ $//' -e 's/ /../')"
                col=$((col + 1))
            done
            echo "gxbench-ab: $1:   $rule:${spread:- not measured}"
        done
    rm -f "$sets/$1.measured"
}

status=0
echo "gxbench-ab: lane tier $tier, scan tier $scan_tier"
"$change" compare "$sets/base" "$sets/change" || status=$?
if [ -z "$workload" ]; then
    guards base
    guards change
fi
exit "$status"
