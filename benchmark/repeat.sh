#!/usr/bin/env bash
# Repeatability check: the protocol BENCHMARK.json's driver applies.
#
# Runs every workload untraced on N seeds (default 10, seeds 1..N), and for
# each (workload, end-to-end metric) prints the median, the distance between
# the first and third quartile as a share of the median, and the metric's
# bound from ../BENCHMARK.json. With --twice it runs a second set and prints
# how far the second median is worse than the first. A spread should stay
# below a third of its bound.
#
#   benchmark/repeat.sh [--seeds N] [--twice] [--seconds S] [--workload NAME]
set -euo pipefail
cd "$(dirname "$0")"

seeds=10
sets=1
seconds=""
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --twice) sets=2; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --quiet
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

BIN="$target/release/clash-benchmark" SEEDS="$seeds" SETS="$sets" SECONDS_ARG="$seconds" ONLY="$only" \
python3 - <<'EOF'
import json, os, statistics, subprocess, sys

spec = json.load(open("../BENCHMARK.json"))
seconds = os.environ["SECONDS_ARG"] or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"] if os.environ["ONLY"] in ("", w["name"])]
seeds = range(1, int(os.environ["SEEDS"]) + 1)
sets = int(os.environ["SETS"])

def run(workload, seed):
    out = subprocess.run(
        [os.environ["BIN"], "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], f"{workload} seed {seed}: a harness check failed"
    return {name: m["value"] for name, m in result["metrics"].items()}

medians = {}
bad = 0
for s in range(sets):
    for workload in workloads:
        runs = [run(workload, seed) for seed in seeds]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            median = statistics.median(values)
            line = f"set {s + 1} {workload:<20} {name:<16} median {median:<14.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
                bad += spread > bound and name != "setup_s"
                line += f" spread {spread:7.4f} bound {bound:5.2f}{flag}"
            if (workload, name) in medians:
                first = medians[(workload, name)]
                worse = (first - median) / first if metric["better"] == "higher" else (median - first) / first
                flag = "" if worse <= bound else "  > BOUND"
                bad += worse > bound
                line += f" | second median worse by {worse:+.4f}{flag}"
            else:
                medians[(workload, name)] = median
            print(line, flush=True)
            print("      values " + " ".join(f"{v:.5g}" for v in sorted(values)), flush=True)
sys.exit(1 if bad else 0)
EOF
