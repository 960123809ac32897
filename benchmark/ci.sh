#!/usr/bin/env bash
# CI for the benchmark crate: formatting, lints, self-tests, the `verify`
# subcommand and a smoke run of all four workloads (both passes) whose last
# line must be valid JSON ending in "claim": null.
#
# Not wired into .github/workflows/ci.yml: that file is outside this
# package's directory; adding `benchmark/ci.sh` there is a one-line change.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
cargo build --release --offline --quiet
cargo run --release --offline --quiet -- verify
mkdir -p out
cargo run --release --offline --quiet -- run --smoke | tee out/smoke.txt | grep -E '^(workload|  results|  check)'
tail -n 1 out/smoke.txt | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["claim"] is None
assert len(doc["runs"]) == 8, len(doc["runs"])
assert all(run["result"]["correct"] for run in doc["runs"])
print("smoke: %d runs, JSON ok" % len(doc["runs"]))
'
