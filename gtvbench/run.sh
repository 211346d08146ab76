#!/usr/bin/env bash
# Build the benchmark, run every workload (untraced and traced) with the
# default seed, then read the run against the first recorded numbers in
# baseline.json beside this file. Exits non-zero on a failed output check
# or a metric outside its bound. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-gtvbench/target/gtvbench.json}"
mkdir -p "$(dirname "$out")"
run() { cargo run --release --quiet --offline --manifest-path gtvbench/Cargo.toml -- "$@"; }

run --seed 12 --out "$out"
run --compare gtvbench/baseline.json "$out"
