#!/usr/bin/env bash
# The one command: build the harness (offline, a package of its own) and
# run it from the repository root. With no arguments it runs all six
# workloads and writes benchmark/results/BENCH_<date>.json; the driver
# appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/tero-benchmark" "$@"
