#!/usr/bin/env bash
# Whole suite at smoke sizes (same code paths and checks, under 30 s once
# built). Writes benchmark/results/smoke.json, which git ignores.
set -euo pipefail
cd "$(dirname "$0")/.."
exec bash benchmark/run.sh --smoke --out benchmark/results/smoke.json "$@"
