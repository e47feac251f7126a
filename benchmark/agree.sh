#!/usr/bin/env bash
# Run the suite twice on the same commit and fail unless every end-to-end
# row of the two records agrees within its bound: a regression verdict in
# either direction is a disagreement. Extra arguments (--seed, --smoke)
# go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."
a=benchmark/results/agree_a.json
b=benchmark/results/agree_b.json
bash benchmark/run.sh --out "$a" "$@"
bash benchmark/run.sh --out "$b" "$@"
status=0
bash benchmark/run.sh --compare "$a" "$b" || status=1
bash benchmark/run.sh --compare "$b" "$a" > /dev/null || status=1
if [ "$status" -ne 0 ]; then
  echo "agree.sh: the two runs disagree beyond a bound" >&2
fi
exit "$status"
