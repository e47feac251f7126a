#!/usr/bin/env bash
# List every `pub` item that no other package names, one `file:line name`
# a line: the candidates for `pub(crate)` or deletion. The definition is
# the census's own (tests/census.rs), so this prints exactly the items its
# `unreferenced` column counts. Informational: always exits 0.
set -uo pipefail
cd "$(dirname "$0")/.."

cargo test -q --test census unreferenced_pub_listing -- --exact --nocapture 2>/dev/null \
  | grep -E '^[^ ]+:[0-9]+ ' || true
exit 0
