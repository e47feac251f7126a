#!/usr/bin/env bash
# Tier-1 gate plus lint hygiene, in the order a failure is cheapest to
# surface. Run from anywhere; everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples"
cargo build --release --examples

echo "==> cargo test (facade suites; tests/determinism.rs holds the run-condition tests: idle windows run no stage, a locate budget spent through idle windows, a kill after ingest with tasks queued and with a tag list grown, generated window schedules)"
cargo test -q

echo "==> workspace unit tests (retry/breaker walk, span-fed stage time, ledger, download schedule and width, download.* names registered at instrument and none by a run, online clean view equals the batch detector, OCR and grain kernels bit for bit, CDN head vs fetch, pool order, the caller as worker 0 and its panic, sketch codec against its tree reference, streaming PELT equals the batch baseline, cache miss interleavings, JSON nesting cap, fault plans, geoparsing, the network simulator)"
# `cargo test` above covers the root package only; the contracts the
# facade tests lean on are pinned in the crates' own unit tests. Every
# other workspace member runs — the vendored shims and tero-bench
# included — so a crate added later cannot be missed.
cargo test -q --workspace --exclude tero

echo "==> benchmark harness (smoke-sized run of all six workloads, then its own tests)"
# The harness is a package of its own; it builds into the same target/
# and checks every workload's outputs, not its speed.
bash benchmark/smoke.sh
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target
# Every harness build rewrites its lock file (it still lists crate edges
# that are gone) and a change that claims a gain may not edit benchmark/.
git diff --quiet -- benchmark/Cargo.lock || git checkout -- benchmark/Cargo.lock

trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT

# Run an example twice with the same arguments and require identical
# stdout. The outputs stay in $trace_dir/<label>.1.out and .2.out for
# the checks that follow; `{}` in an argument is the run's own file stem
# ($trace_dir/<label>.1, .2), for an example that also writes a file.
same_twice() {
  local label="$1" example="$2" run
  shift 2
  for run in 1 2; do
    cargo run --quiet --release --example "$example" -- "${@//\{\}/$trace_dir/$label.$run}" \
      > "$trace_dir/$label.$run.out" 2>/dev/null
  done
  cmp "$trace_dir/$label.1.out" "$trace_dir/$label.2.out" \
    || { echo "FAIL: $example stdout differs across identical runs"; exit 1; }
}

echo "==> OCR bits (fig06_ocr_examples stdout against results/)"
# Every reading Fig 6 prints — three engines and the vote on each example
# crop — follows from the OCR kernels' output pixels: a kernel change that
# moves one pixel's rounding shows here. A change that means to move them
# regenerates the file in its own diff.
cargo run --quiet --release -p tero-bench --bin fig06_ocr_examples > "$trace_dir/fig06.out"
cmp "$trace_dir/fig06.out" results/fig06_ocr_examples.txt \
  || { echo "FAIL: fig06_ocr_examples stdout differs from results/fig06_ocr_examples.txt"; exit 1; }

echo "==> trace determinism (trace_explore twice, byte-compare + JSON parse)"
same_twice trace trace_explore 7 "{}.json"
cmp "$trace_dir/trace.1.json" "$trace_dir/trace.2.json" \
  || { echo "FAIL: chrome trace differs across identical runs"; exit 1; }
# The JSON must round-trip through the workspace's own serde_json.
cargo test -q --test determinism chrome_trace_parses -- --exact >/dev/null \
  || { echo "FAIL: chrome trace is not valid JSON"; exit 1; }

echo "==> window determinism (trace_explore single-shot vs 4 and 1440 windows, funnel compare)"
# The third argument drives the run through Tero::run_window in N equal
# slices and prints the sample funnel only; the funnel must be
# byte-identical between the single-shot run and any schedule.
# 1440 slices of the 2-day world are 2-minute windows, most of which
# ingest nothing: the commits that write only what moved run here.
cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/w1.json" 1 > "$trace_dir/w1.out"
for n in 4 1440; do
  cargo run --quiet --release --example trace_explore -- 7 "$trace_dir/w$n.json" "$n" > "$trace_dir/w$n.out"
  cmp "$trace_dir/w1.out" "$trace_dir/w$n.out" \
    || { echo "FAIL: sample funnel differs between single-shot and $n-window runs"; exit 1; }
done

echo "==> serving determinism (serve_explore twice + 4 and 1440 windows, stdout byte-compare)"
# Everything serve_explore prints derives from the committed sketches
# (byte-identical across schedules by contract) and seed-pinned query
# streams; only stderr carries run-specific facts like the serving
# version. Stdout must be byte-identical run-to-run AND between the
# single-shot and a 4- or 1440-window schedule. The served family has
# one writer, the per-window aggregation pass: 1440 slices of the 3-day
# world are 3-minute windows, where that pass runs hundreds of times
# and must still leave exactly the single-shot run's bytes.
same_twice serve serve_explore 7
# The served answers' bits, pinned: a change that moves any of them
# edits this line in its own diff.
pin="answer checksum 0x4e504a2d383dff38"
grep -q "$pin$" "$trace_dir/serve.1.out" \
  || { echo "FAIL: serve_explore 7 no longer prints '$pin'"; exit 1; }
for n in 4 1440; do
  cargo run --quiet --release --example serve_explore -- 7 "$n" > "$trace_dir/serve.w$n.out" 2>/dev/null
  cmp "$trace_dir/serve.1.out" "$trace_dir/serve.w$n.out" \
    || { echo "FAIL: served answers differ between single-shot and $n-window runs"; exit 1; }
done

echo "==> online cleaning determinism (streaming_clean twice, stdout byte-compare)"
# The example drives 1-day windows and prints the provisional serving
# view after each one plus the canonical view at finalize — all derived
# from committed sketch bytes and engine:clean:cursors, so two runs
# of the same seed must produce identical stdout (docs/CLEANING.md).
same_twice clean streaming_clean 7

echo "==> budgeted locate determinism (locate_budget twice, stdout byte-compare)"
# The example drives 1-day windows under a tight per-window API budget
# and prints the coverage ramp — spend, carry-over queue, served
# canonical/provisional marker counts and an FNV-1a digest of every
# served sketch and marker per window, so the budgeted mid-run serving
# bytes are byte-checked too — all derived from
# committed engine:locate:* / engine:serve:* state and deterministic
# counters, so two runs of the same seed must produce identical stdout
# (docs/AGGREGATION.md).
same_twice locate locate_budget 7

echo "==> sharded topology (sharded_explore twice under the stock NetFault plan, stdout byte-compare)"
# The example runs 2 engines over the 3-shard store mesh under the
# default NetFault schedule (frame loss/delay, one partition, one
# primary kill), asserts the merged report is byte-identical to a
# fault-free single-process run of the same world, and prints the
# injected-fault and recovery counters — all deterministic for a fixed
# seed, so two runs must produce identical stdout: the sharded run is
# replay-deterministic under faults.
same_twice sharded sharded_explore 4242
# The byte-compared run must go through a resync: each copies one
# engine's own state between a shard's hosts, which the merge then
# proves lost nothing.
grep -Eq "^net.resyncs +[1-9][0-9]*$" "$trace_dir/sharded.1.out" \
  || { echo "FAIL: the stock-plan sharded run resynced nothing"; exit 1; }
# And the happy path: a quiet plan must recover nothing (the example
# prints the counters; failovers/timeouts are asserted zero here).
cargo run --quiet --release --example sharded_explore -- 4242 quiet > "$trace_dir/nq.out" 2>/dev/null
grep -q "^net.failovers  *0$" "$trace_dir/nq.out" \
  || { echo "FAIL: quiet sharded run performed a failover"; exit 1; }
grep -q "^net.timeouts  *0$" "$trace_dir/nq.out" \
  || { echo "FAIL: quiet sharded run timed out"; exit 1; }
# The quiet mesh's traffic, pinned: a change that moves what crosses the
# wire edits these lines in its own diff.
for pin in "net.requests 8734" "net.frames 18649" "net.bytes 67625907"; do
  grep -q "^${pin% *}  *${pin#* }$" "$trace_dir/nq.out" \
    || { echo "FAIL: quiet sharded run moved ${pin% *} off ${pin#* }"; exit 1; }
done

echo "==> ops console determinism (ops_console twice mid-fault, stdout byte-compare)"
# The console checks every host of a 3-shard mesh for reachability
# while the stock NetFault plan kills a primary and partitions a link,
# prints one health report per window, the latency-budget table, and
# the mesh trace summary. A reachability check sends no frame, draws no
# RNG and charges no simulated time, so monitoring must not perturb the
# run: two runs of the same seed must produce identical stdout.
same_twice ops ops_console 4242
# The console must see the injected fault and the recovery.
grep -q "partitioned" "$trace_dir/ops.1.out" \
  || { echo "FAIL: ops_console never observed the injected partition"; exit 1; }
grep -q "== latency budgets" "$trace_dir/ops.1.out" \
  || { echo "FAIL: ops_console printed no latency-budget table"; exit 1; }

echo "CI green."
