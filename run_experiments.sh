#!/bin/sh
# Regenerate every paper table and figure at the paper's arguments (each
# experiment's defaults): text to results/<name>.txt, JSON to
# results/<stem>.json. Full fidelity takes ~30 min.
set -e
cd "$(dirname "$0")"
mkdir -p results
cargo build --release -p tero-bench
for name in \
  fig04_gaming_vs_network \
  tab03_location_errors \
  tab04_fig05_ocr_errors \
  fig05b_glitch_audit \
  fig06_ocr_examples \
  fig07_continents \
  fig08_unevenness \
  fig02_latency_clusters \
  fig09_regional_latency \
  fig10_us_doughnuts \
  fig11_eu_doughnuts \
  fig12_underserved \
  fig13_interarrival \
  fig15_sensitivity \
  fig16_maxspikes \
  fig17_18_anomaly_baselines \
  tab05_behavior_probit \
  fig_anecdote_shared_event \
  tab06_07_servers \
  summary_volume
do
  echo "=== $name ==="
  target/release/experiments "$name" --out results > "results/$name.txt"
  cat "results/$name.txt"
done
echo "all experiments regenerated."
