//! The machine-readable record: metric rows, the end-to-end catalogue
//! with its regression bounds, the per-workload JSON part a child process
//! hands to the suite, and the one-line result the driver reads.

use crate::stats::Summary;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric a user of the system would see.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// The `BENCHMARK.json` metric this row feeds. The driver wants every
    /// workload to report every end-to-end metric, so the per-family
    /// names here fold into family-neutral ones there (see
    /// [`contract_metrics`]); a unit test keeps the bounds equal.
    pub contract: Option<&'static str>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: Option<&'static str>,
) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
        contract,
    }
}

pub const E2E: [E2e; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Some("setup_s")),
    e2e("run_s", "s", Better::Lower, 0.25, None),
    e2e(
        "thumbs_per_s",
        "1/s",
        Better::Higher,
        0.25,
        Some("throughput_per_s"),
    ),
    e2e(
        "window_p50_ms",
        "ms",
        Better::Lower,
        0.25,
        Some("latency_p50_us"),
    ),
    e2e(
        "window_p99_ms",
        "ms",
        Better::Lower,
        0.25,
        Some("latency_tail_us"),
    ),
    e2e("finalize_s", "s", Better::Lower, 0.25, None),
    e2e(
        "qps_1_client",
        "1/s",
        Better::Higher,
        0.25,
        Some("throughput_per_s"),
    ),
    // Not in `BENCHMARK.json`: clients contending for the engine's lock
    // run at a rate that follows the host's noise (see `serve::e2e_rows`).
    e2e("qps", "1/s", Better::Higher, 0.25, None),
    e2e(
        "query_p50_us",
        "us",
        Better::Lower,
        0.25,
        Some("latency_p50_us"),
    ),
    e2e(
        "query_p99_us",
        "us",
        Better::Lower,
        0.25,
        Some("latency_tail_us"),
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.10,
        Some("peak_rss_mb"),
    ),
    // Any rise in failures is a regression: the bound is absolute zero.
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, None),
];

pub fn e2e_metric(name: &str) -> Option<&'static E2e> {
    E2E.iter().find(|m| m.name == name)
}

/// One reported metric. An end-to-end timing row reports the *floor* of
/// the run: every repetition times the same deterministic operations
/// (window calls, queries), each operation keeps its fastest occurrence
/// over all repetitions (`stats::lower_floor`), and the row is computed
/// from those. The host takes CPU away in bursts of milliseconds, which
/// come and go in phases of minutes and only ever add time: a whole
/// repetition is rarely clean, a single operation often is. The same figure
/// as each repetition alone saw it (median, min, max, count) is recorded
/// beside the floor.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub reps: Option<Summary>,
}

impl Row {
    /// `floor`, with the same figure of each repetition beside it.
    pub fn floor(name: &str, unit: &'static str, floor: f64, per_rep: &[f64]) -> Row {
        Row {
            name: name.into(),
            unit,
            value: floor,
            reps: Some(Summary::of(per_rep)),
        }
    }

    /// The median of `values`, for what has no floor: set-up time (repeated,
    /// but not the same warm work each time) and the `W`-client replay
    /// (whose fastest occurrence is scheduling luck, see `serve::e2e_rows`).
    pub fn median(name: &str, unit: &'static str, values: &[f64]) -> Row {
        let reps = Summary::of(values);
        Row {
            name: name.into(),
            unit,
            value: reps.median,
            reps: Some(reps),
        }
    }

    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Row {
        Row {
            name: name.into(),
            unit,
            value,
            reps: None,
        }
    }
}

pub fn row<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name)
}

/// Everything one workload process measured.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// End-to-end rows (untraced run) or per-layer rows (traced run).
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each (empty on a clean run).
    pub failures: Vec<String>,
    /// Facts about the run that are not metrics: repetitions, sample
    /// counts, the percentile the tail row stands for, checksums.
    pub facts: Vec<(&'static str, Value)>,
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn row_json(r: &Row) -> (String, Value) {
    let mut fields = vec![("value", Value::F64(r.value)), ("unit", text(r.unit))];
    if let Some(reps) = r.reps {
        fields.push(("median", Value::F64(reps.median)));
        fields.push(("min", Value::F64(reps.min)));
        fields.push(("max", Value::F64(reps.max)));
        fields.push(("n", Value::U64(reps.n as u64)));
    }
    (r.name.clone(), obj(fields))
}

impl Outcome {
    /// The part of the suite record this process contributes.
    pub fn part_json(&self) -> Value {
        obj(vec![
            ("workload", text(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failures",
                Value::Array(self.failures.iter().map(text).collect()),
            ),
            (
                "facts",
                Value::Object(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Object(self.rows.iter().map(row_json).collect()),
            ),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being every name `BENCHMARK.json` lists
    /// for this kind of run. A listed metric the run did not produce is an
    /// error, not a silent gap.
    pub fn contract_line(&self, benchmark: &Value) -> Result<String, String> {
        let available: Vec<(String, &'static str, f64)> = if self.traced {
            self.rows
                .iter()
                .map(|r| (r.name.clone(), r.unit, r.value))
                .collect()
        } else {
            contract_metrics(&self.rows)
        };
        let listed = benchmark[if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        }]
        .as_array()
        .ok_or("BENCHMARK.json lists no metrics")?;
        let mut metrics = Vec::new();
        for m in listed {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let unit = m["unit"].as_str().ok_or("metric without a unit")?;
            let (_, have_unit, value) = available
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("{}: run produced no `{name}`", self.workload))?;
            if *have_unit != unit {
                return Err(format!(
                    "`{name}` is in {have_unit}, BENCHMARK.json says {unit}"
                ));
            }
            if !value.is_finite() {
                return Err(format!("`{name}` is not a finite number"));
            }
            metrics.push((
                name.to_string(),
                obj(vec![("value", Value::F64(*value)), ("unit", text(unit))]),
            ));
        }
        let line = obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

/// Fold a workload's end-to-end rows into the family-neutral metrics of
/// `BENCHMARK.json`: thumbnails per second and one closed-loop client's
/// queries per second are both "throughput", a window or a query is the
/// unit operation whose latency
/// is reported, and the tail is the highest percentile the workload's
/// sample supports (p99 for `minute_windows` and the serve workloads,
/// the median elsewhere — see `stats::supported_percentile`).
pub fn contract_metrics(rows: &[Row]) -> Vec<(String, &'static str, f64)> {
    let get = |name: &str| row(rows, name).map(|r| r.value);
    let throughput = get("thumbs_per_s").or(get("qps_1_client"));
    let p50_us = get("window_p50_ms")
        .map(|ms| ms * 1e3)
        .or(get("query_p50_us"));
    let tail_us = get("window_p99_ms")
        .map(|ms| ms * 1e3)
        .or(get("query_p99_us"))
        .or(p50_us);
    [
        ("setup_s", "s", get("setup_s")),
        ("throughput_per_s", "1/s", throughput),
        ("latency_p50_us", "us", p50_us),
        ("latency_tail_us", "us", tail_us),
        ("peak_rss_mb", "MB", get("peak_rss_mb")),
    ]
    .into_iter()
    .filter_map(|(name, unit, v)| Some((name.to_string(), unit, v?)))
    .collect()
}

/// Print rows as an aligned table, every metric by name with its unit.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("-- {title}");
    for r in rows {
        match r.reps {
            Some(reps) => println!(
                "{:<34} {:>14.4} {:<6} (median {:.4}, min {:.4}, max {:.4}, n {})",
                r.name, r.value, r.unit, reps.median, reps.min, reps.max, reps.n
            ),
            None => println!("{:<34} {:>14.4} {}", r.name, r.value, r.unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn catalogue_bounds_match_benchmark_json() {
        let benchmark = benchmark_json();
        let listed = benchmark["end_to_end"].as_array().unwrap();
        for m in E2E.iter() {
            let Some(contract) = m.contract else { continue };
            let entry = listed
                .iter()
                .find(|e| e["name"] == contract)
                .unwrap_or_else(|| panic!("{contract} missing from BENCHMARK.json"));
            assert_eq!(entry["bound"].as_f64(), Some(m.bound), "{}", m.name);
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry["better"], better, "{}", m.name);
        }
        for entry in listed {
            let name = entry["name"].as_str().unwrap();
            assert!(
                E2E.iter().any(|m| m.contract == Some(name)),
                "{name} has no source row"
            );
        }
    }

    /// The driver runs the workloads `BENCHMARK.json` lists, which are some
    /// of the suite's (its time limit does not hold all six at a run length
    /// that steadies them), under the same names and reasons.
    #[test]
    fn benchmark_json_lists_workloads_of_the_suite() {
        let benchmark = benchmark_json();
        let listed = benchmark["workloads"].as_array().unwrap();
        assert!(listed.len() >= 2);
        for w in listed {
            let name = w["name"].as_str().unwrap();
            let ours = crate::workloads::find(name)
                .unwrap_or_else(|| panic!("{name} is not a workload of the suite"));
            assert_eq!(w["why"].as_str(), Some(ours.why), "{name}");
        }
    }

    #[test]
    fn contract_line_folds_families_and_rejects_gaps() {
        let benchmark = benchmark_json();
        let pipeline = |rows: Vec<Row>| Outcome {
            workload: "ocr_daily",
            traced: false,
            rows,
            attempted: 12,
            failed: 0,
            failures: vec![],
            facts: vec![],
        };
        let rows = vec![
            Row::one("setup_s", "s", 2.0),
            Row::one("thumbs_per_s", "1/s", 300.0),
            Row::one("window_p50_ms", "ms", 250.0),
            Row::one("peak_rss_mb", "MB", 40.0),
        ];
        let line = pipeline(rows.clone()).contract_line(&benchmark).unwrap();
        let parsed: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["correct"].as_bool(), Some(true));
        assert_eq!(
            parsed["metrics"]["throughput_per_s"]["value"].as_f64(),
            Some(300.0)
        );
        assert_eq!(
            parsed["metrics"]["latency_p50_us"]["value"].as_f64(),
            Some(250_000.0)
        );
        // Five daily windows support no tail: the tail row is the median.
        assert_eq!(
            parsed["metrics"]["latency_tail_us"]["value"].as_f64(),
            Some(250_000.0)
        );

        let missing = pipeline(rows[..3].to_vec()).contract_line(&benchmark);
        assert!(missing.unwrap_err().contains("peak_rss_mb"));
    }
}
