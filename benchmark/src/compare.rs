//! `--compare <old.json> <new.json>`: one row per (metric, workload) with
//! base, new, ratio and a verdict against the metric's regression bound.

use crate::record::{e2e_metric, Better, E2e};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The recorded spread of either side is wider than the bound, so the
    /// reported values cannot settle it.
    Unresolved,
}

/// A metric as recorded: its value with the median and the extremes over
/// repetitions (all equal to the value for a single-valued row).
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Recorded {
    fn from_json(v: &Value) -> Option<Recorded> {
        let value = v["value"].as_f64()?;
        let or_value = |field: &str| v[field].as_f64().unwrap_or(value);
        Some(Recorded {
            value,
            median: or_value("median"),
            min: or_value("min"),
            max: or_value("max"),
        })
    }

    /// How far the repetitions sit from the reported value, as a share of
    /// it. A floor row (every operation's fastest occurrence) lies beyond
    /// all its repetitions and is judged by the one that came closest: when
    /// even the best whole repetition is far off, the floor is stitched
    /// from moments no repetition saw together. A row that reports the
    /// median is judged by its whole range.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else if self.median != self.value {
            (self.min - self.value)
                .abs()
                .min((self.max - self.value).abs())
                / self.value.abs()
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

pub fn verdict(metric: &E2e, base: Recorded, new: Recorded) -> Verdict {
    // How much worse the new value is, as a share of the base value
    // (absolute when the base is zero, as for `fail_ratio`).
    let scale = if base.value == 0.0 {
        1.0
    } else {
        base.value.abs()
    };
    let worse_by = match metric.better {
        Better::Lower => new.value - base.value,
        Better::Higher => base.value - new.value,
    } / scale;
    if base.spread().max(new.spread()) > metric.bound && metric.bound > 0.0 {
        // Wider than the bound: only "every run of the change reads better
        // than every run of the base" still resolves.
        let all_better = match metric.better {
            Better::Lower => new.max < base.min,
            Better::Higher => new.min > base.max,
        };
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))
}

fn workloads(record: &Value) -> Vec<(&str, &Value)> {
    match &record["workloads"] {
        Value::Object(entries) => entries.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

/// Print the comparison; `Ok(true)` when no row regressed.
pub fn run(old: &str, new: &str) -> Result<bool, String> {
    let (old, new) = (load(old)?, load(new)?);
    println!(
        "{:<18} {:<16} {:<6} {:>14} {:>14} {:>8} {:>6}  {:<11} feeds",
        "workload", "metric", "unit", "base", "new", "ratio", "bound", "verdict"
    );
    let mut clean = true;
    for (workload, base_part) in workloads(&old) {
        let Value::Object(base_rows) = &base_part["end_to_end"]["metrics"] else {
            continue;
        };
        for (name, base_row) in base_rows {
            let Some(metric) = e2e_metric(name) else {
                continue;
            };
            let new_row = &new["workloads"][workload]["end_to_end"]["metrics"][name.as_str()];
            let (Some(base), Some(fresh)) =
                (Recorded::from_json(base_row), Recorded::from_json(new_row))
            else {
                println!("{workload:<18} {name:<16} missing from the new record  regressed");
                clean = false;
                continue;
            };
            let v = verdict(metric, base, fresh);
            clean &= v != Verdict::Regressed;
            println!(
                "{workload:<18} {name:<16} {:<6} {:>14.4} {:>14.4} {:>8.3} {:>6.2}  {:<11} {}",
                metric.unit,
                base.value,
                fresh.value,
                if base.value == 0.0 {
                    1.0
                } else {
                    fresh.value / base.value
                },
                metric.bound,
                format!("{v:?}").to_lowercase(),
                metric.contract.unwrap_or("-")
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Recorded {
        Recorded {
            value: median,
            median,
            min: median * 0.99,
            max: median * 1.01,
        }
    }

    /// A metric with a 10 % bound, whatever the catalogue's bounds are.
    fn metric(better: Better) -> E2e {
        E2e {
            name: "test",
            unit: "s",
            better,
            bound: 0.10,
            contract: None,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let run_s = metric(Better::Lower);
        assert_eq!(verdict(&run_s, tight(10.0), tight(10.5)), Verdict::Ok);
        assert_eq!(
            verdict(&run_s, tight(10.0), tight(11.5)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&run_s, tight(10.0), tight(8.0)), Verdict::Improved);
        let qps = metric(Better::Higher);
        assert_eq!(verdict(&qps, tight(100.0), tight(95.0)), Verdict::Ok);
        assert_eq!(verdict(&qps, tight(100.0), tight(85.0)), Verdict::Regressed);
        assert_eq!(verdict(&qps, tight(100.0), tight(120.0)), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let run_s = metric(Better::Lower);
        let noisy = Recorded {
            value: 10.0,
            median: 10.0,
            min: 9.0,
            max: 11.0,
        };
        assert_eq!(verdict(&run_s, noisy, tight(10.2)), Verdict::Unresolved);
        assert_eq!(verdict(&run_s, tight(10.0), noisy), Verdict::Unresolved);
        // Every new run below every base run still resolves.
        assert_eq!(verdict(&run_s, noisy, tight(8.0)), Verdict::Improved);
        // A floor row is judged by the repetition closest to it.
        let floor = |closest: f64| Recorded {
            value: 10.0,
            median: closest + 2.0,
            min: closest,
            max: closest + 4.0,
        };
        assert_eq!(verdict(&run_s, floor(10.4), tight(10.2)), Verdict::Ok);
        assert_eq!(
            verdict(&run_s, floor(11.5), tight(12.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_new_failure_regresses() {
        let fail = e2e_metric("fail_ratio").unwrap();
        let zero = Recorded {
            value: 0.0,
            median: 0.0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(verdict(fail, zero, zero), Verdict::Ok);
        assert_eq!(verdict(fail, zero, tight(0.01)), Verdict::Regressed);
    }
}
