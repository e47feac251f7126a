//! Point-in-time metric snapshots: JSON and aligned-text export.

use serde::{Deserialize, Serialize};

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// One gauge's level at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
    /// Highest level reached during the run.
    pub high_watermark: i64,
}

/// One histogram's summary at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Mean recorded value (0.0 when empty).
    pub mean: f64,
    /// Interpolated 50th percentile.
    pub p50: f64,
    /// Interpolated 95th percentile.
    pub p95: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
}

/// A complete, ordered snapshot of a registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, in name order.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, in name order.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, in name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Every metric name in the snapshot, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .map(|c| c.name.clone())
            .chain(self.gauges.iter().map(|g| g.name.clone()))
            .chain(self.histograms.iter().map(|h| h.name.clone()))
            .collect();
        names.sort();
        names
    }

    /// Pretty-printed JSON (deterministic field and metric order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialisation is infallible")
    }

    /// Aligned, human-readable text rendering.
    pub fn render_text(&self) -> String {
        let name_width = self
            .metric_names()
            .iter()
            .map(|n| n.len())
            .max()
            .unwrap_or(4)
            .max("metric".len());
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<name_width$}  {:>12}\n", "counter", "value"));
            for c in &self.counters {
                out.push_str(&format!("{:<name_width$}  {:>12}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<name_width$}  {:>12}  {:>12}\n",
                "gauge", "value", "high-water"
            ));
            for g in &self.gauges {
                out.push_str(&format!(
                    "{:<name_width$}  {:>12}  {:>12}\n",
                    g.name, g.value, g.high_watermark
                ));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<name_width$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "histogram", "count", "p50", "p95", "p99", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<name_width$}  {:>10}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10}\n",
                    h.name, h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::obs::Registry;

    fn populated() -> Registry {
        let r = Registry::new();
        r.counter("dl.hits").add(10);
        r.counter("dl.miss").add(2);
        r.gauge("q.depth").set(5);
        let h = r.histogram("op.us");
        for v in [10, 20, 30] {
            h.record(v);
        }
        r
    }

    #[test]
    fn lookup_helpers() {
        let snap = populated().snapshot();
        assert_eq!(snap.counter("dl.hits"), Some(10));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("q.depth").unwrap().value, 5);
        assert_eq!(snap.histogram("op.us").unwrap().count, 3);
    }

    #[test]
    fn json_roundtrip() {
        let snap = populated().snapshot();
        let json = snap.to_json();
        let back: crate::obs::Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn text_render_aligns_columns() {
        let text = populated().snapshot().render_text();
        assert!(text.contains("dl.hits"));
        assert!(text.contains("histogram"));
        // Every non-empty line is equally indented per section: the name
        // column is padded to the longest name.
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 6);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let a = populated().snapshot();
        let b = populated().snapshot();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
    }
}
