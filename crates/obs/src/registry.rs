//! The named-metric registry.

use crate::hist::Histogram;
use crate::metrics::{Counter, Gauge};
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};
use crate::timer::StageTimer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared handle to a registered counter. Bumping through the handle is
/// lock-free; only the initial name lookup takes the registry lock.
pub type CounterHandle = Arc<Counter>;
/// Shared handle to a registered gauge.
pub type GaugeHandle = Arc<Gauge>;
/// Shared handle to a registered histogram.
pub type HistogramHandle = Arc<Histogram>;

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, CounterHandle>>,
    gauges: Mutex<BTreeMap<String, GaugeHandle>>,
    histograms: Mutex<BTreeMap<String, HistogramHandle>>,
    /// The sampling knob for wall-clock stage timing. Off by default:
    /// [`StageTimer`]s become no-ops and snapshots stay deterministic.
    timing: AtomicBool,
}

/// A registry of named metrics, shared by every pipeline stage.
///
/// Cloning is cheap (`Arc`); all clones see the same metrics. Metric
/// names are dotted paths, `<stage>.<event>[_<unit>]` — see
/// `docs/OPERATIONS.md` for the catalogue.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry with timing disabled.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Enable or disable wall-clock stage timing. Counters and
    /// value-histograms are unaffected — they are always on.
    pub fn set_timing(&self, enabled: bool) {
        self.inner.timing.store(enabled, Ordering::Relaxed);
    }

    /// Whether wall-clock stage timing is enabled.
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.inner.timing.load(Ordering::Relaxed)
    }

    /// Look up or create the counter `name`.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut map = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Look up or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        let mut map = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Look up or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Start a stage timer recording into `hist` on drop — a no-op guard
    /// (no clock read) unless [`Registry::set_timing`] enabled timing.
    #[inline]
    pub fn stage_timer(&self, hist: &HistogramHandle) -> StageTimer {
        StageTimer::start(self.timing_enabled(), hist.clone())
    }

    /// All registered metric names, sorted (counters, gauges, histograms
    /// concatenated).
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        names.extend(
            self.inner
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .keys()
                .cloned(),
        );
        names.extend(
            self.inner
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .keys()
                .cloned(),
        );
        names.extend(
            self.inner
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .keys()
                .cloned(),
        );
        names.sort();
        names
    }

    /// Call `visit(name, value)` for every registered counter, in name
    /// order, building nothing — the read for callers on a per-window
    /// path, where [`Registry::snapshot`] would clone every name and
    /// compute every histogram's percentiles to be asked for counters.
    /// The counter table stays locked for the duration of the call, so
    /// `visit` must not register a counter.
    pub fn visit_counters(&self, mut visit: impl FnMut(&str, u64)) {
        let map = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (name, counter) in map.iter() {
            visit(name, counter.get());
        }
    }

    /// How many counters are registered. Counters are never unregistered,
    /// so while this number holds, so does the set of counters: a caller
    /// that keeps their handles can read them without touching the table.
    pub fn counter_count(&self) -> usize {
        self.inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Every registered counter's name and handle, in name order.
    pub fn counter_handles(&self) -> Vec<(String, CounterHandle)> {
        self.inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, counter)| (name.clone(), counter.clone()))
            .collect()
    }

    /// A point-in-time snapshot of every metric, in name order.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        self.visit_counters(|name, value| {
            counters.push(CounterSnapshot {
                name: name.to_string(),
                value,
            })
        });
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
                high_watermark: g.high_watermark(),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                mean: h.mean(),
                p50: h.percentile(50.0).unwrap_or(0.0),
                p95: h.percentile(95.0).unwrap_or(0.0),
                p99: h.percentile(99.0).unwrap_or(0.0),
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// The change in every metric since `baseline` was taken: a snapshot
    /// whose counter values, gauge levels and histogram count/sum are the
    /// difference between now and the baseline. Metrics registered after
    /// the baseline delta against zero. Distribution-shape fields
    /// (histogram min/max/percentiles, gauge high-watermark) cannot be
    /// recovered for a window from two point-in-time summaries, so the
    /// delta carries their *current* values; a delta histogram's mean is
    /// recomputed from the differenced count and sum.
    pub fn delta_since(&self, baseline: &Snapshot) -> Snapshot {
        let mut now = self.snapshot();
        for c in &mut now.counters {
            c.value = c
                .value
                .saturating_sub(baseline.counter(&c.name).unwrap_or(0));
        }
        for g in &mut now.gauges {
            g.value -= baseline.gauge(&g.name).map(|b| b.value).unwrap_or(0);
        }
        for h in &mut now.histograms {
            if let Some(b) = baseline.histogram(&h.name) {
                h.count = h.count.saturating_sub(b.count);
                h.sum = h.sum.saturating_sub(b.sum);
            }
            h.mean = if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            };
        }
        now
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metric_names().len())
            .field("timing", &self.timing_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let r = Registry::new();
        let c1 = r.counter("a.b");
        let c2 = r.clone().counter("a.b");
        c1.inc();
        c2.inc();
        assert_eq!(r.snapshot().counter("a.b"), Some(2));
    }

    #[test]
    fn visit_counters_reads_what_snapshot_reads() {
        let r = Registry::new();
        r.counter("z.last").add(7);
        r.counter("a.zero");
        r.gauge("m.gauge").set(3);
        r.histogram("m.hist").record(5);
        let mut seen = Vec::new();
        r.visit_counters(|name, value| seen.push((name.to_string(), value)));
        assert_eq!(seen, [("a.zero".to_string(), 0), ("z.last".to_string(), 7)]);
        let snap: Vec<(String, u64)> = r
            .snapshot()
            .counters
            .into_iter()
            .map(|c| (c.name, c.value))
            .collect();
        assert_eq!(seen, snap);
        let handles = r.counter_handles();
        assert_eq!(handles.len(), r.counter_count());
        let read: Vec<(String, u64)> = handles.iter().map(|(n, c)| (n.clone(), c.get())).collect();
        assert_eq!(read, seen);
    }

    #[test]
    fn names_are_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z.last");
        r.gauge("m.middle");
        r.histogram("a.first");
        assert_eq!(r.metric_names(), vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn delta_since_equals_snapshot_difference() {
        let r = Registry::new();
        r.counter("work.done").add(5);
        r.gauge("queue.depth").set(9);
        r.histogram("op.us").record(100);
        let baseline = r.snapshot();

        r.counter("work.done").add(3);
        r.counter("work.late").add(2); // registered after the baseline
        r.gauge("queue.depth").set(4);
        r.histogram("op.us").record(50);
        r.histogram("op.us").record(50);

        let delta = r.delta_since(&baseline);
        // Counters: difference of the two snapshots, field by field.
        let after = r.snapshot();
        assert_eq!(
            delta.counter("work.done"),
            Some(after.counter("work.done").unwrap() - baseline.counter("work.done").unwrap())
        );
        assert_eq!(delta.counter("work.done"), Some(3));
        assert_eq!(delta.counter("work.late"), Some(2), "new metric vs zero");
        // Gauges difference signed levels.
        assert_eq!(delta.gauge("queue.depth").unwrap().value, -5);
        // Histograms difference count/sum and recompute the mean.
        let h = delta.histogram("op.us").unwrap();
        assert_eq!((h.count, h.sum), (2, 100));
        assert!((h.mean - 50.0).abs() < 1e-9);
        // A delta against the latest snapshot is all zeros.
        let zero = r.delta_since(&after);
        assert!(zero.counters.iter().all(|c| c.value == 0));
        assert!(zero.histograms.iter().all(|h| h.count == 0));
    }

    #[test]
    fn timing_defaults_off() {
        let r = Registry::new();
        assert!(!r.timing_enabled());
        let h = r.histogram("t.us");
        {
            let _guard = r.stage_timer(&h);
        }
        assert_eq!(h.count(), 0, "disabled timer records nothing");
        r.set_timing(true);
        {
            let _guard = r.stage_timer(&h);
        }
        assert_eq!(h.count(), 1, "enabled timer records one sample");
    }
}
