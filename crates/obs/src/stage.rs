//! Per-stage metric bundles for staged execution engines.

use crate::registry::{CounterHandle, HistogramHandle, Registry};

/// The standard metric bundle for one named pipeline stage.
///
/// A staged engine runs each stage many times (once per window), so the
/// handles are resolved once and reused: `stage.<name>.runs` counts
/// invocations, `stage.<name>.records_in` / `stage.<name>.records_out`
/// count the typed records flowing through, and `stage.<name>.us` is the
/// wall-clock latency histogram (populated only while the registry's
/// timing knob is on, like every other `*_us` histogram). The bundle
/// reads no clock itself: the stage's one wall-clock guard — its
/// `stage.<name>` trace span — records into `us`.
#[derive(Clone)]
pub struct StageMetrics {
    /// `stage.<name>`: the name of the trace span that times the stage.
    pub span: String,
    /// Invocations of this stage (one per window it ran in).
    pub runs: CounterHandle,
    /// Records the stage consumed.
    pub records_in: CounterHandle,
    /// Records the stage produced.
    pub records_out: CounterHandle,
    /// Wall-clock stage latency in µs (timing knob gated).
    pub us: HistogramHandle,
    registry: Registry,
}

impl StageMetrics {
    /// Resolve (and eagerly register) the four `stage.<name>.*` metrics.
    pub fn new(registry: &Registry, name: &str) -> Self {
        StageMetrics {
            span: format!("stage.{name}"),
            runs: registry.counter(&format!("stage.{name}.runs")),
            records_in: registry.counter(&format!("stage.{name}.records_in")),
            records_out: registry.counter(&format!("stage.{name}.records_out")),
            us: registry.histogram(&format!("stage.{name}.us")),
            registry: registry.clone(),
        }
    }

    /// Start one stage invocation: bumps `runs` and, while the timing
    /// knob is on, returns `us` as the sink the invocation's wall-clock
    /// guard records its one reading into.
    pub fn begin(&self) -> Option<HistogramHandle> {
        self.runs.inc();
        self.registry.timing_enabled().then(|| self.us.clone())
    }
}

impl std::fmt::Debug for StageMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageMetrics")
            .field("runs", &self.runs.get())
            .field("records_in", &self.records_in.get())
            .field("records_out", &self.records_out.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_the_standard_names() {
        let r = Registry::new();
        let m = StageMetrics::new(&r, "extract");
        assert_eq!(
            r.metric_names(),
            vec![
                "stage.extract.records_in",
                "stage.extract.records_out",
                "stage.extract.runs",
                "stage.extract.us",
            ]
        );
        // Timing off by default: begin() hands out no latency sink.
        assert!(m.begin().is_none());
        m.records_in.add(10);
        m.records_out.add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("stage.extract.runs"), Some(1));
        assert_eq!(snap.counter("stage.extract.records_in"), Some(10));
        assert_eq!(snap.counter("stage.extract.records_out"), Some(7));
        r.set_timing(true);
        m.begin().expect("timing on").record(5);
        assert_eq!(m.us.count(), 1);
    }

    #[test]
    fn clones_share_handles() {
        let r = Registry::new();
        let a = StageMetrics::new(&r, "stitch");
        let b = a.clone();
        a.runs.inc();
        b.runs.inc();
        assert_eq!(r.snapshot().counter("stage.stitch.runs"), Some(2));
    }
}
