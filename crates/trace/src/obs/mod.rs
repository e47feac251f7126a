//! Pipeline metrics: the named-metric [`Registry`] every layer reports into.
//!
//! Every module of the pipeline (download, image processing, analysis, the
//! storage substrate, the network simulator) reports into a shared
//! [`Registry`] of named metrics:
//!
//! * [`Counter`] — monotonically increasing event counts (relaxed atomics);
//! * [`Gauge`] — instantaneous levels that move both ways, with a
//!   high-watermark;
//! * [`Histogram`] — power-of-two-bucketed value distributions (latencies
//!   in µs, queue depths), with interpolated p50/p95/p99.
//!
//! A wall-clock latency is recorded by the crate's one RAII clock guard,
//! a [`SpanGuard`](crate::SpanGuard): [`Registry::stage_timer`] hands out
//! one with no span, and [`SpanGuard::timed`](crate::SpanGuard::timed)
//! makes a trace span one. Either reads the clock for the histogram only
//! while the registry's timing knob is on.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** Counter bumps are a single relaxed atomic add;
//!    handles are `Arc`s resolved once at wiring time, so steady-state
//!    recording takes no locks and no name lookups. With timing disabled
//!    (the default) a stage timer reads no clock and holds no handle.
//! 2. **Determinism.** Snapshots list metrics in name order, so two runs
//!    over the same world produce byte-identical text and JSON (timing
//!    histograms excluded — wall clocks are not deterministic — which is
//!    exactly why the timing knob defaults to off).
//! 3. **Zero dependencies** beyond the workspace's serde shims: the
//!    module must be usable from every layer, including `tero-store` at
//!    the bottom of the dependency graph.
//!
//! ```
//! use tero_trace::obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("download.get.hits");
//! hits.inc();
//! let depth = registry.histogram("download.queue_depth");
//! depth.record(3);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("download.get.hits"), Some(1));
//! println!("{}", snap.render_text());
//! ```

mod hist;
mod metrics;
mod registry;
mod snapshot;

pub use hist::Histogram;
pub use metrics::{Counter, Gauge};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, Registry};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};
