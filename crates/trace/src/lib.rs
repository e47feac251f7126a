//! # tero-trace — metrics, structured tracing and sample provenance for the Tero pipeline
//!
//! The [`obs`] registry's counters say *how many* thumbnails died at each
//! funnel stage; the ledger says *which ones* and *why*, and spans show
//! *when* each pipeline stage ran. The crate has five pillars:
//!
//! 1. **Metrics** ([`obs`]): the named-metric [`obs::Registry`] of
//!    counters, gauges and log-bucketed histograms every layer reports
//!    into, with deterministic snapshots.
//! 2. **Spans & events** ([`Tracer`], [`SpanGuard`], [`Level`]): hierarchical
//!    spans carrying both simulated time ([`tero_types::SimTime`]) and
//!    optional wall time, plus a leveled event journal. Span ids and record
//!    order are fully deterministic (the `span` module states the contract), so
//!    traces are byte-identical across `worker_threads ∈ {1, 2, 8}`. Spans
//!    propagate across `tero_pool::par_map` workers via a stamped context
//!    ([`StageCtx`] / [`TaskCtx`]), and a bounded ring-buffer *flight
//!    recorder* mode retains only the last N spans/events for post-mortem
//!    dumps after a chaos fault. A [`SpanGuard`] is also the crate's one
//!    wall-clock guard: [`obs::Registry::stage_timer`] hands out one
//!    with no span.
//! 3. **Exporters** (`export`): Chrome trace-event JSON (loadable in
//!    Perfetto / `chrome://tracing`, with pool lanes as tids) and an
//!    aligned-text timeline.
//! 4. **Sample provenance** ([`Ledger`], [`DropReason`]): every sample
//!    entering the pipeline gets a lineage record; each drop appends a
//!    typed reason, and [`Ledger::reconcile`] proves the ledger totals
//!    equal the `pipeline.funnel.*` counters in an [`obs::Registry`].
//! 5. **Latency budgets** ([`BudgetTable`]): recorded spans folded into a
//!    per-stage p50/p95/p99 table against declared [`Budget`]s, with a
//!    pass/OVER verdict per row.
//!
//! The crate is built only on the workspace's vendored shims
//! (`parking_lot`, `serde`, `serde_json`), with no unsafe code and no
//! external dependencies.
//!
//! ```
//! use tero_trace::{Level, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.set_enabled(true);
//! let run = tracer.span("pipeline.run");
//! let poll = run.child("download.poll");
//! poll.event(Level::Info, "42 streams live");
//! drop(poll);
//! drop(run);
//! let json = tracer.chrome_trace();
//! assert!(json.contains("\"pipeline.run\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod budget;
mod export;
mod ledger;
pub mod obs;
mod span;

pub use budget::{Budget, BudgetRow, BudgetSource, BudgetTable};
pub use export::merged_chrome_trace;
pub use ledger::{DropReason, Ledger, LedgerSummary, ReconcileError, SampleKey, SampleState};
pub use span::{
    EventRecord, Level, SpanGuard, SpanRecord, StageCtx, TaskCtx, TaskTrace, TraceContext, Tracer,
};
