//! tero-trace overhead: one counter bump, gauge update and histogram
//! record, the one wall-clock guard (a `SpanGuard`: a trace span, or a
//! stage timer with no span) off and on, a snapshot, and the always-on
//! provenance ledger. The rows back docs/OPERATIONS.md's *Timing knob
//! overhead* table and docs/PERFORMANCE.md's *Instruments*; the claim they
//! pin is that a guard nobody reads — a stage timer with timing off, a
//! span with tracing off — is one atomic load, reads no clock and holds
//! no handle.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tero_trace::obs::Registry;
use tero_trace::{Level, SampleKey, SampleState, Tracer};
use tero_types::{AnonId, GameId, SimTime};

fn bench_counters(c: &mut Criterion) {
    let registry = Registry::new();
    let hits = registry.counter("bench.hits");
    let mut group = c.benchmark_group("obs");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("counter_inc_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                hits.inc();
            }
            hits.get()
        })
    });
    let depth = registry.gauge("bench.depth");
    group.bench_function("gauge_set_1k", |b| {
        b.iter(|| {
            for i in 0..1_000i64 {
                depth.set(i);
            }
            depth.get()
        })
    });
    let lat = registry.histogram("bench.lat");
    group.bench_function("histogram_record_1k", |b| {
        b.iter(|| {
            for i in 0..1_000u64 {
                lat.record(i * 37 + 1);
            }
            lat.count()
        })
    });
    group.finish();
}

fn bench_stage_timer(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.throughput(Throughput::Elements(1_000));

    // Default configuration: timing off. The guard reads no clock and
    // holds no handle — the same disabled guard as a span with tracing
    // off.
    let off = Registry::new();
    let h_off = off.histogram("bench.off_us");
    group.bench_function("stage_timer_disabled_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                let _t = off.stage_timer(&h_off);
            }
            h_off.count()
        })
    });

    // Opt-in configuration: timing on — two clock reads, one record and
    // the sink handle's clone and drop.
    let on = Registry::new();
    on.set_timing(true);
    let h_on = on.histogram("bench.on_us");
    group.bench_function("stage_timer_enabled_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                let _t = on.stage_timer(&h_on);
            }
            h_on.count()
        })
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // A registry shaped like a real pipeline run: ~40 metrics.
    let registry = Registry::new();
    for i in 0..20 {
        registry.counter(&format!("stage.counter_{i}")).add(i);
    }
    for i in 0..10 {
        registry.gauge(&format!("stage.gauge_{i}")).set(i as i64);
    }
    for i in 0..10 {
        let h = registry.histogram(&format!("stage.hist_{i}"));
        for v in 0..100u64 {
            h.record(v * (i + 1));
        }
    }
    c.bench_function("obs/snapshot_40_metrics", |b| {
        b.iter(|| registry.snapshot().metric_names().len())
    });
}

fn bench_spans(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1_000));

    // Default configuration: recording off. Span creation must be ~free so
    // the instrumented pipeline costs nothing when nobody is looking.
    let off = Tracer::new();
    group.bench_function("span_disabled_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                let _sp = off.span("bench.span");
            }
        })
    });

    // Opt-in configuration: recording on — two records plus the journal.
    group.bench_function("span_enabled_1k", |b| {
        b.iter(|| {
            let on = Tracer::new();
            on.set_enabled(true);
            for _ in 0..1_000 {
                let _sp = on.span("bench.span");
            }
        })
    });

    // Flight-recorder mode: same writes, bounded memory, ring eviction.
    group.bench_function("span_ring_1k", |b| {
        b.iter(|| {
            let ring = Tracer::new();
            ring.set_enabled(true);
            ring.set_flight_recorder(Some(64));
            for _ in 0..1_000 {
                let _sp = ring.span("bench.span");
            }
        })
    });

    group.bench_function("event_enabled_1k", |b| {
        b.iter(|| {
            let scratch = Tracer::new();
            scratch.set_enabled(true);
            let sp = scratch.span("bench.root");
            for _ in 0..1_000 {
                sp.event(Level::Debug, "bench event");
            }
        })
    });
    group.finish();
}

fn bench_ledger(c: &mut Criterion) {
    // The provenance ledger is always on, so ingest/resolve sit on the
    // per-thumbnail hot path alongside the funnel counters.
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("ledger_ingest_resolve_1k", |b| {
        let tracer = Tracer::new();
        let ledger = tracer.ledger();
        b.iter(|| {
            ledger.reset();
            for i in 0..1_000u64 {
                let key = SampleKey {
                    anon: AnonId(i),
                    game: GameId::Dota2,
                    at: SimTime::from_micros(i),
                };
                ledger.ingest(key);
                ledger.resolve(&key, SampleState::Published);
            }
            ledger.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counters,
    bench_stage_timer,
    bench_snapshot,
    bench_spans,
    bench_ledger
);
criterion_main!(benches);
