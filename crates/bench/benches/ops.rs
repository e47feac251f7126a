//! Ops-plane overhead: what live health monitoring and latency-budget
//! aggregation cost. The numbers feed the ops table in
//! docs/PERFORMANCE.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use tero_chaos::{ChaosInjector, FaultPlan};
use tero_core::stages::default_stage_budgets;
use tero_net::{default_link, HealthMonitor, ShardedStoreClient, SimNet};
use tero_trace::obs::Registry;
use tero_trace::{BudgetSource, BudgetTable, SpanRecord};

fn quiet_mesh(shards: usize) -> (SimNet, Registry, Vec<Arc<ShardedStoreClient>>) {
    let registry = Registry::new();
    let net = SimNet::with_shards(
        default_link(),
        ChaosInjector::new(FaultPlan::quiet(3)),
        shards,
    );
    let client = Arc::new(ShardedStoreClient::new(
        net.clone(),
        0,
        shards,
        &registry,
        7,
    ));
    (net, registry, vec![client])
}

/// One full observation of a 3-shard mesh — 6 host reachability checks,
/// the client's shard views, registry deltas, band evaluation — plus
/// the text rendering on its own.
fn bench_health_report(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    let (net, registry, clients) = quiet_mesh(3);
    let engines = [Registry::new()];
    let mut monitor = HealthMonitor::new(&net, &registry);
    group.bench_function("health_observe_3_shards", |b| {
        b.iter(|| monitor.observe(0, &clients, &engines))
    });
    let report = monitor.observe(0, &clients, &engines);
    group.bench_function("health_render_text", |b| b.iter(|| report.render_text()));
    group.finish();
}

/// Synthetic spans over the real stage names, with a spread of tick
/// durations so the percentile sort does real work.
fn synth_spans(n: usize) -> Vec<SpanRecord> {
    let names = [
        "download.run",
        "stage.extract",
        "stage.analyze",
        "stage.locate",
        "pipeline.run",
    ];
    (0..n)
        .map(|i| SpanRecord {
            id: i as u64 + 1,
            parent: 0,
            name: Arc::from(names[i % names.len()]),
            index: None,
            lane: 0,
            start_tick: i as u64,
            end_tick: i as u64 + (i as u64 * 37 % 977) + 1,
            sim_at: None,
            wall_us: None,
            remote: None,
        })
        .collect()
}

fn bench_budget_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    let budgets = default_stage_budgets();
    for n in [1_000usize, 10_000] {
        let spans = synth_spans(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("budget_table", n), &spans, |b, spans| {
            b.iter(|| BudgetTable::from_spans(spans, &budgets, BudgetSource::Ticks))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_health_report, bench_budget_table);
criterion_main!(benches);
