//! Integration tests for `tero_trace::obs`: concurrency, percentile accuracy
//! against the exact estimator in `tero-stats`, and snapshot determinism.

use tero_trace::obs::Registry;
use tero_types::SimRng;

// ---- Concurrency -----------------------------------------------------------

/// Eight threads hammer the same metrics through registry clones; no update
/// may be lost and the gauge high-watermark must dominate every level seen.
#[test]
fn multithreaded_hammer_loses_nothing() {
    const THREADS: u64 = 8;
    const OPS: u64 = 10_000;

    let registry = Registry::new();
    registry.set_timing(true);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let r = registry.clone();
        handles.push(std::thread::spawn(move || {
            let hits = r.counter("hammer.hits");
            let bytes = r.counter("hammer.bytes");
            let depth = r.gauge("hammer.depth");
            let lat = r.histogram("hammer.latency");
            for i in 0..OPS {
                hits.inc();
                bytes.add(3);
                depth.inc();
                lat.record(t * OPS + i);
                depth.dec();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let snap = registry.snapshot();
    assert_eq!(snap.counter("hammer.hits"), Some(THREADS * OPS));
    assert_eq!(snap.counter("hammer.bytes"), Some(3 * THREADS * OPS));
    let depth = snap.gauge("hammer.depth").unwrap();
    assert_eq!(depth.value, 0, "every inc was matched by a dec");
    assert!(depth.high_watermark >= 1);
    assert!(depth.high_watermark <= THREADS as i64);
    let lat = snap.histogram("hammer.latency").unwrap();
    assert_eq!(lat.count, THREADS * OPS);
    assert_eq!(lat.min, 0);
    assert_eq!(lat.max, THREADS * OPS - 1);
}

/// Concurrent registration of the same name returns the same underlying
/// metric, never a second one that splits the counts.
#[test]
fn concurrent_registration_is_idempotent() {
    let registry = Registry::new();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let r = registry.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..1_000 {
                r.counter("shared.name").inc();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(registry.snapshot().counter("shared.name"), Some(8_000));
    assert_eq!(
        registry
            .metric_names()
            .iter()
            .filter(|n| *n == "shared.name")
            .count(),
        1
    );
}

// ---- Percentile accuracy ---------------------------------------------------

/// The log-bucketed histogram's percentiles against the exact estimator in
/// `tero-stats`. Buckets are powers of two, so any estimate is within a
/// factor of two of the true value; order (p50 ≤ p95 ≤ p99) and range
/// ([min, max]) must hold exactly.
#[test]
fn percentiles_track_exact_estimator() {
    type Sampler = Box<dyn Fn(&mut SimRng) -> u64>;
    let mut rng = SimRng::new(0xb5);
    // Three shapes: uniform, heavy-tailed, and tightly clustered.
    let shapes: [(&str, Sampler); 3] = [
        ("uniform", Box::new(|r: &mut SimRng| 1 + r.below(10_000))),
        (
            "heavy-tail",
            Box::new(|r: &mut SimRng| {
                let base = 1 + r.below(100);
                if r.chance(0.05) {
                    base * 1_000
                } else {
                    base
                }
            }),
        ),
        ("clustered", Box::new(|r: &mut SimRng| 500 + r.below(32))),
    ];

    for (shape, gen) in shapes {
        let registry = Registry::new();
        let h = registry.histogram("acc.us");
        let mut exact: Vec<f64> = Vec::with_capacity(5_000);
        for _ in 0..5_000 {
            let v = gen(&mut rng);
            h.record(v);
            exact.push(v as f64);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("acc.us").unwrap();

        assert!(hist.p50 <= hist.p95 && hist.p95 <= hist.p99, "{shape}");
        assert!(
            hist.p50 >= hist.min as f64 && hist.p99 <= hist.max as f64,
            "{shape}"
        );
        for (est, p) in [(hist.p50, 50.0), (hist.p95, 95.0), (hist.p99, 99.0)] {
            let truth = tero_stats::percentile(&exact, p);
            let ratio = est / truth;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{shape} p{p}: histogram {est} vs exact {truth} (ratio {ratio})"
            );
        }
        let exact_mean = tero_stats::mean(&exact);
        let rel = (hist.mean - exact_mean).abs() / exact_mean;
        assert!(rel < 1e-9, "{shape}: mean is exact, not bucketed ({rel})");
    }
}

// ---- Snapshot determinism --------------------------------------------------

fn scripted_registry(seed: u64) -> Registry {
    let registry = Registry::new();
    let mut rng = SimRng::new(seed);
    let ops = registry.counter("det.ops");
    let depth = registry.gauge("det.depth");
    let lat = registry.histogram("det.lat_us");
    for _ in 0..2_000 {
        ops.inc();
        depth.set(rng.below(50) as i64);
        lat.record(1 + rng.below(1_000));
    }
    registry
}

/// The same op sequence yields byte-identical JSON and text exports, and
/// the name order is sorted regardless of registration order.
#[test]
fn snapshots_are_deterministic_and_ordered() {
    let a = scripted_registry(7).snapshot();
    let b = scripted_registry(7).snapshot();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.render_text(), b.render_text());

    // Registration order must not leak into export order.
    let r1 = Registry::new();
    r1.counter("z.last");
    r1.counter("a.first");
    let r2 = Registry::new();
    r2.counter("a.first");
    r2.counter("z.last");
    assert_eq!(r1.snapshot().metric_names(), r2.snapshot().metric_names());
    let names = r1.snapshot().metric_names();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

// ---- Timing knob -----------------------------------------------------------

/// Disabled timers record nothing; enabling the knob makes the same call
/// sites populate their histograms.
#[test]
fn stage_timer_respects_timing_knob() {
    let registry = Registry::new();
    let h = registry.histogram("knob.us");
    {
        let _t = registry.stage_timer(&h);
    }
    assert_eq!(registry.snapshot().histogram("knob.us").unwrap().count, 0);

    registry.set_timing(true);
    {
        let _t = registry.stage_timer(&h);
    }
    assert_eq!(registry.snapshot().histogram("knob.us").unwrap().count, 1);
}
