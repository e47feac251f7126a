//! docs/OPERATIONS.md ↔ registry cross-check.
//!
//! The operations guide promises to document *every* metric the pipeline
//! registers. This test enforces the contract in both directions: each
//! documented name must appear in a populated registry, and each
//! registered name must have a catalogue row whose *Type* column names
//! the kind the registry holds. Adding a metric without a row, a row
//! without a metric, or a row of the wrong type fails here. So does a
//! `tero::<module>` path or `tero_<crate>` name in the prose docs that
//! no longer resolves.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{read_dir, read_to_string};
use std::path::Path;
use tero::core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero::core::serving::ServeGranularity;
use tero::serve::{QueryEngine, SketchRef};
use tero_simnet::udp::UdpFlow;
use tero_simnet::{LinkConfig, Simulator};
use tero_types::{GameId, SimDuration, SimTime};
use tero_world::{World, WorldConfig};

const OPERATIONS_MD: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OPERATIONS.md"));

/// Catalogue rows, name → *Type* column: rows shaped
/// `| \`name\` | type | ...`, the name being the first backtick span.
fn documented_rows() -> BTreeMap<String, String> {
    OPERATIONS_MD
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| `")?;
            let (name, rest) = rest.split_once('`')?;
            // Catalogue rows hold dotted metric names; other tables (e.g.
            // the overhead table) put API names in the same position.
            let dotted = name.contains('.')
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c));
            let kind = rest.split('|').nth(1)?.trim();
            dotted.then(|| (name.to_string(), kind.to_string()))
        })
        .collect()
}

fn documented_names() -> BTreeSet<String> {
    documented_rows().into_keys().collect()
}

/// A registry populated the way the guide describes: one pipeline run
/// (FullOcr, so the `ocr.*` engines fire) plus the opt-in subsystems
/// (serving, the store mesh, the ops plane, the simulator). The run
/// is driven as 1-day windows so the online cleaner's per-window
/// refresh counters (`clean.*`) move too — a single-shot run is one
/// finalizing window, which skips the serving refresh.
fn populated_registry() -> tero_obs::Registry {
    let mut world = World::build(WorldConfig {
        seed: 9,
        n_streamers: 12,
        days: 2,
        ..WorldConfig::default()
    });
    // Install the stock fault plan so the `chaos.*` and recovery-side
    // `download.*` metrics are registered (and exercised) too.
    world.install_chaos(tero::chaos::ChaosInjector::new(
        tero::chaos::FaultPlan::default_plan(5),
    ));
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        min_streamers: 2,
        ..Tero::default()
    };
    let horizon = world.horizon;
    let day = SimDuration::from_hours(24);
    let mut to = SimTime::EPOCH + day;
    loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(_) => break,
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => {}
        }
    }

    // The serving front-end registers the `serve.*` family on
    // construction; issue a query per served distribution (plus one
    // guaranteed miss — a small world can publish nothing) so the
    // counters move too.
    let serve = QueryEngine::new(tero.serving_store().expect("run completed"), &tero.obs);
    for (granularity, game, location_key) in serve.distributions() {
        serve.percentile(&SketchRef::dist(granularity, game, &location_key), 95.0);
    }
    serve.percentile(
        &SketchRef::dist(
            ServeGranularity::Country,
            GameId::LeagueOfLegends,
            "Atlantis",
        ),
        50.0,
    );

    // The networked-store layer registers the `net.*` family when a
    // sharded client is constructed; route a couple of ops through a
    // quiet one-shard mesh so the traffic counters move too. (The
    // `chaos.injected.net_*` counters were registered above by
    // `instrument` — every injector registers the full fault catalogue.)
    let mesh_chaos = tero::chaos::ChaosInjector::new(tero::chaos::FaultPlan::quiet(3));
    let mesh = tero::net::SimNet::with_shards(tero::net::default_link(), mesh_chaos, 1);
    let client = std::sync::Arc::new(tero::net::ShardedStoreClient::new(
        mesh.clone(),
        0,
        1,
        &tero.obs,
        3,
    ));
    let net_kv = tero::store::KvStore::remote(
        client.clone() as std::sync::Arc<dyn tero::store::RemoteStore>
    );
    net_kv.set("ops:net", "1");
    assert_eq!(net_kv.get("ops:net").as_deref(), Some("1"));

    // The health monitor registers `ops.*` / `health.*` on construction
    // and moves them with one observation of the quiet mesh.
    let mut monitor = tero::net::HealthMonitor::new(&mesh, &tero.obs);
    let report = monitor.observe(0, &[client], std::slice::from_ref(&tero.obs));
    assert_eq!(report.count(tero::net::ShardStatus::Healthy), 1);

    let mut sim = Simulator::new();
    sim.instrument(&tero.obs);
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        a,
        b,
        LinkConfig {
            rate_bps: 1e6,
            prop: SimDuration::from_millis(5),
            queue_packets: 10,
        },
    );
    sim.compute_routes();
    sim.add_udp_flow(UdpFlow::cbr(
        a,
        b,
        1e5,
        1250,
        SimTime::EPOCH,
        SimTime::from_millis(100),
    ));
    sim.run_until(SimTime::from_secs(1));

    tero.obs.clone()
}

#[test]
fn catalogue_matches_registry_both_ways() {
    let rows = documented_rows();
    let documented: BTreeSet<String> = rows.keys().cloned().collect();
    assert!(
        documented.len() >= 40,
        "catalogue parse found only {} rows — table format changed?",
        documented.len()
    );
    let snap = populated_registry().snapshot();
    let registered: BTreeSet<String> = snap.metric_names().into_iter().collect();

    let undocumented: Vec<&String> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from docs/OPERATIONS.md: {undocumented:?}"
    );
    let stale: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        stale.is_empty(),
        "documented but never registered: {stale:?}"
    );

    // The Type column names the kind the registry actually holds.
    let kinds = snap
        .counters
        .iter()
        .map(|c| (&c.name, "counter"))
        .chain(snap.gauges.iter().map(|g| (&g.name, "gauge")))
        .chain(snap.histograms.iter().map(|h| (&h.name, "histogram")));
    let mistyped: Vec<String> = kinds
        .filter(|(name, kind)| rows[*name] != *kind)
        .map(|(name, kind)| format!("{name}: registry holds a {kind}, row says {}", rows[name]))
        .collect();
    assert!(mistyped.is_empty(), "wrong Type column: {mistyped:#?}");
}

#[test]
fn documented_counters_move_during_a_run() {
    // Spot-check the guide's "healthy look" claims on the load-bearing
    // funnel counters.
    let snap = populated_registry().snapshot();
    let thumbs = snap.counter("pipeline.funnel.ingested").unwrap();
    let extracted = snap.counter("stage.extract.records_out").unwrap();
    let misses = snap
        .counter("pipeline.funnel.dropped.ocr_unreadable")
        .unwrap();
    assert!(thumbs > 0, "pipeline processed no thumbnails");
    assert!(extracted > 0 && extracted <= thumbs);
    assert_eq!(
        snap.counter("download.get_hits"),
        Some(thumbs),
        "everything fetched gets processed"
    );
    assert!(extracted + misses <= thumbs, "funnel rows are consistent");
    assert!(snap.counter("ocr.vote_unanimous").unwrap() > 0);
    assert!(snap.counter("analysis.segments_built").unwrap() > 0);
    assert!(snap.counter("store.kv.writes").unwrap() > 0);
    assert!(snap.counter("simnet.events").unwrap() > 0);
    assert!(
        snap.counter("stats.sketch.inserts").unwrap() > 0,
        "extraction feeds the serving sketches"
    );
    assert_eq!(
        snap.counter("clean.samples_in"),
        Some(extracted),
        "the online cleaner consumes every extracted sample"
    );
    assert!(
        snap.counter("clean.views_refreshed").unwrap() > 0,
        "windowed drive refreshes per-series views"
    );
    assert!(snap.counter("clean.segments_sealed").unwrap() > 0);
    assert!(
        snap.counter("stats.sketch.commits").unwrap() > 0,
        "window commits persist the sketches"
    );
    assert!(snap.counter("serve.queries").unwrap() > 0);
    assert!(snap.counter("serve.cache.misses").unwrap() > 0);
}

#[test]
fn trace_metrics_are_catalogued_and_consistent() {
    // The tero-trace layer registers its metrics eagerly (even with span
    // recording disabled), so every trace.* and pipeline.funnel.* name
    // must be present after a run and have a catalogue row.
    let registry = populated_registry();
    let registered: BTreeSet<String> = registry.metric_names().into_iter().collect();
    let documented = documented_names();
    let fixed = [
        "trace.spans",
        "trace.events.trace",
        "trace.events.debug",
        "trace.events.info",
        "trace.events.warn",
        "trace.events.error",
        "trace.ring.evicted",
        "trace.export_bytes",
        "pipeline.funnel.ingested",
        "pipeline.funnel.published",
    ];
    let funnel_drops = tero::trace::DropReason::ALL.map(|r| r.metric_name());
    for name in fixed.iter().copied().chain(funnel_drops.iter().copied()) {
        assert!(registered.contains(name), "{name} not registered");
        assert!(documented.contains(name), "{name} has no catalogue row");
    }

    // The funnel conserves samples: ingested = published + every typed
    // drop, straight from the counters (the ledger proves the same
    // equality record-by-record; see tests/end_to_end.rs).
    let snap = registry.snapshot();
    let ingested = snap.counter("pipeline.funnel.ingested").unwrap();
    let published = snap.counter("pipeline.funnel.published").unwrap();
    let dropped: u64 = funnel_drops.iter().map(|n| snap.counter(n).unwrap()).sum();
    assert!(ingested > 0, "run ingested nothing");
    assert_eq!(published + dropped, ingested, "funnel leaks samples");
    assert_eq!(
        snap.counter("pipeline.funnel.ingested"),
        snap.counter("stage.extract.records_in"),
        "every drained thumbnail task enters the funnel"
    );
    // Span recording stays off by default: the counters exist but are
    // untouched until `Tracer::set_enabled(true)`.
    assert_eq!(snap.counter("trace.spans"), Some(0));
    assert_eq!(snap.counter("trace.ring.evicted"), Some(0));
    assert_eq!(snap.counter("trace.export_bytes"), Some(0));
}

/// Every `{prefix}<name>` token in `text` (not preceded by an identifier
/// character), `<name>` being the lowercase identifier that follows.
fn prefixed_names<'a>(text: &'a str, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    text.match_indices(prefix).filter_map(move |(at, _)| {
        if text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        let rest = &text[at + prefix.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        (len > 0).then(|| &text[at..at + prefix.len() + len])
    })
}

#[test]
fn doc_paths_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // `tero::<module>`: the modules the facade re-exports.
    let facade = read_to_string(root.join("src/lib.rs")).expect("facade source");
    let mut known: BTreeSet<String> = facade
        .lines()
        .filter_map(|l| {
            let module = l.strip_prefix("pub use tero_")?.split_once(" as ")?.1;
            Some(format!("tero::{}", module.strip_suffix(';')?))
        })
        .collect();
    assert!(known.contains("tero::core"), "facade parse: {known:?}");
    // `tero_<crate>`: the packages under crates/.
    for krate in read_dir(root.join("crates")).expect("crates/").flatten() {
        let Ok(manifest) = read_to_string(krate.path().join("Cargo.toml")) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .expect("package name");
        known.insert(name.replace('-', "_"));
    }

    let mut docs = vec![root.join("README.md"), root.join("DESIGN.md")];
    docs.extend(
        read_dir(root.join("docs"))
            .expect("docs/")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "md")),
    );
    let mut unresolved = Vec::new();
    for doc in &docs {
        let text = read_to_string(doc).expect("readable doc");
        let shown = doc.strip_prefix(root).unwrap_or(doc).display();
        for name in prefixed_names(&text, "tero::").chain(prefixed_names(&text, "tero_")) {
            if !known.contains(name) {
                unresolved.push(format!("{shown}: {name}"));
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "unresolved doc paths: {unresolved:#?}"
    );
}
