//! Parallelism and windowing must be unobservable: one seed ⇒ one report.
//!
//! The pipeline's hot stages fan out over `tero-pool`, whose ordered merge
//! promises byte-identical output at every worker count; the staged engine
//! promises the same across any window schedule, including a chaos kill
//! mid-window and a snapshot/restore into a fresh `Tero`. This suite pins
//! both promises end to end: the full `TeroReport` (streams, labels,
//! clusters, distributions, behaviour streams) and the funnel counters of
//! `metrics_snapshot` must be identical for `worker_threads ∈ {1, 2, 8}`,
//! for window sizes ∈ {1 day, 3 days, full horizon}, with and without a
//! non-trivial fault-injection plan.

mod common;

use common::serving_bytes;
use std::collections::BTreeMap;
use tero::chaos::{ChaosInjector, EngineKill, FaultPlan};
use tero::core::pipeline::{ExtractionMode, Tero, TeroReport, WindowOutcome};
use tero::world::{World, WorldConfig};
use tero_types::{SimDuration, SimTime};

/// A deterministic, order-stable rendering of everything a run produced.
/// `HashMap`-backed fields are projected through `BTreeMap` first; every
/// other collection in the report is already ordered.
fn fingerprint(report: &TeroReport) -> String {
    let locations: BTreeMap<_, _> = report.locations.iter().collect();
    format!(
        "download={:?}\nthumbnails={} extracted={} streamers_seen={}\n\
         locations={locations:?}\nstreams={:?}\nanomalies={:?}\nclassified={:?}\n\
         location_clusters={:?}\nendpoint_changes={:?}\ndistributions={:?}\n\
         shared_anomalies={:?}\nbehavior_streams={:?}\n",
        report.download,
        report.thumbnails,
        report.extracted,
        report.streamers_seen,
        report.streams,
        report.anomalies,
        report.classified,
        report.location_clusters,
        report.endpoint_changes,
        report.distributions,
        report.shared_anomalies,
        report.behavior_streams,
    )
}

/// The counters the operations guide treats as the run's identity: every
/// one of them — no counter depends on thread timing.
fn funnel(tero: &Tero) -> BTreeMap<String, u64> {
    tero.metrics_snapshot()
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value))
        .collect()
}

fn run_once(workers: usize, chaos_seed: Option<u64>) -> (String, BTreeMap<String, u64>) {
    let mut world = World::build(WorldConfig {
        seed: 4242,
        n_streamers: 25,
        days: 2,
        ..WorldConfig::default()
    });
    if let Some(seed) = chaos_seed {
        world.install_chaos(ChaosInjector::new(FaultPlan::default_plan(seed)));
    }
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        min_streamers: 2,
        worker_threads: workers,
        ..Tero::default()
    };
    let report = tero.run(&mut world);
    (fingerprint(&report), funnel(&tero))
}

#[test]
fn report_identical_across_worker_counts() {
    let (reference, ref_counters) = run_once(1, None);
    assert!(reference.len() > 1_000, "fingerprint covers a real run");
    for workers in [2, 8] {
        let (fp, counters) = run_once(workers, None);
        assert_eq!(fp, reference, "report diverged at {workers} workers");
        assert_eq!(
            counters, ref_counters,
            "funnel counters diverged at {workers} workers"
        );
    }
}

#[test]
fn report_identical_across_worker_counts_under_chaos() {
    // A non-trivial fault plan exercises the recovery paths (missing
    // objects → dead-lettering, API 5xx → profile retries); the ordered
    // merge must keep even those byte-identical.
    let (reference, ref_counters) = run_once(1, Some(7));
    for workers in [2, 8] {
        let (fp, counters) = run_once(workers, Some(7));
        assert_eq!(
            fp, reference,
            "report diverged at {workers} workers under chaos"
        );
        assert_eq!(
            counters, ref_counters,
            "funnel counters diverged at {workers} workers under chaos"
        );
    }
}

/// One traced run: the Chrome trace-event JSON and text timeline for a
/// fixed seed at a given worker count.
fn trace_once(workers: usize) -> (String, String) {
    let mut world = World::build(WorldConfig {
        seed: 4242,
        n_streamers: 12,
        days: 2,
        ..WorldConfig::default()
    });
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        worker_threads: workers,
        ..Tero::default()
    };
    tero.trace.set_enabled(true);
    tero.run(&mut world);
    (tero.trace.chrome_trace(), tero.trace.render_timeline())
}

#[test]
fn chrome_trace_identical_across_worker_counts() {
    // The tracer's contract: span ids, ticks and record order are logical,
    // so the exported trace is *byte*-identical at every worker count.
    let (ref_json, ref_text) = trace_once(1);
    assert!(
        ref_json.matches("extract.task").count() > 50,
        "trace covers a real fan-out"
    );
    for workers in [2, 8] {
        let (json, text) = trace_once(workers);
        assert_eq!(json, ref_json, "chrome trace diverged at {workers} workers");
        assert_eq!(text, ref_text, "timeline diverged at {workers} workers");
    }
}

#[test]
fn chrome_trace_parses() {
    // The exporter hand-assembles its JSON; the workspace's own serde_json
    // must accept it (this is also what Perfetto will parse).
    let (json, _) = trace_once(2);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = parsed
        .field("traceEvents")
        .as_array()
        .expect("traceEvents array");
    assert!(events.len() > 100, "trace has real content");
}

// ---------------------------------------------------------------------------
// Windowed incremental execution (`Tero::run_window`).

/// Counters that describe the *schedule* rather than the data: commit
/// frequency (`store.kv.*`, `stats.sketch.{commits,bytes}` — each window
/// boundary re-persists the dirty serving sketches), window/stage
/// bookkeeping, the online cleaner's per-window activity (`clean.*` —
/// how much work each window fed, sealed and refreshed is exactly what a
/// schedule changes; the cleaner's *output* is pinned separately below),
/// the budgeted locate stage's admission accounting (`locate.budget.*` —
/// how often a lookup is deferred is a property of the window count) and
/// the incremental aggregation's dirty-group work (`agg.*` — more windows
/// re-analyse more groups; the report it feeds is pinned by every test
/// here), and the planned engine kill. Everything else — the funnel, `download.*`,
/// `ocr.*`, `analysis.*`, `store.object.*`, `stats.sketch.inserts` —
/// must be byte-identical between a single-shot run and any windowed
/// drive.
fn schedule_invariant(counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .into_iter()
        .filter(|(name, _)| {
            !name.starts_with("store.kv.")
                && !name.starts_with("pipeline.window.")
                && !name.starts_with("stage.")
                && !name.starts_with("clean.")
                && !name.starts_with("locate.budget.")
                && !name.starts_with("agg.")
                && name != "chaos.injected.engine_kill"
                && name != "stats.sketch.commits"
                && name != "stats.sketch.bytes"
                // Per-window view refreshes fan out over the pool, so the
                // task count tracks the schedule (it is still pinned
                // across worker counts by the tests above).
                && name != "pool.tasks"
        })
        .collect()
}

/// A 4-day world, so a 1-day window takes four `run_window` calls and a
/// 3-day window takes two (the second clamped to the horizon).
fn windowed_world(chaos: Option<FaultPlan>) -> World {
    let mut world = World::build(WorldConfig {
        seed: 4242,
        n_streamers: 25,
        days: 4,
        ..WorldConfig::default()
    });
    if let Some(plan) = chaos {
        world.install_chaos(ChaosInjector::new(plan));
    }
    world
}

fn windowed_tero(workers: usize) -> Tero {
    Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        worker_threads: workers,
        ..Tero::default()
    }
}

/// Drive a run as a sequence of `window`-sized slices (`None` = one
/// full-horizon window). A `Killed` outcome re-drives the same slice —
/// the engine must resume from its commit, not repeat work.
fn drive(tero: &Tero, world: &mut World, window: Option<SimDuration>) -> TeroReport {
    let window = window.unwrap_or(world.horizon.since(SimTime::EPOCH));
    drive_from(tero, world, SimTime::EPOCH, window)
}

/// Finish a drive that has reached `from`, in `window`-sized slices. A
/// `Killed` outcome re-drives the same slice.
fn drive_from(tero: &Tero, world: &mut World, from: SimTime, window: SimDuration) -> TeroReport {
    let mut to = from + window;
    loop {
        match tero.run_window(world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => return report,
            WindowOutcome::Advanced => to += window,
            WindowOutcome::Killed => {}
        }
    }
}

#[test]
fn windowed_schedules_match_single_shot() {
    let mut world = windowed_world(None);
    let tero_ref = windowed_tero(1);
    let reference = fingerprint(&tero_ref.run(&mut world));
    assert!(reference.len() > 1_000, "fingerprint covers a real run");
    let ref_counters = schedule_invariant(funnel(&tero_ref));

    let day = SimDuration::from_hours(24);
    for window in [Some(day), Some(SimDuration::from_hours(72)), None] {
        for workers in [1, 2, 8] {
            let mut world = windowed_world(None);
            let tero = windowed_tero(workers);
            let report = drive(&tero, &mut world, window);
            assert_eq!(
                fingerprint(&report),
                reference,
                "report diverged: window {window:?}, {workers} workers"
            );
            assert_eq!(
                schedule_invariant(funnel(&tero)),
                ref_counters,
                "counters diverged: window {window:?}, {workers} workers"
            );
            tero.trace
                .ledger()
                .reconcile(&tero.obs)
                .expect("ledger reconciles after a windowed run");
        }
    }
}

#[test]
fn ingest_state_identical_across_worker_counts_and_schedules() {
    // Ingest renders what it fetched on the pool, a bounded batch at a
    // time, and a window boundary cuts the batch short. Neither may
    // show: the committed download cursor (event heap, assignments,
    // retry RNG, stats) and every `download.*` / `chaos.injected.*`
    // counter are the same bytes at any width and on any schedule — under
    // the stock fault plan, and when most fetches time out and the
    // breakers do the scheduling.
    let timeouts = FaultPlan {
        cdn_timeout_rate: 0.6,
        ..FaultPlan::quiet(7)
    };
    let ingest_state = |tero: &Tero| {
        let cursor = tero
            .serving_store()
            .and_then(|kv| kv.get("engine:download_cursor"))
            .expect("a completed run leaves its committed cursor");
        let counters: BTreeMap<String, u64> = funnel(tero)
            .into_iter()
            .filter(|(name, _)| name.starts_with("download.") || name.starts_with("chaos."))
            .collect();
        (cursor, counters)
    };
    for plan in [FaultPlan::default_plan(7), timeouts] {
        let tero_ref = windowed_tero(1);
        let reference = fingerprint(&tero_ref.run(&mut windowed_world(Some(plan.clone()))));
        let ref_state = ingest_state(&tero_ref);
        assert!(ref_state.1["download.get_hits"] > 500, "a real ingest");
        assert!(ref_state.1["download.retries"] > 10, "with real faults");
        // 7 h 37 min never divides a day: every boundary lands mid-batch.
        let odd = SimDuration::from_mins(7 * 60 + 37);
        for window in [Some(odd), Some(SimDuration::from_hours(24)), None] {
            for workers in [1, 2, 8] {
                let tero = windowed_tero(workers);
                let report = drive(&tero, &mut windowed_world(Some(plan.clone())), window);
                assert_eq!(
                    fingerprint(&report),
                    reference,
                    "report diverged: window {window:?}, {workers} workers"
                );
                assert!(
                    ingest_state(&tero) == ref_state,
                    "ingest state diverged: window {window:?}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn windowed_kill_and_resume_matches_single_shot_under_chaos() {
    // Reference: a single-shot run under the stock fault plan.
    let mut world = windowed_world(Some(FaultPlan::default_plan(7)));
    let tero_ref = windowed_tero(1);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_counters = schedule_invariant(funnel(&tero_ref));

    // Same plan plus a planned engine kill in window 1: the kill fires
    // after the ingest commit, the drive loop re-calls `run_window`, and
    // the engine must resume from the commit without double-counting.
    let plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 1 }],
        ..FaultPlan::default_plan(7)
    };
    let day = SimDuration::from_hours(24);
    for workers in [1, 2, 8] {
        let mut world = windowed_world(Some(plan.clone()));
        let tero = windowed_tero(workers);
        let report = drive(&tero, &mut world, Some(day));
        assert_eq!(
            fingerprint(&report),
            reference,
            "kill/resume diverged at {workers} workers"
        );
        assert_eq!(
            schedule_invariant(funnel(&tero)),
            ref_counters,
            "kill/resume counters diverged at {workers} workers"
        );
        let snap = tero.metrics_snapshot();
        assert_eq!(snap.counter("chaos.injected.engine_kill"), Some(1));
        assert_eq!(snap.counter("pipeline.window.killed"), Some(1));
        tero.trace
            .ledger()
            .reconcile(&tero.obs)
            .expect("ledger reconciles across a kill/resume");
    }
}

#[test]
fn snapshot_restores_into_fresh_tero() {
    let mut world = windowed_world(None);
    let tero_ref = windowed_tero(1);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_counters = schedule_invariant(funnel(&tero_ref));

    // Run the first 1-day window on one Tero, snapshot its committed
    // state, and finish the run on a brand-new Tero — fresh registry,
    // fresh tracer, fresh engine — fed only the snapshot and the world.
    let day = SimDuration::from_hours(24);
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);

    let second = windowed_tero(2);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    let horizon = world.horizon;
    let mut to = SimTime::EPOCH + day + day;
    let report = loop {
        match second.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    };
    assert_eq!(fingerprint(&report), reference, "restored run diverged");
    assert_eq!(
        schedule_invariant(funnel(&second)),
        ref_counters,
        "restored counters diverged"
    );
    let snap = second.metrics_snapshot();
    assert_eq!(snap.counter("pipeline.window.resumed"), Some(1));
    second
        .trace
        .ledger()
        .reconcile(&second.obs)
        .expect("replayed ledger reconciles");
}

#[test]
fn a_clean_cursor_past_its_list_skips_no_later_record() {
    // A damaged or badly merged snapshot can hold a clean cursor past the
    // end of its sample list. The restored cleaner must resume where its
    // replay ended, or the records later appended at the indices between
    // the list's end and the cursor are never fed.
    use tero::core::stages::clean::CLEAN_CURSORS_KEY;
    let reference = fingerprint(&windowed_tero(1).run(&mut windowed_world(None)));

    let day = SimDuration::from_hours(24);
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let mut snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let damaged = tero::store::KvStore::new();
    damaged.restore(&snap.kv);
    let planted: Vec<(String, String)> = damaged
        .hgetall(CLEAN_CURSORS_KEY)
        .into_keys()
        .map(|list| {
            let past = damaged.llen(&list) + 5;
            (list, past.to_string())
        })
        .collect();
    assert!(planted.len() > 10, "the first day fed a real population");
    damaged.hset_many(CLEAN_CURSORS_KEY, planted);
    snap.kv = damaged.snapshot();

    let second = windowed_tero(2);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    let report = drive_from(&second, &mut world, SimTime::EPOCH + day, day);
    assert_eq!(
        fingerprint(&report),
        reference,
        "a cursor past its list's end skipped records"
    );
}

#[test]
fn a_damaged_committed_cursor_is_refused() {
    // A committed download cursor that did not decode used to be dropped
    // in silence: the resumed engine started a fresh cursor, polled from
    // the epoch again and queued every thumbnail a second time. So was
    // a progress marker or counter value that did not parse: a marker
    // read as absent (a wrong `thumbnails` total), and a counter was
    // skipped and then overwritten with a smaller value. Handing such a
    // snapshot over is an error now, and the untouched snapshot still
    // resumes to the uninterrupted report.
    use tero::core::{RestoreError, StoreSnapshot};
    use tero::store::KvStore;
    const CURSOR_KEY: &str = "engine:download_cursor";
    const MARKERS_KEY: &str = "engine:cursor";
    const COUNTERS_KEY: &str = "engine:counters";
    let reference = fingerprint(&windowed_tero(1).run(&mut windowed_world(None)));

    let from = SimTime::EPOCH + SimDuration::from_hours(30);
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, from),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let edited = |edit: &dyn Fn(&KvStore)| {
        let kv = KvStore::new();
        kv.restore(&snap.kv);
        edit(&kv);
        StoreSnapshot {
            kv: kv.snapshot(),
            objects: snap.objects.clone(),
        }
    };
    let committed = KvStore::new();
    committed.restore(&snap.kv);
    let cursor = committed
        .get(CURSOR_KEY)
        .expect("ingest committed a cursor");
    let garbage = edited(&|kv| kv.set(CURSOR_KEY, "garbage"));
    let truncated = edited(&|kv| kv.set(CURSOR_KEY, &cursor[..cursor.len() / 2]));
    let missing = edited(&|kv| {
        kv.del(CURSOR_KEY);
    });
    let bad_marker = edited(&|kv| kv.hset(MARKERS_KEY, "tasks_processed", "12x"));
    let bad_counter = edited(&|kv| kv.hset(COUNTERS_KEY, "download.polls", "-1"));
    let second = windowed_tero(2);
    for (damaged, key, what) in [
        (garbage, CURSOR_KEY, "garbage"),
        (truncated, CURSOR_KEY, "truncated"),
        (missing, CURSOR_KEY, "missing"),
        (bad_marker, MARKERS_KEY, "bad marker"),
        (bad_counter, COUNTERS_KEY, "bad counter"),
    ] {
        let refused = second.restore_engine(damaged);
        let names = |e: &RestoreError| (e.family, e.key.as_str()) == (Some(key), key);
        assert!(refused.as_ref().is_err_and(names), "{what}: {refused:?}");
    }
    second
        .restore_engine(snap)
        .expect("the untouched snapshot restores");
    let report = drive_from(&second, &mut world, from, SimDuration::from_hours(24));
    assert_eq!(fingerprint(&report), reference);
}

/// A snapshot of the 4-day world's run after its first 30 hours, the
/// world it ran on, and where it stopped.
fn snapshot_after_30_hours() -> (tero::core::StoreSnapshot, World, SimTime) {
    let from = SimTime::EPOCH + SimDuration::from_hours(30);
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, from),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    (snap, world, from)
}

/// `snap` with its KV edited by `edit`.
fn kv_edited(
    snap: &tero::core::StoreSnapshot,
    edit: impl FnOnce(&tero::store::KvStore),
) -> tero::core::StoreSnapshot {
    let kv = tero::store::KvStore::new();
    kv.restore(&snap.kv);
    edit(&kv);
    tero::core::StoreSnapshot {
        kv: kv.snapshot(),
        objects: snap.objects.clone(),
    }
}

#[test]
fn an_undecodable_ledger_record_is_refused() {
    // A committed ledger record that did not decode used to be skipped:
    // the replayed ledger lost that sample, and its books no longer
    // added up. The restore refuses it now, naming the record.
    use tero::core::RestoreError;
    const LEDGER_KEY: &str = "engine:ledger";
    let (snap, mut world, from) = snapshot_after_30_hours();
    let mut index = 0;
    let damaged = kv_edited(&snap, |kv| {
        let mut records = kv.lrange_from(LEDGER_KEY, 0);
        assert!(!records.is_empty(), "the run committed its ledger");
        index = records.len() / 2;
        records[index].push_str("|extra");
        kv.del(LEDGER_KEY);
        kv.rpush_batch(LEDGER_KEY, records);
    });
    let second = windowed_tero(2);
    assert_eq!(
        second.restore_engine(damaged),
        Err(RestoreError {
            family: Some(LEDGER_KEY),
            key: LEDGER_KEY.to_string(),
            reason: format!("record {index} does not decode"),
        })
    );
    second
        .restore_engine(snap)
        .expect("the untouched snapshot restores");
    let report = drive_from(&second, &mut world, from, SimDuration::from_hours(24));
    let reference = fingerprint(&windowed_tero(1).run(&mut windowed_world(None)));
    assert_eq!(fingerprint(&report), reference);
}

#[test]
fn an_undecodable_raw_sketch_is_refused() {
    // A committed raw sketch that did not decode used to be skipped: the
    // resumed extract stage rebuilt that pair's sketch from empty and
    // its next commit overwrote the committed values. The restore
    // refuses it now, naming the key.
    use tero::core::serving::RAW_SKETCH_PREFIX;
    use tero::core::RestoreError;
    use tero::store::SnapshotValue;
    let (snap, _, _) = snapshot_after_30_hours();
    let (key, raw) = snap
        .kv
        .entries_with_prefix(RAW_SKETCH_PREFIX)
        .next()
        .expect("the first 30 hours extracted something");
    let SnapshotValue::Str(raw) = raw else {
        panic!("a sketch is a string");
    };
    let (key, truncated) = (key.to_string(), raw[..5].to_string());
    for value in [truncated.as_str(), "garbage"] {
        let damaged = kv_edited(&snap, |kv| kv.set(&key, value));
        assert_eq!(
            windowed_tero(2).restore_engine(damaged),
            Err(RestoreError {
                family: Some(RAW_SKETCH_PREFIX),
                key: key.clone(),
                reason: "the sketch does not decode".to_string(),
            }),
            "{value:?}"
        );
    }
}

#[test]
fn a_profile_row_without_its_name_row_does_not_panic_the_restore() {
    // A damaged or badly merged snapshot can hold a committed profile
    // whose `engine:names` row is gone. That is still a valid snapshot:
    // the row stays unsettled, and the resumed run completes.
    use tero::core::stages::{locate::LOCATE_PROFILES_KEY, NAMES_KEY};
    let (snap, mut world, from) = snapshot_after_30_hours();
    let damaged = kv_edited(&snap, |kv| {
        let orphan = kv
            .hgetall(LOCATE_PROFILES_KEY)
            .into_keys()
            .next()
            .expect("the first 30 hours located someone");
        let names = kv.hgetall(NAMES_KEY);
        kv.del(NAMES_KEY);
        kv.hset_many(NAMES_KEY, names.into_iter().filter(|(f, _)| *f != orphan));
    });
    let second = windowed_tero(2);
    second
        .restore_engine(damaged)
        .expect("an orphaned profile row restores");
    let report = drive_from(&second, &mut world, from, SimDuration::from_hours(24));
    assert!(report.streamers_seen > 0);
}

#[test]
fn each_family_refuses_a_corrupt_value() {
    // One corrupt value in each family of the committed-state table, and
    // one `engine:` key that no family holds: the restore refuses each,
    // naming the family and the key, and leaves the slot as it was. A
    // non-numeric `engine:serve:version` used to restore and panic the
    // next bump, and a garbled sample record to restore and change the
    // report.
    use tero::core::stages::NAMES_KEY;
    use tero::core::{RestoreError, FAMILIES};
    use tero::store::SnapshotValue;
    let day = SimDuration::from_hours(24);
    let mut world = pinned_world();
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let refused = |e: RestoreError| (e.family, e.key);
    let second = windowed_tero(2);
    for family in FAMILIES {
        let (key, value) = snap
            .kv
            .entries_with_prefix(family.key)
            .find(|(key, _)| family.prefix || *key == family.key)
            .unwrap_or_else(|| panic!("the first day committed no {}", family.key));
        let damaged = kv_edited(&snap, |kv| match value {
            SnapshotValue::Str(_) => kv.set(key, "x"),
            SnapshotValue::List(items) => {
                let mut items = items.clone();
                let mid = items.len() / 2;
                items[mid].push_str("|x");
                kv.del(key);
                kv.rpush_batch(key, items);
            }
            // A username is any text: the field is what can be corrupt.
            SnapshotValue::Hash(_) if family.key == NAMES_KEY => kv.hset(key, "x", "name"),
            SnapshotValue::Hash(fields) => kv.hset(key, &fields[0].0, "x"),
        });
        assert_eq!(
            second.restore_engine(damaged).map_err(refused),
            Err((Some(family.key), key.to_string()))
        );
    }
    let unknown = kv_edited(&snap, |kv| kv.set("engine:bogus", "1"));
    assert_eq!(
        second.restore_engine(unknown).map_err(refused),
        Err((None, "engine:bogus".to_string()))
    );
    assert!(
        second.engine_snapshot().is_none(),
        "a refusal changed the slot"
    );
    second
        .restore_engine(snap)
        .expect("the untouched snapshot restores");
    let report = drive_from(&second, &mut world, SimTime::EPOCH + day, day);
    let reference = fingerprint(&windowed_tero(1).run(&mut pinned_world()));
    assert_eq!(fingerprint(&report), reference);
}

/// The online cleaner's only committed state, `engine:clean:cursors`,
/// rendered order-stably: one field per sample list, the number of
/// records consumed from it. At the horizon every list is consumed to
/// its end, so the hash must be byte-identical across window schedules,
/// worker counts, chaos kill/resume and a fresh-`Tero` restore.
fn clean_state(kv: &tero::store::KvStore) -> BTreeMap<String, String> {
    use tero::core::stages::clean::CLEAN_CURSORS_KEY;
    kv.hgetall(CLEAN_CURSORS_KEY).into_iter().collect()
}

#[test]
fn windowed_clean_cursors_identical_across_schedules() {
    // Reference: the committed cleaner cursors after a single-shot run.
    let mut world = windowed_world(None);
    let tero_ref = windowed_tero(1);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_state = clean_state(&tero_ref.serving_store().expect("run completed"));
    assert!(
        ref_state.len() > 10,
        "clean cursors cover a real population of series"
    );

    let day = SimDuration::from_hours(24);
    for window in [Some(day), Some(SimDuration::from_hours(72)), None] {
        for workers in [1, 2, 8] {
            let mut world = windowed_world(None);
            let tero = windowed_tero(workers);
            let report = drive(&tero, &mut world, window);
            assert_eq!(fingerprint(&report), reference);
            assert_eq!(
                clean_state(&tero.serving_store().expect("run completed")),
                ref_state,
                "clean state diverged: window {window:?}, {workers} workers"
            );
        }
    }

    // Chaos kill mid-run: the re-driven window must resume the cleaner
    // from its committed cursors, not re-feed consumed records.
    let chaos_plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 1 }],
        ..FaultPlan::quiet(7)
    };
    let mut world = windowed_world(Some(chaos_plan));
    let tero = windowed_tero(2);
    drive(&tero, &mut world, Some(day));
    assert_eq!(
        clean_state(&tero.serving_store().expect("run completed")),
        ref_state,
        "clean state diverged across a kill/resume"
    );

    // Fresh-`Tero` restore: the second engine rebuilds its cleaner from
    // the snapshot's sample lists and cursors alone.
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let second = windowed_tero(8);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    let horizon = world.horizon;
    let mut to = SimTime::EPOCH + day + day;
    loop {
        match second.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(_) => break,
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    }
    assert_eq!(
        clean_state(&second.serving_store().expect("run completed")),
        ref_state,
        "clean state diverged across a fresh-Tero restore"
    );
}

/// Everything the budgeted locate stage committed under
/// `engine:locate:*`, rendered order-stably as `{key}#{field}`. At the
/// horizon the family is a pure function of the world — who streamed,
/// what their committed profiles said, where the complete tag histories
/// point — so it must be byte-identical across window schedules, worker
/// counts, chaos kill/resume and a fresh-`Tero` restore.
fn locate_state(kv: &tero::store::KvStore) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for family in tero::core::FAMILIES.iter().filter(|f| f.owner == "locate") {
        let key = family.key;
        for (field, value) in kv.hgetall(key) {
            out.insert(format!("{key}#{field}"), value);
        }
    }
    out
}

/// Every `engine:*` key the engine left in its store belongs to a family
/// of the committed-state table, and its value decodes: the restore,
/// which reads each key through `tero::core::FAMILIES`, takes the store.
/// A key outside the table is state nothing reads back.
fn assert_engine_keys_are_read(kv: &tero::store::KvStore) {
    let snapshot = tero::core::StoreSnapshot {
        kv: kv.snapshot(),
        objects: tero::store::ObjectStore::new().snapshot(),
    };
    assert_eq!(windowed_tero(1).restore_engine(snapshot), Ok(()));
}

#[test]
fn windowed_locate_state_identical_across_schedules() {
    // Reference: the committed locate state after a single-shot run.
    let mut world = windowed_world(None);
    let tero_ref = windowed_tero(1);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_kv = tero_ref.serving_store().expect("run completed");
    let ref_state = locate_state(&ref_kv);
    assert!(
        ref_state
            .keys()
            .any(|k| k.starts_with("engine:locate:profiles#")),
        "locate state covers committed profiles"
    );
    assert_engine_keys_are_read(&ref_kv);

    let day = SimDuration::from_hours(24);
    for window in [Some(day), Some(SimDuration::from_hours(72)), None] {
        for workers in [1, 2, 8] {
            let mut world = windowed_world(None);
            let tero = windowed_tero(workers);
            let report = drive(&tero, &mut world, window);
            assert_eq!(fingerprint(&report), reference);
            let kv = tero.serving_store().expect("run completed");
            assert_eq!(
                locate_state(&kv),
                ref_state,
                "locate state diverged: window {window:?}, {workers} workers"
            );
            assert_engine_keys_are_read(&kv);
        }
    }

    // Chaos kill mid-run: the re-driven window must resume from the
    // committed profiles/results, not re-draw a profile outcome.
    let chaos_plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 1 }],
        ..FaultPlan::quiet(7)
    };
    let mut world = windowed_world(Some(chaos_plan));
    let tero = windowed_tero(2);
    drive(&tero, &mut world, Some(day));
    let kv = tero.serving_store().expect("run completed");
    assert_eq!(
        locate_state(&kv),
        ref_state,
        "locate state diverged across a kill/resume"
    );
    assert_engine_keys_are_read(&kv);

    // Fresh-`Tero` restore: the second engine rebuilds its locate queue
    // from the snapshot alone, and its empty aggregation stage analyses
    // every group on its first pass.
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let second = windowed_tero(8);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    let horizon = world.horizon;
    let mut to = SimTime::EPOCH + day + day;
    loop {
        match second.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(_) => break,
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    }
    let kv = second.serving_store().expect("run completed");
    assert_eq!(
        locate_state(&kv),
        ref_state,
        "locate state diverged across a fresh-Tero restore"
    );
    assert_engine_keys_are_read(&kv);
}

/// A world whose streamers are pinned to a few locations (the §5.2
/// workload shape, as in `examples/serve_explore.rs`): location groups
/// clear `min_streamers` early, so the per-window refresh serves real
/// distributions mid-run — which is what the provenance pins below
/// inspect. A random small world rarely concentrates enough located
/// streamers in one place to publish anything before the horizon.
fn pinned_world() -> World {
    use tero_types::{GameId, Location};
    let locations = [
        Location::country("Netherlands"),
        Location::country("Poland"),
        Location::region("United States", "Illinois"),
    ];
    let pinned = locations
        .iter()
        .map(|l| (l.clone(), GameId::LeagueOfLegends, 8))
        .collect();
    World::build(WorldConfig {
        seed: 4242,
        n_streamers: 0,
        days: 4,
        pinned,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    })
}

/// Every committed distribution sketch's provenance marker, from a
/// mid-run engine snapshot or the final serving store.
fn provenances(kv: &tero::store::KvStore) -> Vec<tero::core::serving::DistProvenance> {
    use tero::core::serving::{dist_provenance, DIST_SKETCH_PREFIX};
    kv.keys_with_prefix(DIST_SKETCH_PREFIX)
        .iter()
        .map(|key| dist_provenance(kv, key).expect("every sketch carries a provenance marker"))
        .collect()
}

#[test]
fn locate_budget_zero_defers_every_lookup_and_converges() {
    use tero::core::serving::DistProvenance;

    // Reference: the default unlimited budget.
    let mut world = pinned_world();
    let tero_ref = windowed_tero(2);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_store = tero_ref.serving_store().expect("run completed");
    let ref_state = locate_state(&ref_store);
    let ref_spent = funnel(&tero_ref)
        .get("locate.budget.spent")
        .copied()
        .expect("reference run spent API calls");
    assert!(ref_spent > 0);

    // Zero budget: the first window admits no lookup — everything is
    // deferred, the queue gauge shows the backlog, and every served
    // distribution falls back to provisional social-profile locations.
    let day = SimDuration::from_hours(24);
    let mut world = pinned_world();
    let tero = Tero {
        locate_budget: Some(0),
        ..windowed_tero(2)
    };
    assert!(matches!(
        tero.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let snap = tero.metrics_snapshot();
    assert_eq!(
        snap.counter("locate.budget.spent").unwrap_or(0),
        0,
        "a zero budget must not admit any lookup mid-run"
    );
    let deferred = snap.counter("locate.budget.deferred").unwrap_or(0);
    assert!(deferred > 0, "seen streamers queue up under a zero budget");
    let depth = snap
        .gauge("locate.queue.depth")
        .map(|g| g.value)
        .unwrap_or(0);
    assert!(depth > 0, "queue gauge shows the carried-over backlog");
    assert_eq!(
        snap.gauge("location.api_calls").map(|g| g.value),
        Some(0),
        "no simulated API call was made"
    );
    let mid = tero::store::KvStore::new();
    mid.restore(&tero.engine_snapshot().expect("run in flight").kv);
    let marks = provenances(&mid);
    assert!(!marks.is_empty(), "window 1 serves real distributions");
    assert!(
        marks.iter().all(|p| *p == DistProvenance::Provisional),
        "with no canonical location committed, every served distribution is provisional"
    );

    // Finishing the drive drains the queue at the horizon; the final
    // report and committed state match the unlimited-budget run byte
    // for byte, and every marker flips to canonical. No pass rewrites
    // the served family at the horizon: the aggregation pass after the
    // drain must flip each provisional group to canonical and delete the
    // groups only provisional locations formed.
    let horizon = world.horizon;
    let mut to = SimTime::EPOCH + day + day;
    let report = loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    };
    assert_eq!(
        fingerprint(&report),
        reference,
        "zero-budget horizon diverged"
    );
    let store = tero.serving_store().expect("run completed");
    assert_eq!(
        locate_state(&store),
        ref_state,
        "zero-budget committed state diverged"
    );
    assert!(
        provenances(&store)
            .iter()
            .all(|p| *p == DistProvenance::Canonical),
        "the horizon serves canonical locations only"
    );
    assert_eq!(
        serving_bytes(&store),
        serving_bytes(&ref_store),
        "zero-budget served family diverged"
    );
    assert_eq!(
        funnel(&tero).get("locate.budget.spent").copied(),
        Some(ref_spent),
        "the horizon drain spends exactly the single-shot call count"
    );
}

#[test]
fn locate_budget_huge_matches_single_shot_exactly() {
    // A budget that always covers the whole queue must reproduce the
    // unbudgeted run exactly — report, funnel and committed state.
    let mut world = windowed_world(None);
    let tero_ref = windowed_tero(2);
    let reference = fingerprint(&tero_ref.run(&mut world));
    let ref_counters = funnel(&tero_ref);
    let ref_state = locate_state(&tero_ref.serving_store().expect("run completed"));

    let mut world = windowed_world(None);
    let tero = Tero {
        locate_budget: Some(1_000_000),
        ..windowed_tero(2)
    };
    let report = tero.run(&mut world);
    assert_eq!(fingerprint(&report), reference);
    assert_eq!(funnel(&tero), ref_counters);
    assert_eq!(
        locate_state(&tero.serving_store().expect("run completed")),
        ref_state
    );
}

#[test]
fn an_idle_window_still_spends_the_locate_budget() {
    // A budget that admits one lookup a window (the worst case of one is
    // five calls): a first half-day window registers a queue of
    // streamers, and most of the half-minute windows that drain it pop no
    // download event at all. The locate slice must run in them anyway.
    let tero_ref = windowed_tero(2);
    let reference = fingerprint(&tero_ref.run(&mut windowed_world(None)));
    let ref_counters = schedule_invariant(funnel(&tero_ref));
    let ref_store = tero_ref.serving_store().expect("run completed");
    let ref_state = locate_state(&ref_store);

    let mut world = windowed_world(None);
    let tero = Tero {
        locate_budget: Some(5),
        ..windowed_tero(2)
    };
    let depth = |t: &Tero| {
        t.metrics_snapshot()
            .gauge("locate.queue.depth")
            .map_or(0, |g| g.value)
    };
    let events = |t: &Tero| {
        ["download.polls", "download.get_attempts"].map(|name| t.obs.counter(name).get())
    };
    let mut to = SimTime::EPOCH + SimDuration::from_hours(12);
    assert!(matches!(
        tero.run_window(&mut world, SimTime::EPOCH, to),
        WindowOutcome::Advanced
    ));
    let queued = depth(&tero);
    assert!(queued >= 5, "the first window left only {queued} lookups");
    let mut drained_idle = 0;
    while depth(&tero) > 0 {
        to += HALF_MINUTE;
        let before = (depth(&tero), events(&tero));
        assert!(matches!(
            tero.run_window(&mut world, SimTime::EPOCH, to),
            WindowOutcome::Advanced
        ));
        assert!(depth(&tero) < before.0, "window to {to:?} admitted nothing");
        drained_idle += (events(&tero) == before.1) as i64;
    }
    assert!(
        drained_idle > queued / 2,
        "{drained_idle} of the {queued} draining windows popped no event"
    );

    // The served family at the horizon is the unbudgeted run's too, left
    // by the aggregation pass alone.
    let report = drive_from(&tero, &mut world, to, SimDuration::from_hours(24));
    assert_eq!(fingerprint(&report), reference);
    assert_eq!(schedule_invariant(funnel(&tero)), ref_counters);
    let store = tero.serving_store().expect("run completed");
    assert_eq!(locate_state(&store), ref_state);
    assert_eq!(serving_bytes(&store), serving_bytes(&ref_store));
}

#[test]
fn a_restored_engine_deletes_groups_it_no_longer_serves() {
    // A restored engine used to start with an empty map of the groups
    // it had served, so a committed distribution whose group had since
    // vanished stayed served until the horizon's publish wiped the
    // family. Plant two such groups in a mid-run snapshot, one with each
    // marker: the first window after the restore must delete both,
    // marker and all. (A marker that is neither `c` nor `p` is refused
    // by the restore itself: `each_family_refuses_a_corrupt_value`.)
    use tero::core::serving::{
        dist_meta_key, dist_sketch_key, ServeGranularity, DIST_SKETCH_PREFIX,
    };
    use tero::stats::QuantileSketch;
    use tero_types::GameId;

    let day = SimDuration::from_hours(24);
    let mut world = pinned_world();
    let first = windowed_tero(2);
    assert!(matches!(
        first.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
        WindowOutcome::Advanced
    ));
    let mut snap = first.engine_snapshot().expect("windowed run in flight");
    drop(first);
    let planted = tero::store::KvStore::new();
    planted.restore(&snap.kv);
    let ghosts = ["Atlantis", "Lemuria"]
        .map(|loc| dist_sketch_key(ServeGranularity::Region, GameId::LeagueOfLegends, loc));
    for (key, marker) in ghosts.iter().zip(["c", "p"]) {
        planted.set(key, QuantileSketch::from_values(&[40.0, 42.0]).encode());
        planted.set(&dist_meta_key(key).expect("a dist key"), marker);
    }
    snap.kv = planted.snapshot();

    let second = windowed_tero(2);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    assert!(matches!(
        second.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day + day),
        WindowOutcome::Advanced
    ));
    let after = tero::store::KvStore::new();
    after.restore(&second.engine_snapshot().expect("run in flight").kv);
    for key in &ghosts {
        assert_eq!(after.get(key), None, "{key} is still served");
        let meta = dist_meta_key(key).expect("a dist key");
        assert_eq!(after.get(&meta), None, "{meta} outlived its sketch");
    }
    assert!(
        !after.keys_with_prefix(DIST_SKETCH_PREFIX).is_empty(),
        "the real groups are still served"
    );
}

#[test]
fn windows_after_location_serve_canonical_distributions() {
    use tero::core::serving::DistProvenance;

    // Unlimited budget: every seen streamer's profile is committed in
    // the window that first saw it, so *every* mid-run window — not
    // just the horizon — serves canonical locations for every group.
    let day = SimDuration::from_hours(24);
    let mut world = pinned_world();
    let tero = windowed_tero(2);
    let horizon = world.horizon;
    let mut to = SimTime::EPOCH + day;
    let mut windows_checked = 0usize;
    loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(_) => break,
            WindowOutcome::Advanced => {
                let mid = tero::store::KvStore::new();
                mid.restore(&tero.engine_snapshot().expect("run in flight").kv);
                let marks = provenances(&mid);
                assert!(!marks.is_empty(), "each window serves real distributions");
                assert!(
                    marks.iter().all(|p| *p == DistProvenance::Canonical),
                    "an unlimited budget makes every window canonical"
                );
                windows_checked += 1;
                to = (to + day).min(horizon);
            }
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    }
    assert!(windows_checked >= 3, "the pin covers real mid-run windows");
    assert!(
        provenances(&tero.serving_store().expect("run completed"))
            .iter()
            .all(|p| *p == DistProvenance::Canonical),
        "the horizon serves canonical locations only"
    );
}

#[test]
fn admitting_a_groups_last_provisional_member_reserves_it_canonical() {
    // A budget of five calls admits one lookup a window, and most
    // half-minute windows feed no series. When such a window admits a
    // group's only provisional member and its canonical verdict keeps it
    // in the group, neither the membership nor any member's data moves —
    // only the group's provenance. The group must still be re-served,
    // marked `c`, with one serve-version bump.
    use tero::core::serving::{
        dist_meta_key, parse_dist_sketch_key, serve_version, DIST_SKETCH_PREFIX,
    };
    use tero::core::stages::locate::LOCATE_RESULTS_KEY;
    use tero::store::{KvStore, ObjectStore};
    use tero_types::Location;

    let kv = KvStore::new();
    let tero = Tero {
        locate_budget: Some(5),
        stores: Some((kv.clone(), ObjectStore::new())),
        ..windowed_tero(2)
    };
    // Every served sketch with its marker.
    let served = |kv: &KvStore| -> BTreeMap<String, (String, String)> {
        kv.keys_with_prefix(DIST_SKETCH_PREFIX)
            .into_iter()
            .map(|key| {
                let meta = dist_meta_key(&key).expect("a dist key");
                let entry = (
                    kv.get(&key).expect("listed"),
                    kv.get(&meta).expect("marked"),
                );
                (key, entry)
            })
            .collect()
    };
    let depth = |t: &Tero| {
        t.metrics_snapshot()
            .gauge("locate.queue.depth")
            .map_or(0, |g| g.value)
    };
    let fed = |t: &Tero| t.obs.counter("clean.series_dirty").get();

    let mut world = pinned_world();
    let mut to = SimTime::EPOCH + SimDuration::from_hours(24);
    assert!(matches!(
        tero.run_window(&mut world, SimTime::EPOCH, to),
        WindowOutcome::Advanced
    ));
    let mut flips = 0;
    while depth(&tero) > 0 {
        let before = served(&kv);
        let version = serve_version(&kv);
        let verdicts = kv.hgetall(LOCATE_RESULTS_KEY);
        let fed_before = fed(&tero);
        to += HALF_MINUTE;
        assert!(matches!(
            tero.run_window(&mut world, SimTime::EPOCH, to),
            WindowOutcome::Advanced
        ));
        if fed(&tero) != fed_before {
            continue;
        }
        // Where each streamer this window admitted is located, at region
        // and at country level (`ServeGranularity as usize` order).
        let admitted: Vec<[String; 2]> = kv
            .hgetall(LOCATE_RESULTS_KEY)
            .into_iter()
            .filter(|(anon, _)| !verdicts.contains_key(anon))
            .filter_map(|(_, json)| {
                let verdict: serde_json::Value = serde_json::from_str(&json).ok()?;
                let located = verdict.field("located").as_array()?.first()?.clone();
                let loc: Location = serde_json::from_value(located).ok()?;
                Some([loc.to_region_level().key(), loc.to_country_level().key()])
            })
            .collect();
        for (key, (sketch, marker)) in &served(&kv) {
            let (granularity, _, loc_key) = parse_dist_sketch_key(key).expect("a dist key");
            let kept = admitted
                .iter()
                .any(|keys| keys[granularity as usize] == loc_key);
            let was = before.get(key).map(|(s, m)| (s == sketch, m.as_str()));
            if kept && marker == "c" && was == Some((true, "p")) {
                assert_eq!(
                    serve_version(&kv),
                    version + 1,
                    "{key} flipped without exactly one version bump"
                );
                flips += 1;
            }
        }
    }
    assert!(
        flips > 0,
        "no idle window admitted a group's last provisional member"
    );
}

#[test]
fn horizon_recomputes_only_stale_views() {
    // The horizon is not a second pass over every series: the call that
    // reaches it refreshes exactly the views the last window's records
    // made stale, and reports from the cached rest.
    let reference = fingerprint(&windowed_tero(1).run(&mut windowed_world(None)));
    let day = SimDuration::from_hours(24);
    let views = |t: &Tero| t.obs.counter("clean.views_refreshed").get();
    let fed = |t: &Tero| t.obs.counter("clean.series_dirty").get();

    let mut world = windowed_world(None);
    let horizon = world.horizon;
    let tero = windowed_tero(2);
    let mut to = SimTime::EPOCH + day;
    let (report, before) = loop {
        let before = (views(&tero), fed(&tero));
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break (report, before),
            WindowOutcome::Advanced => to = (to + day).min(horizon),
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    };
    let series = report.anomalies.len() as u64;
    let fed_last = fed(&tero) - before.1;
    assert!(
        fed_last > 0 && fed_last < series,
        "the last day fed {fed_last} of {series} series"
    );
    assert_eq!(views(&tero) - before.0, fed_last);
    assert_eq!(fingerprint(&report), reference);

    // A fresh `Tero` restored before the last day holds no views at all:
    // its horizon recomputes every series, to the same report.
    let mut world = windowed_world(None);
    let first = windowed_tero(2);
    let last_day = horizon - day;
    let mut to = SimTime::EPOCH + day;
    while to <= last_day {
        assert!(matches!(
            first.run_window(&mut world, SimTime::EPOCH, to),
            WindowOutcome::Advanced
        ));
        to += day;
    }
    let snap = first.engine_snapshot().expect("windowed run in flight");
    let second = windowed_tero(2);
    second
        .restore_engine(snap)
        .expect("the snapshot's cursor decodes");
    let WindowOutcome::Complete(report) = second.run_window(&mut world, SimTime::EPOCH, horizon)
    else {
        panic!("the restored run reaches the horizon in one window");
    };
    assert_eq!(views(&second) - views(&first), series);
    assert_eq!(fingerprint(&report), reference);
}

#[test]
fn same_seed_same_process_is_reproducible() {
    // Two full runs in one process (fresh worlds, fresh registries) —
    // guards against hidden global state leaking between runs.
    let a = run_once(4, Some(7));
    let b = run_once(4, Some(7));
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

// ---------------------------------------------------------------------------
// Sub-minute windows: most ingest nothing, and a commit writes only what
// moved since the last one.

const HALF_MINUTE: SimDuration = SimDuration::from_secs(30);

/// A 1-day world: 2 880 half-minute windows, most of which pop no
/// download event and extract nothing.
fn day_world(plan: Option<FaultPlan>) -> World {
    let mut world = World::build(WorldConfig {
        seed: 4242,
        n_streamers: 25,
        days: 1,
        ..WorldConfig::default()
    });
    if let Some(plan) = plan {
        world.install_chaos(ChaosInjector::new(plan));
    }
    world
}

/// The committed `engine:*` resume state a completed run leaves in its
/// store, rendered order-stably: `engine:counters` through the same
/// filter as the registry (`schedule_invariant`), the progress markers,
/// the ledger and the download cursor.
/// `window_index` is left out with the `pipeline.window.*` counters: a
/// restore resumes from the last *commit*, which precedes the
/// end-of-window bumps, so both trail by one per restore.
fn engine_state(tero: &Tero) -> BTreeMap<String, String> {
    let kv = tero.serving_store().expect("run completed");
    let counters = kv
        .hgetall("engine:counters")
        .into_iter()
        .map(|(name, value)| (name, value.parse().expect("counters are decimal")))
        .collect();
    let mut out: BTreeMap<String, String> = schedule_invariant(counters)
        .into_iter()
        .map(|(name, value)| (format!("engine:counters#{name}"), value.to_string()))
        .collect();
    for (field, value) in kv.hgetall("engine:cursor") {
        if field != "window_index" {
            out.insert(format!("engine:cursor#{field}"), value);
        }
    }
    out.insert(
        "engine:ledger".to_string(),
        kv.lrange_from("engine:ledger", 0).join("\n"),
    );
    out.insert(
        "engine:download_cursor".to_string(),
        kv.get("engine:download_cursor").expect("committed cursor"),
    );
    out
}

/// What one half-minute drive is compared by.
struct Drive {
    fingerprint: String,
    counters: BTreeMap<String, u64>,
    engine_state: BTreeMap<String, String>,
}

impl Drive {
    fn finish(tero: &Tero, report: &TeroReport) -> Drive {
        tero.trace
            .ledger()
            .reconcile(&tero.obs)
            .expect("ledger reconciles after a half-minute drive");
        Drive {
            fingerprint: fingerprint(report),
            counters: funnel(tero),
            engine_state: engine_state(tero),
        }
    }

    fn assert_matches(&self, reference: &Drive, what: &str) {
        assert_eq!(self.fingerprint, reference.fingerprint, "report: {what}");
        assert_eq!(
            schedule_invariant(self.counters.clone()),
            schedule_invariant(reference.counters.clone()),
            "counters: {what}"
        );
        assert_eq!(
            self.engine_state, reference.engine_state,
            "committed engine state: {what}"
        );
    }
}

/// Whether the window a caller just drove was idle: no CDN fetch was
/// attempted and the extract stage was handed nothing.
fn window_was_idle(tero: &Tero, before: &mut (u64, u64)) -> bool {
    let now = (
        tero.obs.counter("download.get_attempts").get(),
        tero.obs.counter("stage.extract.records_in").get(),
    );
    let idle = now == *before;
    *before = now;
    idle
}

/// The half-minute day drive at 1 / 2 / 8 workers: each run's counters,
/// once its report matches the single-shot one.
fn half_minute_counters_at_each_width() -> [BTreeMap<String, u64>; 3] {
    let single_shot = fingerprint(&windowed_tero(1).run(&mut day_world(None)));
    [1, 2, 8].map(|workers| {
        let tero = windowed_tero(workers);
        let report = drive(&tero, &mut day_world(None), Some(HALF_MINUTE));
        assert_eq!(
            fingerprint(&report),
            single_shot,
            "report diverged at {workers} workers"
        );
        let counters = funnel(&tero);
        assert_eq!(counters["pipeline.window.runs"], 2_880);
        counters
    })
}

#[test]
fn half_minute_windows_cost_the_same_store_traffic_at_every_width() {
    // A commit writes only the counters that moved; however many that
    // is, each hash takes one write per commit, so the *number* of store
    // operations is the same at every width.
    let traffic = half_minute_counters_at_each_width()
        .map(|counters| (counters["store.kv.writes"], counters["store.kv.reads"]));
    assert_eq!(traffic[1], traffic[0], "2 workers against 1");
    assert_eq!(traffic[2], traffic[0], "8 workers against 1");
    // Far fewer writes than one per counter per commit (5 760 commits of
    // a hundred-odd counters each).
    assert!(traffic[0].0 < 40_000, "store.kv.writes {}", traffic[0].0);
}

#[test]
fn half_minute_drive_survives_restores_at_idle_and_busy_boundaries() {
    let reference = {
        let tero = windowed_tero(2);
        let report = drive(&tero, &mut day_world(None), Some(HALF_MINUTE));
        Drive::finish(&tero, &report)
    };

    // The same drive, handed to a fresh `Tero` — fresh registry, tracer
    // and engine, fed only the snapshot — at eight boundaries: after the
    // first idle window past each even mark, after the first busy one
    // past each odd mark. An idle boundary is where a commit that skips
    // what did not move could leave the snapshot behind the engine.
    let marks = [100, 450, 800, 1_150, 1_500, 1_850, 2_200, 2_550];
    let mut world = day_world(None);
    let mut tero = windowed_tero(2);
    let mut seen = (0, 0);
    let (mut restores, mut idle_restores) = (0, 0);
    let mut to = SimTime::EPOCH + HALF_MINUTE;
    let mut window = 0;
    let report = loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to += HALF_MINUTE,
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
        let idle = window_was_idle(&tero, &mut seen);
        if restores < marks.len() && window >= marks[restores] && idle == (restores % 2 == 0) {
            let snap = tero.engine_snapshot().expect("windowed run in flight");
            tero = windowed_tero(2);
            tero.restore_engine(snap)
                .expect("the snapshot's cursor decodes");
            restores += 1;
            idle_restores += idle as usize;
        }
        window += 1;
    };
    assert_eq!((restores, idle_restores), (8, 4));
    assert_eq!(
        tero.metrics_snapshot().counter("pipeline.window.resumed"),
        Some(8)
    );
    Drive::finish(&tero, &report).assert_matches(&reference, "eight restores");
}

#[test]
fn half_minute_drive_survives_a_kill_in_an_idle_and_in_a_busy_window() {
    // Find an idle and a busy window of the drive (under a quiet plan, so
    // the reference registers the same `chaos.*` counters).
    let quiet = FaultPlan::quiet(7);
    let mut world = day_world(Some(quiet.clone()));
    let tero = windowed_tero(2);
    let mut seen = (0, 0);
    let mut idle_at = Vec::new();
    let mut to = SimTime::EPOCH + HALF_MINUTE;
    let report = loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to += HALF_MINUTE,
            WindowOutcome::Killed => unreachable!("no kill planned"),
        }
        idle_at.push(window_was_idle(&tero, &mut seen));
    };
    let reference = Drive::finish(&tero, &report);
    let pick = |idle: bool| {
        (1_000..)
            .find(|&w| idle_at[w] == idle)
            .expect("the day has both kinds of window") as u64
    };

    // The kill fires after the ingest commit; the drive loop re-calls
    // `run_window` and the engine resumes from that commit.
    for (window, what) in [(pick(true), "idle"), (pick(false), "busy")] {
        let plan = FaultPlan {
            engine_kills: vec![EngineKill { window }],
            ..quiet.clone()
        };
        let tero = windowed_tero(2);
        let report = drive(&tero, &mut day_world(Some(plan)), Some(HALF_MINUTE));
        let snap = tero.metrics_snapshot();
        assert_eq!(snap.counter("pipeline.window.killed"), Some(1));
        Drive::finish(&tero, &report)
            .assert_matches(&reference, &format!("kill in {what} window {window}"));
    }
}

#[test]
fn idle_windows_run_no_stage() {
    // A stage runs in a window only if one of its inputs moved there, and
    // which windows those are is a property of the world: the invocation
    // counts and the store reads they cost are the same at every width —
    // and a small fraction of one per window (2 881 clean and locate
    // passes and 74 782 reads before stages were gated on their inputs).
    let counts = half_minute_counters_at_each_width().map(|counters| {
        ["stage.clean.runs", "stage.locate.runs", "store.kv.reads"].map(|name| counters[name])
    });
    assert_eq!(counts[1], counts[0], "2 workers against 1");
    assert_eq!(counts[2], counts[0], "8 workers against 1");
    let [clean, locate, reads] = counts[0];
    assert!(clean < 2_881 / 5, "stage.clean.runs {clean}");
    assert!(locate < 2_881 / 5, "stage.locate.runs {locate}");
    assert!(reads < 74_782 / 5, "store.kv.reads {reads}");
}

#[test]
fn a_kill_after_ingest_is_extracted_by_whoever_resumes() {
    // A kill fires after the ingest commit, so whoever resumes skips
    // ingest: no event of its own tells it that tasks are queued, or that
    // a poll grew a tag list. Pick a window whose ingest queues tasks and
    // which only event-free windows follow, and one where a poll grew a
    // tag list and nothing else would run locate; check that the
    // re-driven window itself extracts the tasks and runs locate.
    let quiet = FaultPlan::quiet(7);
    let hits = |t: &Tero| t.obs.counter("download.get_hits").get();
    let handed = |t: &Tero| t.obs.counter("stage.extract.records_in").get();
    let locate_runs = |t: &Tero| t.obs.counter("stage.locate.runs").get();
    let names = |t: &Tero| t.obs.counter("stage.locate.records_in").get();
    let tero = windowed_tero(2);
    let mut world = day_world(Some(quiet.clone()));
    let mut seen = (0, 0);
    // Per window: ingest fetched, the window was idle, `stage.locate.runs`
    // after it, and whether locate ran without a newly registered name.
    let mut windows = Vec::new();
    let mut to = SimTime::EPOCH + HALF_MINUTE;
    let report = loop {
        let before = (hits(&tero), locate_runs(&tero), names(&tero));
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to += HALF_MINUTE,
            WindowOutcome::Killed => unreachable!("no kill planned"),
        }
        windows.push((
            hits(&tero) > before.0,
            window_was_idle(&tero, &mut seen),
            locate_runs(&tero),
            locate_runs(&tero) > before.1 && names(&tero) == before.2,
        ));
    };
    let reference = Drive::finish(&tero, &report);
    const QUIET_AFTER: usize = 3;
    let fetch_window = (1_000..)
        .find(|&w| windows[w].0 && windows[w + 1..=w + QUIET_AFTER].iter().all(|w| w.1))
        .expect("the day has a fetch followed by idle windows");
    // With no locate budget there is no backlog: where locate ran and no
    // name was registered, a poll's country tag is all that ran it.
    let tag_window = (1..windows.len())
        .find(|&w| windows[w].3)
        .expect("the day has a poll that grows a tag list and registers no name");

    for (window, from_snapshot) in [
        (fetch_window, false),
        (fetch_window, true),
        (tag_window, false),
        (tag_window, true),
    ] {
        let plan = FaultPlan {
            engine_kills: vec![EngineKill {
                window: window as u64,
            }],
            ..quiet.clone()
        };
        let mut world = day_world(Some(plan));
        let mut tero = windowed_tero(2);
        let mut to = SimTime::EPOCH;
        for _ in 0..window {
            to += HALF_MINUTE;
            assert!(matches!(
                tero.run_window(&mut world, SimTime::EPOCH, to),
                WindowOutcome::Advanced
            ));
        }
        to += HALF_MINUTE;
        assert!(matches!(
            tero.run_window(&mut world, SimTime::EPOCH, to),
            WindowOutcome::Killed
        ));
        if window == fetch_window {
            assert!(handed(&tero) < hits(&tero), "the kill left tasks queued");
        }
        if from_snapshot {
            let snap = tero.engine_snapshot().expect("a killed run is in flight");
            tero = windowed_tero(2);
            tero.restore_engine(snap)
                .expect("the snapshot's cursor decodes");
        }
        for after in 0..=QUIET_AFTER {
            assert!(matches!(
                tero.run_window(&mut world, SimTime::EPOCH, to),
                WindowOutcome::Advanced
            ));
            assert_eq!(handed(&tero), hits(&tero), "window to {to:?}");
            if after == 0 && window == tag_window {
                assert_eq!(
                    locate_runs(&tero),
                    windows[window].2,
                    "locate in the re-driven window {window}, from_snapshot {from_snapshot}"
                );
            }
            to += HALF_MINUTE;
        }
        let report = drive_from(&tero, &mut world, to - HALF_MINUTE, HALF_MINUTE);
        Drive::finish(&tero, &report).assert_matches(
            &reference,
            &format!("kill in window {window}, from_snapshot {from_snapshot}"),
        );
    }
}

/// One generated drive of the 1-day world: runs of `(seconds, count)`
/// equal-width windows in order, then — if they stop short — one window
/// to the horizon, with one snapshot/restore into a fresh `Tero` at the
/// window boundary `restore_after` picks. `Debug` prints it replayable:
/// paste the literal into `Schedule::drive`.
#[derive(Debug)]
struct Schedule {
    workers: usize,
    runs: Vec<(u64, usize)>,
    restore_after: usize,
}

impl Schedule {
    fn drive(&self) -> Drive {
        let mut world = day_world(None);
        let horizon = world.horizon;
        let mut ends = Vec::new();
        let mut to = SimTime::EPOCH;
        for &(secs, count) in &self.runs {
            for _ in 0..count {
                if to < horizon {
                    to = (to + SimDuration::from_secs(secs)).min(horizon);
                    ends.push(to);
                }
            }
        }
        if to < horizon {
            ends.push(horizon);
        }
        let restore_at = self.restore_after % ends.len();
        let mut tero = windowed_tero(self.workers);
        for (i, &to) in ends.iter().enumerate() {
            match tero.run_window(&mut world, SimTime::EPOCH, to) {
                WindowOutcome::Complete(report) => return Drive::finish(&tero, &report),
                WindowOutcome::Advanced => {}
                WindowOutcome::Killed => unreachable!("no chaos installed"),
            }
            if i == restore_at {
                let snap = tero.engine_snapshot().expect("windowed run in flight");
                tero = windowed_tero(self.workers);
                tero.restore_engine(snap)
                    .expect("the snapshot's cursor decodes");
            }
        }
        unreachable!("the last window ends at the horizon")
    }
}

#[test]
fn generated_schedules_match_single_shot() {
    // Window widths from a one-second sliver (86 400 of them would make a
    // day; nearly all are empty) to five hours, mixed in one drive, with a
    // restore somewhere: a gate that skips a stage whose input did move,
    // or a bit that does not survive the restore, shows as a byte here.
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    let reference = {
        let tero = windowed_tero(1);
        let report = tero.run(&mut day_world(None));
        Drive::finish(&tero, &report)
    };
    // A run is a width and how many windows of it: at most two minutes of
    // slivers, an hour of half-minutes, five hours of seven-minute
    // windows or one of five hours, so a drive crosses the busy day in
    // every width.
    let widths = [(1u64, 120usize), (30, 120), (7 * 60, 43), (5 * 3_600, 1)];
    let schedules = (
        prop::sample::select([1usize, 2, 8]),
        prop::collection::vec((prop::sample::select(widths), 0usize..120), 1..16),
        0usize..1_000,
    );
    let mut rng = TestRng::new(4242);
    for case in 0..24 {
        let (workers, runs, restore_after) = schedules.generate(&mut rng);
        let schedule = Schedule {
            workers,
            runs: runs
                .into_iter()
                .map(|((secs, most), n)| (secs, 1 + n % most))
                .collect(),
            restore_after,
        };
        println!("case {case}: {schedule:?}");
        schedule
            .drive()
            .assert_matches(&reference, &format!("{schedule:?}"));
    }
}

// ---------------------------------------------------------------------------
// The blob lifecycle: §7 drops a thumbnail once it is processed. Ingest
// puts a blob; the extract stage deletes it in the window that resolves
// its task, before that window's commit. A dead-lettered task keeps its
// blob for a requeue; a sharded engine deletes the blobs of the tasks it
// filters out.

/// The distinct object keys of the tasks a snapshot holds in `list`.
fn task_keys(snap: &tero::core::StoreSnapshot, list: &str) -> std::collections::BTreeSet<String> {
    use tero::core::download::ThumbnailTask;
    let kv = tero::store::KvStore::new();
    kv.restore(&snap.kv);
    kv.lrange_from(list, 0)
        .iter()
        .filter_map(|raw| ThumbnailTask::decode(raw))
        .map(|task| task.object_key)
        .collect()
}

/// How many of `keys` a snapshot holds a blob for. Equal to
/// `snap.objects.len()` exactly when every blob it holds is one of them.
fn blobs_among(
    snap: &tero::core::StoreSnapshot,
    keys: &std::collections::BTreeSet<String>,
) -> usize {
    let objects = tero::store::ObjectStore::new();
    objects.restore(&snap.objects);
    keys.iter()
        .filter(|key| objects.get("thumbs", key).is_some())
        .count()
}

const HOUR: SimDuration = SimDuration::from_hours(1);

#[test]
fn every_window_leaves_no_blob_behind() {
    for mode in [ExtractionMode::Calibrated, ExtractionMode::FullOcr] {
        for workers in [1, 2, 8] {
            let what = format!("{mode:?}, {workers} workers");
            let tero = Tero {
                mode,
                ..windowed_tero(workers)
            };
            let mut world = day_world(Some(FaultPlan::quiet(7)));
            let mut to = SimTime::EPOCH + HOUR;
            loop {
                match tero.run_window(&mut world, SimTime::EPOCH, to) {
                    WindowOutcome::Complete(_) => break,
                    WindowOutcome::Advanced => {}
                    WindowOutcome::Killed => unreachable!("no kill planned"),
                }
                let snap = tero.engine_snapshot().expect("windowed run in flight");
                assert!(snap.objects.is_empty(), "{what}: blobs left at {to:?}");
                to += HOUR;
            }
            // One put and one delete per thumbnail; only OCR reads a
            // blob back, once per thumbnail.
            let counters = funnel(&tero);
            let hits = counters["download.get_hits"];
            assert!(hits > 300, "{what}: a real ingest");
            assert_eq!(counters["store.object.writes"], 2 * hits, "{what}");
            let reads = match mode {
                ExtractionMode::Calibrated => 0,
                ExtractionMode::FullOcr => hits,
            };
            assert_eq!(counters["store.object.reads"], reads, "{what}");
        }
    }
}

#[test]
fn a_killed_window_keeps_exactly_its_queued_blobs() {
    // The kill fires between the ingest commit and extract: the blobs of
    // the window's queued tasks are in the store, and only those. The
    // window driven again — in-process or in a fresh `Tero` restored from
    // the snapshot — resolves the tasks and deletes them.
    let plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 12 }],
        ..FaultPlan::quiet(7)
    };
    for from_snapshot in [false, true] {
        let mut world = day_world(Some(plan.clone()));
        let mut tero = windowed_tero(2);
        let mut to = SimTime::EPOCH + HOUR;
        let mut killed = false;
        loop {
            match tero.run_window(&mut world, SimTime::EPOCH, to) {
                WindowOutcome::Complete(_) => break,
                WindowOutcome::Advanced => {
                    let snap = tero.engine_snapshot().expect("windowed run in flight");
                    assert!(snap.objects.is_empty(), "blobs left at {to:?}");
                    to += HOUR;
                }
                WindowOutcome::Killed => {
                    killed = true;
                    let snap = tero.engine_snapshot().expect("a killed run is in flight");
                    let queued = task_keys(&snap, "queue:thumbs");
                    assert!(queued.len() > 10, "the killed window queued tasks");
                    assert_eq!(snap.objects.len(), queued.len());
                    assert_eq!(blobs_among(&snap, &queued), queued.len());
                    if from_snapshot {
                        tero = windowed_tero(2);
                        tero.restore_engine(snap)
                            .expect("the snapshot's cursor decodes");
                    }
                }
            }
        }
        assert!(killed, "the planned kill fired");
    }
}

#[test]
fn under_faults_only_dead_lettered_tasks_keep_their_blobs() {
    // A task whose image is missing or does not decode is dead-lettered
    // and keeps its blob for `requeue_dead`; every other blob is deleted
    // by the window that resolves its task. The stock plan's CDN faults
    // are caught at fetch, so one queued blob is damaged by hand: the
    // run is killed after an ingest, the blob overwritten with a payload
    // too short to decode, and the run resumed from the snapshot.
    use tero::store::ObjectStore;
    let plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 12 }],
        ..FaultPlan::default_plan(7)
    };
    let mut world = day_world(Some(plan));
    let mut tero = Tero {
        mode: ExtractionMode::FullOcr,
        ..windowed_tero(2)
    };
    let mut to = SimTime::EPOCH + HOUR;
    let mut damaged = None;
    loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(_) => break,
            WindowOutcome::Advanced => {}
            WindowOutcome::Killed => {
                let mut snap = tero.engine_snapshot().expect("a killed run is in flight");
                let key = task_keys(&snap, "queue:thumbs")
                    .pop_first()
                    .expect("the killed window queued tasks");
                let objects = ObjectStore::new();
                objects.restore(&snap.objects);
                objects.put("thumbs", &key, &b"tero"[..]);
                snap.objects = objects.snapshot();
                tero = Tero {
                    mode: ExtractionMode::FullOcr,
                    ..windowed_tero(2)
                };
                tero.restore_engine(snap)
                    .expect("the snapshot's cursor decodes");
                damaged = Some(key);
                continue;
            }
        }
        let snap = tero.engine_snapshot().expect("windowed run in flight");
        let dead = task_keys(&snap, "queue:thumbs:dead");
        assert_eq!(blobs_among(&snap, &dead), snap.objects.len(), "at {to:?}");
        if let Some(key) = &damaged {
            assert!(dead.contains(key), "the damaged task is dead-lettered");
            assert_eq!(snap.objects.len(), 1, "only its blob is left, at {to:?}");
        }
        to += HOUR;
    }
    assert!(damaged.is_some(), "the planned kill fired");
}

#[test]
fn two_tasks_sharing_an_object_key_both_load() {
    // Two tasks can name one object key (a streamer re-acquired on a
    // thumbnail already fetched). Both must read the image: the pool
    // reads every task's image before the ordered merge deletes any.
    // The pair is made by queueing a copy of a task a kill left queued.
    use tero::store::{KvStore, ObjectStore};
    let (kv, objects) = (KvStore::new(), ObjectStore::new());
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        stores: Some((kv.clone(), objects.clone())),
        ..windowed_tero(2)
    };
    let plan = FaultPlan {
        engine_kills: vec![EngineKill { window: 12 }],
        ..FaultPlan::quiet(7)
    };
    let mut world = day_world(Some(plan));
    let mut to = SimTime::EPOCH + HOUR;
    while let WindowOutcome::Advanced = tero.run_window(&mut world, SimTime::EPOCH, to) {
        to += HOUR;
    }
    let queued = kv.lrange_from("queue:thumbs", 0);
    assert!(!queued.is_empty(), "the kill left tasks queued");
    kv.rpush("queue:thumbs", queued[0].clone());
    let counter = |name: &str| tero.obs.counter(name).get();
    let reads = counter("store.object.reads");
    assert!(matches!(
        tero.run_window(&mut world, SimTime::EPOCH, to),
        WindowOutcome::Advanced
    ));
    assert_eq!(
        counter("store.object.reads") - reads,
        queued.len() as u64 + 1
    );
    assert_eq!(counter("pipeline.funnel.dropped.dead_letter"), 0);
    assert!(objects.snapshot().is_empty(), "both deletes ran");
}

#[test]
fn one_horizon_window_matches_the_walked_run() {
    // `Tero::run` walks the horizon in fixed windows; the one-window
    // schedule is a `run_window` to the horizon. Both give the same
    // report and served family, and leave no blob behind.
    use tero::store::{KvStore, ObjectStore};
    for mode in [ExtractionMode::Calibrated, ExtractionMode::FullOcr] {
        let run = |one_window: bool| {
            let (kv, objects) = (KvStore::new(), ObjectStore::new());
            let tero = Tero {
                mode,
                stores: Some((kv.clone(), objects.clone())),
                ..windowed_tero(2)
            };
            let mut world = pinned_world();
            let report = if one_window {
                let horizon = world.horizon;
                match tero.run_window(&mut world, SimTime::EPOCH, horizon) {
                    WindowOutcome::Complete(report) => report,
                    _ => unreachable!("one window to the horizon completes the run"),
                }
            } else {
                tero.run(&mut world)
            };
            let windows = funnel(&tero)["pipeline.window.runs"];
            (
                fingerprint(&report),
                serving_bytes(&kv),
                objects.snapshot(),
                windows,
            )
        };
        let (walked, walked_served, walked_objects, walked_windows) = run(false);
        let (one, one_served, one_objects, one_windows) = run(true);
        assert_eq!((walked_windows, one_windows), (12, 1), "{mode:?}");
        assert_eq!(one, walked, "{mode:?}: report");
        assert!(
            !walked_served.is_empty(),
            "{mode:?}: the pinned world serves"
        );
        assert_eq!(one_served, walked_served, "{mode:?}: served family");
        assert!(
            walked_objects.is_empty(),
            "{mode:?}: blobs left by Tero::run"
        );
        assert!(one_objects.is_empty(), "{mode:?}: blobs left by one window");
    }
}

#[test]
fn a_sharded_run_leaves_no_blob_on_the_mesh() {
    // Each engine deletes what it extracts and, at its shard filter, what
    // it never will: after the merge no host holds a blob for any engine.
    use tero::core::sharded::{run_sharded, ShardedConfig};
    let engines = 2;
    let out = run_sharded(&ShardedConfig {
        engines,
        shards: 3,
        windows: 4,
        world: WorldConfig {
            seed: 4242,
            n_streamers: 12,
            days: 1,
            ..WorldConfig::default()
        },
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan: FaultPlan::quiet(4242),
        net_seed: 4242,
        ..ShardedConfig::default()
    });
    let mut stores = 0;
    for host in out.net.hosts() {
        let server = out.net.server(&host).expect("a listed host");
        for client in 0..engines as u64 {
            if let Some(objects) = server.objects(client) {
                stores += 1;
                assert!(objects.snapshot().is_empty(), "{host}, engine {client}");
            }
        }
    }
    assert!(stores >= engines, "every engine stored through the mesh");
    assert!(out.report.thumbnails > 100, "a real run");
}

// ---------------------------------------------------------------------------
// Ingest and extract take turns one render batch (32 thumbnails) at a
// time, so the object store holds at most one batch of blobs, whatever
// the window's width.

/// `RENDER_BATCH`: the most thumbnails one ingest turn stores.
const RENDER_BATCH: u64 = 32;

/// The `store.object.bytes` high watermark of a run, in blobs (every
/// payload has the same length).
fn blobs_held_at_peak(tero: &Tero) -> f64 {
    let snap = tero.metrics_snapshot();
    let held = snap.gauge("store.object.bytes").expect("registered");
    let blob = snap.counter("store.object.put_bytes").unwrap() as f64
        / snap.counter("download.get_hits").unwrap() as f64;
    held.high_watermark as f64 / blob
}

#[test]
fn the_store_holds_at_most_one_render_batch() {
    // A daily window of the day world stores every thumbnail of the day,
    // a 6-hour one a few hundred: each takes many batches, and extract
    // deletes each batch before ingest stores the next.
    for (mode, window) in [
        (ExtractionMode::FullOcr, SimDuration::from_hours(24)),
        (ExtractionMode::Calibrated, SimDuration::from_hours(6)),
    ] {
        let single = Tero {
            mode,
            ..windowed_tero(1)
        };
        let reference = fingerprint(&single.run(&mut day_world(None)));
        for workers in [1, 2, 8] {
            let what = format!("{mode:?}, {window:?} windows, {workers} workers");
            let tero = Tero {
                mode,
                ..windowed_tero(workers)
            };
            let report = drive(&tero, &mut day_world(None), Some(window));
            assert_eq!(fingerprint(&report), reference, "{what}");
            assert!(
                report.thumbnails > 10 * RENDER_BATCH,
                "{what}: windows of many batches"
            );
            let peak = blobs_held_at_peak(&tero);
            assert!(peak <= RENDER_BATCH as f64, "{what}: {peak} blobs held");
            assert!(peak >= 1.0, "{what}: the gauge moved");
        }
    }
}

#[test]
fn a_kill_in_a_window_of_many_batches_resumes_from_its_batch() {
    // The kill fires after the window's first ingest commit: one batch
    // is queued, and its blobs are all the store holds. Whoever resumes —
    // the same `Tero` or a fresh one restored from the snapshot —
    // extracts that batch before it ingests the next, and reaches the
    // uninterrupted run's report and committed state.
    let window = SimDuration::from_hours(6);
    let runs = |t: &Tero| t.obs.counter("stage.ingest.runs").get();
    let tero = windowed_tero(2);
    let mut world = day_world(Some(FaultPlan::quiet(7)));
    let mut batches = Vec::new();
    let mut to = SimTime::EPOCH + window;
    let report = loop {
        let before = runs(&tero);
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => to += window,
            WindowOutcome::Killed => unreachable!("no kill planned"),
        }
        batches.push(runs(&tero) - before);
    };
    let reference = Drive::finish(&tero, &report);
    let killed = batches
        .iter()
        .position(|&n| n >= 3)
        .expect("a window of at least three batches") as u64;

    for from_snapshot in [false, true] {
        let what = format!("kill in window {killed}, from_snapshot {from_snapshot}");
        let plan = FaultPlan {
            engine_kills: vec![EngineKill { window: killed }],
            ..FaultPlan::quiet(7)
        };
        let mut world = day_world(Some(plan));
        let mut tero = windowed_tero(2);
        let mut to = SimTime::EPOCH + window;
        let mut kills = 0;
        let report = loop {
            match tero.run_window(&mut world, SimTime::EPOCH, to) {
                WindowOutcome::Complete(report) => break report,
                WindowOutcome::Advanced => {
                    let peak = blobs_held_at_peak(&tero);
                    assert!(peak <= RENDER_BATCH as f64, "{what}: {peak} blobs held");
                    to += window;
                }
                WindowOutcome::Killed => {
                    kills += 1;
                    let snap = tero.engine_snapshot().expect("a killed run is in flight");
                    let queued = task_keys(&snap, "queue:thumbs");
                    assert_eq!(queued.len() as u64, RENDER_BATCH, "{what}");
                    assert_eq!(snap.objects.len(), queued.len(), "{what}");
                    assert_eq!(blobs_among(&snap, &queued), queued.len(), "{what}");
                    if from_snapshot {
                        tero = windowed_tero(2);
                        tero.restore_engine(snap)
                            .expect("the snapshot's cursor decodes");
                    }
                }
            }
        };
        let peak = blobs_held_at_peak(&tero);
        assert!(peak <= RENDER_BATCH as f64, "{what}: {peak} blobs held");
        assert_eq!(kills, 1, "{what}");
        Drive::finish(&tero, &report).assert_matches(&reference, &what);
    }
}

#[test]
fn a_full_range_download_run_stores_every_blob() {
    // `DownloadModule::run` is ingest alone: nothing extracts between its
    // batches, so every thumbnail it fetched is in the store and loads.
    use tero::core::download::DownloadModule;
    use tero::store::{KvStore, ObjectStore};
    let mut world = day_world(None);
    let objects = ObjectStore::new();
    let mut module = DownloadModule::new(KvStore::new(), objects.clone());
    let horizon = world.horizon;
    let stats = module.run(&mut world, SimTime::EPOCH, horizon);
    assert!(stats.downloaded > 10 * RENDER_BATCH, "many batches");
    assert_eq!(objects.snapshot().len() as u64, stats.downloaded);
    let tasks = module.drain_tasks();
    assert_eq!(tasks.len() as u64, stats.downloaded);
    assert!(tasks
        .iter()
        .all(|task| module.load_image(&task.object_key).is_some()));
}
