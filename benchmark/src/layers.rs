//! The standard per-layer probes of the traced run: every one calls a
//! layer's public functions over the workload's own world, records and
//! stores, inside a harness span, and reports the layer's cost by the
//! layer's name. Nanosecond-scale operations are spanned per batch, not per
//! call, so the clock does not dominate what it measures.
//!
//! Every workload runs every probe, so the driver can read any of these
//! rows on any workload; which end-to-end metric a row should move, and
//! where, is the interaction table in `README.md`.

use crate::fixture::{tero, Fixture};
use crate::record::Row;
use crate::serve::{query_kind_rows, timed_pass, warmed_engine};
use crate::spans::Spans;
use crate::stats::{mean, percentile_sorted, sorted};
use std::sync::Arc;
use tero::chaos::{ChaosInjector, FaultPlan};
use tero::core::analysis::anomaly::detect_anomalies;
use tero::core::analysis::clusters::classify_streamer;
use tero::core::analysis::segments::segment_stream;
use tero::core::download::DownloadModule;
use tero::core::engine::Engine;
use tero::core::imageproc::ImageProcessor;
use tero::core::location::LocationModule;
use tero::core::pipeline::WindowOutcome;
use tero::core::serving::{
    load_sketch, parse_dist_sketch_key, parse_raw_sketch_key, DIST_SKETCH_PREFIX, RAW_SKETCH_PREFIX,
};
use tero::core::stages::{SampleRecord, SAMPLES_PREFIX};
use tero::geoparse::tags::TagObservation;
use tero::net::{decode, default_link, encode, Frame, Payload, ShardedStoreClient, SimNet};
use tero::obs::Registry;
use tero::pool::Pool;
use tero::serve::{LoadGen, SketchRef};
use tero::store::{KvRequest, KvStore, ObjRequest, ObjectStore, RemoteStore};
use tero::types::{SimDuration, SimTime, TeroParams};
use tero::vision::CombineOutcome;
use tero::world::twitch::render_thumbnail;
use tero::world::World;

/// How much each probe samples. Smoke runs the same probes over less.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Thumbnails rendered, loaded and OCR'd.
    pub thumbnails: usize,
    /// Operations per store/codec batch.
    pub batch: usize,
    /// Queries timed per kind mix.
    pub queries: usize,
}

pub const FULL: Effort = Effort {
    thumbnails: 300,
    batch: 20_000,
    queries: 20_000,
};
pub const SMOKE: Effort = Effort {
    thumbnails: 24,
    batch: 2_000,
    queries: 2_000,
};

/// Per-unit layer costs the residual model multiplies by a run's counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub download_s: f64,
    /// Mean busy time to load and OCR one thumbnail (µs).
    pub extract_thumb_us: f64,
    pub locate_us: f64,
    pub series_us: f64,
    pub window_empty_us: f64,
}

/// Time `n` calls of `op` inside one span; nanoseconds per call.
fn batch_ns(spans: &mut Spans, name: &'static str, n: usize, mut op: impl FnMut(usize)) -> f64 {
    let ((), us) = spans.record(name, |_| (0..n).for_each(&mut op));
    us * 1e3 / n.max(1) as f64
}

/// Every served target in `kv`: published distributions when the run
/// produced any, else the per-streamer raw sketches (always present).
pub fn serve_targets(kv: &KvStore) -> Vec<SketchRef> {
    let dists: Vec<SketchRef> = kv
        .keys_with_prefix(DIST_SKETCH_PREFIX)
        .iter()
        .filter_map(|k| {
            parse_dist_sketch_key(k).map(|(g, game, loc)| SketchRef::dist(g, game, loc))
        })
        .collect();
    if !dists.is_empty() {
        return dists;
    }
    kv.keys_with_prefix(RAW_SKETCH_PREFIX)
        .iter()
        .filter_map(|k| parse_raw_sketch_key(k).map(|(anon, game)| SketchRef::raw(anon, game)))
        .collect()
}

fn world_probe(fx: &Fixture, effort: Effort, spans: &mut Spans, rows: &mut Vec<Row>) {
    let (mut world, us) = spans.record("world.build", |_| World::build(fx.config.clone()));
    rows.push(Row::one("world.build_ms", "ms", us / 1e3));

    let stride = (fx.world_samples / effort.thumbnails).max(1);
    let mut render_us = Vec::new();
    let samples = world
        .streamers()
        .iter()
        .zip(world.timelines())
        .flat_map(|(s, tl)| {
            tl.iter()
                .flat_map(move |st| st.samples.iter().map(move |x| (s, st.game, x)))
        });
    for (streamer, game, sample) in samples.step_by(stride) {
        let (image, us) = spans.record("world.render_thumbnail", |_| {
            render_thumbnail(streamer, game, sample)
        });
        std::hint::black_box(image);
        render_us.push(us);
    }
    rows.push(Row::one("world.render_thumb_us", "us", mean(&render_us)));

    // Polls spread evenly over the horizon, so quiet and busy hours both
    // count (the download coordinator issues one every two minutes).
    let polls = effort.thumbnails as u64;
    let every = (world.horizon.as_mins() / polls).max(2);
    let mut poll_us = Vec::new();
    for i in 0..polls {
        let (listing, us) = spans.record("world.get_streams", |_| {
            world.twitch.get_streams(SimTime::from_mins(every * i))
        });
        std::hint::black_box(listing.map(|l| l.len()).ok());
        poll_us.push(us);
    }
    rows.push(Row::one("world.get_streams_us", "us", mean(&poll_us)));
}

/// Download over private stores, then OCR and locate from what it stored.
fn ingest_probes(
    fx: &Fixture,
    effort: Effort,
    spans: &mut Spans,
    rows: &mut Vec<Row>,
    costs: &mut LayerCosts,
) {
    let mut world = World::build(fx.config.clone());
    let horizon = world.horizon;
    let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
    let (stats, us) = spans.record("download.run", |_| {
        module.run(&mut world, SimTime::EPOCH, horizon)
    });
    costs.download_s = us / 1e6;
    rows.push(Row::one("download.run_s", "s", us / 1e6));
    rows.push(Row::one(
        "download.per_thumb_us",
        "us",
        us / stats.downloaded.max(1) as f64,
    ));
    for (name, count) in [
        ("download.polls", stats.polls),
        ("download.downloaded", stats.downloaded),
        ("download.missed", stats.missed),
        ("download.retries", stats.retries),
    ] {
        rows.push(Row::one(name, "count", count as f64));
    }

    let tasks = module.drain_tasks();
    let stride = (tasks.len() / effort.thumbnails).max(1);
    let processor = ImageProcessor::new();
    let (mut load_us, mut extract_us, mut extracted) = (Vec::new(), Vec::new(), 0usize);
    for task in tasks.iter().step_by(stride) {
        let (image, us) = spans.record("download.load_image", |_| {
            module.load_image(&task.object_key)
        });
        load_us.push(us);
        let Some(image) = image else { continue };
        let (outcome, us) = spans.record("imageproc.extract", |_| {
            processor.extract(&image, task.game_label)
        });
        extract_us.push(us);
        extracted += matches!(outcome, CombineOutcome::Extracted { .. }) as usize;
    }
    let by_rank = sorted(extract_us.clone());
    costs.extract_thumb_us = mean(&load_us) + mean(&extract_us);
    rows.push(Row::one(
        "vision.extract_us_p50",
        "us",
        percentile_sorted(&by_rank, 50.0),
    ));
    rows.push(Row::one(
        "vision.extract_us_p95",
        "us",
        percentile_sorted(&by_rank, 95.0),
    ));
    rows.push(Row::one("vision.load_image_us", "us", mean(&load_us)));
    rows.push(Row::one(
        "vision.extract_ok_ratio",
        "ratio",
        extracted as f64 / extract_us.len().max(1) as f64,
    ));

    let locator = LocationModule::new(&world.gaz);
    let (mut locate_us, mut located) = (Vec::new(), 0usize);
    for streamer in world.streamers() {
        let name = streamer.id.as_str();
        let description = world.twitch.profile_description(name);
        let tags: Vec<TagObservation> = module
            .tag_history(name)
            .into_iter()
            .enumerate()
            .map(|(i, tag)| TagObservation {
                poll: i as u64,
                country_tag: Some(tag),
            })
            .collect();
        let (found, us) = spans.record("location.locate", |_| {
            locator.locate(name, description.as_deref(), &world.social_directory, &tags)
        });
        locate_us.push(us);
        located += found.is_some() as usize;
    }
    costs.locate_us = mean(&locate_us);
    rows.push(Row::one("geoparse.locate_us", "us", costs.locate_us));
    rows.push(Row::one(
        "geoparse.located_ratio",
        "ratio",
        located as f64 / locate_us.len().max(1) as f64,
    ));
}

fn analysis_probe(fx: &Fixture, spans: &mut Spans, rows: &mut Vec<Row>, costs: &mut LayerCosts) {
    let params = TeroParams::default();
    let mut series_us = Vec::new();
    for ((anon, _game), series) in &fx.reference.streams {
        let (classified, us) = spans.record("analysis.series", |_| {
            let segments = series
                .iter()
                .enumerate()
                .flat_map(|(i, stream)| segment_stream(i, &stream.samples, &params))
                .collect();
            classify_streamer(*anon, &detect_anomalies(segments, &params), &params)
        });
        std::hint::black_box(classified);
        series_us.push(us);
    }
    costs.series_us = mean(&series_us);
    rows.push(Row::one("analysis.series_us", "us", costs.series_us));
}

/// Half the horizon in one window, then sixteen one-second slivers that
/// ingest nothing (the commit floor), a snapshot and a restore.
fn engine_probe(
    fx: &Fixture,
    workers: usize,
    spans: &mut Spans,
    rows: &mut Vec<Row>,
    costs: &mut LayerCosts,
) {
    let mut world = World::build(fx.config.clone());
    let driver = tero(fx.mode, workers);
    let mut to = SimTime::from_micros(world.horizon.as_micros() / 2);
    let mut window = |to: SimTime, name: &'static str, spans: &mut Spans| {
        let (outcome, us) =
            spans.record(name, |_| driver.run_window(&mut world, SimTime::EPOCH, to));
        assert!(
            matches!(outcome, WindowOutcome::Advanced),
            "windows below the horizon advance"
        );
        us
    };
    window(to, "core.run_window", spans);
    let mut sliver_us = Vec::new();
    for _ in 0..16 {
        to += SimDuration::from_secs(1);
        sliver_us.push(window(to, "core.run_window.sliver", spans));
    }
    costs.window_empty_us = percentile_sorted(&sorted(sliver_us), 50.0);
    rows.push(Row::one(
        "engine.window_empty_us",
        "us",
        costs.window_empty_us,
    ));

    let (snapshot, us) = spans.record("core.engine_snapshot", |_| {
        driver
            .engine_snapshot()
            .expect("a windowed run is in flight")
    });
    rows.push(Row::one("engine.snapshot_ms", "ms", us / 1e3));
    let bytes = serde_json::to_string(&snapshot).map_or(0, |s| s.len());
    rows.push(Row::one("engine.snapshot_bytes", "bytes", bytes as f64));
    let fresh = tero(fx.mode, workers);
    let (engine, us) = spans.record("core.engine_restore", |_| {
        Engine::restore(&fresh, &world, &snapshot)
    });
    drop(engine);
    rows.push(Row::one("engine.restore_ms", "ms", us / 1e3));
}

/// KV and object operations on values sized like the workload's own
/// records and thumbnails.
fn store_probe(fx: &Fixture, effort: Effort, spans: &mut Spans, rows: &mut Vec<Row>) {
    let n = effort.batch;
    let record = SampleRecord {
        at: SimTime::from_hours(30),
        primary: 47,
        alternative: None,
    }
    .encode();
    let keys: Vec<String> = (0..n).map(|i| format!("probe:key:{i}")).collect();
    let kv = KvStore::new();
    let set = batch_ns(spans, "store.kv.set", n, |i| {
        kv.set(&keys[i], record.as_str())
    });
    let get = batch_ns(spans, "store.kv.get", n, |i| {
        std::hint::black_box(kv.get(&keys[i]));
    });
    let hset = batch_ns(spans, "store.kv.hset", n, |i| {
        kv.hset("probe:hash", &keys[i % 128], "123456")
    });
    let rpush = batch_ns(spans, "store.kv.rpush", n, |_| {
        kv.rpush("probe:list", record.as_str());
    });
    // A list as long as the workload's mean per-series sample list.
    let lists = fx.store.keys_with_prefix(SAMPLES_PREFIX);
    let list_len = lists.iter().map(|k| fx.store.llen(k)).sum::<usize>() / lists.len().max(1);
    for _ in 0..list_len {
        kv.rpush("probe:series", record.as_str());
    }
    let lrange = batch_ns(spans, "store.kv.lrange_from", n / 20, |_| {
        std::hint::black_box(kv.lrange_from("probe:series", 0));
    });
    rows.push(Row::one("store.kv_set_ns", "ns", set));
    rows.push(Row::one("store.kv_get_ns", "ns", get));
    rows.push(Row::one("store.kv_hset_ns", "ns", hset));
    rows.push(Row::one("store.kv_rpush_ns", "ns", rpush));
    rows.push(Row::one("store.kv_lrange_us", "us", lrange / 1e3));

    let objects = ObjectStore::new();
    let thumbnail = vec![0x5au8; 8 + 160 * 90];
    let m = n / 10;
    let put = batch_ns(spans, "store.object.put", m, |i| {
        objects.put("thumbs", &keys[i], thumbnail.clone())
    });
    let obj_get = batch_ns(spans, "store.object.get", m, |i| {
        std::hint::black_box(objects.get("thumbs", &keys[i]));
    });
    rows.push(Row::one("store.obj_put_us", "us", put / 1e3));
    rows.push(Row::one("store.obj_get_us", "us", obj_get / 1e3));

    // What the reference run left committed.
    rows.push(Row::one("store.kv_keys", "count", fx.store.len() as f64));
    let bytes = serde_json::to_string(&fx.store.snapshot()).map_or(0, |s| s.len());
    rows.push(Row::one("store.kv_bytes", "bytes", bytes as f64));
}

fn codec_probe(fx: &Fixture, effort: Effort, spans: &mut Spans, rows: &mut Vec<Row>) {
    // The largest served sketch: the one a cold query pays most for.
    let sketch = serve_targets(&fx.store)
        .iter()
        .filter_map(|t| load_sketch(&fx.store, t.key()))
        .max_by_key(|s| s.count())
        .expect("the reference run committed at least one sketch");
    let encoded = sketch.encode();
    let n = effort.batch / 10;
    let encode_ns = batch_ns(spans, "stats.sketch.encode", n, |_| {
        std::hint::black_box(sketch.encode());
    });
    let decode_ns = batch_ns(spans, "stats.sketch.decode", n, |_| {
        std::hint::black_box(tero::stats::QuantileSketch::decode(&encoded));
    });
    let merge_ns = batch_ns(spans, "stats.sketch.merge", n, |_| {
        let mut acc = sketch.clone();
        acc.merge(&sketch);
        std::hint::black_box(acc);
    });
    rows.push(Row::one("stats.sketch_encode_us", "us", encode_ns / 1e3));
    rows.push(Row::one("stats.sketch_decode_us", "us", decode_ns / 1e3));
    rows.push(Row::one("stats.sketch_merge_us", "us", merge_ns / 1e3));
    rows.push(Row::one(
        "stats.sketch_bytes",
        "bytes",
        encoded.len() as f64,
    ));

    let record = SampleRecord {
        at: SimTime::from_hours(30),
        primary: 47,
        alternative: Some(147),
    };
    let codec = batch_ns(spans, "core.sample_record.codec", effort.batch, |_| {
        std::hint::black_box(SampleRecord::decode(&std::hint::black_box(record).encode()));
    });
    rows.push(Row::one("core.sample_record_codec_ns", "ns", codec));
}

fn net_probe(seed: u64, effort: Effort, spans: &mut Spans, rows: &mut Vec<Row>) {
    let n = effort.batch / 10;
    let kv_frame = Frame {
        client: 0,
        seq: 1,
        ctx: None,
        payload: Payload::KvReq(KvRequest::Rpush {
            key: "engine:samples:0123456789abcdef:0".into(),
            value: "108000000000|47|-".into(),
        }),
    };
    let thumb_frame = Frame {
        client: 0,
        seq: 2,
        ctx: None,
        payload: Payload::ObjReq(ObjRequest::Put {
            bucket: "thumbs".into(),
            key: "streamer/108000000000".into(),
            data: vec![0x5a; 8 + 160 * 90],
        }),
    };
    for (frame, enc_name, dec_name, n) in [
        (&kv_frame, "net.frame_encode_us", "net.frame_decode_us", n),
        (
            &thumb_frame,
            "net.thumb_frame_encode_us",
            "net.thumb_frame_decode_us",
            n / 10,
        ),
    ] {
        let bytes = encode(frame);
        let enc = batch_ns(spans, "net.frame.encode", n, |_| {
            std::hint::black_box(encode(frame));
        });
        let dec = batch_ns(spans, "net.frame.decode", n, |_| {
            std::hint::black_box(decode(&bytes).is_ok());
        });
        rows.push(Row::one(enc_name, "us", enc / 1e3));
        rows.push(Row::one(dec_name, "us", dec / 1e3));
    }

    // A quiet three-shard mesh: what one store round trip costs with no
    // fault to recover from.
    let net = SimNet::with_shards(
        default_link(),
        ChaosInjector::new(FaultPlan::quiet(seed)),
        3,
    );
    let client: Arc<dyn RemoteStore> =
        Arc::new(ShardedStoreClient::new(net, 0, 3, &Registry::new(), seed));
    let kv = KvStore::remote(client);
    kv.set("probe:key", "108000000000|47|-");
    let request = batch_ns(spans, "net.request", n, |_| {
        std::hint::black_box(kv.get("probe:key"));
    });
    rows.push(Row::one("net.request_us", "us", request / 1e3));
}

/// Per-kind query latency and hit ratio through an engine configured as
/// the workload serves (`cache` as in `Kind::Serve`; the default engine
/// for workloads that do not serve), keys pre-warmed.
fn serve_probe(
    fx: &Fixture,
    seed: u64,
    effort: Effort,
    cache: Option<usize>,
    spans: &mut Spans,
    rows: &mut Vec<Row>,
) {
    let targets = serve_targets(&fx.store);
    let engine = warmed_engine(fx, cache);
    let queries = LoadGen::new(seed, targets).generate(effort.queries);
    let (pass, _) = spans.record("serve.query.pass", |_| timed_pass(&engine, &queries));
    rows.extend(query_kind_rows(&queries, &pass.lat_us));
    let (hits, misses, _) = engine.cache_stats();
    rows.push(Row::one(
        "serve.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
}

fn pool_probe(workers: usize, effort: Effort, spans: &mut Spans, rows: &mut Vec<Row>) {
    let pool = Pool::new(workers);
    let items: Vec<u64> = (0..workers as u64).collect();
    let ns = batch_ns(spans, "pool.par_map", effort.batch / 10, |_| {
        std::hint::black_box(pool.par_map(&items, |x| x + 1));
    });
    rows.push(Row::one("pool.fanout_us", "us", ns / 1e3));
}

/// Run every standard probe over `fx`.
pub fn standard(
    fx: &Fixture,
    seed: u64,
    workers: usize,
    effort: Effort,
    cache: Option<usize>,
    spans: &mut Spans,
) -> (Vec<Row>, LayerCosts) {
    let mut rows = Vec::new();
    let mut costs = LayerCosts::default();
    world_probe(fx, effort, spans, &mut rows);
    ingest_probes(fx, effort, spans, &mut rows, &mut costs);
    analysis_probe(fx, spans, &mut rows, &mut costs);
    engine_probe(fx, workers, spans, &mut rows, &mut costs);
    store_probe(fx, effort, spans, &mut rows);
    codec_probe(fx, effort, spans, &mut rows);
    net_probe(seed, effort, spans, &mut rows);
    serve_probe(fx, seed, effort, cache, spans, &mut rows);
    pool_probe(workers, effort, spans, &mut rows);
    (rows, costs)
}
