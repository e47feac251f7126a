//! The clean stage: §3.3 per-`{streamer, game}` cleaning and
//! classification — stream stitching, segmentation, glitch/spike anomaly
//! detection, and static/mobile cluster classification — run *online*.
//!
//! # Online cleaning (docs/CLEANING.md)
//!
//! The legacy pipeline deferred all cleaning to the horizon: a separate
//! stitch stage drained the sample lists once, then a stateless clean
//! stage re-analysed every series from scratch. This stage instead keeps
//! resumable per-series state and advances it every window:
//!
//! * **Feed** — each window in which extract appended a record,
//!   [`CleanStage::advance`] reads only the *new*
//!   records of every `engine:samples:*` list (a non-destructive
//!   [`tero_store::KvStore::lrange_from`] from the series' cursor) and
//!   extends the stream-stitching and segmentation folds.
//! * **Seal** — segments strictly between two *closed stable* segments
//!   can never change label again: every anomaly-detection rule (glitch,
//!   spike fixpoint, correction, cleanup, spike-run merge) only reads up
//!   to the closest stable segment on either side, so the detector's
//!   output over a block bracketed by stable segments is final. The stage
//!   therefore freezes ("seals") everything up to the last closed stable
//!   segment and never re-detects it.
//! * **View** — the full per-series [`AnomalyReport`] is reconstructed on
//!   demand by re-detecting only the sealed anchor (the last sealed
//!   stable segment) plus the unsealed tail, and cached until the series
//!   is fed again (`CleanStage::refresh_views`, the one analyze
//!   fan-out). At the horizon this is byte-identical to the batch
//!   detector over the whole series — the freshness contract is *exact*,
//!   not a tolerance (`online_view_matches_batch_under_any_window_split`
//!   below pins it) — so the report is assembled from the cached views
//!   (`CleanStage::take_cleaned`), not from a second pass.
//! * **Refresh** — after each non-final window the stage regroups the
//!   series under the *canonical* locations the budgeted locate stage
//!   has committed so far, falling back to *provisional* tags-only
//!   lookups for streamers whose profile fetch hasn't landed yet, and
//!   recomputes the distribution sketch of every `{location, game}`
//!   group whose membership, member data, settled aggregation state or
//!   provenance changed — so `engine:serve:dist:*` answers track the
//!   run window by window. All-canonical groups reuse the aggregation
//!   stage's analysis verbatim (marker `c`); mixed or provisional groups
//!   are analysed against the current views and screened against the
//!   region group's merged clusters in the aggregation stage (marker
//!   `p`). Every sketch carries an `engine:serve:dist_meta:*`
//!   provenance marker.
//!
//! The stage commits only its per-list cursors ([`CLEAN_CURSORS_KEY`]);
//! [`CleanStage::rebuild`] replays the lists up to them after a chaos
//! kill or a fresh-process restore.

use super::locate::{tag_observations, LocateStage};
use super::{parse_sample_list_key, SampleRecord, StageCx, SAMPLES_PREFIX};
use crate::analysis::anomaly::{detect_anomalies, AnomalyReport, SegmentLabel, SpikeEvent};
use crate::analysis::clusters::{classify_streamer, ClassifiedStreamer};
use crate::analysis::segments::{Segment, StreamSeries};
use crate::location::{LocationModule, LocationSource};
use crate::serving::{
    dist_meta_key, dist_sketch_key, DistProvenance, ServeGranularity, SERVE_VERSION_KEY,
};
use crate::stages::agg::{analyze_group, reject_outside, AggStage};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tero_store::KvStore;
use tero_trace::{Level, TaskTrace};
use tero_types::{AnonId, GameId, LatencySample, Location, SimDuration, SimTime, TeroParams};

/// A gap larger than this starts a new stream (thumbnails are ≥ 5 min
/// apart; in-stream breaks reach ~35 min; offline periods are longer).
pub const STREAM_GAP: SimDuration = SimDuration(45 * 60 * 1_000_000);

/// KV hash mapping each `engine:samples:*` list key to the number of
/// records the cleaner has consumed from it — the stage's only committed
/// state. Lives under the chaos-exempt [`tero_store::PROTECTED_PREFIX`],
/// like the engine's other cursors. The lists themselves are the ground
/// truth; [`CleanStage::rebuild`] replays each list up to its committed
/// cursor to reconstruct the in-memory state exactly.
pub const CLEAN_CURSORS_KEY: &str = "engine:clean:cursors";

/// What the clean stage hands the publish stage.
pub struct Cleaned {
    /// Stitched streams per `{streamer, game}` (passed through).
    pub streams: BTreeMap<(AnonId, GameId), Vec<StreamSeries>>,
    /// Anomaly reports per `{streamer, game}`.
    pub anomalies: BTreeMap<(AnonId, GameId), AnomalyReport>,
    /// Classified streamers per `{streamer, game}`.
    pub classified: BTreeMap<(AnonId, GameId), ClassifiedStreamer>,
}

/// A cached per-series analysis view: the full report over sealed + tail,
/// recomputed only when the series receives new samples.
#[derive(Debug, Clone)]
struct ViewCache {
    report: AnomalyReport,
    classified: ClassifiedStreamer,
}

/// The online cleaner's resumable state for one `{streamer, game}`
/// series.
#[derive(Debug, Clone)]
struct SeriesState {
    anon: AnonId,
    game: GameId,
    /// Raw samples per stitched stream — the `Cleaned.streams`
    /// passthrough, identical to what the batch stitcher produced.
    streams: Vec<Vec<LatencySample>>,
    /// Timestamp of the last fed sample (stream-split + ordering guard).
    last_at: Option<SimTime>,
    /// Records consumed from this series' sample list.
    cursor: usize,
    /// Samples of the still-open (unclosed) trailing segment.
    open: Vec<LatencySample>,
    /// Value span of the open segment.
    open_lo: u32,
    open_hi: u32,
    /// Closed segments after the sealed prefix — labels not yet final.
    tail: Vec<Segment>,
    /// Sealed prefix: segments whose labels, corrections and spikes are
    /// final. When non-empty it always ends with a stable segment (the
    /// *anchor*), which brackets every later detection block.
    sealed: Vec<Segment>,
    sealed_labels: Vec<SegmentLabel>,
    sealed_spikes: Vec<SpikeEvent>,
    /// Cached view; `None` while the series is dirty.
    view: Option<ViewCache>,
}

impl SeriesState {
    fn new(anon: AnonId, game: GameId) -> SeriesState {
        SeriesState {
            anon,
            game,
            streams: Vec::new(),
            last_at: None,
            cursor: 0,
            open: Vec::new(),
            open_lo: 0,
            open_hi: 0,
            tail: Vec::new(),
            sealed: Vec::new(),
            sealed_labels: Vec::new(),
            sealed_spikes: Vec::new(),
            view: None,
        }
    }

    /// A series rebuilt from the first `records` of its sample list,
    /// sorted as the batch stitcher sorts the whole list; its cursor is
    /// the number of records replayed.
    fn replay(anon: AnonId, game: GameId, records: &[String], params: &TeroParams) -> SeriesState {
        let mut state = SeriesState::new(anon, game);
        state.cursor = records.len();
        let mut samples: Vec<LatencySample> = records
            .iter()
            .filter_map(|r| SampleRecord::decode(r))
            .map(decode_sample)
            .collect();
        samples.sort_by_key(|s| s.at);
        state.feed(&samples, params);
        state
    }

    /// Close the open segment (if any) into the tail, exactly as
    /// `segment_stream` closes a segment at a span break or stream end.
    fn close_open(&mut self, params: &TeroParams) {
        if self.open.is_empty() {
            return;
        }
        let stream_idx = self.streams.len().saturating_sub(1);
        let samples = std::mem::take(&mut self.open);
        let stable = samples.len() >= params.stable_points();
        self.tail.push(Segment {
            stream_idx,
            samples,
            stable,
        });
    }

    /// Extend the stitching and segmentation folds with `samples` (sorted
    /// by time, non-decreasing relative to everything fed before).
    fn feed(&mut self, samples: &[LatencySample], params: &TeroParams) {
        for &s in samples {
            let new_stream = match self.last_at {
                None => true,
                Some(last) => s.at.since(last) > STREAM_GAP,
            };
            if new_stream {
                self.close_open(params);
                self.streams.push(Vec::new());
            }
            self.streams
                .last_mut()
                .expect("a stream was just opened")
                .push(s);
            self.last_at = Some(s.at);
            if self.open.is_empty() {
                self.open_lo = s.latency_ms;
                self.open_hi = s.latency_ms;
                self.open.push(s);
            } else {
                let lo = self.open_lo.min(s.latency_ms);
                let hi = self.open_hi.max(s.latency_ms);
                if hi - lo <= params.lat_gap_ms {
                    self.open_lo = lo;
                    self.open_hi = hi;
                    self.open.push(s);
                } else {
                    self.close_open(params);
                    self.open_lo = s.latency_ms;
                    self.open_hi = s.latency_ms;
                    self.open.push(s);
                }
            }
        }
        if !samples.is_empty() {
            self.view = None;
        }
    }

    /// Freeze every tail segment up to (and including) the last *closed*
    /// stable segment: re-detect the block bracketed by the current
    /// anchor, splice the final labels into the sealed prefix, and make
    /// the block's last stable segment the new anchor. Returns the number
    /// of segments sealed.
    fn seal(&mut self, params: &TeroParams) -> usize {
        let Some(last_stable) = self.tail.iter().rposition(|s| s.stable) else {
            return 0;
        };
        let block_tail: Vec<Segment> = self.tail.drain(..=last_stable).collect();
        let sealed_now = block_tail.len();
        let (block, base) = match self.sealed.last() {
            Some(anchor) => {
                let mut block = Vec::with_capacity(block_tail.len() + 1);
                block.push(anchor.clone());
                block.extend(block_tail);
                (block, self.sealed.len() - 1)
            }
            None => (block_tail, 0),
        };
        // The block contains a stable segment by construction, so the
        // detector never takes its all-unstable early return here.
        let report = detect_anomalies(block, params);
        self.sealed.truncate(base);
        self.sealed_labels.truncate(base);
        self.sealed.extend(report.segments);
        self.sealed_labels.extend(report.labels);
        // Spikes are runs of unstable segments, so none references the
        // (stable) anchor: previously sealed spikes all sit before
        // `base`, and the block's spikes re-index after it.
        for mut sp in report.spikes {
            for idx in &mut sp.segment_idxs {
                *idx += base;
            }
            self.sealed_spikes.push(sp);
        }
        debug_assert_eq!(
            self.sealed_labels.last(),
            Some(&SegmentLabel::Stable),
            "the sealed prefix always ends with its anchor"
        );
        sealed_now
    }

    /// The full anomaly report over sealed + tail + open: re-detect only
    /// the anchor and the unsealed suffix, then splice the sealed prefix
    /// in front. Byte-identical to the batch detector over the complete
    /// segment list.
    fn view_report(&self, params: &TeroParams) -> AnomalyReport {
        let mut suffix: Vec<Segment> = self.tail.clone();
        if !self.open.is_empty() {
            suffix.push(Segment {
                stream_idx: self.streams.len().saturating_sub(1),
                samples: self.open.clone(),
                stable: self.open.len() >= params.stable_points(),
            });
        }
        let Some(anchor) = self.sealed.last() else {
            return detect_anomalies(suffix, params);
        };
        let mut block = Vec::with_capacity(suffix.len() + 1);
        block.push(anchor.clone());
        block.extend(suffix);
        let r = detect_anomalies(block, params);
        let base = self.sealed.len() - 1;
        let mut segments = self.sealed[..base].to_vec();
        let mut labels = self.sealed_labels[..base].to_vec();
        segments.extend(r.segments);
        labels.extend(r.labels);
        let mut spikes = self.sealed_spikes.clone();
        spikes.extend(r.spikes.into_iter().map(|mut sp| {
            for idx in &mut sp.segment_idxs {
                *idx += base;
            }
            sp
        }));
        AnomalyReport {
            segments,
            labels,
            spikes,
            all_unstable: false,
        }
    }
}

/// Read-only lookup over the cleaner's cached per-series analyses, for
/// the group-level refresh and the aggregation stage — in every window
/// and at the horizon alike.
#[derive(Clone, Copy)]
pub(crate) struct Views<'a>(&'a BTreeMap<(AnonId, GameId), SeriesState>);

impl<'a> Views<'a> {
    /// Every `{streamer, game}` series the cleaner tracks, in key order.
    pub(crate) fn series(self) -> impl Iterator<Item = (AnonId, GameId)> + 'a {
        self.0.keys().copied()
    }

    /// The classification for one `{streamer, game}` series, if any.
    pub(crate) fn classified_for(
        self,
        anon: AnonId,
        game: GameId,
    ) -> Option<&'a ClassifiedStreamer> {
        Some(&self.0.get(&(anon, game))?.view.as_ref()?.classified)
    }

    /// The anomaly report for one `{streamer, game}` series, if any.
    pub(crate) fn report_for(self, anon: AnonId, game: GameId) -> Option<&'a AnomalyReport> {
        Some(&self.0.get(&(anon, game))?.view.as_ref()?.report)
    }
}

/// The clean stage: stateful, windowed, resumable.
#[derive(Debug, Default)]
pub struct CleanStage {
    states: BTreeMap<(AnonId, GameId), SeriesState>,
    /// Provisional-location cache: tag-list length at last lookup and the
    /// result. Invalidated when the streamer's tag list grows.
    loc_cache: BTreeMap<AnonId, (usize, Option<(Location, LocationSource)>)>,
    /// Members of every `{location, game}` group at the last refresh,
    /// keyed by distribution-sketch key — the membership-change detector.
    group_members: BTreeMap<String, Vec<AnonId>>,
    /// Distribution-sketch keys this stage currently has committed,
    /// with the provenance each was committed under.
    online_keys: BTreeMap<String, DistProvenance>,
}

impl CleanStage {
    /// The cleaner's cached per-series views, for the aggregation stage.
    pub(crate) fn views(&self) -> Views<'_> {
        Views(&self.states)
    }

    /// Advance the online cleaner by one window: feed the new sample-list
    /// records, seal newly closed stable blocks, and commit the fed
    /// series' cursors. Returns the set of series that received
    /// new records (the engine feeds it to the aggregation stage's dirty
    /// tracking and to `CleanStage::refresh_serving`). Per-window cost
    /// is proportional to the new data plus the unsealed tails, not the
    /// total history (`benches/window.rs`, `clean_scaling`).
    pub fn advance(&mut self, cx: &mut StageCx<'_>) -> BTreeSet<(AnonId, GameId)> {
        let _span = cx.enter(&cx.metrics.st_clean);
        let params = &cx.tero.params;
        let mut fed_records = 0u64;
        let mut fed_keys: Vec<(AnonId, GameId)> = Vec::new();
        for key in cx.kv.keys_with_prefix(SAMPLES_PREFIX) {
            let Some((anon, game)) = parse_sample_list_key(&key) else {
                continue;
            };
            let state = self
                .states
                .entry((anon, game))
                .or_insert_with(|| SeriesState::new(anon, game));
            let raw = cx.kv.lrange_from(&key, state.cursor);
            if raw.is_empty() {
                continue;
            }
            state.cursor += raw.len();
            let mut samples: Vec<LatencySample> = raw
                .iter()
                .filter_map(|r| SampleRecord::decode(r))
                .map(decode_sample)
                .collect();
            samples.sort_by_key(|s| s.at);
            // The batch stitcher sorts the *whole* list; the fold only
            // matches it while batches arrive in time order. An inversion
            // (first new sample earlier than the last fed one) falls back
            // to a full metric-silent rebuild of this series from the
            // list — the final state is the same either way.
            let inverted = matches!(
                (samples.first(), state.last_at),
                (Some(first), Some(last)) if first.at < last
            );
            if inverted {
                // The cursor now stands at the list's end.
                *state = SeriesState::replay(anon, game, &cx.kv.lrange_from(&key, 0), params);
            } else {
                state.feed(&samples, params);
            }
            fed_records += samples.len() as u64;
            fed_keys.push((anon, game));
        }
        cx.metrics.clean_samples_in.add(fed_records);
        cx.metrics.clean_series_dirty.add(fed_keys.len() as u64);
        // Seal and commit each fed series' cursor.
        let mut sealed_total = 0u64;
        for key in &fed_keys {
            let state = self.states.get_mut(key).expect("state was just fed");
            sealed_total += state.seal(params) as u64;
            cx.kv.hset(
                CLEAN_CURSORS_KEY,
                &super::sample_list_key(state.anon, state.game),
                state.cursor.to_string(),
            );
        }
        cx.metrics.clean_segments_sealed.add(sealed_total);
        fed_keys.into_iter().collect()
    }

    /// Recompute the cached view of every series fed since its last view
    /// — the one analyze fan-out (`stage.analyze`, one `analyze.task` per
    /// series), pure per-series work whose results are merged in key
    /// order. Returns the set of series whose views were recomputed.
    pub(crate) fn refresh_views(&mut self, cx: &mut StageCx<'_>) -> BTreeSet<(AnonId, GameId)> {
        let stale: Vec<&SeriesState> = self.states.values().filter(|s| s.view.is_none()).collect();
        if stale.is_empty() {
            return BTreeSet::new();
        }
        let sp_analyze = cx.sp_run.child("stage.analyze");
        let analyze_stage = cx.tero.trace.stage(&sp_analyze, "analyze.task");
        let params = &cx.tero.params;
        let analyzed: Vec<(ViewCache, TaskTrace)> = cx.pool.par_map_indexed(&stale, |i, st| {
            let mut t = analyze_stage.task(i as u64);
            if let Some(first) = st.streams.first().and_then(|s| s.first()) {
                t.set_sim_time(first.at);
            }
            let report = st.view_report(params);
            if report.all_unstable {
                t.event(Level::Warn, "all segments unstable; streamer discarded");
            }
            let classified = classify_streamer(st.anon, &report, params);
            (ViewCache { report, classified }, t.finish())
        });
        let keys: Vec<(AnonId, GameId)> = stale.iter().map(|s| (s.anon, s.game)).collect();
        let mut traces = Vec::with_capacity(analyzed.len());
        for (key, (view, trace)) in keys.iter().zip(analyzed) {
            traces.push(trace);
            self.states.get_mut(key).expect("stale key exists").view = Some(view);
        }
        analyze_stage.flush(traces);
        cx.metrics.clean_views.add(keys.len() as u64);
        keys.into_iter().collect()
    }

    /// Refresh the serving-layer distribution sketches from the current
    /// views and the locate/aggregation stages' state: group
    /// the series under `locate`'s canonical locations (provisional
    /// tags-only fallbacks for streamers whose budgeted profile lookup
    /// hasn't landed yet), and recompute every `{location, game}` group whose
    /// membership, member data, settled aggregation state or provenance
    /// changed since the last refresh. All-canonical groups serve the
    /// aggregation stage's distribution verbatim; mixed or provisional
    /// groups are analysed against the current views and screened
    /// against the region group's merged clusters in `agg`. One
    /// serve-version bump per refresh that changed anything.
    pub(crate) fn refresh_serving(
        &mut self,
        cx: &mut StageCx<'_>,
        locate: &LocateStage,
        agg: &AggStage,
        fresh: &BTreeSet<(AnonId, GameId)>,
        agg_refreshed: &BTreeSet<String>,
    ) {
        let tero = cx.tero;
        // Provisional locations — tags + social directory only, no
        // profile text — for the streamers the locate stage hasn't
        // settled yet. Located streamers use their committed
        // `engine:locate:*` result, which is canonical from the window
        // it lands in.
        let canonical = locate.locations();
        let location_module = LocationModule::new(&cx.world.gaz);
        let mut locations: HashMap<AnonId, (Location, LocationSource)> = canonical.clone();
        let mut lookups = 0u64;
        for (anon, name) in locate.names() {
            if canonical.contains_key(anon) {
                continue;
            }
            let tags_key = format!("tags:{}", name.as_str());
            let n_tags = cx.kv.llen(&tags_key);
            let located = match self.loc_cache.get(anon) {
                Some((seen, cached)) if *seen == n_tags => cached.clone(),
                _ => {
                    lookups += 1;
                    let tags = tag_observations(cx.kv, &tags_key);
                    let located = location_module.locate(
                        name.as_str(),
                        None,
                        &cx.world.social_directory,
                        &tags,
                    );
                    self.loc_cache.insert(*anon, (n_tags, located.clone()));
                    located
                }
            };
            if let Some(ls) = located {
                locations.insert(*anon, ls);
            }
        }
        cx.metrics.clean_provisional_locations.add(lookups);

        // Regroup at both granularities, keyed by sketch key.
        struct GroupSpec {
            granularity: ServeGranularity,
            game: GameId,
            loc_key: String,
            members: Vec<AnonId>,
        }
        let mut groups: BTreeMap<String, GroupSpec> = BTreeMap::new();
        for (anon, game) in self.states.keys() {
            let Some((loc, _)) = locations.get(anon) else {
                continue;
            };
            for granularity in [ServeGranularity::Region, ServeGranularity::Country] {
                let loc_key = granularity.level(loc).key();
                let key = dist_sketch_key(granularity, *game, &loc_key);
                groups
                    .entry(key)
                    .or_insert_with(|| GroupSpec {
                        granularity,
                        game: *game,
                        loc_key,
                        members: Vec::new(),
                    })
                    .members
                    .push(*anon);
            }
        }

        // Recompute only groups that moved: membership changed, a member
        // received new data, the settled aggregation state behind the
        // group was re-committed, or the group's provenance flipped.
        let gap = tero.params.lat_gap_ms;
        let mut results: Vec<(String, DistProvenance, Option<tero_stats::QuantileSketch>)> =
            Vec::new();
        {
            let views = Views(&self.states);
            for (key, spec) in &groups {
                let prov = if spec.members.iter().all(|a| canonical.contains_key(a)) {
                    DistProvenance::Canonical
                } else {
                    DistProvenance::Provisional
                };
                let membership_changed = self.group_members.get(key) != Some(&spec.members);
                let member_fresh = spec
                    .members
                    .iter()
                    .any(|a| fresh.contains(&(*a, spec.game)));
                let agg_moved = agg_refreshed.contains(key);
                let prov_moved = self.online_keys.get(key).is_some_and(|p| *p != prov);
                if !membership_changed && !member_fresh && !agg_moved && !prov_moved {
                    continue;
                }
                let dist = if prov == DistProvenance::Canonical {
                    // Every member carries a committed locate result, so
                    // the aggregation stage analysed exactly this group
                    // this window: serve its settled distribution — the
                    // same bytes the publish finalizer will write at the
                    // horizon.
                    agg.analysis_for(spec.granularity, &spec.loc_key, spec.game)
                        .and_then(|a| a.distribution.clone())
                } else if spec.members.len() >= tero.min_streamers {
                    let mut dist = analyze_group(
                        tero,
                        &cx.world.gaz,
                        spec.game,
                        &spec.members,
                        &locations,
                        views,
                        spec.granularity,
                    )
                    .distribution;
                    // §3.1.2 screen for provisional groups: a mislocated
                    // provisional member's samples rarely land inside the
                    // location's *canonical* latency clusters, so filter
                    // against the aggregation stage's merged clusters of
                    // the region (on top of the group's own merged
                    // clusters, which `analyze_group` already applied).
                    if tero.reject_outside_clusters && spec.granularity == ServeGranularity::Region
                    {
                        if let (Some(d), Some(clusters)) = (
                            dist.as_mut(),
                            agg.analysis_for(spec.granularity, &spec.loc_key, spec.game)
                                .map(|a| a.clusters.as_slice()),
                        ) {
                            reject_outside(d, clusters, gap);
                        }
                    }
                    dist
                } else {
                    None
                };
                results.push((
                    key.clone(),
                    prov,
                    dist.map(|d| tero_stats::QuantileSketch::from_values(&d.values_ms)),
                ));
            }
        }
        let mut changed = false;
        let mut written = 0u64;
        for (key, prov, sketch) in results {
            let meta = dist_meta_key(&key).expect("online keys are dist keys");
            match sketch {
                Some(sketch) => {
                    let encoded = sketch.encode();
                    cx.metrics.sketch_bytes.add(encoded.len() as u64);
                    cx.metrics.sketch_commits.inc();
                    cx.kv.set(&key, encoded);
                    cx.kv.set(&meta, prov.tag());
                    self.online_keys.insert(key, prov);
                    written += 1;
                    changed = true;
                }
                None => {
                    if self.online_keys.remove(&key).is_some() {
                        cx.kv.del(&key);
                        cx.kv.del(&meta);
                        changed = true;
                    }
                }
            }
        }
        // Groups that vanished entirely (membership moved away).
        let gone: Vec<String> = self
            .online_keys
            .keys()
            .filter(|k| !groups.contains_key(*k))
            .cloned()
            .collect();
        for key in gone {
            cx.kv.del(&key);
            cx.kv
                .del(&dist_meta_key(&key).expect("online keys are dist keys"));
            self.online_keys.remove(&key);
            changed = true;
        }
        self.group_members = groups
            .into_iter()
            .map(|(k, spec)| (k, spec.members))
            .collect();
        let canonical_count = self
            .online_keys
            .values()
            .filter(|p| **p == DistProvenance::Canonical)
            .count();
        cx.metrics.clean_dists_canonical.set(canonical_count as i64);
        cx.metrics
            .clean_dists_provisional
            .set((self.online_keys.len() - canonical_count) as i64);
        if changed {
            cx.kv.incr_by(SERVE_VERSION_KEY, 1);
        }
        cx.metrics.clean_dists_refreshed.add(written);
    }

    /// The horizon hand-off: move every series' streams and cached view
    /// (all fresh — [`CleanStage::refresh_views`] ran just before) out of
    /// the cleaner's state into the report's maps, and count the run's
    /// `analysis.*` totals from them. Leaves the stage empty: the run is
    /// over.
    pub(crate) fn take_cleaned(&mut self, cx: &mut StageCx<'_>) -> Cleaned {
        let m = &cx.metrics.st_clean;
        let _span = cx.enter(m);
        m.records_in.add(self.states.len() as u64);
        let mut streams = BTreeMap::new();
        let mut anomalies = BTreeMap::new();
        let mut classified = BTreeMap::new();
        for (key, state) in std::mem::take(&mut self.states) {
            let (anon, game) = key;
            let ViewCache {
                report,
                classified: cls,
            } = state
                .view
                .expect("every view is refreshed before the hand-off");
            let series: Vec<StreamSeries> = state
                .streams
                .into_iter()
                .map(|samples| StreamSeries {
                    anon,
                    game,
                    samples,
                })
                .collect();
            cx.metrics.streams_stitched.add(series.len() as u64);
            cx.metrics.segments_built.add(report.segments.len() as u64);
            cx.metrics.spikes_detected.add(report.spikes.len() as u64);
            for label in &report.labels {
                match label {
                    SegmentLabel::CorrectedGlitch => cx.metrics.glitches_corrected.inc(),
                    SegmentLabel::DiscardedGlitch => cx.metrics.glitches_discarded.inc(),
                    _ => {}
                }
            }
            let total_points: usize = report.segments.iter().map(|s| s.samples.len()).sum();
            let kept = report.clean_count();
            cx.metrics
                .points_discarded
                .add(total_points.saturating_sub(kept) as u64);
            streams.insert(key, series);
            classified.insert(key, cls);
            anomalies.insert(key, report);
        }
        m.records_out.add(anomalies.len() as u64);
        Cleaned {
            streams,
            anomalies,
            classified,
        }
    }

    /// Rebuild the in-memory state from the store after a restore: replay
    /// every sample list up to its committed cursor (metric-silent — the
    /// counters were already restored from `engine:counters`). By the
    /// sealing argument above, replaying the same sample prefix
    /// reconstructs the identical sealed/tail split. A cursor past the
    /// end of its list (a damaged or badly merged snapshot) resumes at
    /// the end of what was replayed, so no later record is skipped.
    pub fn rebuild(&mut self, kv: &KvStore, params: &TeroParams) {
        let cursors = kv.hgetall(CLEAN_CURSORS_KEY);
        for key in kv.keys_with_prefix(SAMPLES_PREFIX) {
            let Some((anon, game)) = parse_sample_list_key(&key) else {
                continue;
            };
            let consumed: usize = cursors.get(&key).and_then(|v| v.parse().ok()).unwrap_or(0);
            if consumed == 0 {
                continue;
            }
            let records = kv.lrange_from(&key, 0);
            let replayed = &records[..consumed.min(records.len())];
            let mut state = SeriesState::replay(anon, game, replayed, params);
            state.seal(params);
            self.states.insert((anon, game), state);
        }
    }
}

/// Decode a wire [`SampleRecord`] into a [`LatencySample`], exactly as
/// the batch stitcher did.
fn decode_sample(r: SampleRecord) -> LatencySample {
    match r.alternative {
        Some(alt) => LatencySample::with_alternative(r.at, r.primary, alt),
        None => LatencySample::new(r.at, r.primary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TeroParams {
        TeroParams::default() // LatGap 15, StableLen 30 min → 6 points
    }

    /// The batch reference: full stitch + segmentation + detection, as
    /// the legacy stitch/clean stages computed it.
    fn batch_report(samples: &[LatencySample], params: &TeroParams) -> AnomalyReport {
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|s| s.at);
        let mut streams: Vec<Vec<LatencySample>> = Vec::new();
        for &s in &sorted {
            let split = streams
                .last()
                .and_then(|st| st.last())
                .is_none_or(|last| s.at.since(last.at) > STREAM_GAP);
            if split {
                streams.push(Vec::new());
            }
            streams.last_mut().unwrap().push(s);
        }
        let mut segments = Vec::new();
        for (idx, stream) in streams.iter().enumerate() {
            segments.extend(crate::analysis::segments::segment_stream(
                idx, stream, params,
            ));
        }
        detect_anomalies(segments, params)
    }

    /// A synthetic multi-stream series with stable plateaus, glitches,
    /// spikes, drift, and an offline gap — rich enough to exercise every
    /// label.
    fn synthetic_series(seed: u64) -> Vec<LatencySample> {
        let mut out = Vec::new();
        let mut t = 0u64;
        let mut rng = seed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        let push = |t: u64, v: u32, out: &mut Vec<LatencySample>| {
            out.push(LatencySample::new(SimTime::from_mins(t), v));
        };
        for block in 0..6u32 {
            let level = 40 + (next() % 4) * 25;
            let len = 4 + next() % 10;
            for _ in 0..len {
                push(t, level + next() % 6, &mut out);
                t += 5;
            }
            match next() % 4 {
                0 => {
                    // A short glitch run far below the level.
                    for _ in 0..1 + next() % 2 {
                        push(t, (level / 10).max(1), &mut out);
                        t += 5;
                    }
                }
                1 => {
                    // A short spike run far above the level.
                    for _ in 0..1 + next() % 3 {
                        push(t, level + 120 + next() % 30, &mut out);
                        t += 5;
                    }
                }
                2 => {
                    // Offline gap: a new stream starts.
                    t += 60 * (1 + (next() % 4) as u64);
                }
                _ => {}
            }
            let _ = block;
        }
        out
    }

    #[test]
    fn online_view_matches_batch_under_any_window_split() {
        let p = params();
        for seed in [1u64, 7, 23, 99, 1234] {
            let series = synthetic_series(seed);
            let want = format!("{:?}", batch_report(&series, &p));
            // Feed the same series in windows of several sizes, checking
            // the view after every batch against the batch detector over
            // the fed prefix.
            for chunk in [1usize, 3, 5, 17, series.len().max(1)] {
                let mut state = SeriesState::new(AnonId(1), GameId::ALL[0]);
                let mut fed = 0usize;
                for batch in series.chunks(chunk) {
                    state.feed(batch, &p);
                    state.seal(&p);
                    fed += batch.len();
                    let got = format!("{:?}", state.view_report(&p));
                    let want_prefix = format!("{:?}", batch_report(&series[..fed], &p));
                    assert_eq!(
                        got, want_prefix,
                        "seed {seed} chunk {chunk}: view diverged after {fed} samples"
                    );
                }
                let got = format!("{:?}", state.view_report(&p));
                assert_eq!(got, want, "seed {seed} chunk {chunk}: horizon view");
                // The passthrough streams match the batch stitcher too.
                let batch_streams: Vec<usize> = {
                    let mut sorted = series.clone();
                    sorted.sort_by_key(|s| s.at);
                    let mut streams: Vec<Vec<LatencySample>> = Vec::new();
                    for &s in &sorted {
                        let split = streams
                            .last()
                            .and_then(|st| st.last())
                            .is_none_or(|last| s.at.since(last.at) > STREAM_GAP);
                        if split {
                            streams.push(Vec::new());
                        }
                        streams.last_mut().unwrap().push(s);
                    }
                    streams.iter().map(|s| s.len()).collect()
                };
                let got_streams: Vec<usize> = state.streams.iter().map(|s| s.len()).collect();
                assert_eq!(got_streams, batch_streams, "seed {seed} chunk {chunk}");
            }
        }
    }

    #[test]
    fn cached_views_equal_fresh_analyses_at_the_horizon() {
        use crate::download::DownloadModule;
        use crate::pipeline::Tero;
        use tero_store::ObjectStore;
        use tero_world::{World, WorldConfig};

        let tero = Tero::default();
        let p = &tero.params;
        let mut world = World::build(WorldConfig {
            n_streamers: 0,
            days: 1,
            ..WorldConfig::default()
        });
        let (kv, objects) = (KvStore::new(), ObjectStore::new());
        let pool = tero_pool::Pool::new(2);
        let download = DownloadModule::new(kv.clone(), objects.clone());
        let sp_run = tero.trace.span("test.run");
        let metrics = crate::pipeline::PipelineMetrics::new(&tero.obs);
        let mut cx = StageCx {
            tero: &tero,
            world: &mut world,
            pool: &pool,
            kv: &kv,
            objects: &objects,
            download: &download,
            metrics: &metrics,
            sp_run: &sp_run,
        };
        // Five series over four windows, each fed a quarter at a time;
        // series `i` goes quiet after window `i`, so at the horizon four
        // of the five views were cached by an earlier window's refresh.
        // The last window defers its refresh to the horizon, as the
        // engine's does.
        let series: Vec<Vec<LatencySample>> = [1u64, 7, 23, 42, 99].map(synthetic_series).into();
        let mut stage = CleanStage::default();
        for window in 0..4 {
            for (i, samples) in series.iter().enumerate().skip(window) {
                let quarter = samples.len().div_ceil(4);
                let chunk = samples.chunks(quarter).nth(window).unwrap_or(&[]);
                kv.rpush_batch(
                    &crate::stages::sample_list_key(AnonId(i as u64), GameId::ALL[0]),
                    chunk.iter().map(|s| {
                        SampleRecord {
                            at: s.at,
                            primary: s.latency_ms,
                            alternative: None,
                        }
                        .encode()
                    }),
                );
            }
            stage.advance(&mut cx);
            if window < 3 {
                stage.refresh_views(&mut cx);
            }
        }
        let at_horizon = stage.refresh_views(&mut cx);
        assert_eq!(at_horizon.len(), 2, "only the last window's series");
        assert_eq!(stage.states.len(), 5);
        for state in stage.states.values() {
            let view = state.view.as_ref().expect("every view is fresh");
            let report = state.view_report(p);
            assert_eq!(format!("{:?}", view.report), format!("{report:?}"));
            assert_eq!(
                format!("{:?}", view.classified),
                format!("{:?}", classify_streamer(state.anon, &report, p))
            );
        }
    }

    #[test]
    fn sealing_actually_freezes_a_prefix() {
        // A series with several long stable plateaus must seal segments
        // well before the horizon — otherwise the per-window cost claim
        // is vacuous.
        let p = params();
        let series = synthetic_series(42);
        let mut state = SeriesState::new(AnonId(1), GameId::ALL[0]);
        let mut max_sealed = 0usize;
        for batch in series.chunks(6) {
            state.feed(batch, &p);
            state.seal(&p);
            max_sealed = max_sealed.max(state.sealed.len());
        }
        assert!(
            max_sealed > 0,
            "no segment ever sealed over {} samples",
            series.len()
        );
        // The unsealed suffix stays bounded by the data since the last
        // stable segment, not the total history.
        assert!(state.tail.len() < state.sealed.len() + state.tail.len());
    }

    #[test]
    fn all_unstable_series_never_seals_and_matches_batch() {
        // Latencies that never settle: no stable segment, so nothing
        // seals and the view takes the detector's all-unstable path.
        let p = params();
        let series: Vec<LatencySample> = (0..30)
            .map(|i| LatencySample::new(SimTime::from_mins(5 * i), 40 + (i as u32 % 5) * 40))
            .collect();
        let mut state = SeriesState::new(AnonId(1), GameId::ALL[0]);
        for batch in series.chunks(4) {
            state.feed(batch, &p);
            assert_eq!(state.seal(&p), 0);
        }
        let got = state.view_report(&p);
        assert!(got.all_unstable);
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", batch_report(&series, &p))
        );
    }

    #[test]
    fn clean_cursors_key_is_protected() {
        assert!(CLEAN_CURSORS_KEY.starts_with(tero_store::PROTECTED_PREFIX));
    }
}
