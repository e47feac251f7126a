//! The publish stage: the horizon finalizer of the §3.3.3/§5/§6
//! products. Since the aggregation stage went incremental
//! ([`crate::stages::agg`]) this stage no longer computes anything
//! group-wise — it takes the aggregation stage's in-memory
//! per-`{location, game}` analyses in key order (byte-identical to the
//! old batch fan-out's merge order), runs the sample-provenance pass and
//! §6 behaviour preparation, and assembles the final [`TeroReport`]. It
//! writes nothing to the serving view: the aggregation stage's pass after
//! the horizon's drain has already served the same distributions, all
//! canonical.

use super::agg::{AggStage, MemberOutcome};
use super::clean::Cleaned;
use super::extract::ExtractStage;
use super::locate::LocateStage;
use super::StageCx;
use crate::analysis::anomaly::SegmentLabel;
use crate::analysis::clusters::{ChangeKind, EndPointChange, LatencyCluster};
use crate::behavior::BehaviorStream;
use crate::download::DownloadStats;
use crate::pipeline::TeroReport;
use crate::serving::ServeGranularity;
use std::collections::{BTreeMap, BTreeSet};
use tero_trace::{DropReason, SampleKey, SampleState};
use tero_types::{AnonId, GameId, SimTime};

/// Publish the run: take the aggregation stage's settled analyses out
/// of `agg` in key order, resolve provenance, and assemble the final
/// report from the clean stage's hand-off, the locate stage's settled
/// locations and the cumulative ingest / extract totals. Stateless — the
/// upstream stages hold everything it reads.
pub(crate) fn publish(
    cx: &mut StageCx<'_>,
    cleaned: Cleaned,
    locate: &LocateStage,
    agg: &mut AggStage,
    extract: &ExtractStage,
    download: DownloadStats,
) -> TeroReport {
    let m = &cx.metrics.st_publish;
    let _span = cx.enter(m);
    let Cleaned {
        streams,
        anomalies,
        classified,
    } = cleaned;
    // The locations are settled: the horizon's locate slice ran
    // against the complete tag history.
    let locations = locate.locations().clone();
    cx.metrics.streamers_located.add(locations.len() as u64);
    cx.metrics.st_locate.records_out.add(locations.len() as u64);
    m.records_in.add(anomalies.len() as u64);
    let ledger = cx.tero.trace.ledger();

    // ---- Replay of the settled §5/§6 aggregation -------------------
    // The aggregation stage already analysed every `{location, game}`
    // group against the horizon views and canonical locations; walk
    // its maps in key order — exactly the order the old batch fan-out
    // merged group results — and fan the fields out into the report.
    let mut location_clusters: BTreeMap<(String, GameId), Vec<LatencyCluster>> = BTreeMap::new();
    let mut all_endpoint_changes: BTreeMap<(AnonId, GameId), Vec<EndPointChange>> = BTreeMap::new();
    let mut distributions = Vec::new();
    let mut shared_anomalies = Vec::new();
    // Per-member publication outcomes at each granularity, for the
    // provenance pass below: a sample is published if its streamer
    // contributed at either level.
    let mut region_outcomes: BTreeMap<(AnonId, GameId), MemberOutcome> = BTreeMap::new();
    let mut country_outcomes: BTreeMap<(AnonId, GameId), MemberOutcome> = BTreeMap::new();
    for (key, analysis) in agg.take_groups(ServeGranularity::Region) {
        for (anon, changes) in analysis.changes {
            all_endpoint_changes.insert((anon, key.1), changes);
        }
        for (anon, outcome) in analysis.outcomes {
            region_outcomes.insert((anon, key.1), outcome);
        }
        location_clusters.insert((key.0.clone(), key.1), analysis.clusters);
        distributions.extend(analysis.distribution);
        shared_anomalies.extend(analysis.shared);
    }
    for (key, analysis) in agg.take_groups(ServeGranularity::Country) {
        for (anon, outcome) in analysis.outcomes {
            country_outcomes.insert((anon, key.1), outcome);
        }
        distributions.extend(analysis.distribution);
    }

    // ---- Sample provenance -----------------------------------------
    // Resolve every still-pending ledger record to its final fate,
    // mirroring the publication rules of `analysis::distributions`:
    // a clean sample is published iff its streamer is located,
    // high-quality, the sample sits in a cluster the streamer
    // publishes (all clusters when static, the top-weight cluster
    // when mobile), and the streamer contributed — without a possible
    // location change — to a group that cleared `min_streamers` at
    // region or country granularity. Each failure along that chain is
    // a typed [`DropReason`]; the funnel counters are bumped from the
    // same decisions, which is what lets `Ledger::reconcile` prove
    // the metrics and the ledger agree record-for-record.
    let sp_prov = cx.sp_run.child("stage.provenance");
    for ((anon, game), report) in &anomalies {
        let cls = classified.get(&(*anon, *game));
        let (high_quality, is_static) = cls
            .map(|c| (c.high_quality, c.is_static))
            .unwrap_or((false, true));
        let mut all_set: BTreeSet<u64> = BTreeSet::new();
        let mut top_set: BTreeSet<u64> = BTreeSet::new();
        if let Some(c) = cls {
            for (ci, cluster) in c.clusters.iter().enumerate() {
                for s in &cluster.samples {
                    all_set.insert(s.at.as_micros());
                    if ci == 0 {
                        top_set.insert(s.at.as_micros());
                    }
                }
            }
        }
        let located_here = locations.contains_key(anon);
        let contributed =
            |m: &BTreeMap<(AnonId, GameId), MemberOutcome>, o| m.get(&(*anon, *game)) == Some(&o);
        let published_somewhere = contributed(&region_outcomes, MemberOutcome::Contributor)
            || contributed(&country_outcomes, MemberOutcome::Contributor);
        let moved_somewhere = contributed(&region_outcomes, MemberOutcome::Mover)
            || contributed(&country_outcomes, MemberOutcome::Mover);
        for (segment, label) in report.segments.iter().zip(&report.labels) {
            let segment_drop = match label {
                SegmentLabel::Spike => Some(DropReason::Spike),
                SegmentLabel::DiscardedGlitch => Some(DropReason::Glitch),
                SegmentLabel::Discarded => Some(DropReason::Unstable),
                _ => None,
            };
            for s in &segment.samples {
                let key = SampleKey {
                    anon: *anon,
                    game: *game,
                    at: s.at,
                };
                let state = match segment_drop {
                    Some(reason) => SampleState::Dropped(reason),
                    None if !located_here => SampleState::Dropped(DropReason::GeoparseMiss),
                    None if !high_quality => SampleState::Dropped(DropReason::LowQuality),
                    None if !all_set.contains(&s.at.as_micros()) => {
                        SampleState::Dropped(DropReason::NotClustered)
                    }
                    None if !is_static && !top_set.contains(&s.at.as_micros()) => {
                        SampleState::Dropped(DropReason::MinWeight)
                    }
                    None if published_somewhere => SampleState::Published,
                    None if moved_somewhere => SampleState::Dropped(DropReason::LocationChange),
                    None => SampleState::Dropped(DropReason::GroupTooSmall),
                };
                match state {
                    SampleState::Published => cx.metrics.funnel_published.inc(),
                    SampleState::Dropped(reason) => cx.metrics.funnel_dropped[reason.index()].inc(),
                    SampleState::Pending => unreachable!("provenance always resolves"),
                }
                ledger.resolve(&key, state);
            }
        }
    }
    drop(sp_prov);

    // ---- Behaviour preparation (§6) --------------------------------
    let sp_behavior = cx.sp_run.child("stage.behavior");
    let mut behavior_streams = Vec::new();
    // Order every streamer's streams across games to detect game
    // changes between consecutive streams. A BTreeMap keeps the
    // emitted order deterministic across processes.
    let mut per_streamer: BTreeMap<AnonId, Vec<(SimTime, SimTime, GameId)>> = BTreeMap::new();
    for ((anon, game), series) in &streams {
        for s in series {
            if let (Some(first), Some(last)) = (s.samples.first(), s.samples.last()) {
                per_streamer
                    .entry(*anon)
                    .or_default()
                    .push((first.at, last.at, *game));
            }
        }
    }
    for (anon, mut entries) in per_streamer {
        entries.sort_by_key(|e| e.0);
        for (i, &(start, end, game)) in entries.iter().enumerate() {
            let game_changed_after = entries.get(i + 1).is_some_and(|n| n.2 != game);
            let report = anomalies.get(&(anon, game));
            let spikes = report
                .map(|r| {
                    r.spikes
                        .iter()
                        .filter(|s| s.start >= start && s.start <= end)
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            let first_server_change = all_endpoint_changes.get(&(anon, game)).and_then(|changes| {
                changes
                    .iter()
                    .filter(|c| c.kind == ChangeKind::Server)
                    .map(|c| c.at)
                    .find(|&at| at >= start && at <= end)
            });
            behavior_streams.push(BehaviorStream {
                anon,
                game,
                start,
                end,
                spikes,
                first_server_change,
                game_changed_after,
            });
        }
    }

    drop(sp_behavior);
    cx.metrics
        .distributions_published
        .add(distributions.len() as u64);
    cx.metrics
        .shared_anomalies
        .add(shared_anomalies.len() as u64);
    m.records_out.add(distributions.len() as u64);

    TeroReport {
        download,
        thumbnails: extract.tasks_processed,
        extracted: extract.extracted,
        locations,
        streamers_seen: locate.streamers_seen(),
        streams,
        anomalies,
        classified,
        location_clusters,
        endpoint_changes: all_endpoint_changes,
        distributions,
        shared_anomalies,
        behavior_streams,
    }
}
