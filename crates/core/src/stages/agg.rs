//! The incremental §5/§6 aggregation stage: per-`{location, game}`
//! group analyses — merged clusters, end-point changes, published
//! distributions, shared anomalies and member outcomes — maintained
//! window by window instead of once at the horizon, and the one writer
//! of the served distributions (`engine:serve:dist*`).
//!
//! Each pass groups the series the clean stage tracks under their
//! *serving* locations (`LocateStage::serving_location`): the
//! canonical verdict the budgeted locate stage committed, else the
//! provisional social-profile-only lookup of a streamer still queued.
//! One walk over the series builds both granularities' memberships,
//! each member carrying whether its location is canonical. The pass then
//! re-analyses only the *dirty* groups: those whose membership moved — a
//! provenance flip included — or with a member whose series gained data
//! since the group was last analysed. Clean groups keep their analyses
//! untouched, so a window's aggregation cost tracks the window's dirty
//! groups, not total history.
//!
//! Every refreshed group that publishes a distribution is served: its
//! sketch and its provenance marker (`c` when every member is
//! canonical, `p` otherwise). A group that vanished or publishes nothing
//! any more is deleted, and the serve version is bumped once per pass
//! that changed the family. At the horizon the locate queue is drained,
//! every group is canonical, and the family holds exactly the
//! distributions publish takes into the report.
//!
//! The analyses live in memory. A restored stage starts empty, so its
//! first pass re-analyses and re-serves every group from the restored
//! views, and deletes the served keys `AggStage::rebuild` read back
//! that it no longer has. At the horizon the analyses are identical
//! across every window schedule, worker count and restore point, because
//! each group's analysis is a pure function of its members' horizon
//! views and canonical locations.

use super::clean::Views;
use super::locate::LocateStage;
use super::StageCx;
use crate::analysis::clusters::{
    endpoint_changes, merge_location_clusters, ChangeKind, ClassifiedStreamer, EndPointChange,
    LatencyCluster,
};
use crate::analysis::distributions::{location_distribution, LocationDistribution};
use crate::analysis::shared::{detect_shared_anomalies, SharedAnomaly, StreamerActivity};
use crate::pipeline::Tero;
use crate::serving::{
    dist_meta_key, dist_sketch_key, DistProvenance, ServeGranularity, SERVE_VERSION_KEY,
};
use std::collections::{BTreeMap, BTreeSet};
use tero_geoparse::Gazetteer;
use tero_stats::QuantileSketch;
use tero_types::{AnonId, GameId, Location, SimTime};
use tero_world::games::{corrected_distance_to, primary_server};

/// A group's members in series (= AnonId) order, each with whether its
/// serving location is canonical.
type Members = Vec<(AnonId, bool)>;

/// One group of a pass's desired grouping: its location (its first
/// member's, at the group's granularity) and its members.
type Desired = BTreeMap<(String, GameId), (Location, Members)>;

/// One maintained group: the membership its analysis was computed for,
/// and the analysis itself.
#[derive(Debug)]
struct GroupEntry {
    members: Members,
    analysis: GroupAnalysis,
}

/// The served keys a pass moved, each set in key order: the refreshed
/// groups' keys, rewritten (`Some`) or deleted (`None`), and the keys of
/// the groups that vanished.
#[derive(Default)]
struct Moved {
    refreshed: BTreeMap<String, Option<(DistProvenance, QuantileSketch)>>,
    gone: BTreeSet<String>,
}

/// The marker a group with these members is served under.
fn provenance(members: &[(AnonId, bool)]) -> DistProvenance {
    if members.iter().all(|&(_, canonical)| canonical) {
        DistProvenance::Canonical
    } else {
        DistProvenance::Provisional
    }
}

/// The incremental aggregation stage.
#[derive(Debug, Default)]
pub(crate) struct AggStage {
    /// The maintained groups, indexed by `ServeGranularity as usize`:
    /// region-level (the full §3.3.3/§5/§6 product set), then
    /// country-level (distributions only; Figs 9, 11, 12).
    groups: [BTreeMap<(String, GameId), GroupEntry>; 2],
    /// The served distribution keys a restore read back, until the first
    /// pass re-serves or deletes them.
    restored: BTreeSet<String>,
}

impl AggStage {
    /// One aggregation pass: group the series `views` covers under
    /// `locate`'s serving locations at both granularities, re-analyse
    /// the dirty groups (`pending` lists the series that gained data
    /// since the last pass), drop vanished groups, and commit what moved
    /// to the served family.
    pub(crate) fn advance(
        &mut self,
        cx: &mut StageCx<'_>,
        views: Views<'_>,
        locate: &LocateStage,
        pending: &BTreeSet<(AnonId, GameId)>,
    ) {
        let _sp = cx.sp_run.child("stage.aggregate");
        let granularities = [ServeGranularity::Region, ServeGranularity::Country];
        let mut desired: [Desired; 2] = Default::default();
        for (anon, game) in views.series() {
            let Some((loc, canonical)) = locate.serving_location(anon) else {
                continue;
            };
            for granularity in granularities {
                let level = granularity.level(loc);
                desired[granularity as usize]
                    .entry((level.key(), game))
                    .or_insert_with(|| (level, Vec::new()))
                    .1
                    .push((anon, canonical));
            }
        }
        let mut moved = Moved::default();
        for (granularity, desired) in granularities.into_iter().zip(desired) {
            self.pass(cx, views, desired, pending, granularity, &mut moved);
        }
        // A restored store may serve groups this stage never held; every
        // group it does hold was refreshed by this, its first, pass.
        for key in std::mem::take(&mut self.restored) {
            if !moved.refreshed.contains_key(&key) {
                moved.gone.insert(key);
            }
        }
        self.commit(cx, moved);
    }

    /// Take the served distribution keys a restore decoded, so the first
    /// pass deletes those it no longer serves — the groups of a merged
    /// sharded store included.
    pub(crate) fn rebuild(&mut self, served: BTreeSet<String>) {
        self.restored = served;
    }

    /// Hand the settled analyses of one granularity to the publish
    /// finalizer, in key order, clearing the in-memory map (the run is
    /// over).
    pub(crate) fn take_groups(
        &mut self,
        granularity: ServeGranularity,
    ) -> impl Iterator<Item = ((String, GameId), GroupAnalysis)> {
        std::mem::take(&mut self.groups[granularity as usize])
            .into_iter()
            .map(|(k, e)| (k, e.analysis))
    }

    /// The per-granularity half of [`AggStage::advance`]: re-analyse the
    /// dirty groups of `desired` and collect the served keys that moved.
    fn pass(
        &mut self,
        cx: &mut StageCx<'_>,
        views: Views<'_>,
        desired: Desired,
        pending: &BTreeSet<(AnonId, GameId)>,
        granularity: ServeGranularity,
        moved: &mut Moved,
    ) {
        let stored = &mut self.groups[granularity as usize];
        let vanished: Vec<(String, GameId)> = stored
            .keys()
            .filter(|k| !desired.contains_key(*k))
            .cloned()
            .collect();
        for key in vanished {
            let entry = stored.remove(&key).expect("a listed group");
            if entry.analysis.distribution.is_some() {
                moved
                    .gone
                    .insert(dist_sketch_key(granularity, key.1, &key.0));
            }
        }
        let dirty: Vec<((String, GameId), (Location, Members))> = desired
            .into_iter()
            .filter(|(key, (_, members))| {
                stored.get(key).map(|e| &e.members) != Some(members)
                    || members.iter().any(|&(a, _)| pending.contains(&(a, key.1)))
            })
            .collect();
        cx.metrics.agg_dirty_groups.add(dirty.len() as u64);
        let tero = cx.tero;
        let gaz = &cx.world.gaz;
        let results: Vec<GroupAnalysis> =
            cx.pool.par_map(&dirty, |((_, game), (location, members))| {
                analyze_group(tero, gaz, *game, location, members, views, granularity)
            });
        for ((key, (_, members)), analysis) in dirty.into_iter().zip(results) {
            let sketch_key = dist_sketch_key(granularity, key.1, &key.0);
            let was_served = stored
                .get(&key)
                .is_some_and(|e| e.analysis.distribution.is_some())
                || self.restored.contains(&sketch_key);
            let served = analysis.distribution.as_ref().map(|d| {
                (
                    provenance(&members),
                    QuantileSketch::from_values(&d.values_ms),
                )
            });
            if served.is_some() || was_served {
                moved.refreshed.insert(sketch_key, served);
            }
            stored.insert(key, GroupEntry { members, analysis });
        }
    }

    /// Write the served keys that moved — each sketch or deletion with
    /// its marker, the refreshed groups before the vanished ones — set
    /// the `clean.dists_*` gauges, and bump the serve version once if
    /// anything changed.
    fn commit(&self, cx: &mut StageCx<'_>, moved: Moved) {
        let changed = !moved.refreshed.is_empty() || !moved.gone.is_empty();
        let mut written = 0u64;
        for (key, served) in moved.refreshed {
            let meta = dist_meta_key(&key).expect("a dist key");
            match served {
                Some((prov, sketch)) => {
                    let encoded = sketch.encode();
                    cx.metrics.sketch_bytes.add(encoded.len() as u64);
                    cx.metrics.sketch_commits.inc();
                    cx.kv.set(&key, encoded);
                    cx.kv.set(&meta, prov.tag());
                    written += 1;
                }
                None => {
                    cx.kv.del(&key);
                    cx.kv.del(&meta);
                }
            }
        }
        for key in moved.gone {
            cx.kv.del(&key);
            cx.kv.del(&dist_meta_key(&key).expect("a dist key"));
        }
        let (mut canonical, mut provisional) = (0, 0);
        for entry in self.groups.iter().flat_map(BTreeMap::values) {
            if entry.analysis.distribution.is_some() {
                match provenance(&entry.members) {
                    DistProvenance::Canonical => canonical += 1,
                    DistProvenance::Provisional => provisional += 1,
                }
            }
        }
        cx.metrics.clean_dists_canonical.set(canonical);
        cx.metrics.clean_dists_provisional.set(provisional);
        if changed {
            cx.kv.incr_by(SERVE_VERSION_KEY, 1);
        }
        cx.metrics.clean_dists_refreshed.add(written);
    }
}

/// How one member of a `{location, game}` group fared in the
/// distribution-publication decision — the group-level input to the
/// sample-provenance pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemberOutcome {
    /// Non-mover in a group that published a distribution: the member's
    /// cluster samples are in the data-set (subject to the per-streamer
    /// quality gates, which provenance checks separately).
    Contributor,
    /// Excluded for a possible location change (§3.3.3 step 4).
    Mover,
    /// The group published nothing — too few contributors, or no summary
    /// statistics could be computed.
    Withheld,
}

/// Everything the per-`{location, game}` aggregation derives from one
/// group — produced on a pool worker, merged in group-key order.
#[derive(Debug, Clone)]
pub(crate) struct GroupAnalysis {
    /// §3.3.3 step-3 merged clusters (region granularity only).
    pub(crate) clusters: Vec<LatencyCluster>,
    /// Per-member end-point changes (region granularity only).
    pub(crate) changes: Vec<(AnonId, Vec<EndPointChange>)>,
    /// The published distribution, if the group clears `min_streamers`.
    pub(crate) distribution: Option<LocationDistribution>,
    /// Shared anomalies over the group (region granularity only).
    pub(crate) shared: Vec<SharedAnomaly>,
    /// Per-member publication outcome, for the provenance ledger.
    pub(crate) outcomes: Vec<(AnonId, MemberOutcome)>,
}

/// Analyse one `{location, game}` group at `location` (the group's
/// location at its granularity): merged clusters, end-point changes, the
/// published distribution and shared anomalies. Pure with respect to
/// the pipeline's mutable state, so groups can run in parallel; at
/// [`ServeGranularity::Country`] only the distribution is produced
/// (matching the sequential country loop).
fn analyze_group(
    tero: &Tero,
    gaz: &Gazetteer,
    game: GameId,
    location: &Location,
    members: &[(AnonId, bool)],
    views: Views<'_>,
    granularity: ServeGranularity,
) -> GroupAnalysis {
    let members: Vec<AnonId> = members.iter().map(|&(anon, _)| anon).collect();
    let classified_members: Vec<&ClassifiedStreamer> = members
        .iter()
        .filter_map(|a| views.classified_for(*a, game))
        .collect();
    // Step 3: merged clusters from static streamers.
    let clusters = merge_location_clusters(&classified_members, tero.params.lat_gap_ms);
    // Step 4: end-point changes for everyone in the group.
    let mut movers: Vec<AnonId> = Vec::new();
    let mut all_changes: Vec<(AnonId, Vec<EndPointChange>)> = Vec::new();
    for anon in &members {
        if let Some(report) = views.report_for(*anon, game) {
            let changes = endpoint_changes(report, &clusters, tero.params.lat_gap_ms);
            if changes
                .iter()
                .any(|c| c.kind == ChangeKind::PossibleLocation)
            {
                movers.push(*anon);
            }
            if granularity == ServeGranularity::Region && !changes.is_empty() {
                all_changes.push((*anon, changes));
            }
        }
    }

    // Distributions: high-quality members with no possible location
    // change, at the group's granularity.
    let contributors: Vec<&ClassifiedStreamer> = members
        .iter()
        .filter(|a| !movers.contains(a))
        .filter_map(|a| views.classified_for(*a, game))
        .collect();
    let mut distribution = None;
    if contributors.len() >= tero.min_streamers {
        let server = primary_server(gaz, game, location);
        let distance = server
            .as_ref()
            .and_then(|s| corrected_distance_to(gaz, location, s));
        if let Some(mut dist) = location_distribution(
            location.clone(),
            game,
            &contributors,
            server.map(|s| s.location),
            distance,
        ) {
            if tero.reject_outside_clusters {
                reject_outside(&mut dist, &clusters, tero.params.lat_gap_ms);
            }
            distribution = Some(dist);
        }
    }

    // Shared anomalies over the group (region granularity only).
    let shared = if granularity == ServeGranularity::Region {
        let activities: Vec<StreamerActivity> = members
            .iter()
            .filter_map(|a| {
                let report = views.report_for(*a, game)?;
                let times: Vec<SimTime> = report
                    .segments
                    .iter()
                    .flat_map(|s| s.samples.iter().map(|x| x.at))
                    .collect();
                Some(StreamerActivity {
                    anon: *a,
                    measurement_times: times,
                    spikes: report.spikes.clone(),
                })
            })
            .collect();
        detect_shared_anomalies(game, location, &activities)
    } else {
        Vec::new()
    };

    let outcomes = members
        .iter()
        .map(|a| {
            let outcome = if movers.contains(a) {
                MemberOutcome::Mover
            } else if distribution.is_some() {
                MemberOutcome::Contributor
            } else {
                MemberOutcome::Withheld
            };
            (*a, outcome)
        })
        .collect();

    GroupAnalysis {
        clusters,
        changes: all_changes,
        distribution,
        shared,
        outcomes,
    }
}

/// §3.1.2's suggested-but-not-taken mislocation screen, implemented as an
/// opt-in ([`Tero::reject_outside_clusters`]): drop a distribution's
/// values that fall outside every §3.3.3 step-3 merged latency cluster of
/// the `{location, game}` (± `LatGap`, Table 1), then recompute its
/// summary. §3.1.2 observes that a mislocated streamer's measurements
/// rarely land inside the location's real clusters and leaves the filter
/// to the data-set's users; applying it screens location errors at the
/// cost of some legitimate tail mass.
fn reject_outside(dist: &mut LocationDistribution, clusters: &[LatencyCluster], gap: u32) -> bool {
    if clusters.is_empty() {
        return false;
    }
    let inside = |v: f64| {
        clusters.iter().any(|c| {
            v >= c.min_ms.saturating_sub(gap) as f64 && v <= c.max_ms.saturating_add(gap) as f64
        })
    };
    let before = dist.values_ms.len();
    dist.values_ms.retain(|&v| inside(v));
    if dist.values_ms.len() == before {
        return false;
    }
    if let Some(stats) = tero_stats::BoxplotStats::from_samples(&dist.values_ms) {
        dist.stats = stats;
        dist.normalized = dist
            .corrected_distance_km
            .filter(|&d| d > 0.0)
            .map(|d| dist.stats.scaled(1_000.0 / d));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_with(values: Vec<f64>) -> LocationDistribution {
        LocationDistribution {
            location: Location::country("France"),
            game: GameId::LeagueOfLegends,
            streamers: 2,
            stats: tero_stats::BoxplotStats::from_samples(&values).unwrap(),
            values_ms: values,
            server: None,
            corrected_distance_km: Some(500.0),
            normalized: None,
        }
    }

    #[test]
    fn reject_outside_recomputes_summary() {
        let clusters = vec![LatencyCluster {
            min_ms: 40,
            max_ms: 50,
            samples: vec![],
            weight: 1.0,
        }];
        let mut dist = dist_with(vec![42.0, 45.0, 48.0, 200.0, 210.0]);
        let changed = reject_outside(&mut dist, &clusters, 15);
        assert!(changed);
        assert_eq!(dist.values_ms.len(), 3, "outside-cluster values dropped");
        assert!(dist.stats.p95 <= 50.0 + 1e-9);
        assert!(dist.normalized.is_some(), "normalised summary recomputed");
        // No clusters -> no-op.
        let mut dist2 = dist.clone();
        assert!(!reject_outside(&mut dist2, &[], 15));
        // All inside -> untouched.
        let before = dist.values_ms.len();
        assert!(!reject_outside(&mut dist, &clusters, 15));
        assert_eq!(dist.values_ms.len(), before);
    }

    #[test]
    fn reject_outside_empty_cluster_edge_cases() {
        // Empty cluster list: the filter must be a no-op even when every
        // value would fail an "inside any cluster" test vacuously.
        let mut dist = dist_with(vec![10.0, 20.0, 30.0]);
        let stats_before = dist.stats;
        assert!(!reject_outside(&mut dist, &[], 0));
        assert_eq!(dist.values_ms, vec![10.0, 20.0, 30.0]);
        assert_eq!(dist.stats.p50, stats_before.p50);

        // Every value outside the clusters: the distribution is emptied
        // and reported as changed. `BoxplotStats::from_samples(&[])` is
        // `None`, so the stale pre-filter summary is deliberately kept —
        // callers treat an empty `values_ms` as "nothing to publish".
        let clusters = vec![LatencyCluster {
            min_ms: 500,
            max_ms: 510,
            samples: vec![],
            weight: 1.0,
        }];
        let mut dist = dist_with(vec![10.0, 20.0, 30.0]);
        let stats_before = dist.stats;
        assert!(reject_outside(&mut dist, &clusters, 5));
        assert!(dist.values_ms.is_empty(), "all values rejected");
        assert_eq!(
            dist.stats.p50, stats_before.p50,
            "no summary recomputed from an empty sample set"
        );
    }
}
