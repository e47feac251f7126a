//! The incremental §5/§6 aggregation stage: per-`{location, game}`
//! group analyses — merged clusters, end-point changes, published
//! distributions, shared anomalies and member outcomes — maintained
//! window by window instead of once at the horizon.
//!
//! Each pass re-derives the desired group memberships from the series
//! the clean stage tracks and the *canonical* locations the budgeted
//! locate stage has committed so far, then re-analyses only the *dirty*
//! groups: those whose membership moved, or with a member whose series
//! gained sealed data since the group was last analysed. Clean groups
//! keep their committed state untouched, so a window's aggregation cost
//! tracks the window's dirty groups, not total history
//! (`benches/locate.rs` pins the shape).
//!
//! Settled analyses are committed under `engine:agg:group:*` (one JSON
//! `GroupAnalysis` per group) and the region-level merged clusters
//! additionally under `engine:agg:clusters:*` — the live cluster
//! picture the serving refresh screens provisional distributions
//! against. After a kill/resume or snapshot restore the stage marks
//! everything dirty and the next pass rebuilds both families from the
//! restored views; at the horizon the committed bytes are identical
//! across every window schedule, worker count and restore point,
//! because each group's analysis is a pure function of its members'
//! horizon views and canonical locations.

use super::clean::Views;
use super::StageCx;
use crate::analysis::clusters::{
    endpoint_changes, merge_location_clusters, ChangeKind, ClassifiedStreamer, EndPointChange,
    LatencyCluster, OnlineLocationClusters,
};
use crate::analysis::distributions::{location_distribution, LocationDistribution};
use crate::analysis::shared::{detect_shared_anomalies, SharedAnomaly, StreamerActivity};
use crate::location::LocationSource;
use crate::pipeline::Tero;
use crate::serving::{dist_sketch_key, ServeGranularity};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tero_geoparse::Gazetteer;
use tero_types::{AnonId, GameId, Location, SimTime};
use tero_world::games::{corrected_distance_to, primary_server};

/// Everything the aggregation stage commits lives under this prefix
/// (inside [`tero_store::PROTECTED_PREFIX`], so chaos never drops it).
pub const AGG_PREFIX: &str = "engine:agg:";

/// Prefix of the committed per-group analyses:
/// `engine:agg:group:{r|c}:{game_idx:02}:{location_key}`, one JSON
/// `GroupAnalysis` each.
pub const AGG_GROUP_PREFIX: &str = "engine:agg:group:";

/// Prefix of the committed region-level merged clusters:
/// `engine:agg:clusters:{game_idx:02}:{location_key}`, one JSON
/// cluster list each.
pub const AGG_CLUSTERS_PREFIX: &str = "engine:agg:clusters:";

/// The KV key of one committed group analysis.
pub fn agg_group_key(granularity: ServeGranularity, game: GameId, location_key: &str) -> String {
    format!(
        "{AGG_GROUP_PREFIX}{}:{:02}:{location_key}",
        granularity.tag(),
        game.index()
    )
}

/// The KV key of one committed region-level cluster list.
pub fn agg_clusters_key(game: GameId, location_key: &str) -> String {
    format!("{AGG_CLUSTERS_PREFIX}{:02}:{location_key}", game.index())
}

/// One maintained group: the membership its analysis was computed for,
/// and the analysis itself.
#[derive(Debug)]
struct GroupEntry {
    members: Vec<AnonId>,
    analysis: GroupAnalysis,
}

/// The incremental aggregation stage.
#[derive(Debug, Default)]
pub struct AggStage {
    /// The maintained groups, indexed by `ServeGranularity as usize`:
    /// region-level (the full §3.3.3/§5/§6 product set), then
    /// country-level (distributions only; Figs 9, 11, 12).
    groups: [BTreeMap<(String, GameId), GroupEntry>; 2],
    clusters: OnlineLocationClusters,
    /// Set after a restore: the in-memory maps are empty and the
    /// committed `engine:agg:*` keys may be stale (a merged sharded
    /// store holds last-writer-wins fragments), so the next pass wipes
    /// and recomputes everything.
    dirty_all: bool,
}

impl AggStage {
    /// Force the next pass to re-analyse (and re-commit) every group.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty_all = true;
    }

    /// The live region-level merged clusters, as of the last pass.
    pub(crate) fn live_clusters(&self) -> &OnlineLocationClusters {
        &self.clusters
    }

    /// The maintained analysis of one group, if any.
    pub(crate) fn analysis_for(
        &self,
        granularity: ServeGranularity,
        location_key: &str,
        game: GameId,
    ) -> Option<&GroupAnalysis> {
        self.groups[granularity as usize]
            .get(&(location_key.to_string(), game))
            .map(|e| &e.analysis)
    }

    /// One aggregation pass: group the series `views` covers under the
    /// canonical `locations` at both granularities, re-analyse the dirty groups
    /// (`pending` lists the series that gained sealed data since the
    /// last pass), commit the results, and drop vanished groups.
    /// Returns the [`dist_sketch_key`]s of every group that changed, so
    /// the serving refresh can skip the rest.
    pub(crate) fn advance(
        &mut self,
        cx: &mut StageCx<'_>,
        views: Views<'_>,
        locations: &HashMap<AnonId, (Location, LocationSource)>,
        pending: &BTreeSet<(AnonId, GameId)>,
    ) -> BTreeSet<String> {
        let _sp = cx.sp_run.child("stage.aggregate");
        if self.dirty_all {
            // Stale committed fragments (pre-kill windows, or a merged
            // sharded store's last-writer-wins fields) are wiped
            // wholesale; the recompute below rewrites the live set.
            for key in cx.kv.keys_with_prefix(AGG_PREFIX) {
                cx.kv.del(&key);
            }
        }
        let mut refreshed = BTreeSet::new();
        for granularity in [ServeGranularity::Region, ServeGranularity::Country] {
            self.pass(cx, views, locations, pending, granularity, &mut refreshed);
        }
        self.dirty_all = false;
        refreshed
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

    /// The per-granularity half of [`AggStage::advance`].
    fn pass(
        &mut self,
        cx: &mut StageCx<'_>,
        views: Views<'_>,
        locations: &HashMap<AnonId, (Location, LocationSource)>,
        pending: &BTreeSet<(AnonId, GameId)>,
        granularity: ServeGranularity,
        refreshed: &mut BTreeSet<String>,
    ) {
        // Desired membership, in series (= AnonId) order per group —
        // exactly how the batch publish pass built its groups.
        let mut desired: BTreeMap<(String, GameId), Vec<AnonId>> = BTreeMap::new();
        for (anon, game) in views.series() {
            if let Some((loc, _)) = locations.get(&anon) {
                let key = granularity.level(loc).key();
                desired.entry((key, game)).or_default().push(anon);
            }
        }
        let stored = &self.groups[granularity as usize];
        let vanished: Vec<(String, GameId)> = stored
            .keys()
            .filter(|k| !desired.contains_key(*k))
            .cloned()
            .collect();
        let dirty: Vec<(&(String, GameId), &Vec<AnonId>)> = desired
            .iter()
            .filter(|(key, members)| {
                self.dirty_all
                    || stored.get(*key).map(|e| &e.members) != Some(*members)
                    || members.iter().any(|a| pending.contains(&(*a, key.1)))
            })
            .collect();
        cx.metrics.agg_dirty_groups.add(dirty.len() as u64);
        let tero = cx.tero;
        let gaz = &cx.world.gaz;
        let results: Vec<GroupAnalysis> = cx.pool.par_map(&dirty, |(key, members)| {
            analyze_group(tero, gaz, key.1, members, locations, views, granularity)
        });
        let map = &mut self.groups[granularity as usize];
        for ((key, members), analysis) in dirty.into_iter().zip(results) {
            cx.kv.set(
                &agg_group_key(granularity, key.1, &key.0),
                serde_json::to_string(&analysis).expect("group analyses serialize"),
            );
            if granularity == ServeGranularity::Region {
                self.clusters
                    .set(key.0.clone(), key.1, analysis.clusters.clone());
                cx.kv.set(
                    &agg_clusters_key(key.1, &key.0),
                    serde_json::to_string(&analysis.clusters).expect("clusters serialize"),
                );
            }
            refreshed.insert(dist_sketch_key(granularity, key.1, &key.0));
            map.insert(
                key.clone(),
                GroupEntry {
                    members: members.clone(),
                    analysis,
                },
            );
        }
        for key in vanished {
            map.remove(&key);
            cx.kv.del(&agg_group_key(granularity, key.1, &key.0));
            if granularity == ServeGranularity::Region {
                self.clusters.remove(&key.0, key.1);
                cx.kv.del(&agg_clusters_key(key.1, &key.0));
            }
            refreshed.insert(dist_sketch_key(granularity, key.1, &key.0));
        }
    }
}

/// How one member of a `{location, game}` group fared in the
/// distribution-publication decision — the group-level input to the
/// sample-provenance pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// Serializable so the incremental aggregation stage can commit each
/// group's settled analysis under `engine:agg:group:*` and replay it
/// after a kill/resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Analyse one `{location, game}` group: merged clusters, end-point
/// changes, the published distribution and shared anomalies. Pure with
/// respect to the pipeline's mutable state, so groups can run in
/// parallel; at [`ServeGranularity::Country`] only the distribution is
/// produced (matching the sequential country loop).
pub(crate) fn analyze_group(
    tero: &Tero,
    gaz: &Gazetteer,
    game: GameId,
    members: &[AnonId],
    locations: &HashMap<AnonId, (Location, LocationSource)>,
    views: Views<'_>,
    granularity: ServeGranularity,
) -> GroupAnalysis {
    let classified_members: Vec<&ClassifiedStreamer> = members
        .iter()
        .filter_map(|a| views.classified_for(*a, game))
        .collect();
    // Step 3: merged clusters from static streamers.
    let clusters = merge_location_clusters(&classified_members, tero.params.lat_gap_ms);
    // Step 4: end-point changes for everyone in the group.
    let mut movers: Vec<AnonId> = Vec::new();
    let mut all_changes: Vec<(AnonId, Vec<EndPointChange>)> = Vec::new();
    for anon in members {
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
        let group_loc = locations
            .get(&members[0])
            .map(|(l, _)| granularity.level(l))
            .expect("grouped member is located");
        let server = primary_server(gaz, game, &group_loc);
        let distance = server
            .as_ref()
            .and_then(|s| corrected_distance_to(gaz, &group_loc, s));
        if let Some(mut dist) = location_distribution(
            group_loc,
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
        let region_loc = locations
            .get(&members[0])
            .map(|(l, _)| granularity.level(l))
            .expect("grouped member is located");
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
        detect_shared_anomalies(game, &region_loc, &activities)
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
pub(crate) fn reject_outside(
    dist: &mut LocationDistribution,
    clusters: &[LatencyCluster],
    gap: u32,
) -> bool {
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
