//! Sample provenance: the drop ledger.
//!
//! Every latency sample that enters the pipeline (one per stored
//! thumbnail) gets a lineage record keyed by `(anon id, game, capture
//! time)`. As the funnel narrows, each stage resolves its casualties with
//! a typed [`DropReason`]; whatever reaches a published `{location, game}`
//! distribution is resolved as [`SampleState::Published`]. At the end of a
//! run [`Ledger::reconcile`] proves — against the live
//! [`Registry`] — that every ingested sample is accounted for
//! and that the ledger's totals equal the `pipeline.funnel.*` counters
//! exactly.
//!
//! The ledger is deliberately *always on* (unlike spans, which are gated
//! behind [`crate::Tracer::set_enabled`]): provenance is an accounting
//! invariant, not a debugging aid, and keeping it on means the
//! reconciliation check runs in every test and chaos run.
//!
//! ## Caveats (documented, asserted nowhere else)
//!
//! * `reject_outside_clusters` (§3.1.2's suggested mislocation screen) is
//!   off by default and not modeled as a distinct reason. It edits only a
//!   published distribution's values, while provenance books each sample
//!   from the group's member outcomes, so a value it screens out stays
//!   booked [`SampleState::Published`] and `reconcile` still holds — the
//!   ledger and the funnel counters come from the same decisions.
//! * Shared-anomaly detection (§6) is detection-only in this pipeline —
//!   it annotates groups but never removes samples, so it contributes no
//!   drops.

use crate::obs::Registry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use tero_types::{AnonId, GameId, SimTime};

/// Identity of one latency sample: who, which game, when captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SampleKey {
    /// Anonymized streamer id.
    pub anon: AnonId,
    /// Game the thumbnail came from.
    pub game: GameId,
    /// Simulated capture time of the thumbnail.
    pub at: SimTime,
}

/// Why a sample left the funnel before publication.
///
/// Each variant mirrors one `pipeline.funnel.dropped.*` counter; the
/// mapping is [`DropReason::metric_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The thumbnail never yielded an image (CDN fault → dead-letter queue).
    DeadLetter,
    /// OCR could not read a latency value (unreadable HUD or vote
    /// confusion between engines).
    OcrUnreadable,
    /// Removed by per-stream cleaning as an OCR glitch (§3.3).
    Glitch,
    /// Removed by per-stream cleaning as a latency spike (§3.3).
    Spike,
    /// The whole stream was too unstable to keep any segment (§3.3).
    Unstable,
    /// The streamer's profile never produced a location (App. D).
    GeoparseMiss,
    /// The sample survived cleaning but fell outside every latency
    /// cluster used for location distributions (§5).
    NotClustered,
    /// Mobile streamer: sample belongs to a below-top-weight cluster
    /// filtered by the `MinWeight` rule (§5).
    MinWeight,
    /// The streamer had a possible location change and was excluded as a
    /// mover from group distributions (§5).
    LocationChange,
    /// The stream failed the quality gate (spike fraction too high or all
    /// segments unstable), so none of its samples are published.
    LowQuality,
    /// The `{location, game}` group had fewer contributors than
    /// `min_streamers`, so its distribution was withheld (§7).
    GroupTooSmall,
}

impl DropReason {
    /// Every reason, in ledger/display order.
    pub const ALL: [DropReason; 11] = [
        DropReason::DeadLetter,
        DropReason::OcrUnreadable,
        DropReason::Glitch,
        DropReason::Spike,
        DropReason::Unstable,
        DropReason::GeoparseMiss,
        DropReason::NotClustered,
        DropReason::MinWeight,
        DropReason::LocationChange,
        DropReason::LowQuality,
        DropReason::GroupTooSmall,
    ];

    /// The `pipeline.funnel.dropped.*` counter this reason reconciles
    /// against.
    pub fn metric_name(self) -> &'static str {
        match self {
            DropReason::DeadLetter => "pipeline.funnel.dropped.dead_letter",
            DropReason::OcrUnreadable => "pipeline.funnel.dropped.ocr_unreadable",
            DropReason::Glitch => "pipeline.funnel.dropped.glitch",
            DropReason::Spike => "pipeline.funnel.dropped.spike",
            DropReason::Unstable => "pipeline.funnel.dropped.unstable",
            DropReason::GeoparseMiss => "pipeline.funnel.dropped.geoparse_miss",
            DropReason::NotClustered => "pipeline.funnel.dropped.not_clustered",
            DropReason::MinWeight => "pipeline.funnel.dropped.min_weight",
            DropReason::LocationChange => "pipeline.funnel.dropped.location_change",
            DropReason::LowQuality => "pipeline.funnel.dropped.low_quality",
            DropReason::GroupTooSmall => "pipeline.funnel.dropped.group_too_small",
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::DeadLetter => "dead-letter",
            DropReason::OcrUnreadable => "OCR unreadable",
            DropReason::Glitch => "glitch removed",
            DropReason::Spike => "spike removed",
            DropReason::Unstable => "stream unstable",
            DropReason::GeoparseMiss => "geoparse miss",
            DropReason::NotClustered => "outside clusters",
            DropReason::MinWeight => "MinWeight filter",
            DropReason::LocationChange => "possible mover",
            DropReason::LowQuality => "low-quality stream",
            DropReason::GroupTooSmall => "group too small",
        }
    }

    /// Position of this reason in [`DropReason::ALL`] — a stable index
    /// callers can use to keep per-reason counter arrays aligned with the
    /// ledger's books.
    pub fn index(self) -> usize {
        DropReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("reason listed in ALL")
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Final state of one sample's lineage record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SampleState {
    /// Ingested, not yet resolved.
    Pending,
    /// Contributed to at least one published distribution.
    Published,
    /// Dropped with a typed reason.
    Dropped(DropReason),
}

struct LedgerState {
    /// One record per ingested sample, in ingest order.
    records: Vec<(SampleKey, SampleState)>,
    /// Pending record indices by key; a queue because duplicate keys are
    /// legal (the same streamer can be polled twice in one minute) and
    /// must resolve FIFO.
    open: BTreeMap<SampleKey, VecDeque<usize>>,
    /// Resolutions that matched no pending record — always a bug.
    unmatched: u64,
}

/// The sample-provenance ledger. Thread-safe and cheap to share.
pub struct Ledger {
    state: Mutex<LedgerState>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger {
            state: Mutex::new(LedgerState {
                records: Vec::new(),
                open: BTreeMap::new(),
                unmatched: 0,
            }),
        }
    }

    /// Forget everything (fresh pipeline run).
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.records.clear();
        s.open.clear();
        s.unmatched = 0;
    }

    /// Record a sample entering the pipeline.
    pub fn ingest(&self, key: SampleKey) {
        let mut s = self.state.lock();
        let idx = s.records.len();
        s.records.push((key, SampleState::Pending));
        s.open.entry(key).or_default().push_back(idx);
    }

    /// Resolve the oldest pending record for `key` to `state`. Returns
    /// `false` (and counts an unmatched resolution) if no pending record
    /// exists for the key.
    pub fn resolve(&self, key: &SampleKey, state: SampleState) -> bool {
        let mut s = self.state.lock();
        let idx = match s.open.get_mut(key) {
            Some(q) => match q.pop_front() {
                Some(idx) => {
                    if q.is_empty() {
                        s.open.remove(key);
                    }
                    idx
                }
                None => {
                    s.open.remove(key);
                    s.unmatched += 1;
                    return false;
                }
            },
            None => {
                s.unmatched += 1;
                return false;
            }
        };
        s.records[idx].1 = state;
        true
    }

    /// Number of ingested samples.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Whether the ledger has no records.
    pub fn is_empty(&self) -> bool {
        self.state.lock().records.is_empty()
    }

    /// Copy of the lineage records from index `start` on, in ingest
    /// order (empty when `start` is at or past the end) — what a
    /// committer that remembers how many records it has persisted reads.
    pub fn records_from(&self, start: usize) -> Vec<(SampleKey, SampleState)> {
        self.state
            .lock()
            .records
            .get(start..)
            .map_or_else(Vec::new, <[_]>::to_vec)
    }

    /// The fates of every record for `key`, in ingest order (empty if the
    /// sample never entered the pipeline).
    pub fn fate(&self, key: &SampleKey) -> Vec<SampleState> {
        self.state
            .lock()
            .records
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Aggregate totals.
    pub fn summary(&self) -> LedgerSummary {
        let s = self.state.lock();
        let mut out = LedgerSummary {
            ingested: s.records.len() as u64,
            unmatched: s.unmatched,
            ..LedgerSummary::default()
        };
        for (_, state) in &s.records {
            match state {
                SampleState::Pending => out.unresolved += 1,
                SampleState::Published => out.published += 1,
                SampleState::Dropped(r) => out.dropped[r.index()] += 1,
            }
        }
        out
    }

    /// Prove the ledger agrees with the `pipeline.funnel.*` counters in
    /// `registry` (and with `analysis.points_discarded`, the cleaner's
    /// independent count of the three cleaning drops). Returns the
    /// summary on success; on failure, every mismatch found.
    pub fn reconcile(&self, registry: &Registry) -> Result<LedgerSummary, ReconcileError> {
        let summary = self.summary();
        let mut mismatches = Vec::new();

        // Internal consistency first.
        if summary.unmatched != 0 {
            mismatches.push(format!(
                "{} resolutions matched no pending record",
                summary.unmatched
            ));
        }
        if summary.unresolved != 0 {
            mismatches.push(format!(
                "{} ingested samples were never resolved",
                summary.unresolved
            ));
        }
        if summary.published + summary.total_dropped() + summary.unresolved != summary.ingested {
            mismatches.push(format!(
                "published {} + dropped {} + unresolved {} != ingested {}",
                summary.published,
                summary.total_dropped(),
                summary.unresolved,
                summary.ingested
            ));
        }

        // Funnel counters must equal the ledger exactly: `(name, what the
        // ledger expects, what the registry has)`.
        let mut checks = vec![
            ("pipeline.funnel.ingested", summary.ingested, None),
            ("pipeline.funnel.published", summary.published, None),
        ];
        checks.extend(DropReason::ALL.map(|r| (r.metric_name(), summary.count(r), None)));
        // The clean stage counts its discards on its own path.
        checks.push((
            "analysis.points_discarded",
            summary.count(DropReason::Glitch)
                + summary.count(DropReason::Spike)
                + summary.count(DropReason::Unstable),
            None,
        ));
        registry.visit_counters(|name, value| {
            if let Some(check) = checks.iter_mut().find(|c| c.0 == name) {
                check.2 = Some(value);
            }
        });
        for (name, expected, got) in checks {
            if got != Some(expected) {
                mismatches.push(format!(
                    "{name}: registry has {got:?}, ledger expects {expected}"
                ));
            }
        }

        if mismatches.is_empty() {
            Ok(summary)
        } else {
            Err(ReconcileError { mismatches })
        }
    }
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let summary = self.summary();
        f.debug_struct("Ledger")
            .field("ingested", &summary.ingested)
            .field("published", &summary.published)
            .field("dropped", &summary.total_dropped())
            .field("unresolved", &summary.unresolved)
            .finish()
    }
}

/// Aggregate ledger totals, one slot per [`DropReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Samples ingested.
    pub ingested: u64,
    /// Samples that reached a published distribution.
    pub published: u64,
    /// Samples still pending (must be 0 after a run).
    pub unresolved: u64,
    /// Resolutions that matched no pending record (must be 0, ever).
    pub unmatched: u64,
    /// Drops, indexed in [`DropReason::ALL`] order.
    pub dropped: [u64; 11],
}

impl LedgerSummary {
    /// Total drops across all reasons.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Drops for one reason.
    pub fn count(&self, reason: DropReason) -> u64 {
        self.dropped[reason.index()]
    }

    /// Render the funnel as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("ingested            {:>8}\n", self.ingested));
        out.push_str(&format!("published           {:>8}\n", self.published));
        for reason in DropReason::ALL {
            out.push_str(&format!(
                "dropped: {:<18} {:>8}\n",
                reason.label(),
                self.count(reason)
            ));
        }
        if self.unresolved > 0 {
            out.push_str(&format!("UNRESOLVED          {:>8}\n", self.unresolved));
        }
        if self.unmatched > 0 {
            out.push_str(&format!("UNMATCHED           {:>8}\n", self.unmatched));
        }
        out
    }
}

/// All mismatches found by a failed [`Ledger::reconcile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileError {
    /// One line per mismatch.
    pub mismatches: Vec<String>,
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ledger/registry reconciliation failed:")?;
        for m in &self.mismatches {
            writeln!(f, "  - {m}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ReconcileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::StreamerId;

    fn key(n: u64) -> SampleKey {
        SampleKey {
            anon: AnonId::from_streamer(&StreamerId(format!("s{n}")), 7),
            game: GameId::Dota2,
            at: SimTime::from_secs(n),
        }
    }

    fn funnel_registry(summary: &LedgerSummary) -> Registry {
        let registry = Registry::new();
        registry
            .counter("pipeline.funnel.ingested")
            .add(summary.ingested);
        registry
            .counter("pipeline.funnel.published")
            .add(summary.published);
        for reason in DropReason::ALL {
            registry
                .counter(reason.metric_name())
                .add(summary.count(reason));
        }
        registry.counter("analysis.points_discarded").add(
            summary.count(DropReason::Glitch)
                + summary.count(DropReason::Spike)
                + summary.count(DropReason::Unstable),
        );
        registry
    }

    #[test]
    fn reconcile_accepts_a_consistent_run() {
        let ledger = Ledger::new();
        for n in 0..6 {
            ledger.ingest(key(n));
        }
        ledger.resolve(&key(0), SampleState::Published);
        ledger.resolve(&key(1), SampleState::Published);
        ledger.resolve(&key(2), SampleState::Dropped(DropReason::DeadLetter));
        ledger.resolve(&key(3), SampleState::Dropped(DropReason::OcrUnreadable));
        ledger.resolve(&key(4), SampleState::Dropped(DropReason::Glitch));
        ledger.resolve(&key(5), SampleState::Dropped(DropReason::GroupTooSmall));
        let summary = ledger.summary();
        assert_eq!(summary.ingested, 6);
        assert_eq!(summary.published, 2);
        assert_eq!(summary.total_dropped(), 4);
        let registry = funnel_registry(&summary);
        let reconciled = ledger.reconcile(&registry).expect("consistent");
        assert_eq!(reconciled, summary);
    }

    #[test]
    fn reconcile_flags_counter_mismatch() {
        let ledger = Ledger::new();
        ledger.ingest(key(0));
        ledger.resolve(&key(0), SampleState::Published);
        let registry = funnel_registry(&ledger.summary());
        registry.counter("pipeline.funnel.published").inc(); // skew it
        let err = ledger.reconcile(&registry).unwrap_err();
        assert!(
            err.to_string().contains("pipeline.funnel.published"),
            "{err}"
        );
    }

    #[test]
    fn reconcile_flags_unresolved_and_unmatched() {
        let ledger = Ledger::new();
        ledger.ingest(key(0));
        assert!(!ledger.resolve(&key(9), SampleState::Published));
        let registry = funnel_registry(&ledger.summary());
        let err = ledger.reconcile(&registry).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("never resolved"), "{text}");
        assert!(text.contains("matched no pending record"), "{text}");
    }

    #[test]
    fn duplicate_keys_resolve_fifo() {
        let ledger = Ledger::new();
        ledger.ingest(key(0));
        ledger.ingest(key(0));
        assert!(ledger.resolve(&key(0), SampleState::Dropped(DropReason::Spike)));
        assert!(ledger.resolve(&key(0), SampleState::Published));
        assert!(!ledger.resolve(&key(0), SampleState::Published));
        assert_eq!(
            ledger.fate(&key(0)),
            vec![
                SampleState::Dropped(DropReason::Spike),
                SampleState::Published
            ]
        );
    }

    #[test]
    fn records_from_hands_out_the_tail() {
        let ledger = Ledger::new();
        for n in 0..3 {
            ledger.ingest(key(n));
        }
        ledger.resolve(&key(2), SampleState::Published);
        assert_eq!(ledger.records_from(0).len(), 3);
        assert_eq!(
            ledger.records_from(1),
            [
                (key(1), SampleState::Pending),
                (key(2), SampleState::Published)
            ]
        );
        assert!(ledger.records_from(3).is_empty());
        assert!(ledger.records_from(99).is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let ledger = Ledger::new();
        ledger.ingest(key(0));
        ledger.reset();
        assert!(ledger.is_empty());
        assert_eq!(ledger.summary(), LedgerSummary::default());
    }

    #[test]
    fn metric_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = DropReason::ALL.iter().map(|r| r.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DropReason::ALL.len());
        assert!(names
            .iter()
            .all(|n| n.starts_with("pipeline.funnel.dropped.")));
    }
}
