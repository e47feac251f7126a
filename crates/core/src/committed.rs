//! The committed state: the [`StoreSnapshot`] a run hands over, and its
//! one table, every `engine:*` key family the engine leaves in its store,
//! with its key shape, its value decoder and the stage that writes it
//! ([`FAMILIES`]).
//!
//! A restore decodes a snapshot's `engine:` keys through the table
//! exactly once, into the typed parts (`Committed`) that
//! `Engine::resume` and the stages' `rebuild`s consume. It refuses, with
//! a [`RestoreError`], a key that no family holds and a value its
//! family's decoder refuses: resuming past either would misread committed
//! state (`docs/ARCHITECTURE.md` says how). A family the snapshot lacks
//! decodes to what a fresh engine holds.

use crate::download::DownloadCursor;
use crate::engine::{decode_ledger_record, MARKER_FIELDS};
use crate::engine::{COUNTERS_KEY, CURSOR_KEY, ENGINE_KEY, LEDGER_KEY};
use crate::keys::{parse_anon_field, parse_decimal};
use crate::serving::{parse_dist_sketch_key, parse_raw_sketch_key, DistProvenance};
use crate::serving::{DIST_META_PREFIX, DIST_SKETCH_PREFIX, RAW_SKETCH_PREFIX, SERVE_VERSION_KEY};
use crate::stages::clean::CLEAN_CURSORS_KEY;
use crate::stages::locate::{LocateResult, ProfileOutcome};
use crate::stages::locate::{LOCATE_META_KEY, LOCATE_PROFILES_KEY, LOCATE_RESULTS_KEY};
use crate::stages::{parse_sample_list_key, SampleRecord, NAMES_KEY, SAMPLES_PREFIX};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use tero_stats::QuantileSketch;
use tero_store::{KvSnapshot, ObjectSnapshot, SnapshotValue, PROTECTED_PREFIX};
use tero_trace::{SampleKey, SampleState};
use tero_types::{AnonId, GameId, StreamerId};

/// A portable snapshot of the engine's stores, for resuming a killed run
/// in a fresh process (the in-memory analogue of Redis persistence plus
/// an S3 bucket listing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// The KV store: queues, leases, and all committed `engine:` state.
    pub kv: KvSnapshot,
    /// The object store: the thumbnail blobs ingest has stored and
    /// extract has not resolved yet — the queued tasks' and the
    /// dead-lettered ones'. Extract deletes a blob in the window that
    /// resolves its task.
    pub objects: ObjectSnapshot,
}

/// One `engine:*` key family: a key, or every key under a prefix.
#[derive(Debug)]
pub struct Family {
    /// The family's key, or its keys' common prefix.
    pub key: &'static str,
    /// Whether the family holds every key under `key`, not `key` alone.
    pub prefix: bool,
    /// The stage whose state the family holds.
    pub owner: &'static str,
    /// Decode one key's value into the restore's parts, or say why not.
    decode: fn(&mut Committed, &str, &SnapshotValue) -> Result<(), String>,
}

impl Family {
    /// Whether `key` belongs to this family.
    fn holds(&self, key: &str) -> bool {
        key == self.key || self.prefix && key.starts_with(self.key)
    }
}

/// Every family of the committed state. A key under the `engine:` prefix
/// that none of them holds is state nothing reads back.
#[rustfmt::skip]
pub const FAMILIES: &[Family] = &[
    Family { key: CURSOR_KEY, prefix: false, owner: "ingest", decode: Committed::cursor },
    Family { key: ENGINE_KEY, prefix: false, owner: "engine", decode: Committed::markers },
    Family { key: COUNTERS_KEY, prefix: false, owner: "engine", decode: Committed::counters },
    Family { key: LEDGER_KEY, prefix: false, owner: "engine", decode: Committed::ledger },
    Family { key: NAMES_KEY, prefix: false, owner: "extract", decode: Committed::names },
    Family { key: CLEAN_CURSORS_KEY, prefix: false, owner: "clean", decode: Committed::clean_cursors },
    Family { key: SAMPLES_PREFIX, prefix: true, owner: "extract", decode: Committed::samples },
    Family { key: LOCATE_PROFILES_KEY, prefix: false, owner: "locate", decode: Committed::profiles },
    Family { key: LOCATE_RESULTS_KEY, prefix: false, owner: "locate", decode: Committed::results },
    Family { key: LOCATE_META_KEY, prefix: false, owner: "locate", decode: Committed::api_calls },
    Family { key: SERVE_VERSION_KEY, prefix: false, owner: "extract, agg", decode: Committed::version },
    Family { key: RAW_SKETCH_PREFIX, prefix: true, owner: "extract", decode: Committed::raw_sketch },
    Family { key: DIST_SKETCH_PREFIX, prefix: true, owner: "agg", decode: Committed::dist_sketch },
    Family { key: DIST_META_PREFIX, prefix: true, owner: "agg", decode: Committed::dist_meta },
];

/// Why a snapshot's committed state cannot be resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// The [`Family::key`] of the family that holds the refused key;
    /// `None` when no family holds it.
    pub family: Option<&'static str>,
    /// The refused key.
    pub key: String,
    /// What the family's decoder refused.
    pub reason: String,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = self.family.unwrap_or("no family");
        write!(f, "committed {} ({family}): {}", self.key, self.reason)
    }
}

impl std::error::Error for RestoreError {}

/// A snapshot's committed state, decoded once through [`FAMILIES`]: one
/// field per family, typed (`engine:serve:version` and
/// `engine:serve:dist_meta:*` are checked and dropped). `markers` holds
/// `engine:cursor` in `MARKER_FIELDS` order, `None` for a field no commit
/// wrote yet; `served` holds the keys of `engine:serve:dist:*`.
#[derive(Default)]
pub(crate) struct Committed {
    pub(crate) cursor: Option<DownloadCursor>,
    pub(crate) markers: [Option<u64>; 5],
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) ledger: Vec<(SampleKey, SampleState)>,
    pub(crate) names: BTreeMap<AnonId, StreamerId>,
    pub(crate) clean_cursors: BTreeMap<(AnonId, GameId), usize>,
    pub(crate) samples: BTreeMap<(AnonId, GameId), Vec<SampleRecord>>,
    pub(crate) profiles: BTreeMap<AnonId, ProfileOutcome>,
    pub(crate) results: BTreeMap<AnonId, LocateResult>,
    pub(crate) api_calls: u64,
    pub(crate) raw_sketches: BTreeMap<(AnonId, GameId), QuantileSketch>,
    pub(crate) served: BTreeSet<String>,
}

impl Committed {
    /// Decode every `engine:` key of `snap` through its family, or refuse
    /// the first that does not decode. A missing cursor is refused too
    /// when `engine:cursor` says ingest ran: a fresh one in its place
    /// would poll from the start and queue every thumbnail a second time.
    pub(crate) fn decode(snap: &KvSnapshot) -> Result<Committed, RestoreError> {
        let mut parts = Committed::default();
        for (key, value) in snap.entries_with_prefix(PROTECTED_PREFIX) {
            let family = FAMILIES.iter().find(|f| f.holds(key));
            let refused = |reason| RestoreError {
                family: family.map(|f| f.key),
                key: key.to_string(),
                reason,
            };
            let family = family.ok_or_else(|| refused("no family holds the key".to_string()))?;
            (family.decode)(&mut parts, key, value).map_err(refused)?;
        }
        let [_, ingested_to, ..] = parts.markers;
        if parts.cursor.is_none() && ingested_to.is_some() {
            let key = CURSOR_KEY.to_string();
            let reason = "missing although ingest ran".to_string();
            return Err(RestoreError {
                family: Some(CURSOR_KEY),
                key,
                reason,
            });
        }
        Ok(parts)
    }

    fn cursor(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.cursor = Some(serde_json::from_str(string(value)?).map_err(|e| e.to_string())?);
        Ok(())
    }

    fn markers(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        let marker = |field: &str| MARKER_FIELDS.iter().position(|f| *f == field);
        for (at, n) in fields(value, marker, parse_decimal)? {
            self.markers[at] = Some(n);
        }
        Ok(())
    }

    fn counters(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.counters = fields(value, |name| Some(name.to_string()), parse_decimal)?;
        Ok(())
    }

    fn ledger(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.ledger = records(value, decode_ledger_record)?;
        Ok(())
    }

    fn names(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.names = fields(value, parse_anon_field, |name| Some(StreamerId::new(name)))?;
        Ok(())
    }

    fn clean_cursors(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.clean_cursors = fields(value, parse_sample_list_key, parse_decimal)?;
        Ok(())
    }

    fn samples(&mut self, key: &str, value: &SnapshotValue) -> Result<(), String> {
        let series = parse_sample_list_key(key).ok_or("the key names no series")?;
        let records = records(value, SampleRecord::decode)?;
        self.samples.insert(series, records);
        Ok(())
    }

    fn profiles(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.profiles = fields(value, parse_anon_field, |v| serde_json::from_str(v).ok())?;
        Ok(())
    }

    fn results(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        self.results = fields(value, parse_anon_field, |v| serde_json::from_str(v).ok())?;
        Ok(())
    }

    fn api_calls(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        let api_calls = |field: &str| (field == "api_calls").then_some(());
        for ((), n) in fields(value, api_calls, parse_decimal)? {
            self.api_calls = n;
        }
        Ok(())
    }

    fn version(&mut self, _: &str, value: &SnapshotValue) -> Result<(), String> {
        let version = parse_decimal::<i64>(string(value)?);
        version.map(drop).ok_or_else(|| "not a version".to_string())
    }

    fn raw_sketch(&mut self, key: &str, value: &SnapshotValue) -> Result<(), String> {
        let series = parse_raw_sketch_key(key).ok_or("the key names no series")?;
        self.raw_sketches.insert(series, sketch(value)?);
        Ok(())
    }

    fn dist_sketch(&mut self, key: &str, value: &SnapshotValue) -> Result<(), String> {
        parse_dist_sketch_key(key).ok_or("the key names no distribution")?;
        sketch(value)?;
        self.served.insert(key.to_string());
        Ok(())
    }

    fn dist_meta(&mut self, key: &str, value: &SnapshotValue) -> Result<(), String> {
        let dist = format!("{DIST_SKETCH_PREFIX}{}", &key[DIST_META_PREFIX.len()..]);
        parse_dist_sketch_key(&dist).ok_or("the key names no distribution")?;
        DistProvenance::from_tag(string(value)?).ok_or("the value is no provenance tag")?;
        Ok(())
    }
}

fn string(value: &SnapshotValue) -> Result<&str, String> {
    match value {
        SnapshotValue::Str(s) => Ok(s),
        _ => Err("not a string".to_string()),
    }
}

/// Every item of a list, each decoded by `decode`.
fn records<T>(value: &SnapshotValue, decode: fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    let SnapshotValue::List(items) = value else {
        return Err("not a list".to_string());
    };
    let record = |(i, item): (usize, &String)| {
        decode(item).ok_or_else(|| format!("record {i} does not decode"))
    };
    items.iter().enumerate().map(record).collect()
}

/// Every field of a hash and its value, decoded by `field` and `value`.
fn fields<K: Ord, V>(
    hash: &SnapshotValue,
    field: impl Fn(&str) -> Option<K>,
    value: impl Fn(&str) -> Option<V>,
) -> Result<BTreeMap<K, V>, String> {
    let SnapshotValue::Hash(pairs) = hash else {
        return Err("not a hash".to_string());
    };
    let pair = |(f, v): &(String, String)| match (field(f), value(v)) {
        (Some(f), Some(v)) => Ok((f, v)),
        (None, _) => Err(format!("field {f:?} does not decode")),
        (_, None) => Err(format!("field {f}: {v:?} does not decode")),
    };
    pairs.iter().map(pair).collect()
}

fn sketch(value: &SnapshotValue) -> Result<QuantileSketch, String> {
    QuantileSketch::decode(string(value)?).ok_or_else(|| "the sketch does not decode".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_key_shape_belongs_to_one_protected_family() {
        for family in FAMILIES {
            assert!(family.key.starts_with(PROTECTED_PREFIX), "{}", family.key);
            let key = format!("{}{}", family.key, if family.prefix { "x" } else { "" });
            let holders: Vec<&str> = FAMILIES
                .iter()
                .filter(|f| f.holds(&key))
                .map(|f| f.key)
                .collect();
            assert_eq!(holders, [family.key]);
        }
    }
}
