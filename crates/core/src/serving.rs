//! The serving-layer key schema: where the staged engine commits
//! [`QuantileSketch`] state into [`tero_store::KvStore`], and how
//! `tero-serve` finds it.
//!
//! Two sketch families live under the chaos-exempt `engine:serve:` prefix:
//!
//! * **Raw sketches** ([`raw_sketch_key`], one per `{streamer, game}`):
//!   every extracted primary value, maintained by the extract stage and
//!   committed — together with the rest of the engine's resumable state —
//!   at every window boundary. This is the incrementally-updating view: it
//!   is complete up to the last committed window even while a run is still
//!   in flight, and it survives a chaos kill/resume.
//! * **Distribution sketches** ([`dist_sketch_key`], one per `{granularity,
//!   game, location}`): the cleaned per-`{location, game}` §5.2
//!   distributions, written only by the aggregation stage's pass, for
//!   the groups it re-analysed. Mid-run a group may be provisional; at the
//!   horizon every group is canonical and each sketch is built from
//!   exactly the values behind the report's `LocationDistribution`s.
//!   These are what `tero-serve` answers
//!   percentile/CDF/histogram/Wasserstein queries from.
//!
//! The granularity tag (`r`/`c`) comes *before* the location key because
//! region-level and country-level groups can share a key string (a
//! country-only-located streamer's region-level location *is* its
//! country), and because location keys contain `/` and `:` freely — the
//! tag and game index are fixed-width fields in front, so parsing never
//! has to guess where the location starts.
//!
//! Every write to the serving view bumps [`SERVE_VERSION_KEY`]; the
//! `tero-serve` hot-key cache stamps entries with the version it read and
//! drops them when it changes, so a committed window invalidates the
//! cache without any cross-component signalling.

use crate::keys::{game_field, parse_game_field, parse_series_key, series_key};
use tero_stats::QuantileSketch;
use tero_store::KvStore;
use tero_types::{AnonId, GameId, Location};

/// Monotonic version of the serving view. Bumped once per engine commit
/// that touched a raw sketch and once per aggregation pass that changed
/// a distribution; cache entries carry the version they were computed
/// at and expire when it moves.
pub const SERVE_VERSION_KEY: &str = "engine:serve:version";

/// Prefix of the per-`{streamer, game}` raw sketches.
pub const RAW_SKETCH_PREFIX: &str = "engine:serve:raw:";

/// Prefix of the per-`{granularity, game, location}` distribution
/// sketches.
pub const DIST_SKETCH_PREFIX: &str = "engine:serve:dist:";

/// Prefix of the per-distribution provenance markers: for every
/// [`dist_sketch_key`] the engine also writes
/// `engine:serve:dist_meta:{same suffix}` holding a
/// [`DistProvenance`] tag. The `_meta` spelling (underscore, not a
/// colon segment) keeps the marker family out of any
/// `keys_with_prefix(DIST_SKETCH_PREFIX)` scan. [`dist_meta_key`] is
/// the one way to name a marker.
pub(crate) const DIST_META_PREFIX: &str = "engine:serve:dist_meta:";

/// Whether a served distribution was aggregated under canonical
/// (budgeted-locate, §3.1) locations or the mid-run provisional
/// fallback. By the horizon every marker is canonical — the horizon's
/// locate slice drains the queue, and the aggregation pass after it
/// re-serves every group that held a provisional member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistProvenance {
    /// Every group member carried a committed `engine:locate:*` result.
    Canonical,
    /// At least one member was still located by the provisional
    /// social-profile-only lookup (its budgeted profile fetch hasn't
    /// landed yet).
    Provisional,
}

impl DistProvenance {
    /// The stored marker value (`c` / `p`).
    pub fn tag(self) -> &'static str {
        match self {
            DistProvenance::Canonical => "c",
            DistProvenance::Provisional => "p",
        }
    }

    /// Parse a stored [`DistProvenance::tag`] value.
    pub(crate) fn from_tag(tag: &str) -> Option<DistProvenance> {
        match tag {
            "c" => Some(DistProvenance::Canonical),
            "p" => Some(DistProvenance::Provisional),
            _ => None,
        }
    }
}

/// The provenance-marker key paired with a [`dist_sketch_key`] (`None`
/// if `dist_key` is not one).
pub fn dist_meta_key(dist_key: &str) -> Option<String> {
    let suffix = dist_key.strip_prefix(DIST_SKETCH_PREFIX)?;
    Some(format!("{DIST_META_PREFIX}{suffix}"))
}

/// Read the provenance marker for a [`dist_sketch_key`], if present.
pub fn dist_provenance(kv: &KvStore, dist_key: &str) -> Option<DistProvenance> {
    DistProvenance::from_tag(&kv.get(&dist_meta_key(dist_key)?)?)
}

/// The aggregation level a distribution sketch was published at — the
/// serving-layer mirror of the publish stage's two §5 granularities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeGranularity {
    /// Region-level `{location, game}` groups.
    Region,
    /// Country-level groups (Figs 9, 11, 12).
    Country,
}

impl ServeGranularity {
    /// The single-character key tag (`r` / `c`).
    pub fn tag(self) -> char {
        match self {
            ServeGranularity::Region => 'r',
            ServeGranularity::Country => 'c',
        }
    }

    /// `loc` truncated to this granularity — the location a group at
    /// this level is keyed and analysed under.
    pub(crate) fn level(self, loc: &Location) -> Location {
        match self {
            ServeGranularity::Region => loc.to_region_level(),
            ServeGranularity::Country => loc.to_country_level(),
        }
    }

    /// Parse a [`ServeGranularity::tag`] character.
    pub(crate) fn from_tag(tag: &str) -> Option<ServeGranularity> {
        match tag {
            "r" => Some(ServeGranularity::Region),
            "c" => Some(ServeGranularity::Country),
            _ => None,
        }
    }
}

/// Why a `Tero` cannot hand back a queryable serving view — the typed
/// result of [`crate::pipeline::Tero::try_serving_store`].
///
/// The dangerous case is [`ServingError::NoDistributions`]: a run
/// *completed* but its serving view holds zero distribution sketches,
/// so a query engine built over the store would answer every
/// percentile/CDF query with "unknown location" rather than failing
/// loudly. This happens legitimately on small or unlucky worlds — §5.2
/// drops every `{location, game}` group below the `min_streamers`
/// threshold, and a handful of randomly-located streamers can leave no
/// group large enough — which makes the silently-empty store easy to
/// mistake for a serving bug. The typed condition lets callers tell
/// "nothing ran" from "ran, but published nothing" at the point where
/// the store is handed to `tero-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// No run has completed on this `Tero` yet: either nothing was run,
    /// or a windowed run is still in flight and has not finalized.
    NoCompletedRun,
    /// A run completed, but its serving view holds no
    /// [`dist_sketch_key`] entries — every candidate `{location, game}`
    /// group fell below the publish threshold.
    NoDistributions,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::NoCompletedRun => write!(f, "no completed run to serve from"),
            ServingError::NoDistributions => write!(
                f,
                "run completed but published no distributions \
                 (every {{location, game}} group fell below the publish threshold)"
            ),
        }
    }
}

impl std::error::Error for ServingError {}

/// The KV key of one `{streamer, game}` raw sketch:
/// `engine:serve:raw:{anon:016x}:{game_idx:02}`.
pub fn raw_sketch_key(anon: AnonId, game: GameId) -> String {
    series_key(RAW_SKETCH_PREFIX, anon, game)
}

/// Parse a [`raw_sketch_key`] back into its `{streamer, game}` pair.
pub fn parse_raw_sketch_key(key: &str) -> Option<(AnonId, GameId)> {
    parse_series_key(RAW_SKETCH_PREFIX, key)
}

/// The KV key of one published distribution sketch:
/// `engine:serve:dist:{r|c}:{game_idx:02}:{location_key}` where
/// `location_key` is `Location::key()` at the group's granularity.
pub fn dist_sketch_key(granularity: ServeGranularity, game: GameId, location_key: &str) -> String {
    format!(
        "{DIST_SKETCH_PREFIX}{}:{}:{location_key}",
        granularity.tag(),
        game_field(game)
    )
}

/// Parse a [`dist_sketch_key`] into `(granularity, game, location_key)`.
pub fn parse_dist_sketch_key(key: &str) -> Option<(ServeGranularity, GameId, &str)> {
    let rest = key.strip_prefix(DIST_SKETCH_PREFIX)?;
    let (tag, rest) = rest.split_once(':')?;
    let granularity = ServeGranularity::from_tag(tag)?;
    let (idx, location_key) = rest.split_once(':')?;
    Some((granularity, parse_game_field(idx)?, location_key))
}

/// The serving view's current version (0 before anything committed).
/// Parsed where it is stored: nothing is copied out of the store.
pub fn serve_version(kv: &KvStore) -> u64 {
    kv.get_with(SERVE_VERSION_KEY, |v| v.parse().ok())
        .flatten()
        .unwrap_or(0)
}

/// Load and decode the sketch at `key`, if present and well-formed. The
/// sketch is decoded where it is stored: nothing is copied out of the
/// store.
pub fn load_sketch(kv: &KvStore, key: &str) -> Option<QuantileSketch> {
    kv.get_with(key, QuantileSketch::decode).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_and_country_keys_never_collide() {
        // The motivating case: a country-only-located group publishes the
        // same location key at both granularities.
        let game = GameId::ALL[0];
        let r = dist_sketch_key(ServeGranularity::Region, game, "France");
        let c = dist_sketch_key(ServeGranularity::Country, game, "France");
        assert_ne!(r, c);
    }

    #[test]
    fn meta_keys_pair_with_dist_keys_without_colliding() {
        let game = GameId::ALL[1];
        let dist = dist_sketch_key(ServeGranularity::Region, game, "France/Île-de-France");
        let meta = dist_meta_key(&dist).unwrap();
        assert!(meta.starts_with(DIST_META_PREFIX));
        assert!(
            !meta.starts_with(DIST_SKETCH_PREFIX),
            "marker keys must never surface in a dist-prefix scan"
        );
        assert_eq!(dist_meta_key("engine:serve:raw:00:00"), None);

        let kv = KvStore::new();
        assert_eq!(dist_provenance(&kv, &dist), None);
        kv.set(&meta, DistProvenance::Canonical.tag());
        assert_eq!(dist_provenance(&kv, &dist), Some(DistProvenance::Canonical));
        kv.set(&meta, DistProvenance::Provisional.tag());
        assert_eq!(
            dist_provenance(&kv, &dist),
            Some(DistProvenance::Provisional)
        );
        assert_eq!(DistProvenance::from_tag("x"), None);
    }

    #[test]
    fn version_and_sketch_helpers() {
        let kv = KvStore::new();
        assert_eq!(serve_version(&kv), 0);
        kv.incr_by(SERVE_VERSION_KEY, 1);
        assert_eq!(serve_version(&kv), 1);
        assert!(load_sketch(&kv, "missing").is_none());
        let sketch = QuantileSketch::from_values(&[1.0, 2.0, 3.0]);
        kv.set("engine:serve:test", sketch.encode());
        assert_eq!(load_sketch(&kv, "engine:serve:test"), Some(sketch));
    }
}
