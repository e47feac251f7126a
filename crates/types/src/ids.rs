//! Identifiers.
//!
//! The paper's privacy posture (§7) requires that the pipeline never stores a
//! raw streamer identity: each streamer ID is mapped to a randomly generated
//! ID through *consistent hashing*, so the system can recognise that a
//! location and a set of measurements belong to the same streamer without
//! remembering who that streamer is. [`AnonId`] implements that mapping with
//! a keyed FNV-1a construction (the key plays the role of the deployment's
//! secret salt).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A raw (simulated) Twitch streamer identifier. Only the synthetic-world
/// crate and the download front-end ever see these; everything past intake
/// works on [`AnonId`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamerId(pub String);

impl StreamerId {
    /// Construct from any string-like value.
    pub fn new(s: impl Into<String>) -> Self {
        StreamerId(s.into())
    }

    /// The underlying username.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for StreamerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An anonymised streamer identity: the consistent hash of a [`StreamerId`]
/// under a deployment salt. Equal inputs under the same salt always map to
/// the same `AnonId`; the raw ID cannot be recovered.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AnonId(pub u64);

impl AnonId {
    /// Hash a raw streamer ID under the given salt.
    pub fn from_streamer(id: &StreamerId, salt: u64) -> Self {
        AnonId(keyed_fnv1a(id.0.as_bytes(), salt))
    }
}

impl fmt::Display for AnonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "anon:{:016x}", self.0)
    }
}

/// Keyed 64-bit FNV-1a: the salt is mixed in as a prefix and a suffix, and
/// the result is finalised with an avalanche step (SplitMix64's mixer) so
/// that nearby inputs do not produce nearby hashes.
///
/// This is the consistent-hash primitive behind [`AnonId`] *and* the
/// key-to-shard routing of the networked store (`tero-net`): routing
/// with the same construction the anonymisation layer already trusts
/// keeps shard placement a pure function of `(key, salt)`.
pub fn consistent_hash(bytes: &[u8], salt: u64) -> u64 {
    keyed_fnv1a(bytes, salt)
}

/// Ownership of one shard out of `count` in a sharded deployment: the
/// engine holding `ShardSpec { index, count }` processes exactly the
/// streamers whose [`AnonId`] maps to `index` under `AnonId.0 % count`.
/// Every engine computes the same partition from the same salt, so the
/// shards are disjoint and cover the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This engine's shard, in `0..count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Whether this shard owns the given anonymised streamer.
    pub fn owns(&self, id: AnonId) -> bool {
        self.count <= 1 || id.0 % self.count as u64 == self.index as u64
    }
}

fn keyed_fnv1a(bytes: &[u8], salt: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ salt;
    for chunk in salt.to_le_bytes() {
        h = (h ^ chunk as u64).wrapping_mul(PRIME);
    }
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    for chunk in salt.to_be_bytes() {
        h = (h ^ chunk as u64).wrapping_mul(PRIME);
    }
    // Finalise (SplitMix64 mixer).
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the online video games processed by Tero (App. §C lists nine; we
/// model the eight with public server-location data plus a ninth placeholder,
/// exactly as the paper does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GameId {
    /// League of Legends (Riot Games) — the paper's running example.
    LeagueOfLegends,
    /// Call of Duty: Warzone (Activision).
    CodWarzone,
    /// Genshin Impact (miHoYo).
    GenshinImpact,
    /// Teamfight Tactics (Riot Games).
    TeamfightTactics,
    /// Dota 2 (Valve).
    Dota2,
    /// Among Us (Innersloth).
    AmongUs,
    /// Lost Ark (Smilegate).
    LostArk,
    /// Apex Legends (Respawn).
    ApexLegends,
    /// Valorant (Riot Games) — the ninth game, no public server data.
    Valorant,
}

impl GameId {
    /// All games processed by Tero.
    pub const ALL: [GameId; 9] = [
        GameId::LeagueOfLegends,
        GameId::CodWarzone,
        GameId::GenshinImpact,
        GameId::TeamfightTactics,
        GameId::Dota2,
        GameId::AmongUs,
        GameId::LostArk,
        GameId::ApexLegends,
        GameId::Valorant,
    ];

    /// The seven games analysed in Table 5 (those with enough observations).
    pub const TABLE5: [GameId; 7] = [
        GameId::LeagueOfLegends,
        GameId::CodWarzone,
        GameId::GenshinImpact,
        GameId::TeamfightTactics,
        GameId::Dota2,
        GameId::AmongUs,
        GameId::LostArk,
    ];

    /// Position in [`GameId::ALL`] (declaration order) — the fixed-width
    /// game field of every store key and ledger record.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GameId::LeagueOfLegends => "League of Legends",
            GameId::CodWarzone => "Call of Duty Warzone",
            GameId::GenshinImpact => "Genshin Impact",
            GameId::TeamfightTactics => "Teamfight Tactics",
            GameId::Dota2 => "Dota 2",
            GameId::AmongUs => "Among Us",
            GameId::LostArk => "Lost Ark",
            GameId::ApexLegends => "Apex Legends",
            GameId::Valorant => "Valorant",
        }
    }

    /// Short slug used in store keys and bench output.
    pub fn slug(self) -> &'static str {
        match self {
            GameId::LeagueOfLegends => "lol",
            GameId::CodWarzone => "codwz",
            GameId::GenshinImpact => "genshin",
            GameId::TeamfightTactics => "tft",
            GameId::Dota2 => "dota2",
            GameId::AmongUs => "amongus",
            GameId::LostArk => "lostark",
            GameId::ApexLegends => "apex",
            GameId::Valorant => "valorant",
        }
    }
}

impl fmt::Display for GameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anon_id_is_consistent() {
        let id = StreamerId::new("shroud");
        assert_eq!(
            AnonId::from_streamer(&id, 99),
            AnonId::from_streamer(&id, 99)
        );
    }

    #[test]
    fn anon_id_depends_on_salt_and_input() {
        let a = StreamerId::new("alpha");
        let b = StreamerId::new("beta");
        assert_ne!(
            AnonId::from_streamer(&a, 1),
            AnonId::from_streamer(&a, 2),
            "salt must change the mapping"
        );
        assert_ne!(
            AnonId::from_streamer(&a, 1),
            AnonId::from_streamer(&b, 1),
            "input must change the mapping"
        );
    }

    #[test]
    fn anon_id_avalanche() {
        // One-character difference should flip roughly half the bits.
        let a = AnonId::from_streamer(&StreamerId::new("streamer1"), 7).0;
        let b = AnonId::from_streamer(&StreamerId::new("streamer2"), 7).0;
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }

    #[test]
    fn game_names_and_slugs_unique() {
        let mut names: Vec<&str> = GameId::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GameId::ALL.len());
        let mut slugs: Vec<&str> = GameId::ALL.iter().map(|g| g.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), GameId::ALL.len());
    }

    #[test]
    fn display_round_trips() {
        assert_eq!(StreamerId::new("x").to_string(), "x");
        assert_eq!(GameId::Dota2.to_string(), "Dota 2");
        assert!(AnonId(0xdead_beef).to_string().starts_with("anon:"));
    }
}
