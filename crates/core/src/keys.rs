//! The text of the fields every engine key and record spells the same
//! way: a streamer's anonymised id as exactly 16 lowercase hex digits
//! (`{anon:016x}`), a game as its index in exactly 2 decimal digits
//! (`{game:02}`), and the integers of queue and log records in plain
//! decimal. Decoding is strict — it accepts exactly what encoding writes
//! (no sign, no uppercase hex, no padding the encoder does not write) —
//! so one series has one key and one record has one spelling.

use std::fmt::Write as _;
use tero_types::{AnonId, GameId};

/// Append `{anon:016x}` to `out`.
fn push_anon(out: &mut String, anon: AnonId) {
    let _ = write!(out, "{:016x}", anon.0);
}

/// Append `{game:02}` to `out`.
fn push_game(out: &mut String, game: GameId) {
    let _ = write!(out, "{:02}", game.index());
}

/// `{anon:016x}`.
pub(crate) fn anon_field(anon: AnonId) -> String {
    let mut field = String::with_capacity(16);
    push_anon(&mut field, anon);
    field
}

/// Decode an [`anon_field`]: exactly 16 lowercase hex digits.
pub(crate) fn parse_anon_field(s: &str) -> Option<AnonId> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok().map(AnonId))?
}

/// `{game:02}`: the game's index in [`GameId::ALL`].
pub(crate) fn game_field(game: GameId) -> String {
    let mut field = String::with_capacity(2);
    push_game(&mut field, game);
    field
}

/// Decode a [`game_field`]: exactly 2 decimal digits naming a game.
pub(crate) fn parse_game_field(s: &str) -> Option<GameId> {
    if s.len() != 2 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    GameId::ALL.get(s.parse::<usize>().ok()?).copied()
}

/// `{prefix}{anon:016x}:{game:02}`: the key of one `{streamer, game}`
/// series under `prefix`.
pub(crate) fn series_key(prefix: &str, anon: AnonId, game: GameId) -> String {
    let mut key = String::with_capacity(prefix.len() + 19);
    key.push_str(prefix);
    push_anon(&mut key, anon);
    key.push(':');
    push_game(&mut key, game);
    key
}

/// Decode a [`series_key`] under `prefix`.
pub(crate) fn parse_series_key(prefix: &str, key: &str) -> Option<(AnonId, GameId)> {
    let (anon, game) = key.strip_prefix(prefix)?.split_once(':')?;
    Some((parse_anon_field(anon)?, parse_game_field(game)?))
}

/// Decode an unsigned integer as `{}` writes it: ASCII digits, no sign,
/// no leading zero unless the value is 0.
pub(crate) fn parse_decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
    let canonical =
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    canonical.then(|| s.parse().ok())?
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{decode_ledger_record, encode_ledger_record};
    use crate::serving::{
        dist_sketch_key, parse_dist_sketch_key, parse_raw_sketch_key, raw_sketch_key,
        DistProvenance, ServeGranularity,
    };
    use crate::stages::{parse_sample_list_key, sample_list_key, SampleRecord};
    use tero_trace::{DropReason, SampleKey, SampleState};
    use tero_types::SimTime;

    /// `valid`, and every truncation, byte deletion and byte replacement
    /// of it that `reencode` (a decoder, then its encoder) does not
    /// refuse, encodes back to exactly the bytes it was decoded from: one
    /// value has one spelling.
    pub(crate) fn assert_strict(valid: &str, reencode: impl Fn(&str) -> Option<String>) {
        assert_eq!(reencode(valid).as_deref(), Some(valid));
        let bytes = valid.as_bytes();
        let mut edits: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for at in 0..bytes.len() {
            edits.push([&bytes[..at], &bytes[at + 1..]].concat());
            for b in 0..=u8::MAX {
                edits.push([&bytes[..at], &[b], &bytes[at + 1..]].concat());
            }
        }
        // The decoders take a `&str`: bytes that are not UTF-8 never reach one.
        for edit in edits.into_iter().filter_map(|e| String::from_utf8(e).ok()) {
            if let Some(back) = reencode(&edit) {
                assert_eq!(back, edit, "{valid:?} edited");
            }
        }
    }

    #[test]
    fn decoders_accept_only_what_encoders_write() {
        for anon in ["0000000000000000", "0000000000000dea", "ffffffffffffffff"] {
            assert_strict(anon, |s| parse_anon_field(s).map(anon_field));
        }
        for game in GameId::ALL {
            assert_strict(&game_field(game), |s| parse_game_field(s).map(game_field));
        }
        for n in ["0", "7", "1234", "18446744073709551615"] {
            assert_strict(n, |s| parse_decimal::<u64>(s).map(|n| n.to_string()));
        }
        let (anon, game) = (AnonId(0xdea), GameId::ALL[3]);
        let key = sample_list_key(anon, game);
        assert_eq!(key, "engine:samples:0000000000000dea:03");
        let list = |s: &str| parse_sample_list_key(s).map(|(a, g)| sample_list_key(a, g));
        assert_strict(&key, list);
        let raw = |s: &str| parse_raw_sketch_key(s).map(|(a, g)| raw_sketch_key(a, g));
        assert_strict(&raw_sketch_key(anon, game), raw);
        // Location keys carry the schema's own separators; the fixed-width
        // front fields keep parsing unambiguous.
        let dist = |s: &str| parse_dist_sketch_key(s).map(|(g, at, l)| dist_sketch_key(g, at, l));
        for (granularity, loc) in [
            (ServeGranularity::Region, "France/Île-de-France"),
            (ServeGranularity::Country, "France"),
            (ServeGranularity::Region, "a/b:c/d"),
        ] {
            assert_strict(&dist_sketch_key(granularity, game, loc), dist);
        }
        for tag in ["c", "p"] {
            assert_strict(tag, |s| DistProvenance::from_tag(s).map(|p| p.tag().into()));
        }
        let sample = SampleKey {
            anon: AnonId(0xfeed_0000_0000_0042),
            game,
            at: SimTime::from_micros(1_234),
        };
        let ledger = |s: &str| decode_ledger_record(s).map(|(k, st)| encode_ledger_record(&k, &st));
        for state in [
            SampleState::Pending,
            SampleState::Published,
            SampleState::Dropped(DropReason::ALL[1]),
            SampleState::Dropped(DropReason::ALL[10]),
        ] {
            assert_strict(&encode_ledger_record(&sample, &state), ledger);
        }
        for record in ["0|45|-", "86400000000|0|54", "7|4294967295|-"] {
            assert_strict(record, |s| SampleRecord::decode(s).map(|r| r.encode()));
        }
    }
}
