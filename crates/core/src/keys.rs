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
mod tests {
    use super::*;
    use crate::download::ThumbnailTask;
    use crate::engine::{decode_ledger_record, encode_ledger_record};
    use crate::serving::{
        dist_sketch_key, parse_dist_sketch_key, parse_raw_sketch_key, raw_sketch_key,
        ServeGranularity,
    };
    use crate::stages::{parse_sample_list_key, sample_list_key, SampleRecord};
    use tero_trace::{DropReason, SampleKey, SampleState};
    use tero_types::{SimTime, StreamerId};

    #[test]
    fn decoders_accept_only_what_encoders_write() {
        let anon = AnonId(0xdea);
        let game = GameId::ALL[0];

        // The series keys: the raw sample lists and the raw sketches.
        let key = sample_list_key(anon, game);
        assert_eq!(key, "engine:samples:0000000000000dea:00");
        assert_eq!(parse_sample_list_key(&key), Some((anon, game)));
        for bad in [
            "engine:samples:+000000000000dea:00",
            "engine:samples:0000000000000DEA:00",
            "engine:samples:dea:00",
            "engine:samples:0000000000000dea:+0",
            "engine:samples:0000000000000dea:0",
            "engine:samples:0000000000000dea:000",
        ] {
            assert_eq!(parse_sample_list_key(bad), None, "{bad}");
        }
        let key = raw_sketch_key(anon, game);
        assert_eq!(parse_raw_sketch_key(&key), Some((anon, game)));
        let upper = key.replace("dea", "DEA");
        assert_eq!(parse_raw_sketch_key(&upper), None);
        assert_eq!(parse_raw_sketch_key(&key.replace(":0000", ":+000")), None);

        // The distribution keys carry the game field alone.
        let key = dist_sketch_key(ServeGranularity::Country, game, "France");
        let parsed = parse_dist_sketch_key(&key);
        assert_eq!(parsed, Some((ServeGranularity::Country, game, "France")));
        assert_eq!(parse_dist_sketch_key(&key.replace(":00:", ":+0:")), None);

        // The bare anon field of the names and locate hashes.
        assert_eq!(parse_anon_field(&anon_field(anon)), Some(anon));
        assert_eq!(
            parse_anon_field(&anon_field(AnonId(u64::MAX))),
            Some(AnonId(u64::MAX))
        );
        for bad in [
            "+000000000000dea",
            "0000000000000DEA",
            "",
            "0x00000000000dea",
        ] {
            assert_eq!(parse_anon_field(bad), None, "{bad}");
        }

        // Ledger records.
        let sample = SampleKey {
            anon,
            game,
            at: SimTime::from_micros(1_234),
        };
        for state in [
            SampleState::Pending,
            SampleState::Published,
            SampleState::Dropped(DropReason::ALL[1]),
        ] {
            let raw = encode_ledger_record(&sample, &state);
            assert_eq!(decode_ledger_record(&raw), Some((sample, state)));
        }
        for bad in [
            "+000000000000dea|00|1234|P",
            "0000000000000DEA|00|1234|P",
            "0000000000000dea|+0|1234|P",
            "0000000000000dea|00|+1234|P",
            "0000000000000dea|00|01234|P",
            "0000000000000dea|00|1234|D+1",
        ] {
            assert_eq!(decode_ledger_record(bad), None, "{bad}");
        }

        // Sample records.
        for record in [
            SampleRecord {
                at: SimTime::from_micros(0),
                primary: 45,
                alternative: None,
            },
            SampleRecord {
                at: SimTime::from_micros(86_400_000_000),
                primary: 0,
                alternative: Some(54),
            },
        ] {
            assert_eq!(SampleRecord::decode(&record.encode()), Some(record));
        }
        for bad in ["+5|45|-", "5|+45|-", "5|45|+54", "05|45|-", "5|45|054"] {
            assert_eq!(SampleRecord::decode(bad), None, "{bad}");
        }

        // Thumbnail tasks, whose username is percent-escaped.
        let task = ThumbnailTask {
            streamer: StreamerId::new("a|b%c"),
            game_label: game,
            generated_at: SimTime::from_micros(77),
            object_key: "thumbs/x".to_string(),
        };
        let raw = task.encode();
        assert_eq!(ThumbnailTask::decode(&raw), Some(task));
        let slug = game.slug();
        for bad in [
            format!("a%+C|{slug}|77|k"),
            format!("ab|{slug}|+77|k"),
            format!("ab|{slug}|077|k"),
        ] {
            assert_eq!(ThumbnailTask::decode(&bad), None, "{bad}");
        }
    }
}
