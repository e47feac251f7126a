//! Generation of profile text with known ground truth.
//!
//! The location module's accuracy (Table 3) depends on *how* streamers
//! describe where they live. We generate the styles the paper describes:
//! formal ("From Miami, Florida"), informal ("Join us in Detroit!"),
//! misleading ("I live in Denmarkian but have roots in Iran"), place-word
//! bait ("Phoenix main, road to radiant"), and non-geographic text; plus
//! Twitter location fields from structured to jokey ("Your heart,
//! Chicago").

use tero_geoparse::Place;
use tero_types::SimRng;

/// How a generated description relates to the streamer's true location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DescriptionStyle {
    /// "From `<City>`, `<Region>`" — passes the conservative filter.
    Formal,
    /// "Join us in `<City>`!" — correct but filter-hostile.
    Informal,
    /// Country-level only: "Streaming from `<Country>`".
    CountryOnly,
    /// Misleading text with a mangled demonym plus another country.
    Misleading,
    /// No location, but contains a capitalised place word used as gaming
    /// slang (false-positive bait).
    Bait,
    /// No location information at all.
    NonGeo,
}

const NONGEO_LINES: &[&str] = &[
    "pro gamer, road to top 500",
    "daily streams, good vibes only",
    "3k elo support main, come hang out",
    "speedruns and chill",
    "variety streamer, mostly ranked grind",
    "your favorite backseat gamer",
];

const BAIT_LINES: &[&str] = &[
    "Phoenix main, road to radiant",
    "Jersey collector and FPS enjoyer",
    "Apex Legends all day, Mirage enjoyer",
    "Valorant grinder, Phoenix one-trick",
];

/// Generate a Twitch description of the given style for a streamer whose
/// true home is `home`.
pub fn twitch_description(style: DescriptionStyle, home: &Place, rng: &mut SimRng) -> String {
    let country = &home.location.country;
    // Region- or country-level homes fall back to coarser phrasing.
    let region = home.location.region.as_deref().unwrap_or(country);
    let city = home.location.city.as_deref().unwrap_or(region);
    match style {
        DescriptionStyle::Formal => match rng.below(3) {
            0 => format!("From {city}, {region}. Streams every evening!"),
            1 => format!("Living in {city}, {country}. Come say hi!"),
            _ => format!("{city}, {region} based streamer, playing ranked daily"),
        },
        DescriptionStyle::Informal => match rng.below(3) {
            0 => format!("Join us in {city}!"),
            1 => format!("Greetings from {city} — streams most nights"),
            _ => format!("{city} represent! Love my city"),
        },
        DescriptionStyle::CountryOnly => match rng.below(2) {
            0 => format!("Streaming from {country}, usually after work"),
            _ => format!("{country} streamer, chat in any language"),
        },
        DescriptionStyle::Misleading => {
            format!("I live in {country}ian but have roots in Iran")
        }
        DescriptionStyle::Bait => (*rng.choose(BAIT_LINES)).to_string(),
        DescriptionStyle::NonGeo => (*rng.choose(NONGEO_LINES)).to_string(),
    }
}

/// How a generated Twitter location field relates to the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwitterFieldStyle {
    /// "`<City>`, `<Region>`" — the clean case.
    CityRegion,
    /// "`<City>`, `<Country>`".
    CityCountry,
    /// Just the city.
    CityOnly,
    /// Jokey but resolvable: "Your heart, `<City>`".
    Joke,
    /// Unresolvable fiction ("the moon").
    Fiction,
    /// Empty field.
    Empty,
}

const FICTION_FIELDS: &[&str] = &[
    "the moon",
    "everywhere and nowhere",
    "in the rift",
    "gamer land",
];

/// Generate a Twitter location field of the given style.
pub(crate) fn twitter_field(style: TwitterFieldStyle, home: &Place, rng: &mut SimRng) -> String {
    let country = &home.location.country;
    let region = home.location.region.as_deref().unwrap_or(country);
    let city = home.location.city.as_deref().unwrap_or(region);
    match style {
        TwitterFieldStyle::CityRegion => format!("{city}, {region}"),
        TwitterFieldStyle::CityCountry => format!("{city}, {country}"),
        TwitterFieldStyle::CityOnly => city.to_string(),
        TwitterFieldStyle::Joke => format!("Your heart, {city}"),
        TwitterFieldStyle::Fiction => (*rng.choose(FICTION_FIELDS)).to_string(),
        TwitterFieldStyle::Empty => String::new(),
    }
}

/// Sample a description style with realistic frequencies: most
/// descriptions carry no location (the paper located only 2.77 % of
/// streamers overall; descriptions yielded ~1 %).
pub(crate) fn sample_description_style(rng: &mut SimRng) -> DescriptionStyle {
    let styles = [
        DescriptionStyle::Formal,
        DescriptionStyle::Informal,
        DescriptionStyle::CountryOnly,
        DescriptionStyle::Misleading,
        DescriptionStyle::Bait,
        DescriptionStyle::NonGeo,
    ];
    // The paper located only ~1 % of streamers via descriptions; most
    // descriptions carry no (usable) location at all.
    let weights = [0.020, 0.008, 0.006, 0.001, 0.012, 0.953];
    styles[rng.choose_weighted(&weights)]
}

/// Sample a Twitter-field style: Twitter fields are location-ish far more
/// often (the paper extracts from ~70 % of them).
pub(crate) fn sample_twitter_style(rng: &mut SimRng) -> TwitterFieldStyle {
    let styles = [
        TwitterFieldStyle::CityRegion,
        TwitterFieldStyle::CityCountry,
        TwitterFieldStyle::CityOnly,
        TwitterFieldStyle::Joke,
        TwitterFieldStyle::Fiction,
        TwitterFieldStyle::Empty,
    ];
    let weights = [0.30, 0.20, 0.15, 0.05, 0.10, 0.20];
    styles[rng.choose_weighted(&weights)]
}

/// Generate a username: adjective + noun + optional digits.
pub fn username(rng: &mut SimRng) -> String {
    const ADJ: &[&str] = &[
        "dark", "mega", "tilted", "cozy", "rapid", "silent", "spicy", "frost", "neon", "hyper",
        "sleepy", "wild", "pixel", "turbo", "lucky", "salty", "shadow", "crimson", "arcane",
        "grim", "velvet", "static", "quantum", "feral",
    ];
    const NOUN: &[&str] = &[
        "wolf", "panda", "mage", "sniper", "toad", "falcon", "gremlin", "wizard", "viking",
        "ninja", "badger", "reaper", "goblin", "knight", "otter", "phantom", "drake", "raven",
        "lynx", "mantis", "golem", "sprite", "warden", "yeti",
    ];
    let adj = rng.choose(ADJ);
    let noun = rng.choose(NOUN);
    if rng.chance(0.8) {
        format!("{adj}{noun}{}", rng.below(100_000))
    } else {
        format!("{adj}_{noun}{}", rng.below(1_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_geoparse::Gazetteer;

    fn miami() -> Place {
        let gaz = Gazetteer::new();
        gaz.lookup_kind("Miami", tero_geoparse::PlaceKind::City)[0].clone()
    }

    #[test]
    fn formal_mentions_region_or_country() {
        let home = miami();
        let mut rng = SimRng::new(1);
        for _ in 0..20 {
            let d = twitch_description(DescriptionStyle::Formal, &home, &mut rng);
            assert!(d.contains("Florida") || d.contains("United States"), "{d}");
            assert!(d.contains("Miami"));
        }
    }

    #[test]
    fn informal_mentions_city_only() {
        let home = miami();
        let mut rng = SimRng::new(2);
        for _ in 0..20 {
            let d = twitch_description(DescriptionStyle::Informal, &home, &mut rng);
            assert!(d.contains("Miami"), "{d}");
            assert!(!d.contains("Florida"), "{d}");
        }
    }

    #[test]
    fn nongeo_and_bait_omit_home() {
        let home = miami();
        let mut rng = SimRng::new(3);
        for style in [DescriptionStyle::NonGeo, DescriptionStyle::Bait] {
            for _ in 0..10 {
                let d = twitch_description(style, &home, &mut rng);
                assert!(!d.contains("Miami"), "{style:?}: {d}");
            }
        }
    }

    #[test]
    fn twitter_fields() {
        let home = miami();
        let mut rng = SimRng::new(4);
        assert_eq!(
            twitter_field(TwitterFieldStyle::CityRegion, &home, &mut rng),
            "Miami, Florida"
        );
        assert_eq!(
            twitter_field(TwitterFieldStyle::Joke, &home, &mut rng),
            "Your heart, Miami"
        );
        assert!(twitter_field(TwitterFieldStyle::Empty, &home, &mut rng).is_empty());
    }

    #[test]
    fn style_sampling_is_mostly_nongeo() {
        let mut rng = SimRng::new(5);
        let n = 10_000;
        let nongeo = (0..n)
            .filter(|_| sample_description_style(&mut rng) == DescriptionStyle::NonGeo)
            .count();
        let frac = nongeo as f64 / n as f64;
        assert!((0.93..0.99).contains(&frac), "{frac}");
    }

    #[test]
    fn usernames_unique_enough() {
        let mut rng = SimRng::new(6);
        let mut set = std::collections::HashSet::new();
        for _ in 0..500 {
            set.insert(username(&mut rng));
        }
        assert!(set.len() > 400, "collisions too frequent: {}", set.len());
    }
}
