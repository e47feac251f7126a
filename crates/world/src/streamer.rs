//! Streamer generation: identity, location, games, network profile, social
//! presence, HUD quirks and behavioural propensities.

use crate::latency::NetProfile;
use crate::textgen::{
    sample_description_style, sample_twitter_style, twitch_description, twitter_field, username,
    DescriptionStyle, TwitterFieldStyle,
};
use tero_geoparse::profiles::SocialPlatform;
use tero_geoparse::{Gazetteer, Place, PlaceKind, SocialProfile};
use tero_types::{GameId, SimRng, SimTime, StreamerId};

/// Per-streamer HUD quirks — the knobs that drive the image-processing
/// failure modes of Fig 6 and Table 4. (Where the readout sits, its scale
/// and its decoration are properties of the *game*, not the streamer —
/// see [`crate::games::hud_spec`].)
#[derive(Debug, Clone, PartialEq)]
pub struct HudTraits {
    /// Salt-and-pepper noise probability per thumbnail pixel.
    pub noise: f64,
    /// Gaussian frame grain (σ).
    pub grain: f64,
    /// The streamer's overlay uses a light font (Fig 6b) — extraction
    /// mostly fails for them.
    pub light_font: bool,
    /// Per-thumbnail probability that a menu partially hides the value
    /// (Fig 6c → digit drops).
    pub occlusion_rate: f64,
    /// The streamer replaced the latency readout with a clock (Fig 6d).
    pub clock_overlay: bool,
    /// The streamer mislabels their game (§3.3.3: image-processing then
    /// reads the wrong screen area).
    pub mislabels_game: bool,
}

impl HudTraits {
    /// Sample HUD traits.
    pub fn sample(rng: &mut SimRng) -> HudTraits {
        HudTraits {
            noise: 0.005 + rng.f64() * 0.06,
            grain: 1.0 + rng.f64() * 7.0,
            light_font: rng.chance(0.15),
            occlusion_rate: 0.03 + rng.f64() * 0.12,
            clock_overlay: rng.chance(0.005),
            mislabels_game: rng.chance(0.02),
        }
    }
}

/// Behavioural propensities — the ground truth behind Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Behavior {
    /// Base probability of a server change per stream (absent spikes).
    pub base_server_change: f64,
    /// Additional per-spike server-change probability at full spike
    /// magnitude (scaled by `min(magnitude, 40)/40`).
    pub spike_server_coeff: f64,
    /// Base probability of switching games between streams.
    pub base_game_change: f64,
    /// Additional per-spike game-change probability at full magnitude.
    pub spike_game_coeff: f64,
}

impl Behavior {
    /// Game-specific propensities. The game-change coefficients are an
    /// order of magnitude above the server-change ones, matching Table 5's
    /// headline contrast ("significantly easier to change games than
    /// servers").
    pub(crate) fn for_game(game: GameId, rng: &mut SimRng) -> Behavior {
        // Server-change propensities sit well above the paper's real-world
        // rates (3.12 % of tuples ever change): our worlds are three orders
        // of magnitude smaller than 196k tuples, so the rates are scaled up
        // to keep the *detected* change population statistically usable.
        // The game-vs-server effect ordering is preserved.
        // The *base* server-change rate is scaled up from the paper's
        // real-world prevalence (3.12 % of tuples ever change) so the
        // detected-changer population stays statistically usable at our
        // world sizes; the *per-spike* coefficients preserve the paper's
        // ordering: an order of magnitude below the game-change effects.
        let (server_coeff, game_coeff) = match game {
            GameId::LeagueOfLegends => (0.008, 0.035),
            GameId::CodWarzone => (0.012, 0.035),
            GameId::GenshinImpact => (0.012, 0.050),
            GameId::TeamfightTactics => (0.013, 0.030),
            GameId::Dota2 => (0.010, 0.022),
            GameId::AmongUs => (0.020, 0.050),
            GameId::LostArk => (0.016, 0.040),
            GameId::ApexLegends => (0.010, 0.030),
            GameId::Valorant => (0.009, 0.030),
        };
        let personal = 0.7 + 0.6 * rng.f64();
        Behavior {
            base_server_change: 0.012 * personal,
            spike_server_coeff: server_coeff * personal,
            base_game_change: 0.12 * personal,
            spike_game_coeff: game_coeff * personal,
        }
    }
}

/// A fully generated streamer.
#[derive(Debug, Clone)]
pub struct Streamer {
    /// Twitch username.
    pub id: StreamerId,
    /// True home (city granularity).
    pub home: Place,
    /// For mobile streamers: the place they move to, and when.
    pub second_home: Option<(Place, SimTime)>,
    /// Games the streamer plays, in preference order.
    pub games: Vec<GameId>,
    /// Network profile at home.
    pub net: NetProfile,
    /// Network profile at the second home, if any.
    pub net_second: Option<NetProfile>,
    /// Twitch profile description.
    pub description: String,
    /// Ground truth: what kind of description was generated.
    pub description_style: DescriptionStyle,
    /// Twitter profile, if the streamer has one.
    pub twitter: Option<SocialProfile>,
    /// Ground truth: style of the Twitter location field.
    pub twitter_style: Option<TwitterFieldStyle>,
    /// Steam profile, if any.
    pub steam: Option<SocialProfile>,
    /// Whether the streamer sets a country-level stream tag.
    pub uses_country_tag: bool,
    /// Habitual off-primary play (§2.1: players may join another server
    /// "to interact with a particular player crowd"): `None` plays on the
    /// primary; `Some(false)` habitually picks the second-closest server;
    /// `Some(true)` a fixed far server (friends abroad).
    pub off_primary: Option<bool>,
    /// HUD quirks.
    pub hud: HudTraits,
    /// Per-game behavioural propensities (parallel to `games`).
    pub behavior: Vec<Behavior>,
    /// Probability of streaming on any given day.
    pub daily_stream_prob: f64,
    /// Mean session length in hours.
    pub session_mean_hours: f64,
    /// Preferred session start hour (UTC).
    pub preferred_utc_hour: u64,
}

/// Game popularity weights used when assigning games to streamers
/// (League of Legends and Warzone dominate, as in the paper's Nobs).
pub(crate) fn game_weights() -> [(GameId, f64); 9] {
    [
        (GameId::LeagueOfLegends, 0.25),
        (GameId::CodWarzone, 0.22),
        (GameId::GenshinImpact, 0.12),
        (GameId::ApexLegends, 0.10),
        (GameId::Dota2, 0.10),
        (GameId::TeamfightTactics, 0.07),
        (GameId::Valorant, 0.06),
        (GameId::AmongUs, 0.04),
        (GameId::LostArk, 0.04),
    ]
}

impl Streamer {
    /// Generate a streamer living at `home`.
    pub fn generate(gaz: &Gazetteer, home: Place, horizon: SimTime, rng: &mut SimRng) -> Streamer {
        let name = username(rng);
        let id = StreamerId::new(name.clone());

        // Games: 1-3 distinct picks by popularity.
        let weights = game_weights();
        let n_games = 1 + rng.choose_weighted(&[0.55, 0.35, 0.10]);
        let mut games: Vec<GameId> = Vec::new();
        while games.len() < n_games {
            let w: Vec<f64> = weights.iter().map(|&(_, w)| w).collect();
            let pick = weights[rng.choose_weighted(&w)].0;
            if !games.contains(&pick) {
                games.push(pick);
            }
        }
        let behavior = games.iter().map(|&g| Behavior::for_game(g, rng)).collect();

        // ~1.5 % of streamers move during the data-set (§3.1.1).
        let second_home = if rng.chance(0.015) {
            let candidates: Vec<&Place> = gaz
                .places()
                .iter()
                .filter(|p| p.kind == PlaceKind::City && p.location != home.location)
                .collect();
            let pick = (*rng.choose(&candidates)).clone();
            let move_at =
                SimTime::from_micros((horizon.as_micros() as f64 * (0.3 + 0.4 * rng.f64())) as u64);
            Some((pick, move_at))
        } else {
            None
        };

        let net = NetProfile::sample(&home, rng);
        let net_second = second_home
            .as_ref()
            .map(|(p, _)| NetProfile::sample(p, rng));

        // Twitch description.
        let description_style = sample_description_style(rng);
        let description = twitch_description(description_style, &home, rng);

        // Social profiles: ~55 % have a same-username Twitter with a
        // backlink; ~12 % a Steam profile; ~8 % a Twitter under a
        // different name (unfindable by the §3.1 rules).
        let (twitter, twitter_style) = if rng.chance(0.55) {
            let style = sample_twitter_style(rng);
            let field = twitter_field(style, &home, rng);
            (
                Some(SocialProfile {
                    platform: SocialPlatform::Twitter,
                    username: name.clone(),
                    location_field: if field.is_empty() { None } else { Some(field) },
                    bio: format!("streams on twitch.tv/{name}"),
                    links_to_twitch: Some(name.clone()),
                }),
                Some(style),
            )
        } else if rng.chance(0.08) {
            // Different username — correct profile exists but can't be
            // matched (contributes to the 97 %+ unlocated mass).
            let style = sample_twitter_style(rng);
            let field = twitter_field(style, &home, rng);
            (
                Some(SocialProfile {
                    platform: SocialPlatform::Twitter,
                    username: format!("{name}_alt"),
                    location_field: if field.is_empty() { None } else { Some(field) },
                    bio: String::new(),
                    links_to_twitch: Some(name.clone()),
                }),
                Some(style),
            )
        } else {
            (None, None)
        };
        let steam = if rng.chance(0.12) {
            Some(SocialProfile {
                platform: SocialPlatform::Steam,
                username: name.clone(),
                location_field: Some(home.location.country.clone()),
                bio: String::new(),
                links_to_twitch: Some(name.clone()),
            })
        } else {
            None
        };

        Streamer {
            id,
            home,
            second_home,
            games,
            net,
            net_second,
            description,
            description_style,
            twitter,
            twitter_style,
            steam,
            uses_country_tag: rng.chance(0.075),
            off_primary: if rng.chance(0.08) {
                Some(false)
            } else if rng.chance(0.02) {
                Some(true)
            } else {
                None
            },
            hud: HudTraits::sample(rng),
            behavior,
            daily_stream_prob: 0.2 + 0.6 * rng.f64(),
            session_mean_hours: 1.5 + rng.exponential(1.5),
            preferred_utc_hour: rng.below(24),
        }
    }

    /// The streamer's true location at time `t` (handles moves).
    pub(crate) fn location_at(&self, t: SimTime) -> &Place {
        match &self.second_home {
            Some((place, move_at)) if t >= *move_at => place,
            _ => &self.home,
        }
    }

    /// The network profile in effect at time `t`.
    pub(crate) fn net_at(&self, t: SimTime) -> &NetProfile {
        match (&self.second_home, &self.net_second) {
            (Some((_, move_at)), Some(net2)) if t >= *move_at => net2,
            _ => &self.net,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home(gaz: &Gazetteer) -> Place {
        gaz.lookup_kind("Chicago", PlaceKind::City)[0].clone()
    }

    #[test]
    fn generation_is_sane() {
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(42);
        let horizon = SimTime::from_hours(24 * 30);
        for _ in 0..50 {
            let s = Streamer::generate(&gaz, home(&gaz), horizon, &mut rng);
            assert!(!s.games.is_empty() && s.games.len() <= 3);
            let mut dedup = s.games.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), s.games.len(), "games distinct");
            assert_eq!(s.behavior.len(), s.games.len());
            assert!(s.net.path_stretch >= 1.0);
            assert!(s.daily_stream_prob > 0.0 && s.daily_stream_prob < 1.0);
            assert!(!s.description.is_empty());
        }
    }

    #[test]
    fn moves_change_location_at_the_right_time() {
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(7);
        let horizon = SimTime::from_hours(24 * 30);
        // Force generation until we get a mover.
        let mover = (0..2_000)
            .map(|_| Streamer::generate(&gaz, home(&gaz), horizon, &mut rng))
            .find(|s| s.second_home.is_some())
            .expect("no mover generated in 2000 draws");
        let (second, move_at) = mover.second_home.clone().unwrap();
        assert_eq!(
            mover.location_at(SimTime::EPOCH).location,
            mover.home.location
        );
        assert_eq!(mover.location_at(move_at).location, second.location);
        assert!(move_at > SimTime::EPOCH && move_at < horizon);
        // Net profile switches too.
        let _ = mover.net_at(move_at);
    }

    #[test]
    fn social_profile_rates() {
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(9);
        let horizon = SimTime::from_hours(24 * 30);
        let n = 1_000;
        let streamers: Vec<Streamer> = (0..n)
            .map(|_| Streamer::generate(&gaz, home(&gaz), horizon, &mut rng))
            .collect();
        let with_matching_twitter = streamers
            .iter()
            .filter(|s| {
                s.twitter
                    .as_ref()
                    .is_some_and(|p| p.username == s.id.as_str())
            })
            .count() as f64
            / n as f64;
        assert!(
            (0.45..0.65).contains(&with_matching_twitter),
            "{with_matching_twitter}"
        );
        let movers = streamers.iter().filter(|s| s.second_home.is_some()).count();
        assert!(movers < 60, "movers {movers}");
    }

    #[test]
    fn game_weights_sum_to_one() {
        let total: f64 = game_weights().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
