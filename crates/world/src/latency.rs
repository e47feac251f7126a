//! The ground-truth latency process.
//!
//! A streamer's RTT to a game server decomposes into:
//!
//! * **propagation** — speed-of-light-in-fibre over the *corrected
//!   distance* (§3.3.3), times a path-stretch factor;
//! * **regional quality** — a per-region multiplier/spread modelling eyeball
//!   ISP quality, the ingredient behind the paper's headline observation
//!   that same-doughnut regions differ by tens of ms (Figs 10–11);
//! * **access delay** — the streamer's last-mile (fibre vs DSL vs cable);
//! * **jitter** — per-sample Gaussian noise;
//! * **spikes** — transient increases from congestion or overload, Poisson
//!   in time with log-normal magnitude;
//! * **shared anomalies** — region- or game-wide events that lift many
//!   streamers at once (App. F's subject matter, incl. the Nov-16-style
//!   release-day surge of §4.2.3).

use crate::games::GameServer;
use tero_geoparse::{Gazetteer, Place};
use tero_types::{
    corrected_distance_km, fiber_delay_ms, GameId, Location, SimDuration, SimRng, SimTime,
};

/// Per-region network quality: `(stretch multiplier, per-streamer spread)`.
///
/// The overrides pin the paper's named examples so the regenerated figures
/// show the same qualitative winners and losers; all other regions get a
/// stable hash-derived multiplier in a realistic range.
#[allow(clippy::type_complexity)]
pub(crate) fn region_quality(country: &str, region: Option<&str>) -> (f64, f64) {
    let key = (country, region.unwrap_or(""));
    let overrides: &[((&str, &str), (f64, f64))] = &[
        // US doughnut contrast (Fig 10): DC/NC poor, Missouri/Texas good.
        (("United States", "District of Columbia"), (2.6, 0.25)),
        (("United States", "North Carolina"), (2.2, 0.25)),
        (("United States", "Georgia"), (1.9, 0.2)),
        (("United States", "Kentucky"), (1.8, 0.2)),
        (("United States", "Pennsylvania"), (1.7, 0.2)),
        (("United States", "Tennessee"), (1.6, 0.15)),
        (("United States", "Missouri"), (1.15, 0.1)),
        (("United States", "Minnesota"), (1.25, 0.1)),
        (("United States", "Texas"), (1.2, 0.1)),
        (("United States", "Oklahoma"), (1.9, 0.2)),
        (("United States", "Massachusetts"), (1.5, 0.15)),
        (("United States", "New Jersey"), (1.6, 0.15)),
        (("Canada", "Ontario"), (1.2, 0.1)),
        // EU contrast (Fig 11): Poland poor, Switzerland excellent, Italy
        // high spread, France tight.
        (("Poland", ""), (2.3, 0.2)),
        (("Switzerland", ""), (1.1, 0.05)),
        (("Italy", ""), (1.7, 0.45)),
        (("France", ""), (1.35, 0.08)),
        (("Germany", ""), (1.4, 0.12)),
        (("Austria", ""), (1.5, 0.15)),
        (("Denmark", ""), (1.3, 0.1)),
        (("United Kingdom", ""), (1.5, 0.15)),
        (("Spain", ""), (1.5, 0.15)),
        (("Belgium", ""), (1.6, 0.12)),
        (("Netherlands", ""), (1.2, 0.08)),
        // §5.2's long-haul observations: Turkey as bad as double-distance
        // Brazil; Bolivia as bad as 3.5×-distance Hawaii; Greece vs Saudi
        // Arabia differ at similar distance.
        (("Turkey", ""), (2.9, 0.3)),
        (("Brazil", ""), (1.5, 0.2)),
        (("Bolivia", ""), (3.2, 0.4)),
        (("United States", "Hawaii"), (1.25, 0.1)),
        (("Greece", ""), (2.2, 0.25)),
        (("Saudi Arabia", ""), (1.3, 0.15)),
        (("Chile", ""), (1.3, 0.1)),
        (("South Korea", ""), (1.1, 0.05)),
        (("Netherlands", "North Holland"), (1.15, 0.06)),
        (("United States", "Illinois"), (1.2, 0.08)),
        (("Jamaica", ""), (2.4, 0.35)),
        (("El Salvador", ""), (2.0, 0.3)),
    ];
    // Exact (country, region) match wins; then a country-level override
    // applies to all of that country's regions.
    for ((c, r), q) in overrides {
        if *c == key.0 && *r == key.1 {
            return *q;
        }
    }
    for ((c, r), q) in overrides {
        if *c == key.0 && r.is_empty() {
            return *q;
        }
    }
    // Stable hash-derived default in [1.3, 2.1] with spread [0.1, 0.3].
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.0.bytes().chain(key.1.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    (1.3 + 0.8 * u, 0.1 + 0.2 * u)
}

/// A streamer's network profile: everything latency-relevant about their
/// home connection.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfile {
    /// Multiplier on fibre propagation (path stretch × ISP quality).
    pub path_stretch: f64,
    /// Last-mile access delay, ms.
    pub access_ms: f64,
    /// Per-sample jitter standard deviation, ms.
    pub jitter_sd: f64,
    /// Spike arrivals per hour of play.
    pub spike_rate_per_hour: f64,
    /// Log-normal magnitude parameters for spikes (of the underlying
    /// normal, in ln-ms).
    pub spike_mag_mu: f64,
    /// Log-normal sigma.
    pub spike_mag_sigma: f64,
}

impl NetProfile {
    /// Sample a profile for a streamer living at `home`. Streamers are
    /// latency-optimised users (§2.2's streamer bias): access delays skew
    /// low.
    ///
    /// Path stretch is *quantised into ISP tiers*: a region has a handful
    /// of major eyeball ISPs with characteristic routing, so per-streamer
    /// latencies clump into the discrete clusters of Fig 2 rather than a
    /// continuum (a region's `spread` widens the gap between its tiers —
    /// Italy's tiers are far apart, France's close together, Fig 11).
    pub fn sample(home: &Place, rng: &mut SimRng) -> NetProfile {
        let (region_mult, spread) =
            region_quality(&home.location.country, home.location.region.as_deref());
        let tier_step = 0.18 + spread;
        let tier = rng.choose_weighted(&[0.45, 0.30, 0.15, 0.10]) as f64;
        let isp_mult = 1.0 + tier * tier_step;
        let personal = 1.0 + 0.03 * rng.normal().abs();
        NetProfile {
            path_stretch: 1.4 * region_mult * isp_mult * personal,
            access_ms: 1.0 + rng.exponential(3.0),
            jitter_sd: 0.4 + rng.f64() * 1.6,
            spike_rate_per_hour: 0.2 + rng.exponential(0.8),
            spike_mag_mu: (18.0f64).ln(),
            spike_mag_sigma: 0.7,
        }
    }

    /// Base (uncongested) RTT in ms from `home` to `server`.
    pub(crate) fn base_rtt_ms(&self, _gaz: &Gazetteer, home: &Place, server: &GameServer) -> f64 {
        let d = corrected_distance_km(home.center, server.center, home.mean_radius_km);
        2.0 * fiber_delay_ms(d) * self.path_stretch + self.access_ms
    }
}

/// One transient latency spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// When the spike starts.
    pub start: SimTime,
    /// When it ends.
    pub end: SimTime,
    /// Added latency while active, ms.
    pub magnitude_ms: f64,
}

impl Spike {
    /// Whether the spike is active at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Draw a spike schedule for a play interval `[start, end)` under the
/// given profile.
pub(crate) fn draw_spikes(
    profile: &NetProfile,
    start: SimTime,
    end: SimTime,
    rng: &mut SimRng,
) -> Vec<Spike> {
    let mut out = Vec::new();
    let hours = end.since(start).as_secs_f64() / 3_600.0;
    if hours <= 0.0 {
        return out;
    }
    let n = rng.poisson(profile.spike_rate_per_hour * hours);
    for _ in 0..n {
        let at = start + end.since(start).mul_f64(rng.f64());
        let duration = SimDuration::from_secs_f64(60.0 + rng.exponential(420.0));
        let magnitude = rng.lognormal(profile.spike_mag_mu, profile.spike_mag_sigma);
        out.push(Spike {
            start: at,
            end: at + duration,
            magnitude_ms: magnitude.min(400.0),
        });
    }
    out.sort_by_key(|s| s.start);
    out
}

/// A shared-anomaly event affecting every streamer of one `{region, game}`
/// (or of one game world-wide, for release-day events).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedEvent {
    /// Affected game.
    pub game: GameId,
    /// Affected location (region-level), or `None` for world-wide.
    pub region: Option<Location>,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Added latency for affected streamers, ms.
    pub magnitude_ms: f64,
}

impl SharedEvent {
    /// Whether the event hits a streamer of `game` at region-level
    /// location `loc` at time `t`.
    pub fn hits(&self, game: GameId, loc: &Location, t: SimTime) -> bool {
        if game != self.game || t < self.start || t >= self.end {
            return false;
        }
        match &self.region {
            None => true,
            Some(r) => r.subsumes(loc) || loc.subsumes(r) || *r == loc.to_region_level(),
        }
    }
}

/// Evaluate the full ground-truth RTT at time `t`.
pub(crate) fn true_rtt_ms(
    base_ms: f64,
    jitter_sd: f64,
    spikes: &[Spike],
    shared: &[&SharedEvent],
    t: SimTime,
    rng: &mut SimRng,
) -> f64 {
    let mut rtt = base_ms + rng.normal_with(0.0, jitter_sd);
    for s in spikes {
        if s.active_at(t) {
            rtt += s.magnitude_ms;
        }
    }
    for e in shared {
        if t >= e.start && t < e.end {
            rtt += e.magnitude_ms;
        }
    }
    rtt.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_geoparse::PlaceKind;

    fn place(gaz: &Gazetteer, name: &str) -> Place {
        gaz.lookup_kind(name, PlaceKind::City)[0].clone()
    }

    #[test]
    fn region_quality_overrides_hold() {
        let (dc, _) = region_quality("United States", Some("District of Columbia"));
        let (mo, _) = region_quality("United States", Some("Missouri"));
        assert!(dc > mo * 1.8, "DC {dc} vs MO {mo}");
        let (pl, _) = region_quality("Poland", None);
        let (ch, _) = region_quality("Switzerland", None);
        assert!(pl > ch * 1.8, "PL {pl} vs CH {ch}");
        let (_, it_spread) = region_quality("Italy", None);
        let (_, fr_spread) = region_quality("France", None);
        assert!(
            it_spread > 3.0 * fr_spread,
            "IT {it_spread} vs FR {fr_spread}"
        );
    }

    #[test]
    fn region_quality_default_is_stable_and_bounded() {
        let a = region_quality("Narnia", Some("The North"));
        let b = region_quality("Narnia", Some("The North"));
        assert_eq!(a, b);
        assert!(a.0 >= 1.3 && a.0 <= 2.1, "{:?}", a);
    }

    #[test]
    fn isp_tiers_quantise_path_stretch() {
        // Per-region stretch must clump into a handful of tiers (the
        // Fig 2 clustering lever), not a continuum.
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(21);
        let home = place(&gaz, "Chicago");
        let stretches: Vec<f64> = (0..300)
            .map(|_| NetProfile::sample(&home, &mut rng).path_stretch)
            .collect();
        // Cluster with a 4 % relative tolerance; expect ≤ 5 groups.
        let mut sorted = stretches.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut groups = 1;
        for w in sorted.windows(2) {
            if w[1] / w[0] > 1.06 {
                groups += 1;
            }
        }
        assert!(
            (2..=5).contains(&groups),
            "expected tiered stretch, found {groups} groups"
        );
    }

    #[test]
    fn base_rtt_scales_with_distance() {
        let gaz = Gazetteer::new();
        let mut rng = SimRng::new(7);
        let ams = place(&gaz, "Amsterdam");
        let profile = NetProfile::sample(&ams, &mut rng);
        let near =
            crate::games::primary_server(&gaz, GameId::LeagueOfLegends, &ams.location).unwrap();
        let far = crate::games::server_locations(&gaz, GameId::LeagueOfLegends)
            .into_iter()
            .find(|s| s.location.city.as_deref() == Some("Tokyo"))
            .unwrap();
        let rtt_near = profile.base_rtt_ms(&gaz, &ams, &near);
        let rtt_far = profile.base_rtt_ms(&gaz, &ams, &far);
        assert!(rtt_near < 30.0, "Amsterdam→Amsterdam {rtt_near}");
        assert!(rtt_far > 100.0, "Amsterdam→Tokyo {rtt_far}");
    }

    #[test]
    fn spike_schedule_rate() {
        let profile = NetProfile {
            path_stretch: 1.5,
            access_ms: 3.0,
            jitter_sd: 1.0,
            spike_rate_per_hour: 2.0,
            spike_mag_mu: (18.0f64).ln(),
            spike_mag_sigma: 0.7,
        };
        let mut rng = SimRng::new(3);
        let mut total = 0usize;
        let reps = 200;
        for _ in 0..reps {
            let spikes = draw_spikes(&profile, SimTime::EPOCH, SimTime::from_hours(3), &mut rng);
            total += spikes.len();
            for s in &spikes {
                assert!(s.end > s.start);
                assert!(s.magnitude_ms > 0.0 && s.magnitude_ms <= 400.0);
            }
        }
        let mean = total as f64 / reps as f64;
        assert!((mean - 6.0).abs() < 1.0, "mean spikes per 3 h: {mean}");
        // Degenerate interval.
        assert!(draw_spikes(&profile, SimTime::EPOCH, SimTime::EPOCH, &mut rng).is_empty());
    }

    #[test]
    fn shared_event_targeting() {
        let e = SharedEvent {
            game: GameId::LeagueOfLegends,
            region: Some(Location::region("United States", "California")),
            start: SimTime::from_hours(1),
            end: SimTime::from_hours(2),
            magnitude_ms: 40.0,
        };
        let ca = Location::city("United States", "California", "Los Angeles");
        let tx = Location::city("United States", "Texas", "Dallas");
        let t = SimTime::from_mins(90);
        assert!(e.hits(GameId::LeagueOfLegends, &ca, t));
        assert!(!e.hits(GameId::LeagueOfLegends, &tx, t));
        assert!(!e.hits(GameId::Dota2, &ca, t));
        assert!(!e.hits(GameId::LeagueOfLegends, &ca, SimTime::from_hours(3)));
        // World-wide event (release day).
        let global = SharedEvent { region: None, ..e };
        assert!(global.hits(GameId::LeagueOfLegends, &tx, t));
    }

    #[test]
    fn true_rtt_composition() {
        let mut rng = SimRng::new(11);
        let spike = Spike {
            start: SimTime::from_mins(10),
            end: SimTime::from_mins(20),
            magnitude_ms: 50.0,
        };
        let calm = true_rtt_ms(30.0, 0.0, &[spike], &[], SimTime::from_mins(5), &mut rng);
        assert!((calm - 30.0).abs() < 1e-9);
        let spiky = true_rtt_ms(30.0, 0.0, &[spike], &[], SimTime::from_mins(15), &mut rng);
        assert!((spiky - 80.0).abs() < 1e-9);
        // Never below 1 ms.
        let floor = true_rtt_ms(0.5, 0.0, &[], &[], SimTime::EPOCH, &mut rng);
        assert!(floor >= 1.0);
    }
}
