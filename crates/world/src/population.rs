//! The streamer population model (Fig 7).
//!
//! The paper finds that Tero's users follow the geographic distribution of
//! Twitch users: concentrated in the Americas and Europe, under-represented
//! in Asia (Chinese/Indian platforms compete with Twitch) and Africa. We
//! model this by weighting each gazetteer place's population with a
//! per-continent Twitch-popularity multiplier, then sampling streamer homes
//! from the resulting distribution.

use tero_geoparse::{Gazetteer, Place, PlaceKind};
use tero_types::{Continent, SimRng};

/// Twitch-popularity multiplier per continent (unitless; shapes Fig 7's
/// "Tero" bars relative to raw population).
pub(crate) fn twitch_weight(continent: Continent) -> f64 {
    match continent {
        Continent::NorthAmerica => 3.0,
        Continent::SouthAmerica => 1.8,
        Continent::Europe => 2.2,
        Continent::Asia => 0.12,
        Continent::Oceania => 1.5,
        Continent::Africa => 0.05,
    }
}

/// Share of the world's Internet users per continent (approximate, used
/// for Fig 7's middle series).
pub fn internet_user_share(continent: Continent) -> f64 {
    match continent {
        Continent::Asia => 0.53,
        Continent::Europe => 0.15,
        Continent::Africa => 0.11,
        Continent::NorthAmerica => 0.10,
        Continent::SouthAmerica => 0.10,
        Continent::Oceania => 0.01,
    }
}

/// Share of the world's population per continent (Fig 7's third series).
pub fn population_share(continent: Continent) -> f64 {
    match continent {
        Continent::Asia => 0.59,
        Continent::Africa => 0.17,
        Continent::Europe => 0.10,
        Continent::NorthAmerica => 0.08,
        Continent::SouthAmerica => 0.055,
        Continent::Oceania => 0.005,
    }
}

/// A sampler of streamer home locations (city-granularity places).
#[derive(Debug)]
pub struct PopulationModel {
    cities: Vec<Place>,
    weights: Vec<f64>,
}

impl PopulationModel {
    /// Build from a gazetteer: every city, weighted by population ×
    /// continent multiplier.
    pub fn new(gaz: &Gazetteer) -> Self {
        let mut cities = Vec::new();
        let mut weights = Vec::new();
        for p in gaz.places() {
            if p.kind == PlaceKind::City {
                cities.push(p.clone());
                weights.push((p.population_m.max(0.05)) * twitch_weight(p.continent));
            }
        }
        PopulationModel { cities, weights }
    }

    /// Sample one home city.
    pub fn sample(&self, rng: &mut SimRng) -> &Place {
        &self.cities[rng.choose_weighted(&self.weights)]
    }

    /// Number of candidate cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// All candidate cities (for targeted world construction: experiments
    /// like Figs 9-12 place fixed numbers of streamers in fixed places).
    pub fn cities(&self) -> &[Place] {
        &self.cities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn shares_sum_to_one() {
        let i: f64 = Continent::ALL.iter().map(|&c| internet_user_share(c)).sum();
        let p: f64 = Continent::ALL.iter().map(|&c| population_share(c)).sum();
        assert!((i - 1.0).abs() < 0.01, "internet {i}");
        assert!((p - 1.0).abs() < 0.01, "population {p}");
    }

    #[test]
    fn sampling_matches_fig7_shape() {
        let gaz = Gazetteer::new();
        let model = PopulationModel::new(&gaz);
        assert!(model.len() > 60);
        let mut rng = SimRng::new(42);
        let mut counts: HashMap<Continent, usize> = HashMap::new();
        let n = 20_000;
        for _ in 0..n {
            let place = model.sample(&mut rng);
            *counts.entry(place.continent).or_default() += 1;
        }
        let share = |c: Continent| counts.get(&c).copied().unwrap_or(0) as f64 / n as f64;
        // Fig 7's qualitative shape: the Americas + Europe dominate Tero's
        // users; Asia is far below its Internet-user share; Africa tiny.
        assert!(
            share(Continent::NorthAmerica) > 0.25,
            "NA {}",
            share(Continent::NorthAmerica)
        );
        assert!(
            share(Continent::Europe) > 0.15,
            "EU {}",
            share(Continent::Europe)
        );
        assert!(
            share(Continent::Asia) < 0.20,
            "AS {}",
            share(Continent::Asia)
        );
        assert!(
            share(Continent::Africa) < 0.05,
            "AF {}",
            share(Continent::Africa)
        );
        assert!(
            share(Continent::Asia) < internet_user_share(Continent::Asia) / 2.0,
            "Asia under-represented vs Internet users"
        );
    }
}
