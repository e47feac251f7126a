//! The five geoparsing / geocoding tools (Table 3, App. D).
//!
//! Each tool shares the same base gazetteer but matches differently, which
//! gives each one a distinct, realistic precision/recall profile:
//!
//! * **CLIFF** — geocoder for unstructured text; proper-noun heuristic
//!   (capitalised n-grams) *with context*: a candidate needs a locative
//!   preposition ("in Detroit", "from Miami") or comma structure
//!   ("Miami, Florida"). Conservative — the paper measured it extracting
//!   from only 0.44 % of descriptions.
//! * **Xponents** — geocoder; case-insensitive, no context requirement,
//!   *prefix* matching for long tokens (extracts the most, errs the most —
//!   "Denmarkian" matches "Denmark", the paper's own example).
//! * **Mordecai** — geocoder; context-requiring like CLIFF but returns up
//!   to three candidates without ranking (the paper notes this makes it
//!   "hard to use on its own").
//! * **Nominatim** — geoparser for location fields; understands
//!   comma-separated "city, region/country" structure and prefers specific
//!   (city) readings.
//! * **GeoNames** — geoparser; flat n-gram lookup with population
//!   tie-breaking (more homonym errors than Nominatim, as in Table 3).
//!
//! On top of the shared gazetteer, each *geocoder* has hash-derived
//! coverage gaps (real tools bundle different gazetteers), which is one of
//! the reasons their errors only partially overlap.

use crate::gazetteer::{Gazetteer, Place, PlaceKind};
use tero_types::Location;

/// Which tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolKind {
    /// CLIFF \[13\] — geocoding, capitalisation + context driven.
    Cliff,
    /// Xponents \[57\] — geocoding, aggressive matching.
    Xponents,
    /// Mordecai \[18\] — geocoding, multi-candidate output.
    Mordecai,
    /// Nominatim — geoparsing with comma structure.
    Nominatim,
    /// GeoNames — geoparsing, flat lookup.
    GeoNames,
}

impl ToolKind {
    /// The three geocoders used on Twitch descriptions (App. D.2).
    pub const GEOCODERS: [ToolKind; 3] = [ToolKind::Cliff, ToolKind::Xponents, ToolKind::Mordecai];
    /// The two geoparsers used on Twitter location fields (App. D.3).
    pub const GEOPARSERS: [ToolKind; 2] = [ToolKind::Nominatim, ToolKind::GeoNames];

    /// Display name as in Table 3.
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::Cliff => "CLIFF",
            ToolKind::Xponents => "Xponents",
            ToolKind::Mordecai => "Mordecai",
            ToolKind::Nominatim => "Nominatim",
            ToolKind::GeoNames => "Geonames",
        }
    }

    /// Fraction of gazetteer names this tool's bundled gazetteer is
    /// missing (0 for the geoparsers, whose coverage is near-complete).
    fn coverage_gap(self) -> u64 {
        match self {
            ToolKind::Cliff => 12,
            ToolKind::Xponents => 8,
            ToolKind::Mordecai => 15,
            ToolKind::Nominatim | ToolKind::GeoNames => 0,
        }
    }
}

/// A tool bound to a gazetteer.
#[derive(Debug, Clone, Copy)]
pub struct GeoTool<'g> {
    kind: ToolKind,
    gaz: &'g Gazetteer,
}

/// Locative prepositions that give a capitalised token geographic context.
const PREPOSITIONS: &[&str] = &["in", "from", "near", "at", "to", "around"];

impl<'g> GeoTool<'g> {
    /// Bind a tool to a gazetteer.
    pub fn new(kind: ToolKind, gaz: &'g Gazetteer) -> Self {
        GeoTool { kind, gaz }
    }

    /// The tool's kind.
    pub fn kind(&self) -> ToolKind {
        self.kind
    }

    /// Whether this tool's bundled gazetteer knows a place. Every tool
    /// knows the world's prominent places; smaller ones fall into stable
    /// hash-derived per-tool coverage gaps (see module docs).
    fn knows(&self, p: &Place) -> bool {
        let gap = self.kind.coverage_gap();
        if gap == 0 || p.population_m >= 0.4 {
            return true;
        }
        let mut h: u64 =
            0xcbf2_9ce4_8422_2325 ^ (self.kind as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in place_name(p).to_lowercase().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Finalise (SplitMix64 mixer) to avoid modulo bias from FNV's
        // weakly mixed low bits.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        h % 100 >= gap
    }

    fn lookup_known(&self, name: &str) -> Vec<&'g Place> {
        if short_alias_misuse(name) {
            return vec![];
        }
        self.gaz
            .lookup(name)
            .into_iter()
            .filter(|p| self.knows(p))
            .collect()
    }

    /// Extract location candidates from text. Most tools return zero or one
    /// candidate; Mordecai may return several (its callers must handle
    /// that).
    pub fn extract(&self, text: &str) -> Vec<Location> {
        match self.kind {
            ToolKind::Cliff => self.extract_contextual(text, false),
            ToolKind::Xponents => self.extract_xponents(text),
            ToolKind::Mordecai => self.extract_contextual(text, true),
            ToolKind::Nominatim => self.extract_nominatim(text),
            ToolKind::GeoNames => self.extract_geonames(text),
        }
    }

    /// CLIFF / Mordecai: capitalised n-grams with locative context. With
    /// `multi`, return up to three unranked candidates (Mordecai).
    fn extract_contextual(&self, text: &str, multi: bool) -> Vec<Location> {
        let grams = ngrams(text, 3);
        let mut matches: Vec<&Place> = Vec::new();
        for g in &grams {
            if !g.capitalised {
                continue;
            }
            if !has_context(text, g) && !self.comma_paired(text, g) {
                continue;
            }
            matches.extend(self.lookup_known(&g.text));
        }
        if multi {
            matches.sort_by(|a, b| b.population_m.partial_cmp(&a.population_m).unwrap());
            matches.dedup_by(|a, b| a.location == b.location);
            matches
                .into_iter()
                .take(3)
                .map(|p| p.location.clone())
                .collect()
        } else {
            resolve_to_single(matches)
        }
    }

    /// Whether the gram sits in a "X, Y" pattern with another known place.
    fn comma_paired(&self, text: &str, g: &NGram) -> bool {
        let after = format!("{},", g.text);
        if text.contains(&after) {
            // Something follows the comma; is it a place?
            if let Some(pos) = text.find(&after) {
                let rest = &text[pos + after.len()..];
                let next: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == ' ' || *c == '-')
                    .collect();
                for cand in ngrams(&next, 3) {
                    if !self.lookup_known(&cand.text).is_empty() {
                        return true;
                    }
                }
            }
        }
        let before = format!(", {}", g.text);
        if let Some(pos) = text.find(&before) {
            let head = &text[..pos];
            for cand in ngrams(head, 3) {
                if !self.lookup_known(&cand.text).is_empty() {
                    return true;
                }
            }
        }
        false
    }

    fn extract_xponents(&self, text: &str) -> Vec<Location> {
        // Case-insensitive; no context requirement; long tokens also match
        // by prefix ("Denmarkian" → "Denmark"), which boosts extraction
        // and error alike.
        let grams = ngrams(text, 3);
        let mut matches: Vec<&Place> = Vec::new();
        for g in &grams {
            let direct = self.lookup_known(&g.text);
            if !direct.is_empty() {
                matches.extend(direct);
                continue;
            }
            if g.words == 1 && g.text.len() >= 7 {
                // Prefix match against place names at least 5 chars long.
                let lower = g.text.to_lowercase();
                for p in self.gaz.places() {
                    let name = place_name(p).to_lowercase();
                    if name.len() >= 5 && lower.starts_with(&name) && self.knows(p) {
                        matches.push(p);
                    }
                }
            }
        }
        resolve_to_single(matches)
    }

    fn extract_nominatim(&self, text: &str) -> Vec<Location> {
        // Treat the field as comma-separated location parts; try to combine
        // a specific part with a more general one. Prefers the specific
        // (city) reading of homonyms.
        let parts: Vec<&str> = text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let mut part_matches: Vec<Vec<&Place>> = Vec::new();
        for part in &parts {
            // Within a part, try the whole part first, then n-grams.
            let mut hits = self.lookup_known(part);
            if hits.is_empty() {
                for g in ngrams(part, 3) {
                    hits.extend(self.lookup_known(&g.text));
                }
            }
            part_matches.push(hits);
        }
        // Prefer a (specific, general) pair across parts that is
        // consistent — e.g. "Miami, Florida".
        let mut best: Option<&Place> = None;
        for (i, hits) in part_matches.iter().enumerate() {
            for &h in hits {
                for other_hits in part_matches.iter().skip(i + 1) {
                    for &o in other_hits {
                        if o.location.subsumes(&h.location) && o.location != h.location {
                            return vec![h.location.clone()];
                        }
                        if h.location.subsumes(&o.location) && o.location != h.location {
                            return vec![o.location.clone()];
                        }
                    }
                }
                // Track the most specific single hit as a fallback, with
                // population as the tie-break.
                let better = match best {
                    None => true,
                    Some(b) => {
                        specificity(h) > specificity(b)
                            || (specificity(h) == specificity(b) && h.population_m > b.population_m)
                    }
                };
                if better {
                    best = Some(h);
                }
            }
        }
        best.map(|p| vec![p.location.clone()]).unwrap_or_default()
    }

    fn extract_geonames(&self, text: &str) -> Vec<Location> {
        // Flat n-gram lookup over the whole field; picks the most populous
        // match (homonym errors land here, as in Table 3).
        let grams = ngrams(text, 3);
        let mut matches: Vec<&Place> = Vec::new();
        for g in &grams {
            matches.extend(self.lookup_known(&g.text));
        }
        matches
            .into_iter()
            .max_by(|a, b| a.population_m.partial_cmp(&b.population_m).unwrap())
            .map(|p| vec![p.location.clone()])
            .unwrap_or_default()
    }
}

/// Short gazetteer aliases ("US", "LA", "IN") are only meaningful when
/// written in uppercase; otherwise common English words would geocode.
fn short_alias_misuse(name: &str) -> bool {
    name.len() <= 3 && name.to_uppercase() != name
}

/// Whether the n-gram is preceded by a locative preposition.
fn has_context(_text: &str, g: &NGram) -> bool {
    g.prev_word
        .as_deref()
        .is_some_and(|w| PREPOSITIONS.contains(&w))
}

fn place_name(p: &Place) -> &str {
    match p.kind {
        PlaceKind::City => p.location.city.as_deref().unwrap_or(&p.location.country),
        PlaceKind::Region => p.location.region.as_deref().unwrap_or(&p.location.country),
        PlaceKind::Country => &p.location.country,
    }
}

fn specificity(p: &Place) -> u8 {
    match p.kind {
        PlaceKind::City => 2,
        PlaceKind::Region => 1,
        PlaceKind::Country => 0,
    }
}

/// Combine raw matches into at most one location: group city/region/country
/// hits, prefer consistent (city ⊂ region ⊂ country) combinations, resolve
/// homonym ties by population.
fn resolve_to_single(mut matches: Vec<&Place>) -> Vec<Location> {
    if matches.is_empty() {
        return vec![];
    }
    matches.sort_by(|a, b| {
        specificity(b)
            .cmp(&specificity(a))
            .then(b.population_m.partial_cmp(&a.population_m).unwrap())
    });
    // Most specific, most populous candidate.
    let head = matches[0];
    // If a coarser match confirms the head (same country), keep the head;
    // if coarser matches mostly *conflict*, prefer the most prominent
    // conflicting candidate instead (a realistic tool mistake).
    let consistent = matches
        .iter()
        .filter(|p| p.location.country == head.location.country)
        .count();
    let conflicting = matches.len() - consistent;
    if conflicting > consistent {
        if let Some(alt) = matches
            .iter()
            .filter(|p| p.location.country != head.location.country)
            .max_by(|a, b| a.population_m.partial_cmp(&b.population_m).unwrap())
        {
            return vec![alt.location.clone()];
        }
    }
    vec![head.location.clone()]
}

/// A candidate n-gram of 1..=`max_n` consecutive words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NGram {
    /// The n-gram text, words joined by single spaces.
    pub text: String,
    /// Number of words.
    pub words: usize,
    /// Whether every word starts with an uppercase letter.
    pub capitalised: bool,
    /// The (lowercased) word immediately before the n-gram, if any.
    pub prev_word: Option<String>,
}

/// Tokenise text into words (letters, digits, hyphens, periods and
/// apostrophes within a word) and produce all n-grams up to `max_n` words.
pub(crate) fn ngrams(text: &str, max_n: usize) -> Vec<NGram> {
    let words: Vec<&str> = text
        .split(|c: char| c.is_whitespace() || ",;!?()\"".contains(c))
        .map(|w| w.trim_matches(|c: char| "..'-:".contains(c)))
        .filter(|w| !w.is_empty())
        .collect();
    let mut out = Vec::new();
    for n in 1..=max_n.min(words.len().max(1)) {
        for (start, window) in words.windows(n).enumerate() {
            let text = window.join(" ");
            let capitalised = window
                .iter()
                .all(|w| w.chars().next().is_some_and(|c| c.is_uppercase()));
            let prev_word = (start > 0).then(|| words[start - 1].to_lowercase());
            out.push(NGram {
                text,
                words: n,
                capitalised,
                prev_word,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> Gazetteer {
        Gazetteer::new()
    }

    #[test]
    fn ngram_generation() {
        let g = ngrams("Join us in Detroit!", 3);
        let detroit = g.iter().find(|x| x.text == "Detroit").unwrap();
        assert!(detroit.capitalised);
        assert_eq!(detroit.prev_word.as_deref(), Some("in"));
        assert!(g.iter().any(|x| x.text == "us in Detroit"));
        assert!(ngrams("", 3).is_empty());
    }

    #[test]
    fn cliff_extracts_city_with_context() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Cliff, &g);
        let out = tool.extract("Join us in Detroit!");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].city.as_deref(), Some("Detroit"));
        assert_eq!(out[0].country, "United States");
    }

    #[test]
    fn cliff_skips_contextless_place_words() {
        // "Phoenix main" — a team role, not a location. CLIFF's context
        // requirement rejects it; aggressive Xponents does not.
        let g = gaz();
        let cliff = GeoTool::new(ToolKind::Cliff, &g);
        assert!(cliff.extract("Phoenix main, road to radiant").is_empty());
        let xp = GeoTool::new(ToolKind::Xponents, &g);
        assert_eq!(xp.extract("Phoenix main, road to radiant").len(), 1);
    }

    #[test]
    fn cliff_ignores_lowercase_mentions() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Cliff, &g);
        assert!(tool.extract("greetings from detroit").is_empty());
        // Xponents, case-insensitive, catches it.
        let x = GeoTool::new(ToolKind::Xponents, &g);
        assert_eq!(x.extract("greetings from detroit").len(), 1);
    }

    #[test]
    fn xponents_prefix_match_reproduces_denmarkian() {
        // The paper's own confusing example: "I live in Denmarkian but have
        // roots in Iran".
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Xponents, &g);
        let out = tool.extract("I live in Denmarkian but have roots in Iran");
        assert_eq!(out.len(), 1);
        // CLIFF, context-driven, sees only "in Iran".
        let cliff = GeoTool::new(ToolKind::Cliff, &g)
            .extract("I live in Denmarkian but have roots in Iran");
        assert_eq!(cliff[0].country, "Iran");
    }

    #[test]
    fn mordecai_returns_multiple_candidates() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Mordecai, &g);
        // "Buenos Aires" is a region and a city.
        let out = tool.extract("streaming from Buenos Aires");
        assert!(out.len() >= 2, "got {out:?}");
    }

    #[test]
    fn multiword_city_names() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Cliff, &g);
        let out = tool.extract("Living in Los Angeles since 2019");
        assert_eq!(out[0].city.as_deref(), Some("Los Angeles"));
    }

    #[test]
    fn comma_structure_counts_as_context() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Cliff, &g);
        let out = tool.extract("Miami, Florida based streamer");
        assert!(!out.is_empty());
        assert_eq!(out[0].city.as_deref(), Some("Miami"));
    }

    #[test]
    fn nominatim_understands_comma_structure() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::Nominatim, &g);
        let out = tool.extract("Miami, Florida");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].city.as_deref(), Some("Miami"));
        assert_eq!(out[0].region.as_deref(), Some("Florida"));
        // Non-geographic fluff with a real city: the paper's
        // "Your heart, Chicago".
        let out = tool.extract("Your heart, Chicago");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].city.as_deref(), Some("Chicago"));
    }

    #[test]
    fn geonames_population_tiebreak_errs_on_homonyms() {
        let g = gaz();
        let tool = GeoTool::new(ToolKind::GeoNames, &g);
        // "Washington" is a US state and a city; population tie-break picks
        // the state (7.6M > 0.7M) even when the user meant the city.
        let out = tool.extract("Washington");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].region.as_deref(), Some("Washington"));
        assert_eq!(out[0].city, None);
    }

    #[test]
    fn coverage_gaps_differ_between_tools() {
        let g = gaz();
        let gaps = |kind: ToolKind| -> Vec<bool> {
            let tool = GeoTool::new(kind, &g);
            g.places().iter().map(|p| tool.knows(p)).collect()
        };
        let cliff = gaps(ToolKind::Cliff);
        let xponents = gaps(ToolKind::Xponents);
        let mordecai = gaps(ToolKind::Mordecai);
        let nominatim = gaps(ToolKind::Nominatim);
        assert!(nominatim.iter().all(|&k| k), "geoparsers are complete");
        let missing = |v: &Vec<bool>| v.iter().filter(|&&k| !k).count();
        assert!(
            missing(&cliff) + missing(&xponents) + missing(&mordecai) > 0,
            "geocoders have gaps"
        );
        assert!(
            cliff != mordecai || cliff != xponents,
            "gaps are tool-specific"
        );
    }

    #[test]
    fn empty_and_unmatchable_text() {
        let g = gaz();
        for kind in [
            ToolKind::Cliff,
            ToolKind::Xponents,
            ToolKind::Mordecai,
            ToolKind::Nominatim,
            ToolKind::GeoNames,
        ] {
            let tool = GeoTool::new(kind, &g);
            assert!(tool.extract("").is_empty(), "{:?}", kind);
            assert!(
                tool.extract("just vibes and good music").is_empty(),
                "{:?}",
                kind
            );
        }
    }
}
