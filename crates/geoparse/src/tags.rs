//! Country-tag recovery (App. D.2).
//!
//! Until February 2023 Twitch offered standardised stream tags including
//! country-level ones. Tero gathered stream tags every 30 minutes and used
//! *stable* tags — the same country tag across uninterrupted consecutive
//! observations — to recover geocoder outputs that the conservative filter
//! had discarded: a discarded location is accepted after all if a stable
//! tag confirms its country.

use tero_types::Location;

/// One tag observation: whether a country tag was present on a stream at
/// one 30-minute poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagObservation {
    /// Poll index (monotonic).
    pub poll: u64,
    /// The country-level tag, if the stream carried one.
    pub country_tag: Option<String>,
}

/// Derive a stable country from a user's tag history: the country whose tag
/// appears in the longest run of *consecutive* observations, provided that
/// run has at least `min_run` observations.
pub(crate) fn stable_country(history: &[TagObservation], min_run: usize) -> Option<String> {
    let mut best: Option<(String, usize)> = None;
    let mut current: Option<(String, usize)> = None;
    for obs in history {
        match (&obs.country_tag, &mut current) {
            (Some(tag), Some((cur_tag, len))) if tag == cur_tag => {
                *len += 1;
            }
            (Some(tag), _) => {
                if let Some((t, l)) = current.take() {
                    if best.as_ref().is_none_or(|(_, bl)| l > *bl) {
                        best = Some((t, l));
                    }
                }
                current = Some((tag.clone(), 1));
            }
            (None, _) => {
                if let Some((t, l)) = current.take() {
                    if best.as_ref().is_none_or(|(_, bl)| l > *bl) {
                        best = Some((t, l));
                    }
                }
            }
        }
    }
    if let Some((t, l)) = current {
        if best.as_ref().is_none_or(|(_, bl)| l > *bl) {
            best = Some((t, l));
        }
    }
    best.filter(|(_, l)| *l >= min_run).map(|(t, _)| t)
}

/// The recovery rule: accept a location that the conservative filter
/// discarded if a stable tag confirms its country.
pub fn recover_with_tag(
    discarded: &Location,
    history: &[TagObservation],
    min_run: usize,
) -> Option<Location> {
    let tag = stable_country(history, min_run)?;
    if tag.eq_ignore_ascii_case(&discarded.country) {
        Some(discarded.clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tags: &[Option<&str>]) -> Vec<TagObservation> {
        tags.iter()
            .enumerate()
            .map(|(i, t)| TagObservation {
                poll: i as u64,
                country_tag: t.map(str::to_string),
            })
            .collect()
    }

    #[test]
    fn stable_run_detected() {
        let h = obs(&[
            Some("France"),
            Some("France"),
            Some("France"),
            None,
            Some("Spain"),
        ]);
        assert_eq!(stable_country(&h, 3).as_deref(), Some("France"));
        assert_eq!(stable_country(&h, 4), None, "run too short");
    }

    #[test]
    fn interruptions_reset_runs() {
        let h = obs(&[Some("France"), None, Some("France"), None, Some("France")]);
        assert_eq!(stable_country(&h, 2), None, "no run of 2 consecutive");
        assert_eq!(stable_country(&h, 1).as_deref(), Some("France"));
    }

    #[test]
    fn tag_changes_tracked() {
        let h = obs(&[
            Some("Spain"),
            Some("Spain"),
            Some("France"),
            Some("France"),
            Some("France"),
        ]);
        assert_eq!(stable_country(&h, 3).as_deref(), Some("France"));
    }

    #[test]
    fn recovery_requires_matching_country() {
        let detroit = Location::city("United States", "Michigan", "Detroit");
        let confirm = obs(&[Some("United States"); 4]);
        assert_eq!(
            recover_with_tag(&detroit, &confirm, 3),
            Some(detroit.clone())
        );
        let conflict = obs(&[Some("Canada"); 4]);
        assert_eq!(recover_with_tag(&detroit, &conflict, 3), None);
        assert_eq!(recover_with_tag(&detroit, &obs(&[None; 4]), 1), None);
    }

    #[test]
    fn empty_history() {
        assert_eq!(stable_country(&[], 1), None);
    }
}
