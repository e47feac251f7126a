//! The locate stage: the §3.1 location module over every streamer the
//! extract stage registered in the [`super::NAMES_KEY`] hash — run
//! *incrementally*, one budgeted slice per window.
//!
//! The location module runs as a separate program with its own API
//! credentials (App. B), so its call accounting is independent of the
//! download scheduler's rate limiter. Each window gets an explicit
//! simulated-API budget ([`crate::pipeline::Tero::locate_budget`]):
//! newly-seen streamers queue up, the stage admits as many as the
//! budget covers (worst case `PROFILE_ATTEMPTS` calls each), and the
//! rest carry over to the next window. A streamer's profile outcome —
//! how many injected 5xx faults its lookup hit and the description it
//! ultimately fetched — is drawn once, from a per-streamer keyed chaos
//! stream, and committed under [`LOCATE_PROFILES_KEY`]; it is never
//! re-drawn, so the outcome is independent of the window schedule and
//! of kill/resume.
//!
//! Once a streamer's profile is committed its location is *canonical*:
//! the geoparse verdict over the committed description plus the
//! country-tag history collected so far. Tag lists keep growing while
//! the run is in flight, so the stage re-evaluates a committed streamer
//! whenever its tag count moves (committing the refreshed verdict under
//! [`LOCATE_RESULTS_KEY`]); at the horizon the tag history is complete
//! and the committed results are byte-identical to what the old
//! single-shot locate pass produced.
//!
//! A streamer still queued at the end of a slice gets a *provisional*
//! location instead: the social profile alone — no description, no tags,
//! no API spend. A lookup without a description reads no tags and the
//! social directory is fixed, so each is made once, and dropped when the
//! budget admits the streamer. The aggregation stage serves a streamer
//! from its canonical verdict, else from its provisional location
//! (`LocateStage::serving_location`).

use super::{StageCx, NAMES_KEY};
use crate::keys::{anon_field, parse_anon_field};
use crate::location::{LocationModule, LocationSource};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use tero_geoparse::tags::TagObservation;
use tero_store::KvStore;
use tero_types::{AnonId, Location, StreamerId};

/// Hash of committed profile outcomes: field `{anon:016x}`, value a
/// JSON `{faults, description}` record. A field is written exactly once
/// per streamer, when the budget admits its lookup.
pub const LOCATE_PROFILES_KEY: &str = "engine:locate:profiles";

/// Hash of committed location verdicts: field `{anon:016x}`, value a
/// JSON `{tags_seen, located}` record. Rewritten when the streamer's
/// tag history grows.
pub const LOCATE_RESULTS_KEY: &str = "engine:locate:results";

/// Hash of stage bookkeeping (`api_calls`: total simulated API calls
/// spent so far — resumes the `location.api_calls` gauge).
pub(crate) const LOCATE_META_KEY: &str = "engine:locate:meta";

/// Lookup attempts per streamer: the first call plus up to four
/// retries. A streamer whose keyed fault stream yields this many
/// consecutive 5xx responses stays unlocated for the run (matching the
/// pre-budgeted stage's give-up rule).
pub(crate) const PROFILE_ATTEMPTS: u32 = 5;

/// A streamer's committed profile-fetch outcome. `faults` is how many
/// injected 5xx responses the keyed chaos stream dealt the lookup; at
/// [`PROFILE_ATTEMPTS`] the fetch gave up and `description` is `None`
/// regardless of what the platform holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ProfileOutcome {
    faults: u32,
    description: Option<String>,
}

/// A streamer's committed location verdict, stamped with the tag-count
/// it was evaluated at so tag growth forces a re-evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LocateResult {
    tags_seen: usize,
    located: Option<(Location, LocationSource)>,
}

/// The budgeted incremental locate stage. In-memory state mirrors the
/// committed `engine:locate:*` hashes; `LocateStage::rebuild`
/// reconstructs it from the store after a kill or snapshot restore.
#[derive(Debug, Default)]
pub(crate) struct LocateStage {
    /// Username per seen streamer (the names-hash rows, parsed).
    names: BTreeMap<AnonId, StreamerId>,
    /// Streamers already counted into `records_in`.
    seen: BTreeSet<AnonId>,
    /// Committed profile outcomes.
    profiles: BTreeMap<AnonId, ProfileOutcome>,
    /// Committed location verdicts.
    results: BTreeMap<AnonId, LocateResult>,
    /// Located streamers (the `Some` projection of `results`), kept in
    /// sync so downstream stages can borrow it every window.
    canonical: HashMap<AnonId, (Location, LocationSource)>,
    /// Carry-over queue: seen streamers whose lookup hasn't been
    /// admitted by any window's budget yet, in arrival order.
    queue: VecDeque<(AnonId, StreamerId)>,
    /// The social-profile-only lookup of every queued streamer, made at
    /// the end of the first slice that leaves it queued and dropped at
    /// admission. Not committed: a restored stage makes them again.
    provisional: HashMap<AnonId, Option<Location>>,
    /// Total simulated API calls spent.
    api_calls: u64,
}

impl LocateStage {
    /// The canonical locations committed so far.
    pub(crate) fn locations(&self) -> &HashMap<AnonId, (Location, LocationSource)> {
        &self.canonical
    }

    /// Where `anon` is served from, and whether that location is
    /// canonical: its committed verdict, else the provisional lookup of
    /// a streamer still queued. `None` when neither locates it.
    pub(crate) fn serving_location(&self, anon: AnonId) -> Option<(&Location, bool)> {
        match self.canonical.get(&anon) {
            Some((loc, _)) => Some((loc, true)),
            None => Some((self.provisional.get(&anon)?.as_ref()?, false)),
        }
    }

    /// Whether seen streamers are still waiting for a budget to admit
    /// their lookup — a slice has work even in a window that moved nothing.
    pub(crate) fn has_backlog(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Streamers seen so far (denominator of the 2.77 % figure).
    pub(crate) fn streamers_seen(&self) -> usize {
        self.seen.len()
    }

    /// One slice: queue newly-seen streamers, admit lookups while
    /// `budget` lasts (`None`: drain the queue), locate what stays queued
    /// provisionally, and re-evaluate any committed streamer whose tag
    /// history grew. A window passes
    /// [`crate::pipeline::Tero::locate_budget`]; the horizon passes
    /// `None`, and since the tag history is complete by then, what it
    /// leaves committed is final. Returns whether any verdict was
    /// written — a profile committed in this slice gets its first one.
    /// A new provisional lookup needs no return: it is made in the slice
    /// after the extract that registered the name, and any record that
    /// extract appended is already pending aggregation.
    pub(crate) fn advance(&mut self, cx: &mut StageCx<'_>, budget: Option<u64>) -> bool {
        let _span = cx.enter(&cx.metrics.st_locate);
        self.enqueue_new(cx);
        self.process_queue(cx, budget);
        self.locate_queued(cx);
        self.reevaluate(cx)
    }

    /// Reconstruct in-memory state from the committed names, profiles,
    /// verdicts and API spend. Metric-silent: counters were restored from
    /// the engine's counter snapshot, and nothing here re-draws a chaos
    /// outcome.
    pub(crate) fn rebuild(
        &mut self,
        names: BTreeMap<AnonId, StreamerId>,
        profiles: BTreeMap<AnonId, ProfileOutcome>,
        results: BTreeMap<AnonId, LocateResult>,
        api_calls: u64,
    ) {
        self.seen = names.keys().copied().collect();
        self.names = names;
        self.profiles = profiles;
        self.results = results;
        for (anon, result) in &self.results {
            if let Some(located) = &result.located {
                self.canonical.insert(*anon, located.clone());
            }
        }
        self.queue = self
            .names
            .iter()
            .filter(|(anon, _)| !self.profiles.contains_key(anon))
            .map(|(anon, name)| (*anon, name.clone()))
            .collect();
        self.api_calls = api_calls;
    }

    /// Pull newly-registered names into the carry-over queue (sorted by
    /// anonymised id within the window, so admission order is
    /// deterministic).
    fn enqueue_new(&mut self, cx: &mut StageCx<'_>) {
        for (anon, name) in parse_names(cx.kv) {
            if self.seen.insert(anon) {
                cx.metrics.st_locate.records_in.inc();
                self.queue.push_back((anon, name.clone()));
                self.names.insert(anon, name);
            }
        }
    }

    /// Admit queued lookups while `budget` covers the worst case
    /// ([`PROFILE_ATTEMPTS`] calls); `None` means unlimited. Each
    /// admitted streamer's fault count comes from the injector's
    /// per-streamer keyed stream — drawn exactly once, here, so the
    /// outcome is the same under every window schedule.
    fn process_queue(&mut self, cx: &mut StageCx<'_>, budget: Option<u64>) {
        let mut spent = 0u64;
        while let Some((anon, name)) = self.queue.front() {
            if budget.is_some_and(|b| spent + PROFILE_ATTEMPTS as u64 > b) {
                break;
            }
            let (anon, name) = (*anon, name.clone());
            self.queue.pop_front();
            self.provisional.remove(&anon);
            let faults = cx
                .world
                .chaos()
                .map_or(0, |chaos| chaos.profile_faults(name.as_str()));
            cx.metrics.profile_retries.add(faults as u64);
            let (calls, description) = if faults >= PROFILE_ATTEMPTS {
                (PROFILE_ATTEMPTS as u64, None)
            } else {
                (
                    faults as u64 + 1,
                    cx.world.twitch.profile_description(name.as_str()),
                )
            };
            spent += calls;
            self.api_calls += calls;
            cx.metrics.locate_budget_spent.add(calls);
            let outcome = ProfileOutcome {
                faults,
                description,
            };
            cx.kv.hset(
                LOCATE_PROFILES_KEY,
                &anon_field(anon),
                serde_json::to_string(&outcome).expect("profile outcomes serialize"),
            );
            self.profiles.insert(anon, outcome);
        }
        let deferred = self.queue.len() as u64;
        if deferred > 0 {
            cx.metrics.locate_budget_deferred.add(deferred);
        }
        cx.metrics.locate_queue_depth.set(deferred as i64);
        cx.metrics.locate_api_calls.set(self.api_calls as i64);
        cx.kv
            .hset(LOCATE_META_KEY, "api_calls", self.api_calls.to_string());
    }

    /// Make the provisional lookup of every queued streamer that has
    /// none yet (`clean.provisional_locations` counts them).
    fn locate_queued(&mut self, cx: &mut StageCx<'_>) {
        let location_module = LocationModule::new(&cx.world.gaz);
        let mut lookups = 0u64;
        for (anon, name) in &self.queue {
            self.provisional.entry(*anon).or_insert_with(|| {
                lookups += 1;
                location_module
                    .locate(name.as_str(), None, &cx.world.social_directory, &[])
                    .map(|(loc, _)| loc)
            });
        }
        cx.metrics.clean_provisional_locations.add(lookups);
    }

    /// Settle the verdict of every profile-committed streamer whose tag
    /// history grew since its last evaluation (or that has none yet).
    /// Returns whether any verdict was rewritten.
    fn reevaluate(&mut self, cx: &mut StageCx<'_>) -> bool {
        let location_module = LocationModule::new(&cx.world.gaz);
        let mut rewrote = false;
        for (anon, outcome) in &self.profiles {
            // A restored or merged store can hold a profile row whose
            // `engine:names` row is gone; without the name there is no
            // tag list to evaluate against, so the row stays unsettled.
            let Some(name) = self.names.get(anon) else {
                continue;
            };
            let tags_key = format!("tags:{}", name.as_str());
            let tags_seen = cx.kv.llen(&tags_key);
            if self
                .results
                .get(anon)
                .is_some_and(|r| r.tags_seen == tags_seen)
            {
                continue;
            }
            let tags = tag_observations(cx.kv, &tags_key);
            let located = location_module.locate(
                name.as_str(),
                outcome.description.as_deref(),
                &cx.world.social_directory,
                &tags,
            );
            match &located {
                Some(ls) => {
                    self.canonical.insert(*anon, ls.clone());
                }
                None => {
                    self.canonical.remove(anon);
                }
            }
            let result = LocateResult { tags_seen, located };
            cx.kv.hset(
                LOCATE_RESULTS_KEY,
                &anon_field(*anon),
                serde_json::to_string(&result).expect("locate results serialize"),
            );
            self.results.insert(*anon, result);
            rewrote = true;
        }
        rewrote
    }
}

/// A streamer's country-tag history, one observation per poll that saw
/// a tag. A non-destructive read: the `tags:*` lists stay in place as
/// the stage's replay log.
fn tag_observations(kv: &KvStore, tags_key: &str) -> Vec<TagObservation> {
    kv.lrange_from(tags_key, 0)
        .into_iter()
        .enumerate()
        .map(|(i, t)| TagObservation {
            poll: i as u64,
            country_tag: Some(t),
        })
        .collect()
}

/// The names hash, parsed and sorted by anonymised id.
fn parse_names(kv: &KvStore) -> BTreeMap<AnonId, StreamerId> {
    kv.hgetall(NAMES_KEY)
        .into_iter()
        .filter_map(|(hex, name)| Some((parse_anon_field(&hex)?, StreamerId::new(&name))))
        .collect()
}
