//! # tero-geoparse
//!
//! NLP / geocoding substrate for Tero's location module (§3.1, App. D).
//!
//! The paper extracts `{city, region, country}` tuples from Twitch
//! descriptions and Twitter location fields using five publicly available
//! tools — CLIFF, Xponents and Mordecai (geocoders over unstructured text),
//! Nominatim and GeoNames (geoparsers over location-ish fields) — plus a
//! conservative filter and combination rules. This crate rebuilds the whole
//! stack offline:
//!
//! * `gazetteer` — an embedded gazetteer of countries, first-level regions
//!   and cities with coordinates, areas, populations and aliases (including
//!   every location named in the paper's figures and server tables);
//! * [`tools`] — the five tools, each with a distinct, realistic
//!   precision/recall profile (aggressive matching, fuzzy matching,
//!   multi-candidate output, …);
//! * [`filter`] — the conservative filter of App. D.1;
//! * [`combine`] — the Twitch-description combiner (App. D.2), the
//!   Twitter-field combiner (App. D.3) and the §3.1 acceptance rules;
//! * [`tags`] — country-tag recovery (App. D.2);
//! * [`profiles`] — the Twitch ↔ Twitter/Steam profile-matching algorithm.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod combine;
pub mod filter;
mod gazetteer;
pub mod profiles;
pub mod tags;
pub mod tools;

pub use gazetteer::{Gazetteer, Place, PlaceKind};
pub use profiles::{match_profile, SocialProfile};
