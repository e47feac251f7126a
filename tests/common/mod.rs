//! Helpers shared by the integration suites.

use std::collections::BTreeMap;
use tero::core::serving::{SERVE_PREFIX, SERVE_VERSION_KEY};
use tero::store::KvStore;

/// Every committed serving key → value, minus the version counter (its
/// count is window-schedule-dependent by design; the sketches are not).
pub fn serving_bytes(kv: &KvStore) -> BTreeMap<String, String> {
    kv.keys_with_prefix(SERVE_PREFIX)
        .into_iter()
        .filter(|k| k != SERVE_VERSION_KEY)
        .map(|k| {
            let v = kv.get(&k).expect("listed key exists");
            (k, v)
        })
        .collect()
}
