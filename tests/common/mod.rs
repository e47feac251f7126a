//! Helpers shared by the integration suites.

use std::collections::BTreeMap;
use tero::core::stages::SAMPLES_PREFIX;
use tero::core::FAMILIES;
use tero::store::KvStore;

/// Every committed serving key → value: the keys of the committed-state
/// table's prefix families but the sample lists (`engine:serve:raw:*`,
/// `dist:*` and `dist_meta:*`). The version counter is left out: its
/// count is window-schedule-dependent by design; the sketches are not.
pub fn serving_bytes(kv: &KvStore) -> BTreeMap<String, String> {
    FAMILIES
        .iter()
        .filter(|f| f.prefix && f.key != SAMPLES_PREFIX)
        .flat_map(|f| kv.keys_with_prefix(f.key))
        .map(|k| {
            let v = kv.get(&k).expect("listed key exists");
            (k, v)
        })
        .collect()
}
