//! The local and the remote backend behave the same, draw for draw.
//!
//! Generated sequences over every public `KvStore` / `ObjectStore`
//! operation run twice: on in-process stores, and on `KvStore::remote` /
//! `ObjectStore::remote` over a loopback whose requests and answers cross
//! the wire's JSON body encoding onto a second pair of local stores. Both
//! pairs carry the same write-drop plan and an instrumented registry, and
//! must agree on every return value, the final snapshots, the `store.*`
//! counters and the injectors' next draws. A failing case prints its
//! sequence as a literal `check` replays.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tero_chaos::{ChaosInjector, FaultPlan};
use tero_obs::Registry;
use tero_store::{
    KvRequest, KvResponse, KvSnapshot, KvStore, ObjRequest, ObjResponse, ObjectSnapshot,
    ObjectStore, RemoteStore,
};
use tero_types::SimTime;

/// A remote backend on the far side of an encode / decode of every
/// request and answer, counting the requests it serves.
#[derive(Default)]
struct Loopback {
    kv: KvStore,
    objects: ObjectStore,
    requests: AtomicUsize,
}

/// `value` through its JSON text, as a frame body carries it.
fn wire<T: serde::Serialize, U: serde::Deserialize>(value: &T) -> U {
    serde_json::from_str(&serde_json::to_string(value).expect("encodes")).expect("decodes")
}

impl RemoteStore for Loopback {
    fn kv(&self, req: KvRequest<'_>) -> KvResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        wire(&self.kv.apply(wire(&req)))
    }
    fn obj(&self, req: ObjRequest<'_>) -> ObjResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        wire(&self.objects.apply(wire(&req)))
    }
}

// Every write goes to a key of its own type, so no write is type-confused;
// reads range over every pool. `engine:` keys take no fault draw.
const STRS: [&str; 3] = ["s0", "s1", "engine:s"];
const COUNTERS: [&str; 2] = ["c0", "engine:c"];
const LISTS: [&str; 3] = ["l0", "l1", "engine:l"];
const HASHES: [&str; 3] = ["h0", "h1", "engine:h"];
const ANY: [&str; 12] = [
    "s0", "s1", "engine:s", "c0", "engine:c", "l0", "l1", "engine:l", "h0", "h1", "engine:h",
    "missing",
];
const FIELDS: [&str; 3] = ["f0", "f1", "f2"];
const PREFIXES: [&str; 5] = ["", "s", "l", "engine:", "x"];
const BUCKETS: [&str; 2] = ["b0", "b1"];
const OBJECTS: [&str; 3] = ["k0", "k1", "k2"];

/// One call of the public store surface.
#[derive(Debug, Clone)]
enum Op {
    Set(&'static str, u8),
    SetWithTtl(&'static str, u8, u64),
    Get(&'static str),
    Del(&'static str),
    Exists(&'static str),
    IncrBy(&'static str, i64),
    Rpush(&'static str, u8),
    RpushBatch(&'static str, Vec<u8>),
    Lpop(&'static str),
    LrangeFrom(&'static str, usize),
    Llen(&'static str),
    Hset(&'static str, &'static str, u8),
    HsetMany(&'static str, Vec<(&'static str, u8)>),
    Hget(&'static str, &'static str),
    Hgetall(&'static str),
    KeysWithPrefix(&'static str),
    SweepExpired(u64),
    Len,
    IsEmpty,
    /// `snapshot()`, kept for the next `Restore`.
    Snapshot,
    /// `restore()` of the last `Snapshot` (an empty one before any).
    Restore,
    Put(&'static str, &'static str, Vec<u8>),
    ObjGet(&'static str, &'static str),
    Delete(&'static str, &'static str),
    ObjSnapshot,
    ObjRestore,
}

fn pick(rng: &mut TestRng, pool: &[&'static str]) -> &'static str {
    prop::sample::select(pool.to_vec()).generate(rng)
}

fn op(rng: &mut TestRng) -> Op {
    let byte = |rng: &mut TestRng| (0u8..4).generate(rng);
    match (0usize..26).generate(rng) {
        0 => Op::Set(pick(rng, &STRS), byte(rng)),
        1 => Op::SetWithTtl(pick(rng, &STRS), byte(rng), (0u64..4).generate(rng)),
        2 => Op::Get(pick(rng, &ANY)),
        3 => Op::Del(pick(rng, &ANY)),
        4 => Op::Exists(pick(rng, &ANY)),
        5 => Op::IncrBy(pick(rng, &COUNTERS), (-5i64..6).generate(rng)),
        6 => Op::Rpush(pick(rng, &LISTS), byte(rng)),
        7 => Op::RpushBatch(
            pick(rng, &LISTS),
            prop::collection::vec(0u8..4, 0..4).generate(rng),
        ),
        8 => Op::Lpop(pick(rng, &ANY)),
        9 => Op::LrangeFrom(pick(rng, &ANY), (0usize..3).generate(rng)),
        10 => Op::Llen(pick(rng, &ANY)),
        11 => Op::Hset(pick(rng, &HASHES), pick(rng, &FIELDS), byte(rng)),
        12 => Op::HsetMany(
            pick(rng, &HASHES),
            prop::collection::vec((prop::sample::select(FIELDS), 0u8..4), 0..4).generate(rng),
        ),
        13 => Op::Hget(pick(rng, &ANY), pick(rng, &FIELDS)),
        14 => Op::Hgetall(pick(rng, &ANY)),
        15 => Op::KeysWithPrefix(pick(rng, &PREFIXES)),
        16 => Op::SweepExpired((0u64..4).generate(rng)),
        17 => Op::Len,
        18 => Op::IsEmpty,
        19 => Op::Snapshot,
        20 => Op::Restore,
        21 => Op::Put(
            pick(rng, &BUCKETS),
            pick(rng, &OBJECTS),
            prop::collection::vec(any::<u8>(), 0..5).generate(rng),
        ),
        22 => Op::ObjGet(pick(rng, &BUCKETS), pick(rng, &OBJECTS)),
        23 => Op::Delete(pick(rng, &BUCKETS), pick(rng, &OBJECTS)),
        24 => Op::ObjSnapshot,
        _ => Op::ObjRestore,
    }
}

/// One backend's stores with their injector, registry and stashes.
struct Side {
    kv: KvStore,
    objects: ObjectStore,
    chaos: ChaosInjector,
    registry: Registry,
    kv_stash: KvSnapshot,
    obj_stash: ObjectSnapshot,
}

impl Side {
    fn new(kv: KvStore, objects: ObjectStore, seed: u64) -> Side {
        let chaos = ChaosInjector::new(FaultPlan {
            kv_write_drop_rate: 0.3,
            object_write_drop_rate: 0.3,
            ..FaultPlan::quiet(seed)
        });
        let registry = Registry::new();
        kv.inject_faults(chaos.clone());
        objects.inject_faults(chaos.clone());
        kv.instrument(&registry);
        objects.instrument(&registry);
        Side {
            kv,
            objects,
            chaos,
            registry,
            kv_stash: KvSnapshot::default(),
            obj_stash: ObjectSnapshot::default(),
        }
    }

    /// Run `op`, rendering what it returned.
    fn run(&mut self, op: &Op) -> String {
        let (kv, objects) = (&self.kv, &self.objects);
        let v = |b: &u8| format!("v{b}");
        match op {
            Op::Set(key, b) => format!("{:?}", kv.set(key, v(b))),
            Op::SetWithTtl(key, b, secs) => {
                format!(
                    "{:?}",
                    kv.set_with_ttl(key, v(b), SimTime::from_secs(*secs))
                )
            }
            Op::Get(key) => format!("{:?}", kv.get(key)),
            Op::Del(key) => format!("{:?}", kv.del(key)),
            Op::Exists(key) => format!("{:?}", kv.exists(key)),
            Op::IncrBy(key, delta) => format!("{:?}", kv.incr_by(key, *delta)),
            Op::Rpush(key, b) => format!("{:?}", kv.rpush(key, v(b))),
            Op::RpushBatch(key, bs) => format!("{:?}", kv.rpush_batch(key, bs.iter().map(v))),
            Op::Lpop(key) => format!("{:?}", kv.lpop(key)),
            Op::LrangeFrom(key, start) => format!("{:?}", kv.lrange_from(key, *start)),
            Op::Llen(key) => format!("{:?}", kv.llen(key)),
            Op::Hset(key, field, b) => format!("{:?}", kv.hset(key, field, v(b))),
            Op::HsetMany(key, fields) => format!(
                "{:?}",
                kv.hset_many(key, fields.iter().map(|(f, b)| (f.to_string(), v(b))))
            ),
            Op::Hget(key, field) => format!("{:?}", kv.hget(key, field)),
            Op::Hgetall(key) => {
                let mut pairs: Vec<_> = kv.hgetall(key).into_iter().collect();
                pairs.sort();
                format!("{pairs:?}")
            }
            Op::KeysWithPrefix(prefix) => format!("{:?}", kv.keys_with_prefix(prefix)),
            Op::SweepExpired(secs) => format!("{:?}", kv.sweep_expired(SimTime::from_secs(*secs))),
            Op::Len => format!("{:?}", kv.len()),
            Op::IsEmpty => format!("{:?}", kv.is_empty()),
            Op::Snapshot => {
                self.kv_stash = kv.snapshot();
                format!("{:?}", self.kv_stash)
            }
            Op::Restore => format!("{:?}", kv.restore(&self.kv_stash)),
            Op::Put(bucket, key, data) => format!("{:?}", objects.put(bucket, key, data.clone())),
            Op::ObjGet(bucket, key) => {
                format!("{:?}", objects.get(bucket, key).map(|b| b.to_vec()))
            }
            Op::Delete(bucket, key) => format!("{:?}", objects.delete(bucket, key)),
            Op::ObjSnapshot => {
                self.obj_stash = objects.snapshot();
                format!("{:?}", self.obj_stash)
            }
            Op::ObjRestore => format!("{:?}", objects.restore(&self.obj_stash)),
        }
    }

    /// Everything a sequence leaves behind: both snapshots, the `store.*`
    /// counters and the injector's next draws of each kind.
    fn state(&self) -> String {
        let snap = self.registry.snapshot();
        let counters: Vec<_> = [
            "store.kv.reads",
            "store.kv.writes",
            "store.object.reads",
            "store.object.writes",
            "store.object.put_bytes",
        ]
        .map(|name| (name, snap.counter(name)))
        .into();
        let draws: Vec<_> = (0..16)
            .map(|_| (self.chaos.drop_kv_write(), self.chaos.drop_object_write()))
            .collect();
        format!(
            "{:?}\n{:?}\n{counters:?}\n{draws:?}",
            self.kv.snapshot(),
            self.objects.snapshot()
        )
    }
}

/// Run `ops` on both backends under plan seed `seed`; `Err` names the
/// first disagreement.
fn check(seed: u64, ops: &[Op]) -> Result<(), String> {
    let mut local = Side::new(KvStore::new(), ObjectStore::new(), seed);
    let remote = Arc::new(Loopback::default());
    let mut remote = Side::new(
        KvStore::remote(remote.clone()),
        ObjectStore::remote(remote),
        seed,
    );
    for (i, op) in ops.iter().enumerate() {
        let (l, r) = (local.run(op), remote.run(op));
        if l != r {
            return Err(format!("op {i} {op:?}: local {l}, remote {r}"));
        }
    }
    let (l, r) = (local.state(), remote.state());
    if l != r {
        return Err(format!("final state: local\n{l}\nremote\n{r}"));
    }
    Ok(())
}

#[test]
fn local_and_remote_backends_agree_draw_for_draw() {
    let mut rng = TestRng::new(31);
    for case in 0..256 {
        let seed = (0u64..1_000).generate(&mut rng);
        let len = (1usize..48).generate(&mut rng);
        let ops: Vec<Op> = (0..len).map(|_| op(&mut rng)).collect();
        if let Err(why) = check(seed, &ops) {
            panic!("case {case}: {why}\nreplay: use Op::*; check({seed}, &{ops:?})");
        }
    }
}

#[test]
fn a_debug_print_sends_no_request() {
    let remote = Arc::new(Loopback::default());
    let (kv, objects) = (
        KvStore::remote(remote.clone()),
        ObjectStore::remote(remote.clone()),
    );
    kv.set("k", "v");
    let before = remote.requests.load(Ordering::Relaxed);
    assert_eq!(
        format!("{kv:?} {objects:?}"),
        r#"KvStore { backend: "remote" } ObjectStore { backend: "remote" }"#
    );
    assert_eq!(remote.requests.load(Ordering::Relaxed), before);
}
