//! The partition-tolerant sharded store client.
//!
//! [`ShardedStoreClient`] is the [`RemoteStore`] implementation an
//! engine's store facade plugs into. Each logical operation is:
//!
//! 1. **namespaced** — keys get the engine's `e{i}:` prefix (buckets
//!    likewise), so engines sharing the store mesh never collide;
//! 2. **routed** — the prefixed key's [`consistent_hash`] picks one of
//!    the `M` shards (fan-out operations visit every shard);
//! 3. **executed robustly** — bounded retries with exponential backoff
//!    and deterministic jitter against the shard's *acting* primary,
//!    under a per-shard circuit [`Breaker`];
//! 4. **replicated** — writes land on the primary, then the replica,
//!    so the replica always holds a superset of every engine's writes
//!    (the invariant that makes failover and resync lossless);
//! 5. **failed over** — when the primary is unreachable, the client
//!    promotes the replica under a window-TTL lease and keeps
//!    committing; at lease expiry it probes the primary, resyncs it
//!    from the replica (full raw snapshot → restore), and demotes the
//!    lease.
//!
//! Everything is deterministic: the backoff jitter comes from the
//! client's own seeded [`SimRng`], time is the logical clock of
//! accumulated transfer delays, and fault decisions live in the
//! transport's [`ChaosInjector`](tero_chaos::ChaosInjector). Replaying
//! the same `(plan, seed)` replays the same `net.*` recovery metrics.
//!
//! If the fault plan makes recovery impossible — both replicas of a
//! shard unreachable, or a promotion forced onto a stale replica — the
//! client panics with a clear message rather than silently diverging.

use crate::frame::{decode, encode, Frame, Payload};
use crate::transport::{engine_host, primary_host, replica_host, NetError, SimNet};
use parking_lot::Mutex;
use std::sync::OnceLock;
use tero_obs::{CounterHandle, Registry};
use tero_store::{
    KvRequest, KvResponse, KvSnapshot, ObjRequest, ObjResponse, ObjectSnapshot, RemoteStore,
};
use tero_trace::{Level, SpanGuard, Tracer};
use tero_types::retry::{backoff_delay, Breaker, BreakerState};
use tero_types::{consistent_hash, SimDuration, SimRng, SimTime};

/// Retry attempts per request before the acting host is declared down.
const MAX_ATTEMPTS: u32 = 4;
/// Attempts for liveness probes (cheaper than full requests).
const PROBE_ATTEMPTS: u32 = 2;
/// Logical time charged when an attempt's deadline expires.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Base of the exponential backoff between attempts.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(2);
/// Consecutive faults that open a shard's breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker rejects before allowing a half-open probe.
const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(250);
/// Lease TTL in windows: how long a promoted replica acts as primary
/// before the client re-probes the configured primary.
const LEASE_WINDOWS: u64 = 2;
/// Full primary→replica failover sequences attempted before the client
/// declares the fault plan unrecoverable. Random frame loss can exhaust
/// one round's attempt budget on both hosts; only a fault that survives
/// every round is treated as fatal.
const RECOVERY_ROUNDS: u32 = 3;
/// Salt for key-to-shard routing (fixed protocol constant).
const ROUTE_SALT: u64 = 0x7e60_11e7;

/// Counter handles for the `net.*` catalogue. Registered eagerly so the
/// metric cross-check sees every name whether or not it fires.
#[derive(Clone)]
pub struct NetMetrics {
    /// Logical store operations issued (`net.requests`).
    pub requests: CounterHandle,
    /// Frames put on the wire, including retries (`net.frames`).
    pub frames: CounterHandle,
    /// Request-frame bytes put on the wire (`net.bytes`).
    pub bytes: CounterHandle,
    /// Attempts that ended in a deadline expiry (`net.timeouts`).
    pub timeouts: CounterHandle,
    /// Re-sent frames after an expired attempt (`net.retries`).
    pub retries: CounterHandle,
    /// Replica promotions under a new lease (`net.failovers`).
    pub failovers: CounterHandle,
    /// Lease TTLs extended because the primary stayed dead
    /// (`net.lease_renewals`).
    pub lease_renewals: CounterHandle,
    /// Full snapshot→restore state copies onto a stale peer
    /// (`net.resyncs`).
    pub resyncs: CounterHandle,
    /// Shard breakers tripped open (`net.breaker_open`).
    pub breaker_open: CounterHandle,
}

impl NetMetrics {
    /// Resolve (and eagerly create) every `net.*` counter.
    pub fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            requests: registry.counter("net.requests"),
            frames: registry.counter("net.frames"),
            bytes: registry.counter("net.bytes"),
            timeouts: registry.counter("net.timeouts"),
            retries: registry.counter("net.retries"),
            failovers: registry.counter("net.failovers"),
            lease_renewals: registry.counter("net.lease_renewals"),
            resyncs: registry.counter("net.resyncs"),
            breaker_open: registry.counter("net.breaker_open"),
        }
    }
}

/// Per-shard failover state.
struct ShardState {
    primary: String,
    replica: String,
    /// `Some(w)`: the replica acts as primary until window `w`.
    lease_until: Option<u64>,
    /// The configured primary missed writes made under the lease and
    /// must be resynced before it can lead again.
    primary_stale: bool,
    /// The replica missed a replicated write (it was unreachable while
    /// the primary was healthy) and must be resynced before it can be
    /// promoted.
    replica_stale: bool,
    /// Last window a replica heal was attempted (one probe per window).
    last_heal_window: Option<u64>,
    breaker: Breaker,
}

struct ClientInner {
    /// Monotonic per-client operation sequence (retries reuse it).
    seq: u64,
    /// Logical clock: accumulated transfer / timeout / backoff time.
    clock: SimTime,
    /// Deterministic jitter source.
    rng: SimRng,
    shards: Vec<ShardState>,
}

/// The robust store client of one engine. Shared behind an `Arc` as the
/// [`RemoteStore`] of that engine's KV and object store facades.
pub struct ShardedStoreClient {
    host: String,
    client_id: u64,
    namespace: String,
    net: SimNet,
    metrics: NetMetrics,
    /// Tracer plus this client's derived trace id; first `set_trace`
    /// wins. Absent → no spans, no wire context, zero overhead.
    trace: OnceLock<(Tracer, u64)>,
    inner: Mutex<ClientInner>,
}

/// Point-in-time, client-side health facts about one shard, exposed to
/// the health monitor by [`ShardedStoreClient::shard_views`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardView {
    /// A failover lease is in effect: the replica is acting primary.
    pub(crate) lease_active: bool,
    /// The configured primary missed leased writes and awaits resync.
    pub(crate) primary_stale: bool,
    /// The replica missed a replicated write and awaits resync.
    pub(crate) replica_stale: bool,
    /// The shard's circuit breaker as seen at the client's clock.
    pub(crate) breaker: BreakerState,
}

impl ShardedStoreClient {
    /// Build the client for engine `engine_index` against a mesh of
    /// `shards` primary/replica pairs, with its `net.*` counters in
    /// `registry` and its jitter stream seeded from `seed`.
    pub fn new(
        net: SimNet,
        engine_index: usize,
        shards: usize,
        registry: &Registry,
        seed: u64,
    ) -> ShardedStoreClient {
        assert!(shards > 0, "a sharded client needs at least one shard");
        let shard_states = (0..shards)
            .map(|s| ShardState {
                primary: primary_host(s),
                replica: replica_host(s),
                lease_until: None,
                primary_stale: false,
                replica_stale: false,
                last_heal_window: None,
                breaker: Breaker::default(),
            })
            .collect();
        ShardedStoreClient {
            host: engine_host(engine_index),
            client_id: engine_index as u64,
            namespace: format!("e{engine_index}:"),
            net,
            metrics: NetMetrics::register(registry),
            trace: OnceLock::new(),
            inner: Mutex::new(ClientInner {
                seq: 0,
                clock: SimTime::EPOCH,
                rng: SimRng::new(seed ^ 0x006e_6574_776f_726b_u64 ^ (engine_index as u64) << 32),
                shards: shard_states,
            }),
        }
    }

    /// This client's namespace prefix (`e{i}:`).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Number of store shards this client routes across.
    pub(crate) fn shard_count(&self) -> usize {
        self.inner.lock().shards.len()
    }

    /// Record this client's operations as `net.*` spans/events in
    /// `tracer`. Each operation's span is stamped into the frame header
    /// as a [`tero_trace::TraceContext`] (trace id derived from the
    /// client id), so server-side handling stitches under it in a
    /// merged mesh trace. First call wins, like `Tracer::instrument`.
    pub fn set_trace(&self, tracer: &Tracer) {
        let trace_id = (self.client_id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let _ = self.trace.set((tracer.clone(), trace_id));
    }

    /// Per-shard client-side health facts at the current logical clock,
    /// for the health monitor. Read-only: no probes, no clock movement.
    pub(crate) fn shard_views(&self) -> Vec<ShardView> {
        let inner = self.inner.lock();
        let now = inner.clock;
        inner
            .shards
            .iter()
            .map(|st| ShardView {
                lease_active: st.lease_until.is_some(),
                primary_stale: st.primary_stale,
                replica_stale: st.replica_stale,
                breaker: st.breaker.state(now),
            })
            .collect()
    }

    /// Open the span for one logical operation, if tracing is attached.
    /// Probes, resyncs and replication legs run *inside* this span —
    /// one span per logical store operation.
    fn op_span(&self, name: &str) -> Option<(SpanGuard, u64)> {
        let (tracer, trace_id) = self.trace.get()?;
        let guard = tracer.span(name);
        guard.is_recording().then_some((guard, *trace_id))
    }

    /// One request/response exchange with bounded retries. `Err` means
    /// the destination never produced a response within the attempt
    /// budget — the caller decides whether that means failover or panic.
    ///
    /// Bumps the client sequence: this is one fresh logical operation.
    fn exchange(
        &self,
        inner: &mut ClientInner,
        to: &str,
        payload: Payload,
        attempts: u32,
    ) -> Result<Payload, NetError> {
        inner.seq += 1;
        let seq = inner.seq;
        let frame = encode(&Frame {
            client: self.client_id,
            seq,
            ctx: None,
            payload,
        });
        self.send_frame(inner, to, &frame, seq, attempts)
    }

    /// Retry an already-encoded frame against one destination. Every
    /// attempt reuses the frame verbatim — same `seq` — so a request
    /// the server applied but whose response was lost is answered from
    /// the server's dedup cache, never re-applied. Failed attempts
    /// charge the deadline plus a deterministic jittered backoff.
    fn send_frame(
        &self,
        inner: &mut ClientInner,
        to: &str,
        frame: &[u8],
        seq: u64,
        attempts: u32,
    ) -> Result<Payload, NetError> {
        let mut last = NetError::FrameLost;
        for attempt in 1..=attempts {
            self.metrics.frames.inc();
            self.metrics.bytes.add(frame.len() as u64);
            let (elapsed, result) = self.net.exchange(&self.host, to, frame);
            inner.clock += elapsed;
            match result {
                Ok(bytes) => {
                    let resp = decode(&bytes).expect("malformed response frame");
                    assert_eq!(resp.seq, seq, "response for a different request");
                    return Ok(resp.payload);
                }
                Err(e) => {
                    last = e;
                    self.metrics.timeouts.inc();
                    inner.clock += ATTEMPT_TIMEOUT;
                    if attempt < attempts {
                        self.metrics.retries.inc();
                        inner.clock += backoff_delay(BACKOFF_BASE, attempt, &mut inner.rng);
                    }
                }
            }
        }
        Err(last)
    }

    /// Copy the full raw state of `from` onto `to` (KV and objects).
    /// Used for both directions of resync; panics if either side is
    /// unreachable, because the caller already established it is not.
    fn resync(&self, inner: &mut ClientInner, from: &str, to: &str) {
        let kv_snap = match self.exchange(
            inner,
            from,
            Payload::KvReq(KvRequest::Snapshot),
            MAX_ATTEMPTS,
        ) {
            Ok(Payload::KvResp(KvResponse::Snapshot(s))) => s,
            other => panic!("resync: KV snapshot from {from} failed: {other:?}"),
        };
        match self.exchange(
            inner,
            to,
            Payload::KvReq(KvRequest::Restore { snapshot: kv_snap }),
            MAX_ATTEMPTS,
        ) {
            Ok(Payload::KvResp(KvResponse::Unit)) => {}
            other => panic!("resync: KV restore onto {to} failed: {other:?}"),
        }
        let obj_snap = match self.exchange(
            inner,
            from,
            Payload::ObjReq(ObjRequest::Snapshot),
            MAX_ATTEMPTS,
        ) {
            Ok(Payload::ObjResp(ObjResponse::Snapshot(s))) => s,
            other => panic!("resync: object snapshot from {from} failed: {other:?}"),
        };
        match self.exchange(
            inner,
            to,
            Payload::ObjReq(ObjRequest::Restore { snapshot: obj_snap }),
            MAX_ATTEMPTS,
        ) {
            Ok(Payload::ObjResp(ObjResponse::Unit)) => {}
            other => panic!("resync: object restore onto {to} failed: {other:?}"),
        }
        self.metrics.resyncs.inc();
    }

    /// At lease expiry, probe the configured primary: if it answers,
    /// resync it from the replica (it missed every write made under the
    /// lease) and demote the lease; otherwise renew the lease.
    fn maybe_reclaim_primary(&self, inner: &mut ClientInner, shard: usize, window: u64) {
        let Some(until) = inner.shards[shard].lease_until else {
            return;
        };
        if window < until {
            return;
        }
        let primary = inner.shards[shard].primary.clone();
        let replica = inner.shards[shard].replica.clone();
        if self
            .exchange(inner, &primary, Payload::Ping, PROBE_ATTEMPTS)
            .is_ok()
        {
            if inner.shards[shard].primary_stale {
                self.resync(inner, &replica, &primary);
            }
            let st = &mut inner.shards[shard];
            st.lease_until = None;
            st.primary_stale = false;
            st.breaker.record_success();
        } else {
            inner.shards[shard].lease_until = Some(window + LEASE_WINDOWS);
            self.metrics.lease_renewals.inc();
        }
    }

    /// While the primary leads and the replica is stale, probe the
    /// replica once per window and resync it from the primary when it
    /// answers — restoring the "replica holds everything" invariant.
    fn maybe_heal_replica(&self, inner: &mut ClientInner, shard: usize, window: u64) {
        {
            let st = &inner.shards[shard];
            if !st.replica_stale || st.lease_until.is_some() || st.last_heal_window == Some(window)
            {
                return;
            }
        }
        let primary = inner.shards[shard].primary.clone();
        let replica = inner.shards[shard].replica.clone();
        if self
            .exchange(inner, &replica, Payload::Ping, PROBE_ATTEMPTS)
            .is_ok()
        {
            self.resync(inner, &primary, &replica);
            inner.shards[shard].replica_stale = false;
        } else {
            // The replica looks genuinely down: stop probing it until
            // the next window. (A successful probe does not set this,
            // so transient loss heals on the very next operation.)
            inner.shards[shard].last_heal_window = Some(window);
        }
    }

    /// Execute one already-namespaced request on its shard, with
    /// breaker, failover and replication. Never returns an error: the
    /// operation either completes or the client panics because the
    /// fault plan left no healthy replica.
    fn run_on_shard(&self, inner: &mut ClientInner, shard: usize, payload: Payload) -> Payload {
        let window = self.net.window();
        self.maybe_reclaim_primary(inner, shard, window);
        self.maybe_heal_replica(inner, shard, window);
        let is_write = payload_is_write(&payload);
        // The operation span covers every leg — retries, failover,
        // replication — and its context rides the frame header so the
        // server's handling span stitches under it.
        let sp = self.op_span(match &payload {
            Payload::KvReq(_) => "net.kv",
            Payload::ObjReq(_) => "net.obj",
            _ => "net.op",
        });
        let ctx = sp
            .as_ref()
            .and_then(|(guard, trace_id)| guard.context(*trace_id));
        let note = |sp: &Option<(SpanGuard, u64)>, msg: String| {
            if let Some((guard, _)) = sp {
                guard.event(Level::Warn, msg);
            }
        };
        // One logical operation = one seq = one frame, no matter how
        // many hosts or recovery rounds it takes: a host that silently
        // applied it answers every later delivery from its dedup cache.
        inner.seq += 1;
        let seq = inner.seq;
        let frame = encode(&Frame {
            client: self.client_id,
            seq,
            ctx,
            payload,
        });
        let mut last = NetError::FrameLost;
        for _round in 0..RECOVERY_ROUNDS {
            let under_lease = inner.shards[shard]
                .lease_until
                .is_some_and(|until| window < until);
            if !under_lease {
                let now = inner.clock;
                let allowed = inner.shards[shard].breaker.allows(now);
                if allowed {
                    let primary = inner.shards[shard].primary.clone();
                    match self.send_frame(inner, &primary, &frame, seq, MAX_ATTEMPTS) {
                        Ok(resp) => {
                            inner.shards[shard].breaker.record_success();
                            if is_write {
                                let replica = inner.shards[shard].replica.clone();
                                if self
                                    .send_frame(inner, &replica, &frame, seq, MAX_ATTEMPTS)
                                    .is_err()
                                {
                                    inner.shards[shard].replica_stale = true;
                                    note(
                                        &sp,
                                        format!("shard {shard}: replica {replica} missed a write"),
                                    );
                                }
                            }
                            return resp;
                        }
                        Err(e) => {
                            note(
                                &sp,
                                format!(
                                    "shard {shard}: primary {} unreachable ({e:?})",
                                    inner.shards[shard].primary
                                ),
                            );
                            let now = inner.clock;
                            let tripped = inner.shards[shard].breaker.record_fault(
                                now,
                                BREAKER_THRESHOLD,
                                BREAKER_COOLDOWN,
                            );
                            if tripped == BreakerState::Open {
                                self.metrics.breaker_open.inc();
                            }
                        }
                    }
                }
                // Promote the replica under a fresh lease.
                let st = &mut inner.shards[shard];
                assert!(
                    !st.replica_stale,
                    "shard {shard}: primary unreachable and replica stale — \
                     the fault plan makes recovery impossible"
                );
                st.lease_until = Some(window + LEASE_WINDOWS);
                self.metrics.failovers.inc();
                note(
                    &sp,
                    format!(
                        "shard {shard}: failed over to {} under lease until window {}",
                        st.replica,
                        window + LEASE_WINDOWS
                    ),
                );
            }
            // The replica is the acting primary (lease holder).
            if is_write {
                inner.shards[shard].primary_stale = true;
            }
            let replica = inner.shards[shard].replica.clone();
            match self.send_frame(inner, &replica, &frame, seq, MAX_ATTEMPTS) {
                Ok(resp) => return resp,
                Err(e) => last = e,
            }
        }
        panic!(
            "shard {shard}: primary and replica both unreachable ({last:?}) \
             after {RECOVERY_ROUNDS} recovery rounds — the fault plan makes \
             recovery impossible"
        )
    }

    fn run_kv_on_shard(&self, inner: &mut ClientInner, shard: usize, req: KvRequest) -> KvResponse {
        match self.run_on_shard(inner, shard, Payload::KvReq(req)) {
            Payload::KvResp(resp) => resp,
            other => panic!("KV request answered with {other:?}"),
        }
    }

    fn run_obj_on_shard(
        &self,
        inner: &mut ClientInner,
        shard: usize,
        req: ObjRequest,
    ) -> ObjResponse {
        match self.run_on_shard(inner, shard, Payload::ObjReq(req)) {
            Payload::ObjResp(resp) => resp,
            other => panic!("object request answered with {other:?}"),
        }
    }

    /// Route an already-prefixed KV request by its key.
    fn routed_kv(&self, inner: &mut ClientInner, req: KvRequest) -> KvResponse {
        let shard = {
            let key = req.routing_key().expect("routed request has a key");
            let n = inner.shards.len();
            (consistent_hash(key.as_bytes(), ROUTE_SALT) % n as u64) as usize
        };
        self.run_kv_on_shard(inner, shard, req)
    }

    /// Route an already-prefixed object request by its bucket.
    fn routed_obj(&self, inner: &mut ClientInner, req: ObjRequest) -> ObjResponse {
        let shard = {
            let bucket = req.routing_bucket().expect("routed request has a bucket");
            let n = inner.shards.len();
            (consistent_hash(bucket.as_bytes(), ROUTE_SALT) % n as u64) as usize
        };
        self.run_obj_on_shard(inner, shard, req)
    }

    /// All keys in this client's namespace, as stored (prefix intact).
    fn namespace_keys(&self, inner: &mut ClientInner, extra_prefix: &str) -> Vec<String> {
        let prefix = format!("{}{extra_prefix}", self.namespace);
        let mut keys = Vec::new();
        for shard in 0..inner.shards.len() {
            match self.run_kv_on_shard(
                inner,
                shard,
                KvRequest::KeysWithPrefix {
                    prefix: prefix.clone(),
                },
            ) {
                KvResponse::Strs(mut ks) => keys.append(&mut ks),
                other => panic!("keys_with_prefix answered with {other:?}"),
            }
        }
        keys.sort();
        keys
    }

    fn kv_fanout(&self, inner: &mut ClientInner, req: KvRequest) -> KvResponse {
        match req {
            KvRequest::KeysWithPrefix { prefix } => {
                let keys = self.namespace_keys(inner, &prefix);
                KvResponse::Strs(
                    keys.iter()
                        .map(|k| {
                            k.strip_prefix(&self.namespace)
                                .expect("namespace-scanned key carries the prefix")
                                .to_string()
                        })
                        .collect(),
                )
            }
            KvRequest::Len => KvResponse::Uint(self.namespace_keys(inner, "").len() as u64),
            KvRequest::Clear => {
                for key in self.namespace_keys(inner, "") {
                    self.routed_kv(inner, KvRequest::Del { key });
                }
                KvResponse::Unit
            }
            KvRequest::SweepExpired { now, prefix } => {
                // Scoped to this client's namespace: the sweep runs at
                // *this* engine's logical clock and must never evict a
                // co-tenant engine's TTL leases.
                let prefix = format!("{}{prefix}", self.namespace);
                let mut swept = 0;
                for shard in 0..inner.shards.len() {
                    let req = KvRequest::SweepExpired {
                        now,
                        prefix: prefix.clone(),
                    };
                    match self.run_kv_on_shard(inner, shard, req) {
                        KvResponse::Uint(n) => swept += n,
                        other => panic!("sweep_expired answered with {other:?}"),
                    }
                }
                KvResponse::Uint(swept)
            }
            KvRequest::Snapshot => {
                let mut parts = Vec::new();
                for shard in 0..inner.shards.len() {
                    match self.run_kv_on_shard(inner, shard, KvRequest::Snapshot) {
                        KvResponse::Snapshot(s) => parts.push(s),
                        other => panic!("snapshot answered with {other:?}"),
                    }
                }
                KvResponse::Snapshot(KvSnapshot::merged(&parts).strip_prefix(&self.namespace))
            }
            KvRequest::Restore { snapshot } => {
                for key in self.namespace_keys(inner, "") {
                    self.routed_kv(inner, KvRequest::Del { key });
                }
                for req in snapshot.with_prefix(&self.namespace).restore_requests() {
                    self.routed_kv(inner, req);
                }
                KvResponse::Unit
            }
            other => panic!("{other:?} is not a fan-out request"),
        }
    }

    fn obj_fanout_snapshot(&self, inner: &mut ClientInner) -> ObjectSnapshot {
        let mut parts = Vec::new();
        for shard in 0..inner.shards.len() {
            match self.run_obj_on_shard(inner, shard, ObjRequest::Snapshot) {
                ObjResponse::Snapshot(s) => parts.push(s),
                other => panic!("object snapshot answered with {other:?}"),
            }
        }
        ObjectSnapshot::merged(&parts).strip_prefix(&self.namespace)
    }

    fn obj_fanout(&self, inner: &mut ClientInner, req: ObjRequest) -> ObjResponse {
        match req {
            ObjRequest::TotalBytes => {
                // Deployment-wide figure: the mesh is shared, so this
                // sums every namespace — matching what an operator's
                // storage dashboard would show.
                let mut total = 0;
                for shard in 0..inner.shards.len() {
                    match self.run_obj_on_shard(inner, shard, ObjRequest::TotalBytes) {
                        ObjResponse::Uint(n) => total += n,
                        other => panic!("total_bytes answered with {other:?}"),
                    }
                }
                ObjResponse::Uint(total)
            }
            ObjRequest::Snapshot => ObjResponse::Snapshot(self.obj_fanout_snapshot(inner)),
            ObjRequest::Restore { snapshot } => {
                for bucket in self.obj_fanout_snapshot(inner).bucket_names() {
                    self.routed_obj(
                        inner,
                        ObjRequest::DeleteBucket {
                            bucket: format!("{}{bucket}", self.namespace),
                        },
                    );
                }
                for req in snapshot.with_prefix(&self.namespace).restore_requests() {
                    self.routed_obj(inner, req);
                }
                ObjResponse::Unit
            }
            other => panic!("{other:?} is not a fan-out request"),
        }
    }
}

/// Rewrite a routed KV request's key with the namespace prefix.
fn prefix_kv(req: KvRequest, ns: &str) -> KvRequest {
    let p = |key: String| format!("{ns}{key}");
    match req {
        KvRequest::Set { key, value } => KvRequest::Set { key: p(key), value },
        KvRequest::SetWithTtl {
            key,
            value,
            expires_at,
        } => KvRequest::SetWithTtl {
            key: p(key),
            value,
            expires_at,
        },
        KvRequest::Get { key } => KvRequest::Get { key: p(key) },
        KvRequest::Del { key } => KvRequest::Del { key: p(key) },
        KvRequest::Exists { key } => KvRequest::Exists { key: p(key) },
        KvRequest::IncrBy { key, delta } => KvRequest::IncrBy { key: p(key), delta },
        KvRequest::Rpush { key, value } => KvRequest::Rpush { key: p(key), value },
        KvRequest::RpushBatch { key, values } => KvRequest::RpushBatch {
            key: p(key),
            values,
        },
        KvRequest::Lpop { key } => KvRequest::Lpop { key: p(key) },
        KvRequest::LpopBatch { key, n } => KvRequest::LpopBatch { key: p(key), n },
        KvRequest::Llen { key } => KvRequest::Llen { key: p(key) },
        KvRequest::LrangeFrom { key, start } => KvRequest::LrangeFrom { key: p(key), start },
        KvRequest::Hset { key, fields } => KvRequest::Hset {
            key: p(key),
            fields,
        },
        KvRequest::Hget { key, field } => KvRequest::Hget { key: p(key), field },
        KvRequest::Hgetall { key } => KvRequest::Hgetall { key: p(key) },
        other => other,
    }
}

/// Rewrite a routed object request's bucket with the namespace prefix.
fn prefix_obj(req: ObjRequest, ns: &str) -> ObjRequest {
    let p = |bucket: String| format!("{ns}{bucket}");
    match req {
        ObjRequest::Put { bucket, key, data } => ObjRequest::Put {
            bucket: p(bucket),
            key,
            data,
        },
        ObjRequest::Get { bucket, key } => ObjRequest::Get {
            bucket: p(bucket),
            key,
        },
        ObjRequest::Delete { bucket, key } => ObjRequest::Delete {
            bucket: p(bucket),
            key,
        },
        ObjRequest::DeleteBucket { bucket } => ObjRequest::DeleteBucket { bucket: p(bucket) },
        ObjRequest::List { bucket } => ObjRequest::List { bucket: p(bucket) },
        ObjRequest::Count { bucket } => ObjRequest::Count { bucket: p(bucket) },
        other => other,
    }
}

fn payload_is_write(payload: &Payload) -> bool {
    match payload {
        Payload::KvReq(r) => r.is_write(),
        Payload::ObjReq(r) => r.is_write(),
        _ => false,
    }
}

impl RemoteStore for ShardedStoreClient {
    fn kv(&self, req: KvRequest) -> KvResponse {
        let mut inner = self.inner.lock();
        self.metrics.requests.inc();
        if req.routing_key().is_some() {
            let req = prefix_kv(req, &self.namespace);
            self.routed_kv(&mut inner, req)
        } else {
            self.kv_fanout(&mut inner, req)
        }
    }

    fn obj(&self, req: ObjRequest) -> ObjResponse {
        let mut inner = self.inner.lock();
        self.metrics.requests.inc();
        if req.routing_bucket().is_some() {
            let req = prefix_obj(req, &self.namespace);
            self.routed_obj(&mut inner, req)
        } else {
            self.obj_fanout(&mut inner, req)
        }
    }
}

impl std::fmt::Debug for ShardedStoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStoreClient")
            .field("host", &self.host)
            .field("namespace", &self.namespace)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{default_link, SimNet};
    use std::sync::Arc;
    use tero_chaos::{ChaosInjector, FaultPlan, HostKill, NetFault};
    use tero_store::{KvStore, ObjectStore};

    fn mesh(plan: FaultPlan, shards: usize) -> SimNet {
        SimNet::with_shards(default_link(), ChaosInjector::new(plan), shards)
    }

    fn stores(net: &SimNet, engine: usize, shards: usize, seed: u64) -> (KvStore, ObjectStore) {
        let registry = Registry::new();
        let client: Arc<dyn RemoteStore> = Arc::new(ShardedStoreClient::new(
            net.clone(),
            engine,
            shards,
            &registry,
            seed,
        ));
        (KvStore::remote(client.clone()), ObjectStore::remote(client))
    }

    #[test]
    fn quiet_mesh_behaves_like_a_local_store() {
        let net = mesh(FaultPlan::quiet(1), 3);
        let (kv, objects) = stores(&net, 0, 3, 1);
        kv.set("k", "v");
        assert_eq!(kv.get("k").as_deref(), Some("v"));
        assert_eq!(kv.rpush("q", "a"), 1);
        assert_eq!(kv.rpush("q", "b"), 2);
        assert_eq!(kv.lpop("q").as_deref(), Some("a"));
        kv.hset("h", "f", "v");
        assert_eq!(kv.hget("h", "f").as_deref(), Some("v"));
        assert_eq!(kv.incr_by("c", 5), 5);
        assert_eq!(
            kv.keys_with_prefix(""),
            vec!["c".to_string(), "h".into(), "k".into(), "q".into()]
        );
        objects.put("b", "x", vec![1, 2, 3]);
        assert_eq!(
            objects.get("b", "x").map(|b| b.to_vec()),
            Some(vec![1, 2, 3])
        );
        assert_eq!(objects.list("b"), vec!["x".to_string()]);
    }

    #[test]
    fn namespaces_are_disjoint() {
        let net = mesh(FaultPlan::quiet(1), 2);
        let (kv0, _) = stores(&net, 0, 2, 1);
        let (kv1, _) = stores(&net, 1, 2, 2);
        kv0.set("k", "zero");
        kv1.set("k", "one");
        assert_eq!(kv0.get("k").as_deref(), Some("zero"));
        assert_eq!(kv1.get("k").as_deref(), Some("one"));
        assert_eq!(kv0.keys_with_prefix(""), vec!["k".to_string()]);
        // Snapshots are namespace-scoped too.
        assert_eq!(kv0.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_mesh() {
        let net = mesh(FaultPlan::quiet(1), 3);
        let (kv, objects) = stores(&net, 0, 3, 1);
        kv.set("s", "v");
        kv.rpush("l", "a");
        kv.rpush("l", "b");
        kv.hset("h", "f", "v");
        objects.put("b", "k", vec![9]);
        let kv_snap = kv.snapshot();
        let obj_snap = objects.snapshot();
        kv.set("s", "changed");
        kv.rpush("l", "c");
        objects.put("b", "k2", vec![1]);
        kv.restore(&kv_snap);
        objects.restore(&obj_snap);
        assert_eq!(kv.get("s").as_deref(), Some("v"));
        assert_eq!(kv.llen("l"), 2);
        assert_eq!(kv.snapshot(), kv_snap);
        assert_eq!(objects.snapshot(), obj_snap);
    }

    #[test]
    fn writes_replicate_to_the_replica() {
        let net = mesh(FaultPlan::quiet(1), 1);
        let (kv, _) = stores(&net, 0, 1, 1);
        kv.set("k", "v");
        let primary = net.server("shard0p").expect("registered");
        let replica = net.server("shard0r").expect("registered");
        assert_eq!(primary.kv().get("e0:k").as_deref(), Some("v"));
        assert_eq!(replica.kv().get("e0:k").as_deref(), Some("v"));
    }

    #[test]
    fn killed_primary_fails_over_and_resyncs_on_revival() {
        let plan = FaultPlan {
            net: NetFault {
                kills: vec![HostKill {
                    host: "shard0p".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(7)
        };
        let net = mesh(plan, 1);
        let registry = Registry::new();
        let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 3));
        let kv = KvStore::remote(client.clone() as Arc<dyn RemoteStore>);
        kv.set("before", "1");
        // Primary dies; the client must fail over and keep committing.
        net.set_window(1);
        kv.set("during", "2");
        assert_eq!(kv.get("during").as_deref(), Some("2"));
        let snap = registry.snapshot();
        assert!(snap.counter("net.failovers").unwrap() >= 1);
        // The dead primary never saw the write.
        assert!(net
            .server("shard0p")
            .expect("registered")
            .kv()
            .get("e0:during")
            .is_none());
        // Primary revives; lease expires after LEASE_WINDOWS; the next
        // operation reclaims it and resyncs the missed writes.
        net.set_window(3);
        assert_eq!(kv.get("before").as_deref(), Some("1"));
        let snap = registry.snapshot();
        assert!(snap.counter("net.resyncs").unwrap() >= 1);
        assert_eq!(
            net.server("shard0p")
                .expect("registered")
                .kv()
                .get("e0:during")
                .as_deref(),
            Some("2"),
            "revived primary was resynced from the replica"
        );
    }

    #[test]
    fn killed_replica_marks_stale_and_heals() {
        let plan = FaultPlan {
            net: NetFault {
                kills: vec![HostKill {
                    host: "shard0r".into(),
                    from_window: 0,
                    until_window: 1,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(7)
        };
        let net = mesh(plan, 1);
        let registry = Registry::new();
        let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 3));
        let kv = KvStore::remote(client.clone() as Arc<dyn RemoteStore>);
        kv.set("k", "v"); // replica unreachable → stale
        assert!(net
            .server("shard0r")
            .expect("registered")
            .kv()
            .get("e0:k")
            .is_none());
        net.set_window(1); // replica back; next op heals it
        kv.set("k2", "v2");
        assert_eq!(
            net.server("shard0r")
                .expect("registered")
                .kv()
                .get("e0:k")
                .as_deref(),
            Some("v"),
            "healed replica holds the missed write"
        );
        assert!(registry.snapshot().counter("net.resyncs").unwrap() >= 1);
    }

    #[test]
    fn frame_drops_are_retried_exactly_once_semantics() {
        let plan = FaultPlan {
            net: NetFault {
                frame_drop_rate: 0.3,
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(11)
        };
        let net = mesh(plan, 2);
        let (kv, _) = stores(&net, 0, 2, 5);
        // Lossy network, but rpush still lands exactly once each.
        for i in 0..50 {
            kv.rpush("q", format!("{i}"));
        }
        assert_eq!(kv.llen("q"), 50, "every push landed exactly once");
        let got: Vec<String> = kv.lpop_batch("q", 50);
        let want: Vec<String> = (0..50).map(|i| format!("{i}")).collect();
        assert_eq!(got, want, "order preserved despite retries");
    }

    #[test]
    fn net_metrics_replay_identically() {
        let run = || {
            let plan = FaultPlan {
                net: NetFault {
                    frame_drop_rate: 0.2,
                    frame_delay_rate: 0.2,
                    frame_delay: SimDuration::from_millis(3),
                    ..NetFault::quiet()
                },
                ..FaultPlan::quiet(13)
            };
            let net = mesh(plan, 2);
            let registry = Registry::new();
            let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 2, &registry, 9));
            let kv = KvStore::remote(client as Arc<dyn RemoteStore>);
            for i in 0..40 {
                kv.set(&format!("k{i}"), "v");
            }
            let snap = registry.snapshot();
            (
                snap.counter("net.frames"),
                snap.counter("net.retries"),
                snap.counter("net.timeouts"),
                snap.counter("net.bytes"),
            )
        };
        assert_eq!(run(), run(), "same plan and seed → same net.* metrics");
    }
}
