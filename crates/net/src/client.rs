//! The partition-tolerant sharded store client.
//!
//! [`ShardedStoreClient`] is the [`RemoteStore`] implementation an
//! engine's store facade plugs into. Keys and buckets cross the wire as
//! the engine wrote them: every store server keeps one store per client
//! id (see [`crate::server`]), so engines sharing the store mesh never
//! collide. Each logical operation is:
//!
//! 1. **routed** — the key's (or bucket's) [`consistent_hash`] picks one
//!    of the `M` shards; fan-out operations visit every shard, and a
//!    restore sends each shard the part of the snapshot that routes to
//!    it;
//! 2. **executed robustly** — bounded retries with exponential backoff
//!    and deterministic jitter against the shard's *acting* primary,
//!    under a per-shard circuit [`Breaker`]; a response that does not
//!    decode or answers another request counts as a failed attempt;
//! 3. **replicated** — writes land on the primary, then the replica,
//!    so the replica always holds a superset of this client's writes
//!    (the invariant that makes failover and resync lossless);
//! 4. **failed over** — when the primary is unreachable, the client
//!    promotes the replica under a window-TTL lease and keeps
//!    committing; at lease expiry it probes the primary, resyncs it
//!    from the replica (this client's full raw snapshot → restore, which
//!    leaves other clients' state on the primary alone), and demotes the
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
use tero_store::{
    KvRequest, KvResponse, KvSnapshot, ObjRequest, ObjResponse, ObjectSnapshot, RemoteStore,
};
use tero_trace::obs::{CounterHandle, Registry};
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
pub(crate) struct NetMetrics {
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
    /// Lease TTLs extended because the primary stayed dead or could not
    /// be resynced (`net.lease_renewals`).
    pub lease_renewals: CounterHandle,
    /// Full snapshot→restore state copies onto a stale peer
    /// (`net.resyncs`).
    pub resyncs: CounterHandle,
    /// Shard breakers tripped open (`net.breaker_open`).
    pub breaker_open: CounterHandle,
}

impl NetMetrics {
    /// Resolve (and eagerly create) every `net.*` counter.
    pub(crate) fn register(registry: &Registry) -> NetMetrics {
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
        payload: Payload<'_>,
        attempts: u32,
    ) -> Result<Payload<'static>, NetError> {
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
    /// the server's dedup cache, never re-applied. Failed attempts —
    /// a lost frame, or a response that does not decode or carries
    /// another `seq` — charge the deadline plus a deterministic jittered
    /// backoff.
    fn send_frame(
        &self,
        inner: &mut ClientInner,
        to: &str,
        frame: &[u8],
        seq: u64,
        attempts: u32,
    ) -> Result<Payload<'static>, NetError> {
        let mut last = NetError::FrameLost;
        for attempt in 1..=attempts {
            self.metrics.frames.inc();
            self.metrics.bytes.add(frame.len() as u64);
            let (elapsed, result) = self.net.exchange(&self.host, to, frame);
            inner.clock += elapsed;
            match result.and_then(|bytes| response_to(&bytes, seq)) {
                Ok(payload) => return Ok(payload),
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

    /// Copy this client's full raw state on `from` onto `to` (KV and
    /// objects); the servers keep other clients' state apart, so theirs
    /// stays as it is on both hosts. Used for both directions of resync.
    /// Returns whether every leg completed: frame loss can defeat one
    /// exchange's attempts even between hosts the caller just reached,
    /// and a peer whose copy failed stays stale, to be copied again later
    /// (a restore replaces, so a half-done copy does no harm).
    fn resync(&self, inner: &mut ClientInner, from: &str, to: &str) -> bool {
        let snapshots = [
            Payload::KvReq(KvRequest::Snapshot),
            Payload::ObjReq(ObjRequest::Snapshot),
        ];
        for request in snapshots {
            let restore = match self.exchange(inner, from, request, MAX_ATTEMPTS) {
                Ok(Payload::KvResp(KvResponse::Snapshot(snapshot))) => {
                    Payload::KvReq(KvRequest::Restore { snapshot })
                }
                Ok(Payload::ObjResp(ObjResponse::Snapshot(snapshot))) => {
                    Payload::ObjReq(ObjRequest::Restore { snapshot })
                }
                _ => return false,
            };
            if self.exchange(inner, to, restore, MAX_ATTEMPTS).is_err() {
                return false;
            }
        }
        self.metrics.resyncs.inc();
        true
    }

    /// At lease expiry, probe the configured primary: if it answers,
    /// resync it from the replica (it missed every write made under the
    /// lease) and demote the lease; if it does not, or the copy does not
    /// complete, renew the lease.
    fn maybe_reclaim_primary(&self, inner: &mut ClientInner, shard: usize, window: u64) {
        let Some(until) = inner.shards[shard].lease_until else {
            return;
        };
        if window < until {
            return;
        }
        let primary = inner.shards[shard].primary.clone();
        let replica = inner.shards[shard].replica.clone();
        let reclaimed = self
            .exchange(inner, &primary, Payload::Ping, PROBE_ATTEMPTS)
            .is_ok()
            && (!inner.shards[shard].primary_stale || self.resync(inner, &replica, &primary));
        if reclaimed {
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
        let healed = self
            .exchange(inner, &replica, Payload::Ping, PROBE_ATTEMPTS)
            .is_ok()
            && self.resync(inner, &primary, &replica);
        if healed {
            inner.shards[shard].replica_stale = false;
        } else {
            // The replica looks genuinely down, or the copy failed: stop
            // trying until the next window. (A heal that completes does
            // not set this, so transient loss heals on the very next
            // operation.)
            inner.shards[shard].last_heal_window = Some(window);
        }
    }

    /// Execute one request on its shard, with breaker, failover and
    /// replication. Never returns an error: the operation either
    /// completes or the client panics because the fault plan left no
    /// healthy replica.
    fn run_on_shard(
        &self,
        inner: &mut ClientInner,
        shard: usize,
        payload: Payload<'_>,
    ) -> Payload<'static> {
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

    fn run_kv_on_shard(
        &self,
        inner: &mut ClientInner,
        shard: usize,
        req: KvRequest<'_>,
    ) -> KvResponse {
        match self.run_on_shard(inner, shard, Payload::KvReq(req)) {
            Payload::KvResp(resp) => resp,
            other => panic!("KV request answered with {other:?}"),
        }
    }

    fn run_obj_on_shard(
        &self,
        inner: &mut ClientInner,
        shard: usize,
        req: ObjRequest<'_>,
    ) -> ObjResponse {
        match self.run_on_shard(inner, shard, Payload::ObjReq(req)) {
            Payload::ObjResp(resp) => resp,
            other => panic!("object request answered with {other:?}"),
        }
    }

    /// Run a fan-out KV request: the same request on every shard with
    /// the answers folded, except a restore, which sends each shard the
    /// part of the snapshot that routes to it.
    fn kv_fanout(&self, inner: &mut ClientInner, req: KvRequest<'_>) -> KvResponse {
        let n = inner.shards.len();
        if let KvRequest::Restore { snapshot } = req {
            for (shard, part) in snapshot
                .partition(n, |key| route(key, n))
                .into_iter()
                .enumerate()
            {
                self.run_kv_on_shard(inner, shard, KvRequest::Restore { snapshot: part });
            }
            return KvResponse::Unit;
        }
        let (mut keys, mut count, mut parts) = (Vec::new(), 0, Vec::new());
        for shard in 0..n {
            match self.run_kv_on_shard(inner, shard, req.clone()) {
                KvResponse::Strs(mut ks) => keys.append(&mut ks),
                KvResponse::Uint(c) => count += c,
                KvResponse::Snapshot(s) => parts.push(s),
                other => panic!("{req:?} answered with {other:?}"),
            }
        }
        match req {
            KvRequest::KeysWithPrefix { .. } => KvResponse::Strs(keys),
            KvRequest::Snapshot => KvResponse::Snapshot(KvSnapshot::merged(&parts)),
            // `Len` and `SweepExpired` count.
            _ => KvResponse::Uint(count),
        }
    }

    /// [`ShardedStoreClient::kv_fanout`] for objects.
    fn obj_fanout(&self, inner: &mut ClientInner, req: ObjRequest<'_>) -> ObjResponse {
        let n = inner.shards.len();
        if let ObjRequest::Restore { snapshot } = req {
            for (shard, part) in snapshot
                .partition(n, |bucket| route(bucket, n))
                .into_iter()
                .enumerate()
            {
                self.run_obj_on_shard(inner, shard, ObjRequest::Restore { snapshot: part });
            }
            return ObjResponse::Unit;
        }
        let mut parts = Vec::with_capacity(n);
        for shard in 0..n {
            match self.run_obj_on_shard(inner, shard, req.clone()) {
                ObjResponse::Snapshot(s) => parts.push(s),
                other => panic!("{req:?} answered with {other:?}"),
            }
        }
        ObjResponse::Snapshot(ObjectSnapshot::merged(&parts))
    }
}

/// The shard a key or bucket routes to.
fn route(name: &str, shards: usize) -> usize {
    (consistent_hash(name.as_bytes(), ROUTE_SALT) % shards as u64) as usize
}

/// The payload of a response frame to request `seq`, or `FrameLost` for
/// bytes that do not decode or answer another request.
fn response_to(bytes: &[u8], seq: u64) -> Result<Payload<'static>, NetError> {
    match decode(bytes) {
        Ok(resp) if resp.seq == seq => Ok(resp.payload),
        _ => Err(NetError::FrameLost),
    }
}

fn payload_is_write(payload: &Payload<'_>) -> bool {
    match payload {
        Payload::KvReq(r) => r.is_write(),
        Payload::ObjReq(r) => r.is_write(),
        _ => false,
    }
}

impl RemoteStore for ShardedStoreClient {
    fn kv(&self, req: KvRequest<'_>) -> KvResponse {
        let mut inner = self.inner.lock();
        self.metrics.requests.inc();
        let n = inner.shards.len();
        match req.routing_key().map(|key| route(key, n)) {
            Some(shard) => self.run_kv_on_shard(&mut inner, shard, req),
            None => self.kv_fanout(&mut inner, req),
        }
    }

    fn obj(&self, req: ObjRequest<'_>) -> ObjResponse {
        let mut inner = self.inner.lock();
        self.metrics.requests.inc();
        let n = inner.shards.len();
        match req.routing_bucket().map(|bucket| route(bucket, n)) {
            Some(shard) => self.run_obj_on_shard(&mut inner, shard, req),
            None => self.obj_fanout(&mut inner, req),
        }
    }
}

impl std::fmt::Debug for ShardedStoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStoreClient")
            .field("host", &self.host)
            .field("client_id", &self.client_id)
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

    /// `host`'s copy of client `client`'s KV store.
    fn server_kv(net: &SimNet, host: &str, client: u64) -> KvStore {
        net.server(host)
            .expect("registered")
            .kv(client)
            .expect("the client reached the host")
    }

    fn kill(host: &str, from_window: u64, until_window: u64) -> HostKill {
        HostKill {
            host: host.into(),
            from_window,
            until_window,
        }
    }

    fn killing(kills: Vec<HostKill>) -> FaultPlan {
        FaultPlan {
            net: NetFault {
                kills,
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(7)
        }
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
        assert_eq!(kv.len(), 4);
        objects.put("b", "x", vec![1, 2, 3]);
        assert_eq!(
            objects.get("b", "x").map(|b| b.to_vec()),
            Some(vec![1, 2, 3])
        );
        assert_eq!(objects.snapshot().len(), 1);
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
        // Snapshots are the client's own too.
        assert_eq!(kv0.snapshot().len(), 1);
        // A TTL sweep runs at its client's clock: client 0 sweeping late
        // expires its own lease and leaves client 1's.
        kv0.set_with_ttl("lease", "zero", SimTime::from_secs(10));
        kv1.set_with_ttl("lease", "one", SimTime::from_secs(10));
        assert_eq!(kv0.sweep_expired(SimTime::from_secs(1_000)), 1);
        assert!(!kv0.exists("lease"));
        assert_eq!(kv1.get("lease").as_deref(), Some("one"));
        // A restore replaces its client's keys only.
        kv0.restore(&KvSnapshot::default());
        assert!(kv0.is_empty());
        assert_eq!(kv1.keys_with_prefix(""), ["k", "lease"]);
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
        kv.set("added", "later");
        objects.put("b", "k2", vec![1]);
        objects.put("c", "k", vec![2]);
        kv.restore(&kv_snap);
        objects.restore(&obj_snap);
        assert_eq!(kv.get("s").as_deref(), Some("v"));
        assert_eq!(kv.llen("l"), 2);
        assert!(!kv.exists("added"));
        assert_eq!(kv.snapshot(), kv_snap);
        assert_eq!(objects.snapshot(), obj_snap);
    }

    #[test]
    fn writes_replicate_to_the_replica() {
        let net = mesh(FaultPlan::quiet(1), 1);
        let (kv, _) = stores(&net, 0, 1, 1);
        kv.set("k", "v");
        for host in ["shard0p", "shard0r"] {
            assert_eq!(server_kv(&net, host, 0).get("k").as_deref(), Some("v"));
        }
    }

    #[test]
    fn killed_primary_fails_over_and_resyncs_on_revival() {
        let net = mesh(killing(vec![kill("shard0p", 1, 2)]), 1);
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
        assert!(server_kv(&net, "shard0p", 0).get("during").is_none());
        // Primary revives; lease expires after LEASE_WINDOWS; the next
        // operation reclaims it and resyncs the missed writes.
        net.set_window(3);
        assert_eq!(kv.get("before").as_deref(), Some("1"));
        let snap = registry.snapshot();
        assert!(snap.counter("net.resyncs").unwrap() >= 1);
        assert_eq!(
            server_kv(&net, "shard0p", 0).get("during").as_deref(),
            Some("2"),
            "revived primary was resynced from the replica"
        );
    }

    #[test]
    fn killed_replica_marks_stale_and_heals() {
        let net = mesh(killing(vec![kill("shard0r", 0, 1)]), 1);
        let registry = Registry::new();
        let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 3));
        let kv = KvStore::remote(client.clone() as Arc<dyn RemoteStore>);
        kv.set("k", "v"); // replica unreachable → stale
        assert!(net.server("shard0r").expect("registered").kv(0).is_none());
        net.set_window(1); // replica back; next op heals it
        kv.set("k2", "v2");
        assert_eq!(
            server_kv(&net, "shard0r", 0).get("k").as_deref(),
            Some("v"),
            "healed replica holds the missed write"
        );
        assert!(registry.snapshot().counter("net.resyncs").unwrap() >= 1);
    }

    #[test]
    fn one_clients_resync_keeps_another_clients_write() {
        let net = mesh(
            killing(vec![kill("shard0r", 0, 1), kill("shard0p", 1, 3)]),
            1,
        );
        let registry = Registry::new();
        let client0 = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 3));
        let kv0 = KvStore::remote(client0 as Arc<dyn RemoteStore>);
        let (kv1, _) = stores(&net, 1, 1, 4);
        // Window 0: the replica misses client 1's write, so client 1
        // marks it stale.
        kv1.set("k", "v1");
        // Window 1: client 0 writes and fails over to the replica.
        net.set_window(1);
        kv0.set("a", "0");
        assert_eq!(registry.snapshot().counter("net.failovers"), Some(1));
        // Window 3: client 0 writes again and reclaims the primary through
        // a resync from the replica, which never held client 1's write.
        net.set_window(3);
        kv0.set("b", "0");
        assert_eq!(registry.snapshot().counter("net.resyncs"), Some(1));
        assert_eq!(kv1.get("k").as_deref(), Some("v1"));
        assert_eq!(kv0.keys_with_prefix(""), ["a", "b"]);
    }

    #[test]
    fn a_resync_cut_short_by_frame_loss_is_retried_not_fatal() {
        // Under these draws every attempt of one exchange of the reclaim's
        // copy is lost: the copy is abandoned and the lease renewed, and a
        // later copy completes.
        let plan = FaultPlan {
            net: NetFault {
                frame_drop_rate: 0.15,
                ..killing(vec![kill("shard0p", 1, 2)]).net
            },
            ..FaultPlan::quiet(29)
        };
        let net = mesh(plan, 1);
        let registry = Registry::new();
        let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 29));
        let kv = KvStore::remote(client as Arc<dyn RemoteStore>);
        let keys: Vec<String> = (0..6)
            .flat_map(|w| (0..8).map(move |i| format!("k{w}:{i}")))
            .collect();
        for (n, key) in keys.iter().enumerate() {
            net.set_window(n as u64 / 8);
            kv.set(key, "v");
        }
        assert!(keys.iter().all(|key| kv.get(key).as_deref() == Some("v")));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.lease_renewals"), Some(1));
        assert_eq!(snap.counter("net.resyncs"), Some(1));
    }

    #[test]
    fn a_response_that_fails_its_checks_is_a_lost_frame() {
        let frame = |seq| {
            encode(&Frame {
                client: 0,
                seq,
                ctx: None,
                payload: Payload::Pong,
            })
        };
        assert_eq!(response_to(&frame(3), 3), Ok(Payload::Pong));
        assert_eq!(response_to(&frame(2), 3), Err(NetError::FrameLost));
        assert_eq!(response_to(b"TNv2", 3), Err(NetError::FrameLost));
        assert_eq!(response_to(&frame(3)[1..], 3), Err(NetError::FrameLost));
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
        let want: Vec<String> = (0..50).map(|i| format!("{i}")).collect();
        assert_eq!(
            kv.lrange_from("q", 0),
            want,
            "order preserved despite retries"
        );
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
