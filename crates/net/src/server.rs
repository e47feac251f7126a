//! One store shard: a local KV + object store per client behind a frame
//! handler.
//!
//! A [`StoreServer`] is what a `shard{N}p` / `shard{N}r` host runs. It
//! keeps one plain in-process KV store and one object store for each
//! client id, made at that client's first frame, and executes every
//! decoded request against the *sender's* stores through their own
//! [`KvStore::apply`] / [`ObjectStore::apply`] — the one request path
//! every in-process store runs, so server behaviour is the local-store
//! behaviour by construction. Tenancy lives here and nowhere
//! else: keys arrive as the engine wrote them, and a scan, a TTL sweep, a
//! snapshot or a restore reaches the sender's state only — so one
//! client's resync of a peer leaves every other client's state on that
//! peer alone.
//!
//! **Exactly-once:** list mutations (`rpush`, `lpop`) are not
//! idempotent, and the transport may lose a *response* after the server
//! already applied the request. The server therefore remembers, per
//! client, the last `seq` it executed and the encoded response it sent;
//! a frame re-carrying that `seq` is answered from cache without
//! touching the stores. The client bumps `seq` once per logical
//! operation and reuses it on retries, which makes every retry safe.
//!
//! **Hostile bytes:** a frame that does not decode, or that carries a
//! response rather than a request, is answered with nothing — the
//! transport reports it as a lost frame — and touches no client's state.
//! A well-formed write on a key of another type changes nothing and is
//! answered `WrongType`; it is the client's facade that panics on it.
//!
//! **Tracing:** when a tracer is attached via [`StoreServer::set_trace`]
//! and an incoming frame carries a [`TraceContext`], handling is wrapped
//! in a `server.*` span parented (cross-process) to the client's
//! operation span. Dedup replays record a `server.replay` span instead,
//! so a merged mesh trace shows exactly which legs re-executed and which
//! were answered from cache.

use crate::frame::{decode, encode, Frame, Payload};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tero_store::{KvStore, ObjectStore};
use tero_trace::{SpanGuard, TraceContext, Tracer};

/// What a server holds for one client.
#[derive(Default)]
struct Tenant {
    kv: KvStore,
    objects: ObjectStore,
    /// Retry cache: the last seq executed and its encoded response.
    last: Option<(u64, Vec<u8>)>,
}

struct ServerInner {
    name: String,
    /// Client id → that client's stores, made at its first frame.
    tenants: Mutex<HashMap<u64, Tenant>>,
    /// Host-local tracer for `server.*` spans; first `set_trace` wins.
    trace: OnceLock<Tracer>,
}

/// One store shard host. Cloning shares the underlying stores.
#[derive(Clone)]
pub struct StoreServer {
    inner: Arc<ServerInner>,
}

impl StoreServer {
    /// Create a server holding no client's stores, named after its host.
    pub fn new(name: impl Into<String>) -> StoreServer {
        StoreServer {
            inner: Arc::new(ServerInner {
                name: name.into(),
                tenants: Mutex::new(HashMap::new()),
                trace: OnceLock::new(),
            }),
        }
    }

    /// The host name this server answers as.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Direct handle to `client`'s KV store on this shard, or `None`
    /// before that client's first frame (tests and debugging).
    pub fn kv(&self, client: u64) -> Option<KvStore> {
        Some(self.inner.tenants.lock().get(&client)?.kv.clone())
    }

    /// Direct handle to `client`'s object store on this shard, or `None`
    /// before that client's first frame (tests and debugging).
    pub fn objects(&self, client: u64) -> Option<ObjectStore> {
        Some(self.inner.tenants.lock().get(&client)?.objects.clone())
    }

    /// Attach the host's tracer. Frames carrying a [`TraceContext`]
    /// then record `server.*` spans parented to the remote client span.
    /// First call wins, like `Tracer::instrument`.
    pub fn set_trace(&self, tracer: &Tracer) {
        let _ = self.inner.trace.set(tracer.clone());
    }

    /// Open the handling span for `ctx`, if tracing is attached.
    fn span_for(&self, ctx: Option<TraceContext>, name: &str) -> Option<SpanGuard> {
        let ctx = ctx?;
        let tracer = self.inner.trace.get()?;
        Some(tracer.span_remote(name, ctx))
    }

    /// Execute one request frame against the sender's stores and produce
    /// the response frame. A frame that does not decode, or carries a
    /// response, gets no answer (`None`) and changes nothing.
    pub fn handle(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let frame = decode(bytes).ok()?;
        let span = match &frame.payload {
            Payload::KvReq(_) => "server.kv",
            Payload::ObjReq(_) => "server.obj",
            Payload::Ping => "server.ping",
            Payload::KvResp(_) | Payload::ObjResp(_) | Payload::Pong => return None,
        };
        let (kv, objects) = {
            let mut tenants = self.inner.tenants.lock();
            let tenant = tenants.entry(frame.client).or_default();
            if let Some((last_seq, cached)) = &tenant.last {
                if *last_seq == frame.seq {
                    let cached = cached.clone();
                    drop(tenants);
                    let _sp = self.span_for(frame.ctx, "server.replay");
                    return Some(cached);
                }
            }
            (tenant.kv.clone(), tenant.objects.clone())
        };
        let _sp = self.span_for(frame.ctx, span);
        let payload = match frame.payload {
            Payload::KvReq(req) => Payload::KvResp(kv.apply(req)),
            Payload::ObjReq(req) => Payload::ObjResp(objects.apply(req)),
            // A ping: responses were refused above.
            _ => Payload::Pong,
        };
        let out = encode(&Frame {
            client: frame.client,
            seq: frame.seq,
            ctx: None,
            payload,
        });
        if let Some(tenant) = self.inner.tenants.lock().get_mut(&frame.client) {
            tenant.last = Some((frame.seq, out.clone()));
        }
        Some(out)
    }
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("name", &self.inner.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameError, HEADER_LEN};
    use tero_store::{KvRequest, KvResponse, ObjResponse};

    fn frame(client: u64, seq: u64, payload: Payload<'_>) -> Vec<u8> {
        encode(&Frame {
            client,
            seq,
            ctx: None,
            payload,
        })
    }

    fn kv_frame(seq: u64, req: KvRequest<'_>) -> Vec<u8> {
        frame(1, seq, Payload::KvReq(req))
    }

    fn push_q(value: &str) -> KvRequest<'_> {
        KvRequest::Rpush {
            key: "q".into(),
            value: value.into(),
        }
    }

    fn kv_resp(bytes: &[u8]) -> KvResponse {
        match decode(bytes).expect("valid response").payload {
            Payload::KvResp(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn handle(server: &StoreServer, bytes: &[u8]) -> Vec<u8> {
        server.handle(bytes).expect("a request is answered")
    }

    fn llen(server: &StoreServer, client: u64) -> usize {
        server
            .kv(client)
            .expect("the client sent a frame")
            .llen("q")
    }

    #[test]
    fn executes_requests_against_the_senders_stores() {
        let server = StoreServer::new("shard0p");
        assert!(server.kv(1).is_none(), "no frame, no stores");
        let resp = handle(&server, &kv_frame(1, push_q("a")));
        assert_eq!(kv_resp(&resp), KvResponse::Uint(1));
        assert_eq!(llen(&server, 1), 1);
    }

    #[test]
    fn retried_seq_is_answered_from_cache_not_reapplied() {
        let server = StoreServer::new("shard0p");
        let push = kv_frame(7, push_q("a"));
        let first = handle(&server, &push);
        // The response was "lost"; the client retries the same frame.
        let second = handle(&server, &push);
        assert_eq!(first, second, "retry must see the cached response");
        assert_eq!(llen(&server, 1), 1, "mutation applied exactly once");
        // A new seq executes normally again.
        let resp = handle(&server, &kv_frame(8, KvRequest::Lpop { key: "q".into() }));
        assert_eq!(kv_resp(&resp), KvResponse::MaybeStr(Some("a".into())));
    }

    #[test]
    fn clients_are_tenants() {
        let server = StoreServer::new("shard0p");
        handle(&server, &frame(1, 1, Payload::KvReq(push_q("c1"))));
        handle(&server, &frame(2, 1, Payload::KvReq(push_q("c2"))));
        // Same seq, different client: both apply, each to its own list.
        assert_eq!(llen(&server, 1), 1);
        assert_eq!(llen(&server, 2), 1);
        // A restore replaces the sender's store only.
        let snapshot = tero_store::KvSnapshot::default();
        handle(
            &server,
            &frame(1, 2, Payload::KvReq(KvRequest::Restore { snapshot })),
        );
        assert_eq!(llen(&server, 1), 0);
        assert_eq!(llen(&server, 2), 1);
    }

    #[test]
    fn ping_pongs() {
        let server = StoreServer::new("shard0p");
        let resp = handle(&server, &frame(9, 1, Payload::Ping));
        assert_eq!(decode(&resp).expect("pong").payload, Payload::Pong);
    }

    #[test]
    fn hostile_frames_get_no_answer_and_touch_no_store() {
        let server = StoreServer::new("shard0p");
        handle(&server, &kv_frame(1, push_q("a")));
        let before = server.kv(1).expect("client 1's store").snapshot();

        let with_body = |body: &[u8]| {
            let mut bytes = frame(2, 1, Payload::KvReq(KvRequest::Len));
            bytes.truncate(HEADER_LEN);
            bytes[HEADER_LEN - 4..].copy_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(body);
            bytes
        };
        let mut hostile = vec![(
            frame(2, 1, Payload::Ping)[..HEADER_LEN - 1].to_vec(),
            Some(FrameError::Truncated),
        )];
        let mut bad_magic = frame(2, 1, Payload::Ping);
        bad_magic[0] = b'X';
        hostile.push((bad_magic, Some(FrameError::BadMagic)));
        for kind in [6, 7] {
            let mut bytes = frame(2, 1, Payload::Ping);
            bytes[4] = kind;
            hostile.push((bytes, Some(FrameError::BadKind(kind))));
        }
        let mut long = kv_frame(2, KvRequest::Len);
        long.push(b'}');
        hostile.push((long, Some(FrameError::LengthMismatch)));
        hostile.push((with_body(b"not json"), Some(FrameError::BadBody)));
        hostile.push((with_body(&[0xff, 0xfe]), Some(FrameError::BadBody)));
        // Responses sent to a server, one carrying client 1's cached seq.
        for (client, seq, payload) in [
            (1, 1, Payload::KvResp(KvResponse::Unit)),
            (2, 1, Payload::ObjResp(ObjResponse::Unit)),
            (2, 1, Payload::Pong),
        ] {
            hostile.push((frame(client, seq, payload), None));
        }

        for (bytes, error) in &hostile {
            if let Some(error) = error {
                assert_eq!(decode(bytes).as_ref().err(), Some(error));
            }
            assert_eq!(server.handle(bytes), None, "{error:?} was answered");
        }
        assert_eq!(server.kv(1).expect("still there").snapshot(), before);
        assert!(server.kv(2).is_none(), "a hostile frame made a tenant");

        // Client 1's retry cache still answers its last request.
        assert_eq!(
            kv_resp(&handle(&server, &kv_frame(1, push_q("a")))),
            KvResponse::Uint(1)
        );
        // Well-formed writes on a key of another type: answered, not a
        // panic, and nothing changes. `q` is a list; `s` holds "abc".
        handle(
            &server,
            &kv_frame(
                2,
                KvRequest::Set {
                    key: "s".into(),
                    value: "abc".into(),
                },
            ),
        );
        let before = server.kv(1).expect("client 1's store").snapshot();
        let confused = [
            KvRequest::Rpush {
                key: "s".into(),
                value: "x".into(),
            },
            KvRequest::RpushBatch {
                key: "s".into(),
                values: vec!["x".into()],
            },
            KvRequest::Hset {
                key: "q".into(),
                fields: vec![("f".into(), "v".into())],
            },
            KvRequest::IncrBy {
                key: "s".into(),
                delta: 1,
            },
            KvRequest::IncrBy {
                key: "q".into(),
                delta: 1,
            },
        ];
        for (seq, req) in (3..).zip(confused) {
            let answer = kv_resp(&handle(&server, &kv_frame(seq, req)));
            assert_eq!(answer, KvResponse::WrongType);
        }
        assert_eq!(server.kv(1).expect("still there").snapshot(), before);
    }

    #[test]
    fn traced_frames_record_server_spans() {
        let server = StoreServer::new("shard0p");
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        server.set_trace(&tracer);
        let ctx = TraceContext {
            trace_id: 0xabc,
            span: 0x123,
            tick: 5,
        };
        let push = encode(&Frame {
            client: 1,
            seq: 1,
            ctx: Some(ctx),
            payload: Payload::KvReq(push_q("a")),
        });
        handle(&server, &push);
        handle(&server, &push); // retry → replay span
        let (spans, _) = tracer.records();
        let names: Vec<&str> = spans.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["server.kv", "server.replay"]);
        assert!(spans.iter().all(|s| s.parent == ctx.span));
        assert!(spans.iter().all(|s| s.remote == Some(ctx)));
    }
}
