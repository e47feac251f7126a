//! One store shard: a local KV + object store behind a frame handler.
//!
//! A [`StoreServer`] is what a `shard{N}p` / `shard{N}r` host runs. It
//! owns plain in-process stores and executes decoded requests through
//! [`tero_store::apply_kv`] / [`tero_store::apply_obj`] — the same
//! executors a loopback test double uses, so server behaviour is the
//! local-store behaviour by construction.
//!
//! **Exactly-once:** list mutations (`rpush`, `lpop`) are not
//! idempotent, and the transport may lose a *response* after the server
//! already applied the request. The server therefore remembers, per
//! client, the last `seq` it executed and the encoded response it sent;
//! a frame re-carrying that `seq` is answered from cache without
//! touching the stores. The client bumps `seq` once per logical
//! operation and reuses it on retries, which makes every retry safe.
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
use tero_store::{apply_kv, apply_obj, KvStore, ObjectStore};
use tero_trace::{SpanGuard, TraceContext, Tracer};

struct ServerInner {
    name: String,
    kv: KvStore,
    objects: ObjectStore,
    /// Per-client retry cache: client id → (last seq, encoded response).
    dedup: Mutex<HashMap<u64, (u64, Vec<u8>)>>,
    /// Host-local tracer for `server.*` spans; first `set_trace` wins.
    trace: OnceLock<Tracer>,
}

/// One store shard host. Cloning shares the underlying stores.
#[derive(Clone)]
pub struct StoreServer {
    inner: Arc<ServerInner>,
}

impl StoreServer {
    /// Create a server with empty stores, named after its host.
    pub fn new(name: impl Into<String>) -> StoreServer {
        StoreServer {
            inner: Arc::new(ServerInner {
                name: name.into(),
                kv: KvStore::new(),
                objects: ObjectStore::new(),
                dedup: Mutex::new(HashMap::new()),
                trace: OnceLock::new(),
            }),
        }
    }

    /// The host name this server answers as.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Direct handle to the shard's KV store (tests and debugging).
    pub fn kv(&self) -> &KvStore {
        &self.inner.kv
    }

    /// Direct handle to the shard's object store (tests and debugging).
    pub fn objects(&self) -> &ObjectStore {
        &self.inner.objects
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

    /// Execute one request frame and produce the response frame.
    ///
    /// Panics on malformed frames: inside the simulation the only frame
    /// producer is [`crate::client`], so corruption is a programming
    /// error, not an operational condition.
    pub fn handle(&self, bytes: &[u8]) -> Vec<u8> {
        let frame = decode(bytes).expect("server received malformed frame");
        {
            let dedup = self.inner.dedup.lock();
            if let Some((last_seq, cached)) = dedup.get(&frame.client) {
                if *last_seq == frame.seq {
                    let cached = cached.clone();
                    drop(dedup);
                    let _sp = self.span_for(frame.ctx, "server.replay");
                    return cached;
                }
            }
        }
        let _sp = self.span_for(
            frame.ctx,
            match &frame.payload {
                Payload::KvReq(_) => "server.kv",
                Payload::ObjReq(_) => "server.obj",
                _ => "server.ping",
            },
        );
        let payload = match frame.payload {
            Payload::KvReq(req) => Payload::KvResp(apply_kv(&self.inner.kv, req)),
            Payload::ObjReq(req) => Payload::ObjResp(apply_obj(&self.inner.objects, req)),
            Payload::Ping => Payload::Pong,
            other => panic!("server received non-request frame {other:?}"),
        };
        let out = encode(&Frame {
            client: frame.client,
            seq: frame.seq,
            ctx: None,
            payload,
        });
        self.inner
            .dedup
            .lock()
            .insert(frame.client, (frame.seq, out.clone()));
        out
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
    use tero_store::{KvRequest, KvResponse};

    fn kv_frame(seq: u64, req: KvRequest) -> Vec<u8> {
        encode(&Frame {
            client: 1,
            seq,
            ctx: None,
            payload: Payload::KvReq(req),
        })
    }

    fn kv_resp(bytes: &[u8]) -> KvResponse {
        match decode(bytes).expect("valid response").payload {
            Payload::KvResp(r) => r,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn executes_requests_against_local_stores() {
        let server = StoreServer::new("shard0p");
        let resp = server.handle(&kv_frame(
            1,
            KvRequest::Rpush {
                key: "q".into(),
                value: "a".into(),
            },
        ));
        assert_eq!(kv_resp(&resp), KvResponse::Uint(1));
        assert_eq!(server.kv().llen("q"), 1);
    }

    #[test]
    fn retried_seq_is_answered_from_cache_not_reapplied() {
        let server = StoreServer::new("shard0p");
        let push = kv_frame(
            7,
            KvRequest::Rpush {
                key: "q".into(),
                value: "a".into(),
            },
        );
        let first = server.handle(&push);
        // The response was "lost"; the client retries the same frame.
        let second = server.handle(&push);
        assert_eq!(first, second, "retry must see the cached response");
        assert_eq!(server.kv().llen("q"), 1, "mutation applied exactly once");
        // A new seq executes normally again.
        let resp = server.handle(&kv_frame(8, KvRequest::Lpop { key: "q".into() }));
        assert_eq!(kv_resp(&resp), KvResponse::MaybeStr(Some("a".into())));
    }

    #[test]
    fn dedup_is_per_client() {
        let server = StoreServer::new("shard0p");
        let mk = |client: u64| {
            encode(&Frame {
                client,
                seq: 1,
                ctx: None,
                payload: Payload::KvReq(KvRequest::Rpush {
                    key: "q".into(),
                    value: format!("c{client}"),
                }),
            })
        };
        server.handle(&mk(1));
        server.handle(&mk(2));
        assert_eq!(server.kv().llen("q"), 2, "distinct clients both apply");
    }

    #[test]
    fn ping_pongs() {
        let server = StoreServer::new("shard0p");
        let resp = server.handle(&encode(&Frame {
            client: 9,
            seq: 1,
            ctx: None,
            payload: Payload::Ping,
        }));
        assert_eq!(decode(&resp).expect("pong").payload, Payload::Pong);
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
            payload: Payload::KvReq(KvRequest::Rpush {
                key: "q".into(),
                value: "a".into(),
            }),
        });
        server.handle(&push);
        server.handle(&push); // retry → replay span
        let (spans, _) = tracer.records();
        let names: Vec<&str> = spans.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["server.kv", "server.replay"]);
        assert!(spans.iter().all(|s| s.parent == ctx.span));
        assert!(spans.iter().all(|s| s.remote == Some(ctx)));
    }
}
