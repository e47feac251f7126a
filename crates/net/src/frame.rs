//! Length-prefixed wire framing.
//!
//! Every message on the store network is one frame:
//!
//! ```text
//! +-------+------+-----------+---------+----------------------------+----------+------------+
//! | magic | kind | client_id |   seq   | trace_id | span  |  tick   | body_len |    body    |
//! | 4 B   | 1 B  |  8 B LE   | 8 B LE  |  8 B LE  | 8 B LE| 8 B LE  | 4 B LE   | body_len B |
//! +-------+------+-----------+---------+----------------------------+----------+------------+
//! ```
//!
//! The body is the JSON encoding of the typed request/response (empty
//! for `PING`/`PONG`). JSON keeps the codec trivially debuggable; the
//! length prefix is what the transport meters (RESP-style, the framing
//! Redis clients use) and what a real socket implementation would read.
//!
//! `(client_id, seq)` make retries safe: the client bumps `seq` once per
//! logical operation and reuses it verbatim on every retry, and the
//! server caches its last response per client, so a retried mutation
//! (`rpush`, `lpop`, …) is answered from cache instead of re-applied.
//!
//! The three trace words carry a [`TraceContext`] — the client's trace
//! id, in-flight operation span id, and logical tick — so server-side
//! handling spans stitch under the client's span tree across the
//! process boundary. All-zero words mean "no context" (`trace_id` 0 is
//! reserved, and span ids are never 0); tracing-disabled runs pay three
//! zero words per frame and nothing else.

use serde::{Deserialize, Serialize};
use tero_store::{KvRequest, KvResponse, ObjRequest, ObjResponse};
use tero_trace::TraceContext;

/// Frame magic: "TN" + protocol version 2 (v2 added the trace words).
pub const MAGIC: [u8; 4] = *b"TNv2";

/// Fixed header size in bytes (magic + kind + client + seq + trace
/// context + body_len).
pub const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 24 + 4;

/// The typed content of a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<'a> {
    /// A KV operation (client → server).
    KvReq(KvRequest<'a>),
    /// A KV result (server → client).
    KvResp(KvResponse),
    /// An object operation (client → server).
    ObjReq(ObjRequest<'a>),
    /// An object result (server → client).
    ObjResp(ObjResponse),
    /// Liveness probe (client → server), used by failover to decide
    /// whether a primary has come back.
    Ping,
    /// Probe answer (server → client).
    Pong,
}

impl Payload<'_> {
    fn kind(&self) -> u8 {
        match self {
            Payload::KvReq(_) => 0,
            Payload::KvResp(_) => 1,
            Payload::ObjReq(_) => 2,
            Payload::ObjResp(_) => 3,
            Payload::Ping => 4,
            Payload::Pong => 5,
        }
    }
}

/// One framed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<'a> {
    /// Stable identity of the sending client (engine index).
    pub client: u64,
    /// Per-client operation sequence number; retries reuse it.
    pub seq: u64,
    /// Trace context of the in-flight client operation, if tracing is
    /// on. Retries reuse the encoded frame verbatim, so every leg of
    /// one logical operation carries the same context.
    pub ctx: Option<TraceContext>,
    /// Typed content.
    pub payload: Payload<'a>,
}

/// Why a byte string failed to parse as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header.
    Truncated,
    /// The magic did not match [`MAGIC`].
    BadMagic,
    /// Unknown kind byte.
    BadKind(u8),
    /// `body_len` disagrees with the bytes actually present.
    LengthMismatch,
    /// The body failed to decode as the kind's JSON type.
    BadBody,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::LengthMismatch => write!(f, "frame length prefix mismatch"),
            FrameError::BadBody => write!(f, "frame body failed to decode"),
        }
    }
}

fn body_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("wire types always serialize")
}

fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(body).map_err(|_| FrameError::BadBody)?;
    serde_json::from_str(text).map_err(|_| FrameError::BadBody)
}

/// Encode a frame to wire bytes.
pub fn encode(frame: &Frame<'_>) -> Vec<u8> {
    let body = match &frame.payload {
        Payload::KvReq(r) => body_json(r),
        Payload::KvResp(r) => body_json(r),
        Payload::ObjReq(r) => body_json(r),
        Payload::ObjResp(r) => body_json(r),
        Payload::Ping | Payload::Pong => String::new(),
    };
    let body = body.into_bytes();
    let ctx = frame.ctx.unwrap_or(TraceContext {
        trace_id: 0,
        span: 0,
        tick: 0,
    });
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(frame.payload.kind());
    out.extend_from_slice(&frame.client.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
    out.extend_from_slice(&ctx.span.to_le_bytes());
    out.extend_from_slice(&ctx.tick.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode wire bytes back into a frame, which owns its strings.
pub fn decode(bytes: &[u8]) -> Result<Frame<'static>, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = bytes[4];
    let client = u64::from_le_bytes(bytes[5..13].try_into().expect("sized"));
    let seq = u64::from_le_bytes(bytes[13..21].try_into().expect("sized"));
    let trace_id = u64::from_le_bytes(bytes[21..29].try_into().expect("sized"));
    let span = u64::from_le_bytes(bytes[29..37].try_into().expect("sized"));
    let tick = u64::from_le_bytes(bytes[37..45].try_into().expect("sized"));
    let ctx = (trace_id != 0).then_some(TraceContext {
        trace_id,
        span,
        tick,
    });
    let body_len = u32::from_le_bytes(bytes[45..49].try_into().expect("sized")) as usize;
    let body = &bytes[HEADER_LEN..];
    if body.len() != body_len {
        return Err(FrameError::LengthMismatch);
    }
    let payload = match kind {
        0 => Payload::KvReq(parse_body(body)?),
        1 => Payload::KvResp(parse_body(body)?),
        2 => Payload::ObjReq(parse_body(body)?),
        3 => Payload::ObjResp(parse_body(body)?),
        4 => Payload::Ping,
        5 => Payload::Pong,
        k => return Err(FrameError::BadKind(k)),
    };
    Ok(Frame {
        client,
        seq,
        ctx,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_store::{KvStore, ObjectStore};
    use tero_types::SimTime;

    fn round_trip(payload: Payload<'_>) {
        let frame = Frame {
            client: 3,
            seq: 99,
            ctx: None,
            payload,
        };
        let bytes = encode(&frame);
        assert_eq!(decode(&bytes).expect("round trip"), frame);
    }

    #[test]
    fn trace_context_rides_the_header() {
        let ctx = TraceContext {
            trace_id: 0x9e37_79b9,
            span: 0xdead_beef,
            tick: 42,
        };
        let frame = Frame {
            client: 1,
            seq: 7,
            ctx: Some(ctx),
            payload: Payload::KvReq(KvRequest::Len),
        };
        let bytes = encode(&frame);
        assert_eq!(decode(&bytes).expect("round trip"), frame);
        // An absent context encodes as all-zero words and decodes back
        // to None — v2 frames are the same length either way.
        let bare = Frame { ctx: None, ..frame };
        let bare_bytes = encode(&bare);
        assert_eq!(bare_bytes.len(), bytes.len());
        assert_eq!(decode(&bare_bytes).expect("round trip").ctx, None);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Payload::Ping);
        round_trip(Payload::Pong);
        round_trip(Payload::KvReq(KvRequest::Set {
            key: "engine:cursor".into(),
            value: "42".into(),
        }));
        round_trip(Payload::KvReq(KvRequest::RpushBatch {
            key: "queue:thumbs".into(),
            values: vec!["a".into(), "b".into()],
        }));
        round_trip(Payload::KvReq(KvRequest::Hset {
            key: "engine:counters".into(),
            fields: vec![("a.b".into(), "1".into()), ("c.d".into(), "22".into())],
        }));
        round_trip(Payload::KvReq(KvRequest::Hset {
            key: "h".into(),
            fields: vec![],
        }));
        round_trip(Payload::KvResp(KvResponse::MaybeStr(Some("v".into()))));
        round_trip(Payload::KvResp(KvResponse::Pairs(vec![(
            "f".into(),
            "v".into(),
        )])));
        round_trip(Payload::ObjReq(ObjRequest::Put {
            bucket: "thumbs".into(),
            key: "s1/0".into(),
            data: vec![0, 1, 254, 255],
        }));
        round_trip(Payload::ObjResp(ObjResponse::MaybeBytes(Some(
            vec![7; 32].into(),
        ))));
    }

    /// One frame body for every request and response variant, pinned as
    /// bytes: a change to the wire shows here first.
    #[test]
    fn wire_bodies_are_pinned() {
        use KvRequest as K;
        use KvResponse as KR;
        use ObjRequest as O;
        use ObjResponse as OR;
        let kv = KvStore::new();
        kv.set("k", "v");
        kv.set_with_ttl("lease", "x", SimTime::from_secs(30));
        kv.rpush("q", "a");
        kv.hset("h", "f", "1");
        let objects = ObjectStore::new();
        objects.put("thumbs", "s/0", vec![0u8, 7, 255]);
        let (kv_snap, obj_snap) = (kv.snapshot(), objects.snapshot());
        let kvs = r#"{"entries":[{"key":"h","value":{"Hash":[["f","1"]]},"expires_at":null},{"key":"k","value":{"Str":"v"},"expires_at":null},{"key":"lease","value":{"Str":"x"},"expires_at":30000000},{"key":"q","value":{"List":["a"]},"expires_at":null}]}"#;
        let objs = r#"{"objects":[["thumbs","s/0",[0,7,255]]]}"#;
        let (k, q, h, t, s0) = (
            || "k".into(),
            || "q".into(),
            || "h".into(),
            || "thumbs".into(),
            || "s/0".into(),
        );
        #[rustfmt::skip]
        let pinned: Vec<(Payload, String)> = vec![
            (Payload::KvReq(K::Set { key: k(), value: r#"v "q""#.into() }), r#"{"Set":{"key":"k","value":"v \"q\""}}"#.into()),
            (Payload::KvReq(K::SetWithTtl { key: "lease".into(), value: "x".into(), expires_at: SimTime::from_secs(30) }), r#"{"SetWithTtl":{"key":"lease","value":"x","expires_at":30000000}}"#.into()),
            (Payload::KvReq(K::Get { key: k() }), r#"{"Get":{"key":"k"}}"#.into()),
            (Payload::KvReq(K::Del { key: k() }), r#"{"Del":{"key":"k"}}"#.into()),
            (Payload::KvReq(K::Exists { key: k() }), r#"{"Exists":{"key":"k"}}"#.into()),
            (Payload::KvReq(K::IncrBy { key: "c".into(), delta: -3 }), r#"{"IncrBy":{"key":"c","delta":-3}}"#.into()),
            (Payload::KvReq(K::Rpush { key: q(), value: "a".into() }), r#"{"Rpush":{"key":"q","value":"a"}}"#.into()),
            (Payload::KvReq(K::RpushBatch { key: q(), values: vec!["b".into(), "c".into()] }), r#"{"RpushBatch":{"key":"q","values":["b","c"]}}"#.into()),
            (Payload::KvReq(K::Lpop { key: q() }), r#"{"Lpop":{"key":"q"}}"#.into()),
            (Payload::KvReq(K::Llen { key: q() }), r#"{"Llen":{"key":"q"}}"#.into()),
            (Payload::KvReq(K::LrangeFrom { key: q(), start: 1 }), r#"{"LrangeFrom":{"key":"q","start":1}}"#.into()),
            (Payload::KvReq(K::Hset { key: h(), fields: vec![("f".into(), "1".into()), ("g".into(), "2".into())] }), r#"{"Hset":{"key":"h","fields":[["f","1"],["g","2"]]}}"#.into()),
            (Payload::KvReq(K::Hget { key: h(), field: "f".into() }), r#"{"Hget":{"key":"h","field":"f"}}"#.into()),
            (Payload::KvReq(K::Hgetall { key: h() }), r#"{"Hgetall":{"key":"h"}}"#.into()),
            (Payload::KvReq(K::KeysWithPrefix { prefix: "engine:".into() }), r#"{"KeysWithPrefix":{"prefix":"engine:"}}"#.into()),
            (Payload::KvReq(K::SweepExpired { now: SimTime::from_secs(60) }), r#"{"SweepExpired":{"now":60000000}}"#.into()),
            (Payload::KvReq(K::Len), r#""Len""#.into()),
            (Payload::KvReq(K::Snapshot), r#""Snapshot""#.into()),
            (Payload::KvReq(K::Restore { snapshot: kv_snap.clone() }), format!(r#"{{"Restore":{{"snapshot":{kvs}}}}}"#)),
            (Payload::KvResp(KR::Unit), r#""Unit""#.into()),
            (Payload::KvResp(KR::Bool(true)), r#"{"Bool":true}"#.into()),
            (Payload::KvResp(KR::Int(-3)), r#"{"Int":-3}"#.into()),
            (Payload::KvResp(KR::Uint(2)), r#"{"Uint":2}"#.into()),
            (Payload::KvResp(KR::MaybeStr(Some("v".into()))), r#"{"MaybeStr":"v"}"#.into()),
            (Payload::KvResp(KR::MaybeStr(None)), r#"{"MaybeStr":null}"#.into()),
            (Payload::KvResp(KR::Strs(vec!["a".into(), "b".into()])), r#"{"Strs":["a","b"]}"#.into()),
            (Payload::KvResp(KR::Pairs(vec![("f".into(), "1".into())])), r#"{"Pairs":[["f","1"]]}"#.into()),
            (Payload::KvResp(KR::Snapshot(kv_snap)), format!(r#"{{"Snapshot":{kvs}}}"#)),
            // New since the pin was taken: no frame carried it before.
            (Payload::KvResp(KR::WrongType), r#""WrongType""#.into()),
            (Payload::ObjReq(O::Put { bucket: t(), key: s0(), data: vec![0, 7, 255] }), r#"{"Put":{"bucket":"thumbs","key":"s/0","data":[0,7,255]}}"#.into()),
            (Payload::ObjReq(O::Get { bucket: t(), key: s0() }), r#"{"Get":{"bucket":"thumbs","key":"s/0"}}"#.into()),
            (Payload::ObjReq(O::Delete { bucket: t(), key: s0() }), r#"{"Delete":{"bucket":"thumbs","key":"s/0"}}"#.into()),
            (Payload::ObjReq(O::Snapshot), r#""Snapshot""#.into()),
            (Payload::ObjReq(O::Restore { snapshot: obj_snap.clone() }), format!(r#"{{"Restore":{{"snapshot":{objs}}}}}"#)),
            (Payload::ObjResp(OR::Unit), r#""Unit""#.into()),
            (Payload::ObjResp(OR::Bool(false)), r#"{"Bool":false}"#.into()),
            (Payload::ObjResp(OR::MaybeBytes(Some(vec![0, 7, 255].into()))), r#"{"MaybeBytes":[0,7,255]}"#.into()),
            (Payload::ObjResp(OR::MaybeBytes(None)), r#"{"MaybeBytes":null}"#.into()),
            (Payload::ObjResp(OR::Snapshot(obj_snap)), format!(r#"{{"Snapshot":{objs}}}"#)),
        ];
        for (payload, body) in pinned {
            let frame = Frame {
                client: 1,
                seq: 2,
                ctx: None,
                payload,
            };
            let bytes = encode(&frame);
            assert_eq!(&bytes[HEADER_LEN..], body.as_bytes(), "{:?}", frame.payload);
            assert_eq!(decode(&bytes).expect("round trip"), frame);
        }
    }

    #[test]
    fn snapshots_cross_the_wire() {
        let kv = KvStore::new();
        kv.set("k", "v");
        kv.rpush("list", "x");
        kv.hset("h", "f", "v");
        round_trip(Payload::KvResp(KvResponse::Snapshot(kv.snapshot())));
        let objects = ObjectStore::new();
        objects.put("b", "k", vec![1, 2, 3]);
        round_trip(Payload::ObjResp(ObjResponse::Snapshot(objects.snapshot())));
    }

    #[test]
    fn hset_field_list_applies_in_order() {
        let kv = KvStore::new();
        let hset = |fields: &[(&str, &str)]| {
            let req = KvRequest::Hset {
                key: "h".into(),
                fields: fields
                    .iter()
                    .map(|(f, v)| (f.to_string(), v.to_string()))
                    .collect(),
            };
            assert!(req.is_write());
            assert_eq!(req.routing_key(), Some("h"));
            // Through the wire form, as a server receives it.
            let frame = Frame {
                client: 1,
                seq: 1,
                ctx: None,
                payload: Payload::KvReq(req),
            };
            match decode(&encode(&frame)).expect("round trip").payload {
                Payload::KvReq(req) => assert_eq!(kv.apply(req), KvResponse::Unit),
                other => panic!("decoded {other:?}"),
            }
        };
        // An empty list is a no-op: it does not even create the hash.
        hset(&[]);
        assert!(!kv.exists("h"));
        // A repeated field keeps its last value.
        hset(&[("a", "1"), ("b", "2"), ("a", "3")]);
        let mut pairs: Vec<_> = kv.hgetall("h").into_iter().collect();
        pairs.sort();
        assert_eq!(
            pairs,
            [("a", "3"), ("b", "2")].map(|(f, v)| (f.to_string(), v.to_string()))
        );
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert_eq!(decode(b"TNv2"), Err(FrameError::Truncated));
        let frame = Frame {
            client: 0,
            seq: 1,
            ctx: None,
            payload: Payload::Ping,
        };
        let mut bytes = encode(&frame);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(FrameError::BadMagic));
        // A v1 frame (old magic) is rejected, not misparsed.
        let mut bytes = encode(&frame);
        bytes[3] = b'1';
        assert_eq!(decode(&bytes), Err(FrameError::BadMagic));
        for kind in [6, 200] {
            let mut bytes = encode(&frame);
            bytes[4] = kind;
            assert_eq!(decode(&bytes), Err(FrameError::BadKind(kind)));
        }
        let mut bytes = encode(&frame);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(FrameError::LengthMismatch));
        let mut bytes = encode(&Frame {
            client: 0,
            seq: 1,
            ctx: None,
            payload: Payload::KvReq(KvRequest::Len),
        });
        let len = bytes.len();
        bytes[len - 1] = b'!';
        assert_eq!(decode(&bytes), Err(FrameError::BadBody));
    }

    #[test]
    fn a_body_of_open_brackets_is_a_bad_body_not_a_stack_overflow() {
        // A peer's bytes reach the JSON parser, which recurses per
        // nesting level: a valid header in front of a megabyte of `[`
        // used to abort the process.
        let mut bytes = encode(&Frame {
            client: 0,
            seq: 1,
            ctx: None,
            payload: Payload::KvReq(KvRequest::Len),
        });
        bytes.truncate(HEADER_LEN);
        let body = vec![b'['; 1_000_000];
        bytes[HEADER_LEN - 4..].copy_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(decode(&bytes), Err(FrameError::BadBody));
    }
}
