//! Wire-level tests for the serve front-end: binary frame round-trips
//! (property-based), malformed-input robustness over live TCP (truncated
//! frames, oversized lengths, bad magic, NaN/inf features), typed-ERR
//! recovery on the text protocol, and mixed text+binary clients against
//! one server — every verb, both protocols, one oracle.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_serve::frame::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, reply_type, req_type,
    write_frame, Frame, FrameError, WireReply, HEADER_LEN, MAGIC, MAX_PAYLOAD,
};
use fg_serve::{protocol, serve, Engine, ServeConfig, ServerHandle, PARTIAL_MESSAGE_DEADLINE};
use fg_tensor::Dense2;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Live-server harness
// ---------------------------------------------------------------------------

fn spawn_server(cfg: ServeConfig) -> ServerHandle {
    let task = SbmTask::generate(200, 3, 6, 2, 7);
    let engine = Arc::new(Engine::new(cfg));
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
    engine.register_model("gcn", model, task.graph.clone(), task.features.clone());
    serve(engine, "127.0.0.1:0").expect("bind loopback")
}

fn connect(h: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(h.addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Send one already-encoded binary frame, read one reply frame.
fn binary_call(stream: &mut TcpStream, frame_bytes: &[u8]) -> Result<WireReply, FrameError> {
    write_frame(stream, frame_bytes).expect("write frame");
    let f = read_frame(stream, false)?;
    decode_reply(&f)
}

/// Hand-roll a complete frame (header + payload) around arbitrary bytes.
fn raw_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(ty);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Property-based frame round-trips
// ---------------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = protocol::Request> {
    let infer = (
        0usize..4,
        0usize..10_000,
        0usize..3,
        (0usize..2, 0u64..100_000),
    )
        .prop_map(
            |(m, node, id_kind, (has_dl, dl))| protocol::Request::Infer {
                model: model_name(m),
                node,
                id: request_id(id_kind),
                deadline_ms: (has_dl == 1).then_some(dl),
            },
        );
    let infer_seeds = (
        0usize..4,
        proptest::collection::vec(0usize..10_000, 1..20),
        (0usize..2, proptest::collection::vec(0usize..64, 1..4)),
        0u64..u64::MAX,
        0usize..3,
        0usize..4, // feature columns; 0 = no feats
    )
        .prop_map(
            |(m, seeds, (has_fanout, fanout), sample_seed, id_kind, feat_cols)| {
                let fanouts = (has_fanout == 1).then_some(fanout);
                let feats = (feat_cols > 0).then(|| {
                    Dense2::from_fn(seeds.len(), feat_cols, |r, c| {
                        (r as f32 - 1.5) * 0.25 + c as f32 * 7.5 - seeds[r] as f32
                    })
                });
                protocol::Request::InferSeeds {
                    model: model_name(m),
                    seeds,
                    fanouts,
                    sample_seed,
                    feats,
                    id: request_id(id_kind),
                    deadline_ms: None,
                }
            },
        );
    let plain = (0usize..5, 0usize..500).prop_map(|(k, limit)| match k {
        0 => protocol::Request::Metrics,
        1 => protocol::Request::Ping,
        2 => protocol::Request::SlowLog { limit: None },
        3 => protocol::Request::SlowLog { limit: Some(limit) },
        _ => protocol::Request::Shutdown,
    });
    prop_oneof![infer, infer_seeds, plain]
}

fn model_name(k: usize) -> String {
    ["gcn", "graphsage", "gat", "m"][k % 4].to_string()
}

fn request_id(kind: usize) -> Option<String> {
    match kind {
        0 => None,
        1 => Some("c0-r17".to_string()),
        // Worst-case id content: spaces would break a text protocol; the
        // binary one must carry them verbatim.
        _ => Some("id with spaces \u{00e9}".to_string()),
    }
}

/// The text protocol splits on whitespace, so an id must be one token; the
/// binary protocol carries anything.
fn text_safe(mut req: protocol::Request) -> protocol::Request {
    if let protocol::Request::Infer { id, .. } | protocol::Request::InferSeeds { id, .. } = &mut req
    {
        *id = id.take().map(|id| id.replace(' ', "_"));
    }
    req
}

fn arb_reply() -> impl Strategy<Value = WireReply> {
    let logits = proptest::collection::vec(-100.0f32..100.0, 0..8);
    let ok = (0usize..8, logits).prop_map(|(class, logits)| WireReply::Ok {
        id: "c1-r2".to_string(),
        resp: fg_serve::InferResponse { class, logits },
    });
    let err = (0usize..3).prop_map(|k| WireReply::Err {
        id: "x".to_string(),
        code: ["overloaded", "timeout", "bad-request"][k].to_string(),
        detail: if k == 2 {
            "nope".to_string()
        } else {
            String::new()
        },
    });
    let seeds = (
        proptest::collection::vec(0usize..10_000, 0..6),
        0usize..500,
        0usize..5_000,
    )
        .prop_map(|(seeds, sub_vertices, sub_edges)| {
            let results = seeds
                .iter()
                .map(|&s| fg_serve::InferResponse {
                    class: s % 3,
                    logits: vec![s as f32, -(s as f32), 0.0],
                })
                .collect();
            WireReply::Seeds {
                id: "s".to_string(),
                seeds,
                resp: fg_serve::SeedsResponse {
                    results,
                    sub_vertices,
                    sub_edges,
                },
            }
        });
    let text = proptest::collection::vec(0u32..128, 0..200)
        .prop_map(|codes| WireReply::Text(codes.into_iter().filter_map(char::from_u32).collect()));
    prop_oneof![
        ok,
        err,
        seeds,
        text,
        Just(WireReply::Pong),
        Just(WireReply::Bye)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips_through_binary_frames(req in arb_request()) {
        let bytes = encode_request(&req);
        // Re-read through the streaming path, magic included.
        let mut cursor: &[u8] = &bytes;
        let f = read_frame(&mut cursor, false).expect("read back");
        prop_assert!(cursor.is_empty(), "no trailing bytes");
        let decoded = decode_request(&f).expect("decode");
        prop_assert_eq!(decoded, req);
    }

    /// The text twin of the binary round-trip: `format_request` is the
    /// inverse of `parse_request` (for ids the text protocol can carry).
    #[test]
    fn request_roundtrips_through_text_lines(req in arb_request().prop_map(text_safe)) {
        let line = protocol::format_request(&req);
        prop_assert!(!line.contains('\n'), "one request, one line");
        prop_assert_eq!(protocol::parse_request(&line), Ok(req));
    }

    #[test]
    fn reply_roundtrips_through_binary_frames(reply in arb_reply()) {
        let bytes = encode_reply(&reply);
        let mut cursor: &[u8] = &bytes;
        let f = read_frame(&mut cursor, false).expect("read back");
        prop_assert!(cursor.is_empty());
        let decoded = decode_reply(&f).expect("decode");
        prop_assert_eq!(decoded, reply);
    }

    #[test]
    fn truncated_frames_never_panic(req in arb_request(), cut in 0usize..64) {
        let bytes = encode_request(&req);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let mut cursor = &bytes[..cut];
        // Any prefix must surface as an error (Io/unexpected-eof or a
        // malformed header), never a panic or a bogus success.
        prop_assert!(read_frame(&mut cursor, false).is_err());
    }

    #[test]
    fn corrupted_payloads_never_panic(req in arb_request(), flip in 0usize..1024, val in 0u32..256) {
        let mut bytes = encode_request(&req);
        if bytes.len() > HEADER_LEN {
            let idx = HEADER_LEN + flip % (bytes.len() - HEADER_LEN);
            bytes[idx] = val as u8;
            let mut cursor: &[u8] = &bytes;
            // Either it still parses (the flip hit a don't-care byte or made
            // another valid value) or it errors cleanly; both are fine, only
            // a panic would fail this test.
            if let Ok(f) = read_frame(&mut cursor, false) {
                let _ = decode_request(&f);
            }
        }
    }
}

/// Zero-dim feature tensors: a seeds request whose feats block has 0 columns.
#[test]
fn zero_dim_feature_tensor_roundtrips() {
    let req = protocol::Request::InferSeeds {
        model: "gcn".into(),
        seeds: vec![1, 2, 3],
        fanouts: None,
        sample_seed: 0,
        feats: Some(Dense2::from_fn(3, 0, |_, _| 0.0)),
        id: None,
        deadline_ms: None,
    };
    let bytes = encode_request(&req);
    let mut cursor: &[u8] = &bytes;
    let f = read_frame(&mut cursor, false).unwrap();
    assert_eq!(decode_request(&f).unwrap(), req);
}

/// An empty seeds reply (no per-seed rows) survives the round-trip.
#[test]
fn empty_seed_reply_roundtrips() {
    let reply = WireReply::Seeds {
        id: "e".into(),
        seeds: vec![],
        resp: fg_serve::SeedsResponse {
            results: vec![],
            sub_vertices: 0,
            sub_edges: 0,
        },
    };
    let bytes = encode_reply(&reply);
    let mut cursor: &[u8] = &bytes;
    let f = read_frame(&mut cursor, false).unwrap();
    assert_eq!(decode_reply(&f).unwrap(), reply);
}

/// Payload length exactly at the cap parses; one past it is rejected before
/// any allocation happens.
#[test]
fn payload_length_boundaries() {
    // A header claiming MAX_PAYLOAD bytes is structurally valid; reading it
    // from a short stream must fail with Io (eof), NOT Oversized.
    let mut hdr = Vec::with_capacity(HEADER_LEN);
    hdr.extend_from_slice(&MAGIC);
    hdr.push(req_type::PING);
    hdr.push(0);
    hdr.extend_from_slice(&0u16.to_le_bytes());
    hdr.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let mut cursor: &[u8] = &hdr;
    match read_frame(&mut cursor, false) {
        Err(FrameError::Io(_)) => {}
        other => panic!("at-cap length must pass the size check, got {other:?}"),
    }

    // One past the cap must be rejected from the header alone.
    let mut hdr = Vec::with_capacity(HEADER_LEN);
    hdr.extend_from_slice(&MAGIC);
    hdr.push(req_type::PING);
    hdr.push(0);
    hdr.extend_from_slice(&0u16.to_le_bytes());
    hdr.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut cursor: &[u8] = &hdr;
    match read_frame(&mut cursor, false) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("past-cap length must be Oversized, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Live-server malformed-input sweep
// ---------------------------------------------------------------------------

/// Malformed text lines get a typed ERR and the connection stays usable.
#[test]
fn text_malformed_lines_keep_connection_alive() {
    let h = spawn_server(ServeConfig::default());
    let mut s = connect(&h);
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();

    for bad in [
        "INFER",                         // missing args
        "INFER gcn notanumber",          // bad node
        "INFER gcn 5 deadline_ms=abc",   // bad option value
        "INFER_SEEDS gcn",               // missing seeds
        "INFER_SEEDS gcn 1,2 fanout=x",  // bad fanout
        "INFER_SEEDS gcn 1,2 feats=a,b", // non-numeric feats
        "INFER_SEEDS gcn 1 feats=NaN",   // non-finite feats
        "INFER_SEEDS gcn 1 feats=inf",   // non-finite feats
        "INFER_SEEDS gcn 1,2 feats=0.5", // feats rows != seeds
        "INFER_SEEDS gcn 1,2 fanout=4",  // fewer hops than the model has layers
        "BOGUS_VERB 1 2 3",              // unknown verb
    ] {
        writeln!(s, "{bad}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("ERR"),
            "{bad:?} must get a typed ERR, got {line:?}"
        );
    }

    // The same connection still serves a well-formed request.
    writeln!(s, "INFER gcn 5 id=alive").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("OK alive"),
        "connection must survive malformed lines, got {line:?}"
    );
    h.shutdown();
}

/// Malformed binary payloads inside intact frames get a typed ERR and the
/// connection stays usable; broken framing closes it.
#[test]
fn binary_malformed_payloads_keep_connection_alive() {
    let h = spawn_server(ServeConfig::default());
    let mut s = connect(&h);

    // Unknown request type: intact frame, bogus type byte.
    let reply = binary_call(&mut s, &raw_frame(0x7F, &[])).expect("reply to unknown type");
    match reply {
        WireReply::Err { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected ERR, got {other:?}"),
    }

    // Truncated INFER payload (empty body, no fields).
    let reply =
        binary_call(&mut s, &raw_frame(req_type::INFER, &[])).expect("reply to truncated payload");
    assert!(matches!(reply, WireReply::Err { .. }));

    // NaN client feats: intact frame, rejected at decode with a typed ERR.
    let mut feats = Dense2::from_fn(1, 2, |_, _| 1.0);
    feats.row_mut(0)[1] = f32::NAN;
    let req = protocol::Request::InferSeeds {
        model: "gcn".into(),
        seeds: vec![3],
        fanouts: None,
        sample_seed: 0,
        feats: Some(feats),
        id: Some("nan".into()),
        deadline_ms: None,
    };
    let frame_bytes = encode_request(&req);
    s.write_all(&frame_bytes).unwrap();
    let f = read_frame(&mut s, false).expect("reply frame");
    match decode_reply(&f).unwrap() {
        WireReply::Err { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("NaN feats must be rejected, got {other:?}"),
    }

    // Infinite feats likewise.
    let mut feats = Dense2::from_fn(1, 2, |_, _| 1.0);
    feats.row_mut(0)[0] = f32::INFINITY;
    let req = protocol::Request::InferSeeds {
        model: "gcn".into(),
        seeds: vec![3],
        fanouts: None,
        sample_seed: 0,
        feats: Some(feats),
        id: Some("inf".into()),
        deadline_ms: None,
    };
    s.write_all(&encode_request(&req)).unwrap();
    let f = read_frame(&mut s, false).expect("reply frame");
    assert!(matches!(decode_reply(&f).unwrap(), WireReply::Err { .. }));

    // Feats dtype code 2 is unassigned (it named IEEE binary16 storage):
    // an intact INFER_SEEDS frame that uses it is rejected at decode, while
    // the same frame on code 3 (bf16) is answered.
    let width = SbmTask::generate(200, 3, 6, 2, 7).in_dim() as u32;
    let seeds_frame = |code: u8| {
        let mut p = Vec::new();
        p.extend_from_slice(&3u32.to_le_bytes());
        p.extend_from_slice(b"gcn");
        p.extend_from_slice(&1u32.to_le_bytes()); // one seed
        p.extend_from_slice(&3u64.to_le_bytes());
        p.push(0); // no fanouts
        p.extend_from_slice(&0u64.to_le_bytes()); // sample_seed
        p.push(code); // feats dtype
        p.extend_from_slice(&1u32.to_le_bytes()); // rows
        p.extend_from_slice(&width.to_le_bytes()); // cols
        for _ in 0..width {
            p.extend_from_slice(&0x3f80u16.to_le_bytes()); // 1.0 in bf16
        }
        p.extend_from_slice(&4u32.to_le_bytes());
        p.extend_from_slice(b"half"); // id
        p.push(0); // no deadline
        raw_frame(req_type::INFER_SEEDS, &p)
    };
    match binary_call(&mut s, &seeds_frame(2)).expect("reply to code 2") {
        WireReply::Err { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("feats dtype code 2 must be rejected, got {other:?}"),
    }
    match binary_call(&mut s, &seeds_frame(3)).expect("reply to code 3") {
        WireReply::Seeds { id, .. } => assert_eq!(id, "half"),
        other => panic!("bf16 feats must be answered, got {other:?}"),
    }

    // A fanout list with fewer hops than the model has layers would answer
    // from a truncated neighborhood: rejected at admission, id echoed.
    let req = protocol::Request::InferSeeds {
        model: "gcn".into(),
        seeds: vec![3],
        fanouts: Some(vec![4]),
        sample_seed: 0,
        feats: None,
        id: Some("short".into()),
        deadline_ms: None,
    };
    match binary_call(&mut s, &encode_request(&req)).expect("reply to short fanout") {
        WireReply::Err { id, code, .. } => {
            assert_eq!((id.as_str(), code.as_str()), ("short", "bad-request"))
        }
        other => panic!("short fanout list must be rejected, got {other:?}"),
    }

    // The same connection still answers a good request.
    let req = protocol::Request::Infer {
        model: "gcn".into(),
        node: 7,
        id: Some("alive".into()),
        deadline_ms: None,
    };
    s.write_all(&encode_request(&req)).unwrap();
    let f = read_frame(&mut s, false).expect("reply frame");
    match decode_reply(&f).unwrap() {
        WireReply::Ok { id, .. } => assert_eq!(id, "alive"),
        other => panic!("connection must survive bad payloads, got {other:?}"),
    }
    h.shutdown();
}

/// `SHARDS` is not a verb and frame type 0x06 is unassigned: each is
/// answered like any other unknown input, counted as a bad line or a bad
/// frame, and leaves its connection serving. The request types after 0x06
/// keep their codes.
#[test]
fn shards_verb_and_frame_type_0x06_are_unknown_input() {
    assert_eq!(
        (req_type::SLOWLOG, req_type::PING, req_type::SHUTDOWN),
        (0x07, 0x08, 0x09)
    );
    let h = spawn_server(ServeConfig::default());
    let mut text = connect(&h);
    let mut reader = BufReader::new(text.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(text, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    assert_eq!(ask("SHARDS"), "ERR - bad-request unknown verb \"SHARDS\"\n");
    assert_eq!(ask("FROB"), "ERR - bad-request unknown verb \"FROB\"\n");
    assert_eq!(ask("PING"), "PONG\n");

    let mut bin = connect(&h);
    let reply = binary_call(&mut bin, &raw_frame(0x06, &[])).unwrap();
    let unknown_type = WireReply::Err {
        id: "-".into(),
        code: "bad-request".into(),
        detail: "unknown frame type 0x06".into(),
    };
    assert_eq!(reply, unknown_type);
    let ping = encode_request(&protocol::Request::Ping);
    assert_eq!(binary_call(&mut bin, &ping).unwrap(), WireReply::Pong);

    let metrics = h.engine().metrics_text();
    for needle in [
        "fgserve_conn_bad_lines_total 2\n",
        "fgserve_conn_bad_frames_total 1\n",
    ] {
        assert!(metrics.contains(needle), "{needle:?}\n---\n{metrics}");
    }
    h.shutdown();
}

/// Every serving number is exported by `METRICS`: `STATS` and `MEMORY` are
/// unknown verbs, and their old frame types 0x03 and 0x05 are unknown
/// frame types. Each is a bad-request reply that leaves its connection
/// serving.
#[test]
fn stats_and_memory_verbs_are_gone() {
    let h = spawn_server(ServeConfig::default());
    let mut text = connect(&h);
    let mut reader = BufReader::new(text.try_clone().unwrap());
    for verb in ["STATS", "MEMORY", "PING"] {
        writeln!(text, "{verb}").unwrap();
        let want = match verb {
            "PING" => "PONG\n".to_string(),
            _ => format!("ERR - bad-request unknown verb \"{verb}\"\n"),
        };
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, want);
    }

    let mut bin = connect(&h);
    for ty in [0x03u8, 0x05] {
        let reply = binary_call(&mut bin, &raw_frame(ty, &[])).unwrap();
        let want = WireReply::Err {
            id: "-".into(),
            code: "bad-request".into(),
            detail: format!("unknown frame type {ty:#04x}"),
        };
        assert_eq!(reply, want);
    }
    let ping = encode_request(&protocol::Request::Ping);
    assert_eq!(binary_call(&mut bin, &ping).unwrap(), WireReply::Pong);
    h.shutdown();
}

/// Oversized length prefixes and bad magic mid-stream are framing breaks:
/// the server replies ERR (best effort) and closes the connection.
#[test]
fn binary_framing_breaks_close_connection() {
    let h = spawn_server(ServeConfig::default());

    // Oversized declared length.
    {
        let mut s = connect(&h);
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC);
        hdr.push(req_type::PING);
        hdr.push(0);
        hdr.extend_from_slice(&0u16.to_le_bytes());
        hdr.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        s.write_all(&hdr).unwrap();
        // The server must close; reads drain any best-effort ERR then EOF.
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("server closes cleanly");
    }

    // Bad magic mid-stream (first frame good, second frame garbage).
    {
        let mut s = connect(&h);
        let ping = encode_request(&protocol::Request::Ping);
        s.write_all(&ping).unwrap();
        let f = read_frame(&mut s, false).unwrap();
        assert!(matches!(decode_reply(&f).unwrap(), WireReply::Pong));
        s.write_all(b"XXXXGARBAGEGARBAGE").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("server closes on bad magic");
    }

    // Nonzero reserved bytes are a framing break too.
    {
        let mut s = connect(&h);
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC);
        hdr.push(req_type::PING);
        hdr.push(0);
        hdr.extend_from_slice(&0xBEEFu16.to_le_bytes());
        hdr.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&hdr).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf)
            .expect("server closes on reserved bytes");
    }

    // The server survives all of that and still answers new connections.
    let mut s = connect(&h);
    let reply = binary_call(&mut s, &encode_request(&protocol::Request::Ping)).unwrap();
    assert!(matches!(reply, WireReply::Pong));
    h.shutdown();
}

/// One request over a text connection and over a binary one.
fn ask_both(
    text: &mut TcpStream,
    text_reader: &mut BufReader<TcpStream>,
    bin: &mut TcpStream,
    req: &protocol::Request,
) -> (WireReply, WireReply) {
    writeln!(text, "{}", protocol::format_request(req)).unwrap();
    let over_text = protocol::read_reply(text_reader)
        .expect("text reply parses")
        .expect("text reply before EOF");
    let over_binary = binary_call(bin, &encode_request(req)).expect("binary reply");
    (over_text, over_binary)
}

/// A text-blob body with every number masked: what two scrapes taken a
/// moment apart (RSS, uptime, latency quantiles move) must still share.
fn masked(reply: &WireReply) -> String {
    let WireReply::Text(body) = reply else {
        panic!("expected a text body, got {reply:?}");
    };
    let mut out = String::new();
    for c in body.chars() {
        let c = if c.is_ascii_digit() || c == '.' {
            '#'
        } else {
            c
        };
        if !(c == '#' && out.ends_with('#')) {
            out.push(c);
        }
    }
    out
}

/// Every verb, both protocols, one oracle: a text and a binary connection
/// to the same server yield equal `WireReply`s for every `Request` shape —
/// successes, every admission error, the report verbs — and `INFER n` equals
/// full-fanout `INFER_SEEDS n` bitwise. `SHUTDOWN` ends one server over
/// text and another over binary.
#[test]
fn mixed_text_and_binary_clients_agree() {
    use protocol::Request;
    let infer = |model: &str, node: usize, id: &str| Request::Infer {
        model: model.into(),
        node,
        id: Some(id.into()),
        deadline_ms: None,
    };
    let seeds =
        |seeds: &[usize], fanouts: Option<Vec<usize>>, feats: Option<Dense2<f32>>, id: &str| {
            Request::InferSeeds {
                model: "gcn".into(),
                seeds: seeds.to_vec(),
                fanouts,
                sample_seed: 5,
                feats,
                id: Some(id.into()),
                deadline_ms: Some(10_000),
            }
        };
    // Feature width of `spawn_server`'s task (classes + noise dims).
    let width = SbmTask::generate(200, 3, 6, 2, 7).in_dim();
    let mut shutdown_replies = Vec::new();
    for binary_shutdown in [false, true] {
        let h = spawn_server(ServeConfig {
            slow_ms: Some(0.0),
            ..ServeConfig::default()
        });
        let mut text = connect(&h);
        let mut text_reader = BufReader::new(text.try_clone().unwrap());
        let mut bin = connect(&h);
        let mut both = |req: &Request| ask_both(&mut text, &mut text_reader, &mut bin, req);

        // Replies that must be equal down to the last bit.
        let exact = [
            infer("gcn", 11, "ok"),
            Request::Infer {
                model: "gcn".into(),
                node: 11,
                id: None,
                deadline_ms: Some(10_000),
            },
            seeds(&[3, 7, 150], None, None, "full"),
            seeds(&[3, 3], Some(vec![2, 2]), None, "capped"),
            seeds(
                &[9, 4],
                Some(vec![3, 3]),
                Some(Dense2::from_fn(2, width, |r, c| {
                    (r * 3 + c) as f32 * 0.125 - 1.0
                })),
                "feats",
            ),
            infer("nope", 0, "unknown-model"),
            infer("gcn", 999_999, "node-range"),
            seeds(&[1, 999_999], None, None, "seed-range"),
            seeds(
                &[1, 2],
                None,
                Some(Dense2::from_fn(2, width + 1, |_, _| 0.5)),
                "feats-width",
            ),
            seeds(&[1], Some(vec![4]), None, "short-fanout"),
            Request::Ping,
            Request::SlowLog { limit: Some(2) },
            Request::SlowLog { limit: None },
        ];
        for req in &exact {
            let (over_text, over_binary) = both(req);
            assert_eq!(over_text, over_binary, "{req:?}");
            // The error cases really are errors, with the id echoed.
            if let Request::Infer { id: Some(id), .. } | Request::InferSeeds { id: Some(id), .. } =
                req
            {
                let want_err = id.contains('-');
                match &over_text {
                    WireReply::Err { id: got, code, .. } => {
                        assert!(want_err, "{id}: unexpected ERR {code}");
                        assert_eq!(got, id);
                        assert!(
                            code == "bad-request" || code == "unknown-model",
                            "{id}: {code}"
                        );
                    }
                    other => assert!(!want_err, "{id}: expected ERR, got {other:?}"),
                }
            }
        }
        // The METRICS body carries clocks and gauges: same lines, same keys.
        let (over_text, over_binary) = both(&Request::Metrics);
        assert_eq!(masked(&over_text), masked(&over_binary));

        // Cross-route: INFER n == full-fanout INFER_SEEDS n, bitwise.
        for node in [0usize, 11, 199] {
            let (single, _) = both(&infer("gcn", node, "n"));
            let (seeded, _) = both(&seeds(&[node], None, None, "s"));
            match (single, seeded) {
                (
                    WireReply::Ok { resp, .. },
                    WireReply::Seeds {
                        seeds,
                        resp: seeded,
                        ..
                    },
                ) => {
                    assert_eq!(seeds, [node]);
                    assert_eq!(seeded.results, [resp], "node {node}");
                }
                other => panic!("node {node}: {other:?}"),
            }
        }

        let bye = if binary_shutdown {
            binary_call(&mut bin, &encode_request(&Request::Shutdown)).unwrap()
        } else {
            writeln!(text, "SHUTDOWN").unwrap();
            protocol::read_reply(&mut text_reader).unwrap().unwrap()
        };
        shutdown_replies.push(bye);
        h.join();
    }
    assert_eq!(shutdown_replies, [WireReply::Bye, WireReply::Bye]);
}

/// One `INFER_SEEDS … feats=` request over the text protocol, written 1–7
/// bytes at a time like a slow client, and over binary frames: the text
/// scanner's floats are the frame's floats, so the logits agree bit for bit
/// and the subgraph header matches. The values mix the scanner's fast path
/// (plain decimals) with its fallbacks (`1e-30`, `1e20` print with more
/// digits than it converts exactly, `-0` keeps its sign).
#[test]
fn trickled_text_feats_equal_binary_frames() {
    let h = spawn_server(ServeConfig::default());
    let width = SbmTask::generate(200, 3, 6, 2, 7).in_dim();
    let feats = Dense2::from_fn(4, width, |r, c| match (r * width + c) % 9 {
        0 => 1e-30,
        1 => -1e20,
        2 => -0.0,
        k => ((r * 31 + c * 7) as f32).sin() * 10f32.powi(k as i32 - 5),
    });
    let req = protocol::Request::InferSeeds {
        model: "gcn".into(),
        seeds: vec![5, 17, 42, 199],
        fanouts: Some(vec![3, 3]),
        sample_seed: 9,
        feats: Some(feats),
        id: Some("slow".into()),
        deadline_ms: None,
    };
    let line = protocol::format_request(&req) + "\n";
    let mut text = connect(&h);
    let (mut at, mut step) = (0, 0);
    while at < line.len() {
        let n = (1 + step % 7).min(line.len() - at);
        text.write_all(&line.as_bytes()[at..at + n]).unwrap();
        (at, step) = (at + n, step + 1);
    }
    let over_text = protocol::read_reply(&mut BufReader::new(text))
        .expect("text reply parses")
        .expect("text reply before EOF");
    let over_binary = binary_call(&mut connect(&h), &encode_request(&req)).expect("binary reply");
    let (
        WireReply::Seeds { id, seeds, resp },
        WireReply::Seeds {
            id: bin_id,
            seeds: bin_seeds,
            resp: bin_resp,
        },
    ) = (&over_text, &over_binary)
    else {
        panic!("{over_text:?} / {over_binary:?}");
    };
    assert_eq!((id, seeds), (bin_id, bin_seeds));
    assert_eq!(
        (resp.sub_vertices, resp.sub_edges),
        (bin_resp.sub_vertices, bin_resp.sub_edges)
    );
    let bits = |r: &fg_serve::SeedsResponse| -> Vec<(usize, Vec<u32>)> {
        let row =
            |x: &fg_serve::InferResponse| (x.class, x.logits.iter().map(|v| v.to_bits()).collect());
        r.results.iter().map(row).collect()
    };
    assert_eq!(bits(resp), bits(bin_resp));
    h.shutdown();
}

/// The serialize phase means the same thing on both protocols: the reply
/// write of an inference verb. Health checks and scrapes do not feed it.
#[test]
fn serialize_phase_counts_inference_replies_only() {
    let h = spawn_server(ServeConfig::default());
    let serialized = || h.engine().stats().phase(fg_serve::Phase::Serialize).count;
    let mut bin = connect(&h);
    for _ in 0..5 {
        let pong = binary_call(&mut bin, &encode_request(&protocol::Request::Ping)).unwrap();
        assert_eq!(pong, WireReply::Pong);
    }
    let metrics = binary_call(&mut bin, &encode_request(&protocol::Request::Metrics)).unwrap();
    assert!(matches!(metrics, WireReply::Text(_)));
    assert_eq!(
        serialized(),
        0,
        "PING/METRICS must not record serialize samples"
    );

    let req = protocol::Request::Infer {
        model: "gcn".into(),
        node: 3,
        id: None,
        deadline_ms: None,
    };
    let reply = binary_call(&mut bin, &encode_request(&req)).unwrap();
    assert!(matches!(reply, WireReply::Ok { .. }));
    // The sample lands after the reply is written; the next round trip on
    // the same connection orders this read after it.
    binary_call(&mut bin, &encode_request(&protocol::Request::Ping)).unwrap();
    assert_eq!(serialized(), 1, "one binary INFER, one serialize sample");
    h.shutdown();
}

/// Connection metrics flow end to end: accepted/protocol counters show up
/// in the METRICS exposition after traffic on both protocols.
#[test]
fn conn_metrics_count_protocols() {
    let h = spawn_server(ServeConfig::default());

    let mut text = connect(&h);
    let mut reader = BufReader::new(text.try_clone().unwrap());
    writeln!(text, "PING").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG");

    let mut bin = connect(&h);
    bin.write_all(&encode_request(&protocol::Request::Ping))
        .unwrap();
    let f = read_frame(&mut bin, false).unwrap();
    assert!(matches!(decode_reply(&f).unwrap(), WireReply::Pong));

    // Provoke one bad line and one bad frame so failure counters move.
    writeln!(text, "NOT_A_VERB").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR"));
    let bad = binary_call(&mut bin, &raw_frame(0x7F, &[])).unwrap();
    assert!(matches!(bad, WireReply::Err { .. }));

    writeln!(text, "METRICS").unwrap();
    let mut body = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        body.push_str(&line);
        if line.trim_end() == "# EOF" {
            break;
        }
    }
    for needle in [
        "fgserve_conn_accepted_total 2",
        "fgserve_conn_protocol_total{protocol=\"binary\"} 1",
        "fgserve_conn_protocol_total{protocol=\"text\"} 1",
        "fgserve_conn_bad_lines_total 1",
        "fgserve_conn_bad_frames_total 1",
        "fgserve_conn_active 2",
    ] {
        assert!(
            body.contains(needle),
            "metrics must contain {needle:?}\n---\n{body}"
        );
    }
    h.shutdown();
}

/// Admission control: connections beyond --max-conns are shed at accept and
/// counted; earlier connections keep working.
#[test]
fn admission_control_sheds_excess_connections() {
    let h = spawn_server(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });

    let mut a = connect(&h);
    let mut ra = BufReader::new(a.try_clone().unwrap());
    let mut line = String::new();
    writeln!(a, "PING").unwrap();
    ra.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG");

    let mut b = connect(&h);
    let mut rb = BufReader::new(b.try_clone().unwrap());
    line.clear();
    writeln!(b, "PING").unwrap();
    rb.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG");

    // Third connection: accepted by the OS, shed by admission — the server
    // closes it without servicing anything (EOF, or RST if our PING raced
    // the close).
    let mut c = connect(&h);
    let mut buf = Vec::new();
    let _ = writeln!(c, "PING");
    match c.read_to_end(&mut buf) {
        Ok(_) => assert!(buf.is_empty(), "shed connection must not be serviced"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    // Existing connections still work, and the shed is counted.
    line.clear();
    writeln!(a, "METRICS").unwrap();
    let mut body = String::new();
    loop {
        line.clear();
        if ra.read_line(&mut line).unwrap() == 0 {
            break;
        }
        body.push_str(&line);
        if line.trim_end() == "# EOF" {
            break;
        }
    }
    assert!(
        body.contains("fgserve_conn_admission_shed_total{reason=\"max-conns\"} 1"),
        "shed must be counted\n---\n{body}"
    );
    h.shutdown();
}

/// Stopping the server ends every connection, whatever it was doing: idle
/// on either protocol, or part-way through a frame. Each client reads EOF,
/// and once `shutdown` returns no thread that held the engine is left.
#[test]
fn shutdown_ends_idle_and_half_sent_connections() {
    let h = spawn_server(ServeConfig::default());
    let engine = Arc::clone(h.engine());

    let mut text = connect(&h);
    writeln!(text, "PING").unwrap();
    let mut pong = [0u8; 5];
    text.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"PONG\n");

    let mut binary = connect(&h);
    let ping = encode_request(&protocol::Request::Ping);
    assert!(matches!(
        binary_call(&mut binary, &ping).unwrap(),
        WireReply::Pong
    ));

    let mut half = connect(&h);
    half.write_all(&ping[..HEADER_LEN / 2]).unwrap();
    // `half` gets no reply to wait on; its admission shows in the gauge.
    let admitted = Instant::now();
    while engine.conn_snapshot().active < 3 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "third connection never admitted"
        );
        std::thread::yield_now();
    }
    assert!(engine.metrics_text().contains("fgserve_conn_active 3\n"));

    h.shutdown();
    for (name, stream) in [
        ("text", &mut text),
        ("binary", &mut binary),
        ("half", &mut half),
    ] {
        let mut rest = Vec::new();
        match stream.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "{name}: {rest:?}"),
            Err(e) => panic!("{name}: expected EOF, got {e}"),
        }
    }
    let conn = engine.conn_snapshot();
    assert_eq!((conn.accepted, conn.active, conn.closed), (3, 0, 3));
    // The acceptor and every connection thread held a clone.
    assert_eq!(
        Arc::strong_count(&engine),
        1,
        "a front-end thread outlived shutdown"
    );
}

/// Half a message does not pin a `--max-conns` slot: a connection that
/// stops mid-frame, and one that keeps trickling bytes of a frame it never
/// finishes, are both closed around [`PARTIAL_MESSAGE_DEADLINE`] and
/// counted, while a connection that sent nothing may idle past it.
#[test]
fn incomplete_messages_are_closed_after_the_deadline() {
    let h = spawn_server(ServeConfig::default());
    let mut idle = connect(&h);
    let frame = encode_request(&protocol::Request::Infer {
        model: "gcn".into(),
        node: 3,
        id: Some("never-finished".into()),
        deadline_ms: None,
    });
    assert!(frame.len() > HEADER_LEN + 12);

    let start = Instant::now();
    let mut silent = connect(&h);
    silent.write_all(&frame[..HEADER_LEN + 1]).unwrap();
    let mut trickling = connect(&h);
    trickling.write_all(&frame[..MAGIC.len()]).unwrap();
    let mut feeder = trickling.try_clone().unwrap();
    let trickle = frame.clone();
    let feeder = std::thread::spawn(move || {
        // A byte a second never completes the frame; writes fail once the
        // server has hung up.
        for byte in &trickle[MAGIC.len()..HEADER_LEN + 4] {
            std::thread::sleep(Duration::from_secs(1));
            if feeder.write_all(&[*byte]).is_err() {
                break;
            }
        }
    });
    for (name, stream) in [("silent", &mut silent), ("trickling", &mut trickling)] {
        let mut rest = Vec::new();
        // EOF, or a reset if a trickled byte raced the close.
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{name}: {rest:?}");
        let held = start.elapsed();
        assert!(
            held >= PARTIAL_MESSAGE_DEADLINE,
            "{name} closed after {held:?}"
        );
        assert!(
            held < 2 * PARTIAL_MESSAGE_DEADLINE,
            "{name} held for {held:?}"
        );
    }
    feeder.join().unwrap();

    // The idle connection outlived both and is still served.
    writeln!(idle, "METRICS").unwrap();
    let mut reader = BufReader::new(idle);
    let mut body = String::new();
    while !body.ends_with("# EOF\n") {
        assert_ne!(
            reader.read_line(&mut body).unwrap(),
            0,
            "idle connection closed"
        );
    }
    assert!(
        body.contains("fgserve_conn_read_timeouts_total 2\n"),
        "{body}"
    );
    assert!(body.contains("fgserve_conn_active 1\n"), "{body}");
    h.shutdown();
}

/// The frame module's constants hold the invariants the acceptor relies on.
#[test]
fn frame_constants_are_sane() {
    assert_eq!(HEADER_LEN, 12);
    assert_eq!(&MAGIC, b"FGB1");
    assert_eq!(MAX_PAYLOAD, 64 << 20);
    const { assert!(reply_type::OK > req_type::SHUTDOWN, "type spaces disjoint") };
    // Frame struct stays constructible for hand-rolled payload tests.
    let f = Frame {
        ty: req_type::PING,
        payload: vec![],
    };
    assert!(decode_request(&f).is_ok());
}
