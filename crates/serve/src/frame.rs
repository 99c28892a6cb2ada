//! Length-prefixed binary frame protocol for the `fgserve` TCP front-end.
//!
//! The text protocol ([`crate::protocol`]) re-parses every feature scalar
//! from ASCII; at serving feature widths that parse dominates request
//! cost. The binary protocol ships the same requests as little-endian
//! frames whose feature payloads are copied byte-for-byte into aligned
//! [`Dense2`] buffers — no per-scalar text handling anywhere on the hot
//! path.
//!
//! ## Frame layout
//!
//! Every frame — request or reply — is a 12-byte header followed by a
//! payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FGB1" (protocol version 1)
//! 4       1     frame type (request 0x01, 0x02, 0x04, 0x07..0x09; reply 0x81..0x86)
//! 5       1     flags (reserved, must be 0)
//! 6       2     reserved (must be 0)
//! 8       4     payload length, u32 LE (≤ 64 MiB)
//! 12      n     payload, all integers/floats little-endian
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes (length 0 = absent for optional
//! tokens). Optional integers are a presence byte + `u64`. A feature
//! tensor block is `dtype u8` (`0` absent, else [`FeatureDtype`] wire
//! code) + `rows u32` + `cols u32` + raw element bytes.
//!
//! ## Negotiation
//!
//! A connection's first four bytes select the protocol: `"FGB1"` puts the
//! connection in binary mode for its lifetime; anything else is replayed
//! as the start of a text line. Replies always use the requesting
//! connection's protocol. Decoding rejects oversized lengths before
//! allocating, unknown frame types, non-zero reserved fields, trailing
//! payload bytes, and non-finite feature scalars — a malformed frame
//! produces a typed error reply and the connection stays usable.

use std::io::{self, Read, Write};

use fg_tensor::{Dense2, FeatureDtype};

use crate::engine::{InferResponse, SeedsResponse};
use crate::protocol::Request;

/// Protocol magic; the trailing digit is the wire version.
pub const MAGIC: [u8; 4] = *b"FGB1";

/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame payload — decoders reject bigger lengths before
/// allocating.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Cap on a single length-prefixed string (model names, ids, error
/// detail).
const MAX_STRING: u32 = 1 << 16;

/// Request frame types.
pub mod req_type {
    /// `INFER` equivalent.
    pub const INFER: u8 = 0x01;
    /// `INFER_SEEDS` equivalent.
    pub const INFER_SEEDS: u8 = 0x02;
    // 0x03, 0x05 and 0x06 are unassigned: decoding one is an
    // unknown-type error.
    /// `METRICS` equivalent.
    pub const METRICS: u8 = 0x04;
    /// `SLOWLOG` equivalent.
    pub const SLOWLOG: u8 = 0x07;
    /// `PING` equivalent.
    pub const PING: u8 = 0x08;
    /// `SHUTDOWN` equivalent.
    pub const SHUTDOWN: u8 = 0x09;
}

/// Reply frame types.
pub mod reply_type {
    /// Successful single-node inference.
    pub const OK: u8 = 0x81;
    /// Typed error.
    pub const ERR: u8 = 0x82;
    /// Successful seeded inference.
    pub const SEEDS: u8 = 0x83;
    /// Text blob (METRICS/SLOWLOG bodies).
    pub const TEXT: u8 = 0x84;
    /// `PONG`.
    pub const PONG: u8 = 0x85;
    /// `BYE` (shutdown acknowledged).
    pub const BYE: u8 = 0x86;
}

/// Decode/IO failures. [`FrameError::Io`] means the connection is gone;
/// every other variant is a per-frame rejection the server answers with a
/// `bad-request` reply, keeping the connection alive.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/IO failure (includes truncation mid-frame).
    Io(io::Error),
    /// First four bytes of a frame were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Frame type byte not in the request/reply ranges.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Structurally invalid payload (short fields, bad UTF-8, trailing
    /// bytes, non-finite features…).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A raw frame: validated header plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type byte.
    pub ty: u8,
    /// Payload bytes (little-endian fields).
    pub payload: Vec<u8>,
}

/// Validate a frame header (a frame's first [`HEADER_LEN`] bytes): its type
/// byte and payload length. Shared by [`read_frame`] and the server's
/// buffered extraction.
pub fn parse_header(header: &[u8]) -> Result<(u8, usize), FrameError> {
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[5..8] != [0; 3] {
        return Err(FrameError::Malformed(
            "non-zero reserved header bytes".into(),
        ));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    Ok((header[4], len as usize))
}

/// Read one frame. `magic_consumed` says the caller already read (and
/// verified) the four magic bytes — the negotiation sniff does this for a
/// connection's first frame.
pub fn read_frame(r: &mut impl Read, magic_consumed: bool) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    r.read_exact(&mut header[if magic_consumed { 4 } else { 0 }..])?;
    let (ty, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame { ty, payload })
}

/// Write one already-encoded frame and flush.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

fn frame_bytes(ty: u8, payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(ty);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---- payload writer helpers -------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    put_str(buf, s.unwrap_or(""));
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    put_u32(buf, vals.len() as u32);
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_feats(buf: &mut Vec<u8>, feats: Option<&Dense2<f32>>) {
    match feats {
        None => buf.push(0),
        Some(f) => {
            buf.push(FeatureDtype::F32.wire_code());
            put_u32(buf, f.rows() as u32);
            put_u32(buf, f.cols() as u32);
            // Raw little-endian element bytes — the decoder copies these
            // straight into an aligned buffer.
            for &v in f.as_slice() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

// ---- payload reader ----------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                FrameError::Malformed(format!(
                    "{what}: need {n} bytes at offset {}, payload is {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.u32(what)?;
        if len > MAX_STRING {
            return Err(FrameError::Malformed(format!(
                "{what}: string length {len} exceeds cap {MAX_STRING}"
            )));
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed(format!("{what}: invalid UTF-8")))
    }

    fn opt_string(&mut self, what: &str) -> Result<Option<String>, FrameError> {
        let s = self.string(what)?;
        Ok(if s.is_empty() { None } else { Some(s) })
    }

    fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, FrameError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            other => Err(FrameError::Malformed(format!(
                "{what}: bad presence byte {other}"
            ))),
        }
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, FrameError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| FrameError::Malformed(format!("{what}: length overflow")))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn u64s(&mut self, what: &str) -> Result<Vec<u64>, FrameError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| FrameError::Malformed(format!("{what}: length overflow")))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Decode a feature block into an aligned f32 tensor. f32 payloads
    /// are copied byte-for-byte on little-endian hosts; bf16 payloads widen
    /// per element. Rejects non-finite scalars and unknown dtype codes.
    fn feats(&mut self) -> Result<Option<Dense2<f32>>, FrameError> {
        let code = self.u8("feats dtype")?;
        if code == 0 {
            return Ok(None);
        }
        let dtype = FeatureDtype::from_wire_code(code)
            .ok_or_else(|| FrameError::Malformed(format!("feats: unknown dtype code {code}")))?;
        let rows = self.u32("feats rows")? as usize;
        let cols = self.u32("feats cols")? as usize;
        let count = rows
            .checked_mul(cols)
            .ok_or_else(|| FrameError::Malformed("feats: rows*cols overflow".into()))?;
        let nbytes = count
            .checked_mul(dtype.size_bytes())
            .ok_or_else(|| FrameError::Malformed("feats: byte length overflow".into()))?;
        let bytes = self.take(nbytes, "feats data")?;
        let mut out = Dense2::<f32>::zeros(rows, cols);
        let dst = out.as_mut_slice();
        match dtype {
            FeatureDtype::F32 => {
                #[cfg(target_endian = "little")]
                {
                    // Wire order is the in-memory order: one copy into the
                    // aligned buffer, no per-scalar handling.
                    // SAFETY: `bytes.len() == dst.len() * 4` by
                    // construction, and any bit pattern is a valid f32.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            bytes.as_ptr(),
                            dst.as_mut_ptr() as *mut u8,
                            nbytes,
                        );
                    }
                }
                #[cfg(not(target_endian = "little"))]
                for (o, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            FeatureDtype::Bf16 => {
                for (o, c) in dst.iter_mut().zip(bytes.chunks_exact(2)) {
                    *o = fg_tensor::Bf16::from_bits(u16::from_le_bytes([c[0], c[1]])).to_f32();
                }
            }
        }
        if dst.iter().any(|v| !v.is_finite()) {
            return Err(FrameError::Malformed("feats: non-finite value".into()));
        }
        Ok(Some(out))
    }

    fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---- requests ----------------------------------------------------------

/// Encode a request as a complete frame (header + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Infer {
            model,
            node,
            id,
            deadline_ms,
        } => {
            let mut p = Vec::new();
            put_str(&mut p, model);
            put_u64(&mut p, *node as u64);
            put_opt_str(&mut p, id.as_deref());
            put_opt_u64(&mut p, *deadline_ms);
            frame_bytes(req_type::INFER, p)
        }
        Request::InferSeeds {
            model,
            seeds,
            fanouts,
            sample_seed,
            feats,
            id,
            deadline_ms,
        } => {
            let mut p = Vec::new();
            put_str(&mut p, model);
            put_u32(&mut p, seeds.len() as u32);
            for &s in seeds {
                put_u64(&mut p, s as u64);
            }
            match fanouts {
                None => p.push(0),
                Some(f) => {
                    p.push(1);
                    put_u32(&mut p, f.len() as u32);
                    for &x in f {
                        put_u64(&mut p, x as u64);
                    }
                }
            }
            put_u64(&mut p, *sample_seed);
            put_feats(&mut p, feats.as_ref());
            put_opt_str(&mut p, id.as_deref());
            put_opt_u64(&mut p, *deadline_ms);
            frame_bytes(req_type::INFER_SEEDS, p)
        }
        Request::Metrics => frame_bytes(req_type::METRICS, Vec::new()),
        Request::SlowLog { limit } => {
            let mut p = Vec::new();
            put_opt_u64(&mut p, limit.map(|n| n as u64));
            frame_bytes(req_type::SLOWLOG, p)
        }
        Request::Ping => frame_bytes(req_type::PING, Vec::new()),
        Request::Shutdown => frame_bytes(req_type::SHUTDOWN, Vec::new()),
    }
}

/// Decode a request frame.
pub fn decode_request(frame: &Frame) -> Result<Request, FrameError> {
    let mut c = Cur::new(&frame.payload);
    let req = match frame.ty {
        req_type::INFER => {
            let model = c.string("INFER model")?;
            let node = c.u64("INFER node")? as usize;
            let id = c.opt_string("INFER id")?;
            let deadline_ms = c.opt_u64("INFER deadline")?;
            Request::Infer {
                model,
                node,
                id,
                deadline_ms,
            }
        }
        req_type::INFER_SEEDS => {
            let model = c.string("INFER_SEEDS model")?;
            let seeds: Vec<usize> = {
                let raw = c.u64s("INFER_SEEDS seeds")?;
                raw.into_iter().map(|s| s as usize).collect()
            };
            if seeds.is_empty() {
                return Err(FrameError::Malformed("INFER_SEEDS: empty seed list".into()));
            }
            let fanouts = match c.u8("INFER_SEEDS fanout presence")? {
                0 => None,
                1 => {
                    let f: Vec<usize> = c
                        .u64s("INFER_SEEDS fanouts")?
                        .into_iter()
                        .map(|x| x as usize)
                        .collect();
                    if f.is_empty() {
                        return Err(FrameError::Malformed("INFER_SEEDS: empty fanout".into()));
                    }
                    Some(f)
                }
                other => {
                    return Err(FrameError::Malformed(format!(
                        "INFER_SEEDS: bad fanout presence byte {other}"
                    )))
                }
            };
            let sample_seed = c.u64("INFER_SEEDS sample_seed")?;
            let feats = c.feats()?;
            if let Some(f) = &feats {
                if f.rows() != seeds.len() {
                    return Err(FrameError::Malformed(format!(
                        "INFER_SEEDS: {} feature rows for {} seeds",
                        f.rows(),
                        seeds.len()
                    )));
                }
            }
            let id = c.opt_string("INFER_SEEDS id")?;
            let deadline_ms = c.opt_u64("INFER_SEEDS deadline")?;
            Request::InferSeeds {
                model,
                seeds,
                fanouts,
                sample_seed,
                feats,
                id,
                deadline_ms,
            }
        }
        req_type::METRICS => Request::Metrics,
        req_type::SLOWLOG => Request::SlowLog {
            limit: c.opt_u64("SLOWLOG limit")?.map(|n| n as usize),
        },
        req_type::PING => Request::Ping,
        req_type::SHUTDOWN => Request::Shutdown,
        other => return Err(FrameError::UnknownType(other)),
    };
    c.finish("request")?;
    Ok(req)
}

// ---- replies -----------------------------------------------------------

/// A protocol-independent reply, encodable as either a binary frame or
/// text lines.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// Successful single-node inference.
    Ok {
        /// Echoed client token.
        id: String,
        /// Inference result.
        resp: InferResponse,
    },
    /// Typed error.
    Err {
        /// Echoed client token.
        id: String,
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Successful seeded inference (`node` per result, request order).
    Seeds {
        /// Echoed client token.
        id: String,
        /// Requested seed vertices, matching `resp.results` order.
        seeds: Vec<usize>,
        /// Engine reply.
        resp: SeedsResponse,
    },
    /// Text blob reply (METRICS/SLOWLOG bodies, same
    /// bytes the text protocol would send).
    Text(String),
    /// `PONG`.
    Pong,
    /// `BYE`.
    Bye,
}

/// Encode a reply as a complete frame.
pub fn encode_reply(reply: &WireReply) -> Vec<u8> {
    match reply {
        WireReply::Ok { id, resp } => {
            let mut p = Vec::new();
            put_str(&mut p, id);
            put_u64(&mut p, resp.class as u64);
            put_f32s(&mut p, &resp.logits);
            frame_bytes(reply_type::OK, p)
        }
        WireReply::Err { id, code, detail } => {
            let mut p = Vec::new();
            put_str(&mut p, id);
            put_str(&mut p, code);
            put_str(&mut p, detail);
            frame_bytes(reply_type::ERR, p)
        }
        WireReply::Seeds { id, seeds, resp } => {
            let mut p = Vec::new();
            put_str(&mut p, id);
            put_u64(&mut p, resp.sub_vertices as u64);
            put_u64(&mut p, resp.sub_edges as u64);
            put_u32(&mut p, resp.results.len() as u32);
            for (node, r) in seeds.iter().zip(&resp.results) {
                put_u64(&mut p, *node as u64);
                put_u64(&mut p, r.class as u64);
                put_f32s(&mut p, &r.logits);
            }
            frame_bytes(reply_type::SEEDS, p)
        }
        WireReply::Text(body) => {
            let mut p = Vec::new();
            put_u32(&mut p, body.len() as u32);
            p.extend_from_slice(body.as_bytes());
            frame_bytes(reply_type::TEXT, p)
        }
        WireReply::Pong => frame_bytes(reply_type::PONG, Vec::new()),
        WireReply::Bye => frame_bytes(reply_type::BYE, Vec::new()),
    }
}

/// Decode a reply frame (client side).
pub fn decode_reply(frame: &Frame) -> Result<WireReply, FrameError> {
    let mut c = Cur::new(&frame.payload);
    let reply = match frame.ty {
        reply_type::OK => {
            let id = c.string("OK id")?;
            let class = c.u64("OK class")? as usize;
            let logits = c.f32s("OK logits")?;
            WireReply::Ok {
                id,
                resp: InferResponse { class, logits },
            }
        }
        reply_type::ERR => WireReply::Err {
            id: c.string("ERR id")?,
            code: c.string("ERR code")?,
            detail: c.string("ERR detail")?,
        },
        reply_type::SEEDS => {
            let id = c.string("SEEDS id")?;
            let sub_vertices = c.u64("SEEDS sub_v")? as usize;
            let sub_edges = c.u64("SEEDS sub_e")? as usize;
            let count = c.u32("SEEDS count")? as usize;
            let mut seeds = Vec::with_capacity(count.min(1 << 20));
            let mut results = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                seeds.push(c.u64("SEED node")? as usize);
                let class = c.u64("SEED class")? as usize;
                let logits = c.f32s("SEED logits")?;
                results.push(InferResponse { class, logits });
            }
            WireReply::Seeds {
                id,
                seeds,
                resp: SeedsResponse {
                    results,
                    sub_vertices,
                    sub_edges,
                },
            }
        }
        reply_type::TEXT => {
            let len = c.u32("TEXT len")?;
            if len > MAX_PAYLOAD {
                return Err(FrameError::Oversized(len));
            }
            let bytes = c.take(len as usize, "TEXT body")?;
            WireReply::Text(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| FrameError::Malformed("TEXT: invalid UTF-8".into()))?,
            )
        }
        reply_type::PONG => WireReply::Pong,
        reply_type::BYE => WireReply::Bye,
        other => return Err(FrameError::UnknownType(other)),
    };
    c.finish("reply")?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(&bytes[..4], &MAGIC);
        let frame = read_frame(&mut &bytes[..], false).unwrap();
        assert_eq!(decode_request(&frame).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Ping);
        round_trip_req(Request::Metrics);
        round_trip_req(Request::Shutdown);
        round_trip_req(Request::SlowLog { limit: None });
        round_trip_req(Request::SlowLog { limit: Some(25) });
        round_trip_req(Request::Infer {
            model: "gcn".into(),
            node: 42,
            id: Some("c3-r7".into()),
            deadline_ms: Some(250),
        });
        round_trip_req(Request::Infer {
            model: "gat".into(),
            node: 0,
            id: None,
            deadline_ms: None,
        });
        round_trip_req(Request::InferSeeds {
            model: "sage".into(),
            seeds: vec![3, 1, 4],
            fanouts: Some(vec![10, 5]),
            sample_seed: 7,
            feats: Some(Dense2::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5)),
            id: Some("c1".into()),
            deadline_ms: Some(90),
        });
        round_trip_req(Request::InferSeeds {
            model: "gcn".into(),
            seeds: vec![5],
            fanouts: None,
            sample_seed: 0,
            feats: None,
            id: None,
            deadline_ms: None,
        });
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            WireReply::Pong,
            WireReply::Bye,
            WireReply::Text("SLOWLOG 1\nSLOW seq=1\n".into()),
            WireReply::Text(String::new()),
            WireReply::Ok {
                id: "c0".into(),
                resp: InferResponse {
                    class: 2,
                    logits: vec![-0.5, 0.25, 1.75],
                },
            },
            WireReply::Err {
                id: "-".into(),
                code: "overloaded".into(),
                detail: "queue full".into(),
            },
            WireReply::Seeds {
                id: "c2".into(),
                seeds: vec![9, 4],
                resp: SeedsResponse {
                    results: vec![
                        InferResponse {
                            class: 1,
                            logits: vec![0.5, 2.0],
                        },
                        InferResponse {
                            class: 0,
                            logits: vec![3.25, -1.0],
                        },
                    ],
                    sub_vertices: 17,
                    sub_edges: 40,
                },
            },
        ] {
            let bytes = encode_reply(&reply);
            let frame = read_frame(&mut &bytes[..], false).unwrap();
            assert_eq!(decode_reply(&frame).unwrap(), reply);
        }
    }

    #[test]
    fn rejects_bad_magic_and_headers() {
        let mut bytes = encode_request(&Request::Ping);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bytes[..], false),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = encode_request(&Request::Ping);
        bytes[5] = 1; // flags must be zero
        assert!(matches!(
            read_frame(&mut &bytes[..], false),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_length_before_allocating() {
        let mut bytes = encode_request(&Request::Ping);
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..], false),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_frames_surface_as_io_errors() {
        let bytes = encode_request(&Request::Infer {
            model: "gcn".into(),
            node: 1,
            id: None,
            deadline_ms: None,
        });
        for cut in [2, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(matches!(
                read_frame(&mut &bytes[..cut], false),
                Err(FrameError::Io(_))
            ));
        }
    }

    #[test]
    fn rejects_trailing_and_short_payloads() {
        let mut bytes = encode_request(&Request::Ping);
        // Append a byte and fix up the declared length: trailing garbage.
        bytes.push(0xab);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        let frame = read_frame(&mut &bytes[..], false).unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
        // A string whose declared length runs past the payload.
        let frame = Frame {
            ty: req_type::INFER,
            payload: {
                let mut p = Vec::new();
                put_u32(&mut p, 100); // model length > remaining bytes
                p.extend_from_slice(b"gcn");
                p
            },
        };
        assert!(matches!(
            decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_unknown_types_and_nonfinite_feats() {
        for ty in [0x03, 0x05, 0x06, 0x7f] {
            let frame = Frame {
                ty,
                payload: Vec::new(),
            };
            assert!(matches!(
                decode_request(&frame),
                Err(FrameError::UnknownType(t)) if t == ty
            ));
        }
        // NaN/inf feature scalars are rejected at decode.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let req = Request::InferSeeds {
                model: "gcn".into(),
                seeds: vec![1],
                fanouts: None,
                sample_seed: 0,
                feats: Some(Dense2::from_fn(1, 2, |_, c| if c == 0 { bad } else { 1.0 })),
                id: None,
                deadline_ms: None,
            };
            let bytes = encode_request(&req);
            let frame = read_frame(&mut &bytes[..], false).unwrap();
            assert!(matches!(
                decode_request(&frame),
                Err(FrameError::Malformed(_))
            ));
        }
    }

    #[test]
    fn rejects_feats_row_count_mismatch() {
        let req = Request::InferSeeds {
            model: "gcn".into(),
            seeds: vec![1, 2, 3],
            fanouts: None,
            sample_seed: 0,
            feats: Some(Dense2::from_fn(2, 2, |_, _| 1.0)), // 2 rows, 3 seeds
            id: None,
            deadline_ms: None,
        };
        let bytes = encode_request(&req);
        let frame = read_frame(&mut &bytes[..], false).unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn zero_dim_feature_tensors_round_trip() {
        // 0 x 0 and 1 x 0 tensors are valid wire shapes... but a 0-row
        // tensor can never match a non-empty seed list, so exercise the
        // decoder through a seeds=rows pairing with zero columns.
        let req = Request::InferSeeds {
            model: "gcn".into(),
            seeds: vec![7],
            fanouts: None,
            sample_seed: 0,
            feats: Some(Dense2::zeros(1, 0)),
            id: None,
            deadline_ms: None,
        };
        round_trip_req(req);
    }

    #[test]
    fn half_precision_feature_blocks_decode_widened() {
        use fg_tensor::Bf16;
        // Hand-build an INFER_SEEDS frame whose feature block carries
        // `code` as its dtype byte and two bf16 scalars as its data.
        let frame = |code: u8| {
            let mut p = Vec::new();
            put_str(&mut p, "gcn");
            put_u32(&mut p, 1); // one seed
            put_u64(&mut p, 3);
            p.push(0); // no fanouts
            put_u64(&mut p, 0); // sample_seed
            p.push(code);
            put_u32(&mut p, 1); // rows
            put_u32(&mut p, 2); // cols
            for v in [1.5f32, -0.25] {
                p.extend_from_slice(&Bf16::from_f32(v).to_bits().to_le_bytes());
            }
            put_opt_str(&mut p, None);
            put_opt_u64(&mut p, None);
            Frame {
                ty: req_type::INFER_SEEDS,
                payload: p,
            }
        };
        match decode_request(&frame(FeatureDtype::Bf16.wire_code())).unwrap() {
            Request::InferSeeds { feats: Some(f), .. } => {
                assert_eq!(f.as_slice(), &[1.5, -0.25]);
            }
            other => panic!("{other:?}"),
        }
        // Code 2 named IEEE binary16 storage; it is unassigned now.
        match decode_request(&frame(2)) {
            Err(FrameError::Malformed(msg)) => {
                assert_eq!(msg, "feats: unknown dtype code 2");
            }
            other => panic!("{other:?}"),
        }
    }
}
