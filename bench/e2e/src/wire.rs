//! A minimal `fgserve` client: the FGB1 binary frames and the text lines the
//! benchmark needs, written from the protocol description alone. Nothing here
//! uses the repo's crates, so the end-to-end numbers depend only on the bytes
//! on the wire.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Which protocol a connection speaks (the server sniffs the first bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Length-prefixed FGB1 frames.
    Binary,
    /// One request per line.
    Text,
}

const MAGIC: &[u8; 4] = b"FGB1";
const HEADER_LEN: usize = 12;
/// Replies larger than this are treated as malformed rather than allocated.
const MAX_REPLY: u32 = 64 << 20;
const DTYPE_F32: u8 = 1;

const REQ_INFER: u8 = 0x01;
const REQ_INFER_SEEDS: u8 = 0x02;
const REQ_METRICS: u8 = 0x04;
const REQ_PING: u8 = 0x08;
const REQ_SHUTDOWN: u8 = 0x09;

const REPLY_OK: u8 = 0x81;
const REPLY_ERR: u8 = 0x82;
const REPLY_SEEDS: u8 = 0x83;
const REPLY_TEXT: u8 = 0x84;
const REPLY_PONG: u8 = 0x85;
const REPLY_BYE: u8 = 0x86;

/// One answered row: the vertex it is for, the predicted class, its logits.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Vertex id (`INFER` replies carry none; the client fills in the one
    /// it asked for).
    pub node: u64,
    /// Argmax class.
    pub class: u64,
    /// Logits row.
    pub logits: Vec<f32>,
}

/// A parsed server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK <id> <class> <logits...>`.
    Ok {
        /// Echoed token.
        id: String,
        /// Predicted class.
        class: u64,
        /// Logits row.
        logits: Vec<f32>,
    },
    /// `SEEDS <id> <n> <sub_v> <sub_e>` plus its rows.
    Seeds {
        /// Echoed token.
        id: String,
        /// Vertices of the sampled subgraph.
        sub_vertices: u64,
        /// Edges of the sampled subgraph.
        sub_edges: u64,
        /// One row per requested seed, request order.
        rows: Vec<Row>,
    },
    /// `ERR <id> <code> ...`.
    Err {
        /// Echoed token.
        id: String,
        /// Stable error code.
        code: String,
    },
    /// Multi-line text body (`METRICS`).
    Text(String),
    /// `PONG`.
    Pong,
    /// `BYE`.
    Bye,
}

/// Why a reply could not be had.
#[derive(Debug)]
pub enum WireError {
    /// Socket failure, timeout or EOF: the connection is unusable.
    Io(io::Error),
    /// Bytes arrived but are not a reply this client understands.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(m) => write!(f, "malformed reply: {m}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError::Malformed(msg.into()))
}

// ---- request encoding ----------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Start a frame in `out`; returns where its length field must be patched.
fn begin_frame(out: &mut Vec<u8>, ty: u8) -> usize {
    out.extend_from_slice(MAGIC);
    out.push(ty);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

fn end_frame(out: &mut [u8], payload_start: usize) {
    let len = (out.len() - payload_start) as u32;
    out[payload_start - 4..payload_start].copy_from_slice(&len.to_le_bytes());
}

fn control_frame(ty: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    let start = begin_frame(&mut out, ty);
    end_frame(&mut out, start);
    out
}

/// Append one `INFER` request to `out`.
pub fn encode_infer(proto: Proto, model: &str, node: u64, id: &str, out: &mut Vec<u8>) {
    match proto {
        Proto::Binary => {
            let start = begin_frame(out, REQ_INFER);
            put_str(out, model);
            out.extend_from_slice(&node.to_le_bytes());
            put_str(out, id);
            out.push(0); // no deadline override
            end_frame(out, start);
        }
        Proto::Text => {
            out.extend_from_slice(format!("INFER {model} {node} id={id}\n").as_bytes());
        }
    }
}

/// A feature-override block rendered once for one protocol: the binary
/// tensor block (`dtype, rows, cols, raw f32`) or the text `feats=` token.
pub fn render_feats(proto: Proto, rows: usize, cols: usize, values: &[f32]) -> Vec<u8> {
    assert_eq!(values.len(), rows * cols, "feature block shape");
    match proto {
        Proto::Binary => {
            let mut out = Vec::with_capacity(9 + values.len() * 4);
            out.push(DTYPE_F32);
            out.extend_from_slice(&(rows as u32).to_le_bytes());
            out.extend_from_slice(&(cols as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        Proto::Text => {
            // `{}` prints the shortest decimal that parses back to the same
            // f32, so both protocols deliver identical bits.
            let mut out = String::from("feats=");
            for (r, row) in values.chunks(cols).enumerate() {
                if r > 0 {
                    out.push(';');
                }
                for (c, v) in row.iter().enumerate() {
                    if c > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
            }
            out.into_bytes()
        }
    }
}

/// The fields of one `INFER_SEEDS` request.
pub struct SeedsRequest<'a> {
    /// Target model.
    pub model: &'a str,
    /// Seed vertices, in reply order.
    pub seeds: &'a [u64],
    /// Per-hop fanout caps, seed side first.
    pub fanouts: &'a [u64],
    /// Sampler RNG seed.
    pub sample_seed: u64,
    /// Feature override: a block from [`render_feats`] for the same protocol.
    pub feats: &'a [u8],
    /// Token the server echoes.
    pub id: &'a str,
}

/// Append one `INFER_SEEDS` request to `out`.
pub fn encode_seeds(proto: Proto, req: &SeedsRequest<'_>, out: &mut Vec<u8>) {
    let SeedsRequest {
        model,
        seeds,
        fanouts,
        sample_seed,
        feats,
        id,
    } = *req;
    match proto {
        Proto::Binary => {
            let start = begin_frame(out, REQ_INFER_SEEDS);
            put_str(out, model);
            out.extend_from_slice(&(seeds.len() as u32).to_le_bytes());
            for s in seeds {
                out.extend_from_slice(&s.to_le_bytes());
            }
            out.push(1);
            out.extend_from_slice(&(fanouts.len() as u32).to_le_bytes());
            for f in fanouts {
                out.extend_from_slice(&f.to_le_bytes());
            }
            out.extend_from_slice(&sample_seed.to_le_bytes());
            out.extend_from_slice(feats);
            put_str(out, id);
            out.push(0); // no deadline override
            end_frame(out, start);
        }
        Proto::Text => {
            let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            out.extend_from_slice(
                format!(
                    "INFER_SEEDS {model} {} fanout={} ",
                    list(seeds),
                    list(fanouts)
                )
                .as_bytes(),
            );
            out.extend_from_slice(feats);
            out.extend_from_slice(format!(" sample_seed={sample_seed} id={id}\n").as_bytes());
        }
    }
}

// ---- reply decoding ------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return malformed(format!("payload short: need {n} bytes at {}", self.pos));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => malformed("string is not UTF-8"),
        }
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        let Some(bytes) = n.checked_mul(4) else {
            return malformed("logits length overflow");
        };
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

fn decode_frame(ty: u8, payload: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let reply = match ty {
        REPLY_OK => Reply::Ok {
            id: c.string()?,
            class: c.u64()?,
            logits: c.f32s()?,
        },
        REPLY_ERR => {
            let (id, code) = (c.string()?, c.string()?);
            c.string()?; // human-readable detail
            Reply::Err { id, code }
        }
        REPLY_SEEDS => {
            let id = c.string()?;
            let sub_vertices = c.u64()?;
            let sub_edges = c.u64()?;
            let count = c.u32()? as usize;
            let mut rows = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                rows.push(Row {
                    node: c.u64()?,
                    class: c.u64()?,
                    logits: c.f32s()?,
                });
            }
            Reply::Seeds {
                id,
                sub_vertices,
                sub_edges,
                rows,
            }
        }
        REPLY_TEXT => Reply::Text(c.string()?),
        REPLY_PONG => Reply::Pong,
        REPLY_BYE => Reply::Bye,
        other => return malformed(format!("unknown reply type {other:#04x}")),
    };
    if c.pos != payload.len() {
        return malformed(format!("{} trailing payload bytes", payload.len() - c.pos));
    }
    Ok(reply)
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, WireError> {
    match tok.and_then(|t| t.parse().ok()) {
        Some(v) => Ok(v),
        None => malformed(format!("bad or missing {what}")),
    }
}

fn parse_logits<'a>(toks: impl Iterator<Item = &'a str>) -> Result<Vec<f32>, WireError> {
    toks.map(|t| match t.parse::<f32>() {
        Ok(v) => Ok(v),
        Err(_) => malformed(format!("bad logit {t:?}")),
    })
    .collect()
}

// ---- connection ----------------------------------------------------------

/// One client connection with read and write timeouts on its socket.
pub struct Conn {
    proto: Proto,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// Reply bytes read so far (frames or lines, exact).
    pub bytes_in: u64,
}

impl Conn {
    /// Connect; `timeout` bounds the connect and every later read and write.
    pub fn connect(addr: SocketAddr, proto: Proto, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            proto,
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
            bytes_in: 0,
        })
    }

    /// Write one complete, already-encoded request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)
    }

    /// Block until the first byte of the next reply has arrived (or the
    /// read times out), without consuming it.
    pub fn wait_readable(&mut self) -> io::Result<()> {
        self.reader.fill_buf().map(|_| ())
    }

    fn read_line(&mut self) -> Result<&str, WireError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed").into());
        }
        self.bytes_in += n as u64;
        Ok(self.line.trim_end())
    }

    /// Read and parse one `INFER`/`INFER_SEEDS`/`PING`/`SHUTDOWN` reply.
    pub fn recv(&mut self) -> Result<Reply, WireError> {
        match self.proto {
            Proto::Binary => self.recv_frame(),
            Proto::Text => self.recv_text(),
        }
    }

    fn recv_frame(&mut self) -> Result<Reply, WireError> {
        let mut header = [0u8; HEADER_LEN];
        self.reader.read_exact(&mut header)?;
        if &header[..4] != MAGIC || header[5..8] != [0, 0, 0] {
            return malformed("bad frame header");
        }
        let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if len > MAX_REPLY {
            return malformed(format!("reply of {len} bytes exceeds cap"));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        self.bytes_in += (HEADER_LEN + payload.len()) as u64;
        decode_frame(header[4], &payload)
    }

    fn recv_text(&mut self) -> Result<Reply, WireError> {
        let line = self.read_line()?.to_string();
        let mut toks = line.split_ascii_whitespace();
        match toks.next() {
            Some("PONG") => Ok(Reply::Pong),
            Some("BYE") => Ok(Reply::Bye),
            Some("OK") => Ok(Reply::Ok {
                id: parse_num(toks.next(), "OK id")?,
                class: parse_num(toks.next(), "OK class")?,
                logits: parse_logits(toks)?,
            }),
            Some("ERR") => Ok(Reply::Err {
                id: parse_num(toks.next(), "ERR id")?,
                code: parse_num(toks.next(), "ERR code")?,
            }),
            Some("SEEDS") => {
                let id = parse_num(toks.next(), "SEEDS id")?;
                let count: usize = parse_num(toks.next(), "SEEDS count")?;
                let sub_vertices = parse_num(toks.next(), "SEEDS sub_vertices")?;
                let sub_edges = parse_num(toks.next(), "SEEDS sub_edges")?;
                let mut rows = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let mut toks = self.read_line()?.split_ascii_whitespace();
                    if toks.next() != Some("SEED") {
                        return malformed("expected a SEED line");
                    }
                    rows.push(Row {
                        node: parse_num(toks.next(), "SEED node")?,
                        class: parse_num(toks.next(), "SEED class")?,
                        logits: parse_logits(toks)?,
                    });
                }
                Ok(Reply::Seeds {
                    id,
                    sub_vertices,
                    sub_edges,
                    rows,
                })
            }
            _ => malformed(format!("unexpected line {:?}", &line[..line.len().min(80)])),
        }
    }

    fn control(&mut self, verb: &str, ty: u8) -> io::Result<()> {
        match self.proto {
            Proto::Binary => self.send(&control_frame(ty)),
            Proto::Text => self.send(format!("{verb}\n").as_bytes()),
        }
    }

    /// `PING` and expect `PONG`.
    pub fn ping(&mut self) -> Result<(), WireError> {
        self.control("PING", REQ_PING)?;
        match self.recv()? {
            Reply::Pong => Ok(()),
            other => malformed(format!("PING answered {other:?}")),
        }
    }

    /// `SHUTDOWN` and expect `BYE`.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.control("SHUTDOWN", REQ_SHUTDOWN)?;
        match self.recv()? {
            Reply::Bye => Ok(()),
            other => malformed(format!("SHUTDOWN answered {other:?}")),
        }
    }

    /// `METRICS`: the Prometheus exposition text.
    pub fn metrics(&mut self) -> Result<String, WireError> {
        self.control("METRICS", REQ_METRICS)?;
        self.text_body(|line| line == "# EOF")
    }

    /// A multi-line body: one TEXT frame in binary, or text lines up to and
    /// including the one `last` accepts.
    fn text_body(&mut self, last: impl Fn(&str) -> bool) -> Result<String, WireError> {
        if self.proto == Proto::Binary {
            return match self.recv_frame()? {
                Reply::Text(body) => Ok(body),
                other => malformed(format!("expected a TEXT frame, got {other:?}")),
            };
        }
        let mut body = String::new();
        loop {
            let line = self.read_line()?;
            let done = last(line);
            body.push_str(line);
            body.push('\n');
            if done {
                return Ok(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_frame_has_header_length_and_fields() {
        let mut out = Vec::new();
        encode_infer(Proto::Binary, "gcn", 7, "c0-1", &mut out);
        assert_eq!(&out[..4], b"FGB1");
        assert_eq!(out[4], REQ_INFER);
        let len = u32::from_le_bytes(out[8..12].try_into().unwrap()) as usize;
        assert_eq!(len, out.len() - HEADER_LEN);
        // model string, node, id string, deadline presence byte
        assert_eq!(len, (4 + 3) + 8 + (4 + 4) + 1);
        let mut text = Vec::new();
        encode_infer(Proto::Text, "gcn", 7, "c0-1", &mut text);
        assert_eq!(text, b"INFER gcn 7 id=c0-1\n");
    }

    #[test]
    fn feature_blocks_render_the_same_values_in_both_protocols() {
        let values = [0.1f32, -2.5, 3.0e-7, 1.0];
        let bin = render_feats(Proto::Binary, 2, 2, &values);
        assert_eq!(bin.len(), 1 + 4 + 4 + 16);
        assert_eq!(bin[0], DTYPE_F32);
        let text = String::from_utf8(render_feats(Proto::Text, 2, 2, &values)).unwrap();
        let parsed: Vec<f32> = text
            .strip_prefix("feats=")
            .unwrap()
            .split([';', ','])
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(parsed, values);
    }

    #[test]
    fn decodes_ok_err_and_seeds_frames() {
        let mut p = Vec::new();
        put_str(&mut p, "id1");
        p.extend_from_slice(&2u64.to_le_bytes());
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&1.5f32.to_le_bytes());
        p.extend_from_slice(&(-1.0f32).to_le_bytes());
        assert_eq!(
            decode_frame(REPLY_OK, &p).unwrap(),
            Reply::Ok {
                id: "id1".into(),
                class: 2,
                logits: vec![1.5, -1.0]
            }
        );
        // trailing byte and truncation are rejected, not mis-parsed
        p.push(0);
        assert!(decode_frame(REPLY_OK, &p).is_err());
        assert!(decode_frame(REPLY_OK, &p[..10]).is_err());

        let mut e = Vec::new();
        put_str(&mut e, "id2");
        put_str(&mut e, "timeout");
        put_str(&mut e, "deadline passed");
        assert_eq!(
            decode_frame(REPLY_ERR, &e).unwrap(),
            Reply::Err {
                id: "id2".into(),
                code: "timeout".into()
            }
        );
        assert!(decode_frame(0x7f, &[]).is_err());
    }
}
