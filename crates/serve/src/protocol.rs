//! Line-oriented wire protocol for the `fgserve` TCP front-end, and the
//! [`Request`] both wire codecs decode to. [`parse_request`] /
//! [`format_request`] and [`format_reply`] / [`read_reply`] are inverse
//! pairs; the server uses the first of each, clients the second.
//!
//! Requests (one per line, space-separated, UTF-8):
//!
//! ```text
//! INFER <model> <node> [id=<token>] [deadline_ms=<n>]
//! INFER_SEEDS <model> <s0,s1,...> [fanout=<f0,f1,...>] [sample_seed=<n>]
//!             [feats=<r0v0,r0v1;r1v0,r1v1;...>] [id=<token>] [deadline_ms=<n>]
//! METRICS
//! SLOWLOG [<n>]
//! PING
//! SHUTDOWN
//! ```
//!
//! Responses (one reply per request, in request order per connection;
//! single-line except where noted):
//!
//! ```text
//! OK <id> <class> <logit0> <logit1> ...
//! ERR <id> <code> [detail ...]
//! SEEDS <id> <n> <sub_v> <sub_e> (followed by n "SEED <node> <class> <logits...>" lines)
//! <prometheus exposition, multi-line, terminated by "# EOF">
//! SLOWLOG <n> (followed by n "SLOW <key>=<value> ..." lines)
//! PONG
//! BYE
//! ```
//!
//! `METRICS` is the only reply without a fixed line count: clients read
//! until the OpenMetrics `# EOF` terminator line. `SEEDS` and `SLOWLOG`
//! declare their line counts up front in the header. `METRICS` carries
//! every serving number: request counts, phase latencies and the accounted
//! per-component memory footprint (`fgserve_mem_*`). Any other verb is a
//! `bad-request`.
//!
//! `INFER_SEEDS` answers its seed list by sampling a fanout-bounded
//! neighborhood and running the model over its per-layer blocks; `fanout`
//! names per-hop in-neighbor caps (seed-side first, at least one per model
//! layer or the request is a `bad-request`) and defaults to full fanout
//! over two hops, which reproduces full-graph logits bit-for-bit.
//! One `SEED` line comes back per requested seed, in request order; the
//! header carries the sampled subgraph's vertex/edge counts. A failed
//! seeded request answers with a single ordinary `ERR` line.
//!
//! `feats=` carries client-supplied feature rows for the seed vertices
//! (rows `;`-separated, values `,`-separated, one row per seed in seed
//! order); the engine substitutes them for the stored feature rows before
//! inference. Non-finite values are rejected with `bad-request`. The
//! payload is read once, by one scanner that converts plain decimals
//! exactly in place and hands any other token to `str::parse::<f32>`, so
//! values and error messages are that function's. ASCII is still the
//! feature-heavy workload's cost over text, the cost the binary protocol
//! ([`crate::frame`]) avoids: on the 2-vCPU benchmark host, a 32 × 256
//! block (≈ 91 KB per line, `bench/e2e`'s `seeds_text_wide`) decodes in
//! 222–246 µs (`wire.decode_req_p50_us`), against 428–713 µs with the
//! split-then-`parse` decoder it replaced.
//!
//! `<id>` is an opaque client token echoed back verbatim (`-` when the
//! request carried none) — it is how `fgserve bench` proves that no
//! response was lost, duplicated, or crossed between requests. Error codes
//! are the stable strings from `ServeError::code`: `overloaded`,
//! `over-memory-budget`, `timeout`, `unknown-model`, `bad-request`,
//! `shutting-down`, `infer-failed`.

use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::time::Duration;

use fg_tensor::Dense2;

use crate::engine::{InferResponse, SeedsResponse};
use crate::frame::WireReply;

/// Placeholder ID echoed when the client supplied none.
pub const NO_ID: &str = "-";

/// A parsed client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `INFER <model> <node> [id=..] [deadline_ms=..]`
    Infer {
        /// Target model name.
        model: String,
        /// Requested node.
        node: usize,
        /// Client token echoed in the response.
        id: Option<String>,
        /// Per-request deadline override.
        deadline_ms: Option<u64>,
    },
    /// `INFER_SEEDS <model> <s0,s1,...> [fanout=..] [sample_seed=..]
    /// [id=..] [deadline_ms=..]`
    InferSeeds {
        /// Target model name.
        model: String,
        /// Requested seed vertices, in reply order.
        seeds: Vec<usize>,
        /// Per-hop fanout caps; `None` = full fanout, two hops.
        fanouts: Option<Vec<usize>>,
        /// Sampler RNG seed (defaults to 0).
        sample_seed: u64,
        /// Client-supplied feature rows (one per seed, in seed order)
        /// substituted for the stored rows; `None` = stored features.
        feats: Option<Dense2<f32>>,
        /// Client token echoed in the response.
        id: Option<String>,
        /// Per-request deadline override.
        deadline_ms: Option<u64>,
    },
    /// `METRICS` — Prometheus-style exposition, read until `# EOF`.
    Metrics,
    /// `SLOWLOG [<n>]` — newest `n` slow-request entries (all when omitted).
    SlowLog {
        /// Maximum entries to return.
        limit: Option<usize>,
    },
    /// `PING`
    Ping,
    /// `SHUTDOWN`
    Shutdown,
}

impl Request {
    /// Whether this verb runs inference (`INFER` / `INFER_SEEDS`): the
    /// verbs whose reply write the front-end times as the `serialize` phase.
    pub fn is_inference(&self) -> bool {
        matches!(self, Request::Infer { .. } | Request::InferSeeds { .. })
    }

    /// The deadline as a `Duration`, if any.
    pub fn deadline(&self) -> Option<Duration> {
        match self {
            Request::Infer { deadline_ms, .. } | Request::InferSeeds { deadline_ms, .. } => {
                deadline_ms.map(Duration::from_millis)
            }
            _ => None,
        }
    }
}

/// Parse one client line. Returns a human-readable error message for
/// malformed input (sent back as `ERR - bad-request <msg>`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut parts = Words { line, at: 0 };
    let verb = parts.next().ok_or("empty request")?;
    match verb {
        "PING" => Ok(Request::Ping),
        "METRICS" => Ok(Request::Metrics),
        "SLOWLOG" => {
            let limit = match parts.next() {
                None => None,
                Some(tok) => Some(
                    tok.parse()
                        .map_err(|_| format!("bad SLOWLOG limit {tok:?}"))?,
                ),
            };
            Ok(Request::SlowLog { limit })
        }
        "SHUTDOWN" => Ok(Request::Shutdown),
        // One shape for both inference verbs: a model, the rows wanted, and
        // `key=value` options — `INFER` takes a single row and only the
        // options every inference request takes.
        "INFER" | "INFER_SEEDS" => {
            let seeded = verb == "INFER_SEEDS";
            let usage = if seeded {
                "INFER_SEEDS needs: INFER_SEEDS <model> <s0,s1,...>"
            } else {
                "INFER needs: INFER <model> <node>"
            };
            let model = parts.next().ok_or(usage)?.to_string();
            let rows_tok = parts.next().ok_or(usage)?;
            let rows = if seeded {
                parse_usize_list(rows_tok).map_err(|t| format!("bad seed {t:?}"))?
            } else {
                vec![rows_tok
                    .parse()
                    .map_err(|_| format!("bad node {rows_tok:?}"))?]
            };
            let (mut fanouts, mut sample_seed, mut feats) = (None, 0, None);
            let (mut id, mut deadline_ms) = (None, None);
            loop {
                if let Some(payload) = parts.rest().strip_prefix("feats=").filter(|_| seeded) {
                    let (f, len) = parse_feats(payload)?;
                    feats = Some(f);
                    parts.at += "feats=".len() + len;
                    continue;
                }
                let Some(opt) = parts.next() else { break };
                let unknown = || format!("unknown option {opt:?}");
                let (key, tok) = opt.split_once('=').ok_or_else(unknown)?;
                match key {
                    "id" if tok.is_empty() => return Err("empty id=".into()),
                    "id" => id = Some(tok.to_string()),
                    "deadline_ms" => {
                        let ms = tok
                            .parse()
                            .map_err(|_| format!("bad deadline_ms {tok:?}"))?;
                        deadline_ms = Some(ms);
                    }
                    "fanout" if seeded => {
                        let f = parse_usize_list(tok).map_err(|t| format!("bad fanout {t:?}"))?;
                        fanouts = Some(f);
                    }
                    "sample_seed" if seeded => {
                        sample_seed = tok
                            .parse()
                            .map_err(|_| format!("bad sample_seed {tok:?}"))?;
                    }
                    _ => return Err(unknown()),
                }
            }
            Ok(if seeded {
                Request::InferSeeds {
                    model,
                    seeds: rows,
                    fanouts,
                    sample_seed,
                    feats,
                    id,
                    deadline_ms,
                }
            } else {
                Request::Infer {
                    model,
                    node: rows[0],
                    id,
                    deadline_ms,
                }
            })
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// The whitespace-separated words of a request line, as
/// `str::split_ascii_whitespace` yields them. [`parse_request`] hands a
/// `feats=` payload to [`parse_feats`] unsplit instead, from [`Words::rest`]:
/// the scanner finds where that word ends, so the line's widest word is
/// read once.
struct Words<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Words<'a> {
    /// The line from the start of the next word on.
    fn rest(&mut self) -> &'a str {
        let blank = self.line.as_bytes()[self.at..]
            .iter()
            .take_while(|b| b.is_ascii_whitespace());
        self.at += blank.count();
        &self.line[self.at..]
    }
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(rest.len());
        self.at += len;
        (len > 0).then(|| &rest[..len])
    }
}

/// Parse a comma-separated list of unsigned integers; the error is the
/// offending token.
fn parse_usize_list(tok: &str) -> Result<Vec<usize>, &str> {
    tok.split(',')
        .map(|t| t.parse::<usize>().map_err(|_| t))
        .collect()
}

/// Parse a `feats=` payload: rows separated by `;`, values by `,`, up to
/// the first ASCII whitespace or the end of `payload`; returns the matrix
/// and the payload's length. Every row must have the same width;
/// `nan`/`inf` tokens are rejected here so a malformed payload never
/// reaches the engine.
///
/// One pass over the payload: each value is scanned by [`scan_decimal`],
/// whose digit loop also finds the separator that ends it, and lands in
/// the one flat buffer the matrix is built from. Values and errors are
/// exactly those of `str::parse::<f32>` applied per token, row by row: a
/// bad value is reported before its row's width is checked.
fn parse_feats(payload: &str) -> Result<(Dense2<f32>, usize), String> {
    let bytes = payload.as_bytes();
    let mut values = Vec::new();
    let (mut rows, mut cols, mut at) = (0, 0, 0);
    loop {
        // A row that ends where it starts; a leading `,` is an empty value.
        if bytes
            .get(at)
            .is_none_or(|&b| b == b';' || b.is_ascii_whitespace())
        {
            return Err("empty feats row".into());
        }
        let mut width = 0;
        let end = loop {
            let (value, end) = scan_feat(payload, at)?;
            values.push(value);
            width += 1;
            at = end + 1;
            if bytes.get(end) != Some(&b',') {
                break end;
            }
        };
        if rows == 0 {
            cols = width;
        } else if width != cols {
            return Err(format!(
                "ragged feats: row 0 has {cols} values, row {rows} has {width}"
            ));
        }
        rows += 1;
        if bytes.get(end) != Some(&b';') {
            let feats = Dense2::from_vec(rows, cols, values);
            return feats
                .map(|f| (f, end))
                .map_err(|e| format!("bad feats shape: {e}"));
        }
    }
}

/// Whether `next`, the byte after a `feats=` value, ends it: a `,` or `;`
/// separator, ASCII whitespace, or the end of the line.
fn ends_value(next: Option<&u8>) -> bool {
    next.is_none_or(|&b| b == b',' || b == b';' || b.is_ascii_whitespace())
}

/// Scan the `feats=` value that starts at byte `at` of `payload`: returns
/// it and the index of the byte that ends it (see [`ends_value`]). A value
/// [`scan_decimal`] takes exactly is converted in place; any other token
/// goes to `str::parse::<f32>`.
fn scan_feat(payload: &str, at: usize) -> Result<(f32, usize), String> {
    let rest = &payload.as_bytes()[at..];
    let (len, exact) = scan_decimal(rest);
    if let Some(value) = exact.filter(|_| ends_value(rest.get(len))) {
        return Ok((value, at + len));
    }
    let mut end = at + len;
    while !ends_value(payload.as_bytes().get(end)) {
        end += 1;
    }
    // `at` and `end` sit next to ASCII bytes (or the ends of `payload`), so
    // both are char boundaries.
    let t = &payload[at..end];
    match t.parse::<f32>() {
        Ok(v) if v.is_finite() => Ok((v, end)),
        Ok(_) => Err(format!("non-finite feat {t:?}")),
        Err(_) => Err(format!("bad feat {t:?}")),
    }
}

/// `10^k` for every `k` [`scan_decimal`] converts; each is exact in f64.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Clinger's fast path for the plain decimals `feats=` carries (W. D.
/// Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990).
/// Scans the longest prefix of `bytes` shaped like `[-+]digits[.digits]`
/// and returns its length, plus its value when the prefix has that exact
/// shape and the value is exact by this argument:
///
/// - The prefix is `w / 10^k` with `w` an integer of at most 2^53 (so it
///   is an f64: at most 16 significant digits) and `k ≤ 22` (so `10^k` is
///   an f64). One IEEE division then gives the correctly rounded f64 of
///   the decimal.
/// - That f64 is 0 or within `[10^-22, 2^53]`, inside the normal f32
///   range. Rounding it to f32 there gives the correctly rounded f32 of
///   the decimal unless it lies exactly on an f32 rounding midpoint (its
///   low 29 mantissa bits are `0x1000_0000`). Those are left to
///   `str::parse`, like every token of another shape (exponents, `inf`,
///   `nan`, `.5`, `5.`), so subnormals and overflow never reach the cast.
///
/// So every value returned equals `str::parse::<f32>` of the prefix, bit
/// for bit, and is finite.
fn scan_decimal(bytes: &[u8]) -> (usize, Option<f32>) {
    let negative = bytes.first() == Some(&b'-');
    let mut i = usize::from(matches!(bytes.first(), Some(b'-' | b'+')));
    let mut w = 0u64;
    let mut digits = |i: &mut usize| {
        let start = *i;
        while let Some(d) = bytes
            .get(*i)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            // Saturates, so a digit string too long for a u64 stays > 2^53.
            w = w.saturating_mul(10).saturating_add(u64::from(d));
            *i += 1;
        }
        *i - start
    };
    let int_digits = digits(&mut i);
    let mut frac_digits = 0;
    let mut shaped = int_digits > 0;
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        frac_digits = digits(&mut i);
        shaped &= frac_digits > 0;
    }
    if !shaped || w > 1 << 53 || frac_digits >= POW10.len() {
        return (i, None);
    }
    let q = w as f64 / POW10[frac_digits];
    if q.to_bits() & 0x1FFF_FFFF == 0x1000_0000 {
        return (i, None);
    }
    let v = q as f32;
    (i, Some(if negative { -v } else { v }))
}

fn join<T: ToString>(items: &[T], sep: &str) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(sep)
}

/// Render a request as its text line (no trailing newline) — the inverse
/// of [`parse_request`]. Floats print as their shortest round-tripping
/// decimal, so `feats` survive bit-for-bit. An `id` must be one
/// whitespace-free token, the text protocol's one limit the binary one
/// lacks.
pub fn format_request(req: &Request) -> String {
    let mut line = match req {
        Request::Ping => "PING".to_string(),
        Request::Metrics => "METRICS".to_string(),
        Request::SlowLog { limit: None } => "SLOWLOG".to_string(),
        Request::SlowLog { limit: Some(n) } => format!("SLOWLOG {n}"),
        Request::Shutdown => "SHUTDOWN".to_string(),
        Request::Infer { model, node, .. } => format!("INFER {model} {node}"),
        Request::InferSeeds {
            model,
            seeds,
            fanouts,
            sample_seed,
            feats,
            ..
        } => {
            let mut line = format!("INFER_SEEDS {model} {}", join(seeds, ","));
            if let Some(fanouts) = fanouts {
                let _ = write!(line, " fanout={}", join(fanouts, ","));
            }
            if let Some(feats) = feats {
                let rows: Vec<String> =
                    (0..feats.rows()).map(|r| join(feats.row(r), ",")).collect();
                let _ = write!(line, " feats={}", rows.join(";"));
            }
            let _ = write!(line, " sample_seed={sample_seed}");
            line
        }
    };
    if let Request::Infer {
        id, deadline_ms, ..
    }
    | Request::InferSeeds {
        id, deadline_ms, ..
    } = req
    {
        if let Some(id) = id {
            let _ = write!(line, " id={id}");
        }
        if let Some(ms) = deadline_ms {
            let _ = write!(line, " deadline_ms={ms}");
        }
    }
    line
}

/// Render a successful inference reply.
pub fn format_ok(id: Option<&str>, resp: &InferResponse) -> String {
    let mut line = format!("OK {}", id.unwrap_or(NO_ID));
    push_class_logits(&mut line, resp);
    line
}

/// Append the ` <class> <logit0> <logit1> ...` tail of an `OK` or `SEED`
/// line (the inverse of `parse_class_logits`).
fn push_class_logits(line: &mut String, resp: &InferResponse) {
    let _ = write!(line, " {}", resp.class);
    for logit in &resp.logits {
        let _ = write!(line, " {logit}");
    }
}

/// Render a successful seeded reply as its multi-line wire form: the
/// `SEEDS` header (declared line count plus subgraph dims), then one
/// `SEED <node> <class> <logits...>` line per requested seed, in request
/// order. `seeds` is the request's seed list (the engine reply carries
/// rows, not vertex ids).
pub fn format_seeds_ok(id: Option<&str>, seeds: &[usize], resp: &SeedsResponse) -> Vec<String> {
    debug_assert_eq!(seeds.len(), resp.results.len());
    let mut lines = Vec::with_capacity(resp.results.len() + 1);
    lines.push(format!(
        "SEEDS {} {} {} {}",
        id.unwrap_or(NO_ID),
        resp.results.len(),
        resp.sub_vertices,
        resp.sub_edges,
    ));
    for (node, r) in seeds.iter().zip(&resp.results) {
        let mut line = format!("SEED {node}");
        push_class_logits(&mut line, r);
        lines.push(line);
    }
    lines
}

/// A parsed `SEEDS` reply header (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedsHeader {
    /// Echoed client token.
    pub id: String,
    /// Number of `SEED` lines that follow.
    pub count: usize,
    /// Vertices in the sampled subgraph.
    pub sub_vertices: usize,
    /// Edges in the sampled subgraph.
    pub sub_edges: usize,
}

/// Parse a `SEEDS <id> <n> <sub_v> <sub_e>` header line (client side).
pub fn parse_seeds_header(line: &str) -> Result<SeedsHeader, String> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("SEEDS") {
        return Err(format!("not a SEEDS header: {line:?}"));
    }
    let id = parts.next().ok_or("SEEDS missing id")?.to_string();
    let mut num = |what: &str| -> Result<usize, String> {
        parts
            .next()
            .ok_or(format!("SEEDS missing {what}"))?
            .parse()
            .map_err(|_| format!("bad SEEDS {what}"))
    };
    Ok(SeedsHeader {
        id,
        count: num("count")?,
        sub_vertices: num("sub_vertices")?,
        sub_edges: num("sub_edges")?,
    })
}

/// Parse one `SEED <node> <class> <logits...>` payload line (client side).
pub fn parse_seed_line(line: &str) -> Result<(usize, InferResponse), String> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some("SEED") {
        return Err(format!("not a SEED line: {line:?}"));
    }
    let node: usize = parts
        .next()
        .ok_or("SEED missing node")?
        .parse()
        .map_err(|_| "bad SEED node")?;
    Ok((node, parse_class_logits(parts, "SEED")?))
}

/// Parse the `<class> <logit0> <logit1> ...` tail of an `OK` or `SEED` line.
fn parse_class_logits<'a>(
    mut parts: impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<InferResponse, String> {
    let class = parts.next().ok_or(format!("{what} missing class"))?;
    let class = class.parse().map_err(|_| format!("bad {what} class"))?;
    let logits = parts
        .map(|t| t.parse::<f32>().map_err(|_| format!("bad logit {t:?}")))
        .collect::<Result<Vec<f32>, String>>()?;
    Ok(InferResponse { class, logits })
}

fn err_line(id: &str, code: &str, detail: &str) -> String {
    format!("ERR {id} {code} {detail}")
}

/// Render any reply as the exact bytes a text connection receives, final
/// newline included — the text counterpart of
/// [`encode_reply`](crate::frame::encode_reply), so one
/// [`WireReply`] serves both protocols.
pub fn format_reply(reply: &WireReply) -> String {
    let mut out = match reply {
        WireReply::Ok { id, resp } => format_ok(Some(id), resp),
        WireReply::Err { id, code, detail } => err_line(id, code, detail),
        // Declared-count multi-line reply, SLOWLOG-style.
        WireReply::Seeds { id, seeds, resp } => format_seeds_ok(Some(id), seeds, resp).join("\n"),
        // Text bodies already carry their line breaks (METRICS ends with
        // the "# EOF" terminator line clients read up to).
        WireReply::Text(body) => return body.clone(),
        WireReply::Pong => "PONG".to_string(),
        WireReply::Bye => "BYE".to_string(),
    };
    out.push('\n');
    out
}

/// Read `n` more lines of a multi-line reply, line endings kept.
fn read_lines(reader: &mut impl BufRead, n: usize) -> io::Result<Vec<String>> {
    let mut lines = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        lines.push(line);
    }
    Ok(lines)
}

/// Read one reply off a text connection (client side) — the inverse of
/// [`format_reply`]. `Ok(None)` is a clean end of stream before the reply's
/// first byte; a reply that does not parse is `InvalidData`.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Option<WireReply>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut body = String::new();
    if reader.read_line(&mut body)? == 0 {
        return Ok(None);
    }
    let head = body.trim_end();
    let reply = match head.split(' ').next().unwrap_or_default() {
        "PONG" => WireReply::Pong,
        "BYE" => WireReply::Bye,
        "OK" | "ERR" => match parse_reply(head).map_err(bad)? {
            Reply::Ok { id, class, logits } => WireReply::Ok {
                id,
                resp: InferResponse { class, logits },
            },
            // The detail is whatever follows `ERR <id> <code> `.
            Reply::Err { id, code } => WireReply::Err {
                detail: head.splitn(4, ' ').nth(3).unwrap_or_default().to_string(),
                id,
                code,
            },
        },
        "SEEDS" => {
            let header = parse_seeds_header(head).map_err(bad)?;
            let mut seeds = Vec::with_capacity(header.count.min(1 << 16));
            let mut results = Vec::with_capacity(header.count.min(1 << 16));
            for line in read_lines(reader, header.count)? {
                let (node, resp) = parse_seed_line(line.trim_end()).map_err(bad)?;
                seeds.push(node);
                results.push(resp);
            }
            WireReply::Seeds {
                id: header.id,
                seeds,
                resp: SeedsResponse {
                    results,
                    sub_vertices: header.sub_vertices,
                    sub_edges: header.sub_edges,
                },
            }
        }
        // A declared-count body: `SLOWLOG <n>`, then n lines.
        "SLOWLOG" => {
            let count = head.split(' ').nth(1).and_then(|n| n.parse().ok());
            let count = count.ok_or_else(|| bad(format!("bad line count in {head:?}")))?;
            body.extend(read_lines(reader, count)?);
            WireReply::Text(body)
        }
        // METRICS declares no count: it runs to its terminator line.
        _ => {
            let mut line = body.clone();
            while line.trim_end() != "# EOF" {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                body.push_str(&line);
            }
            WireReply::Text(body)
        }
    };
    Ok(Some(reply))
}

/// A parsed `OK`/`ERR` server reply, as seen by the bench client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful inference.
    Ok {
        /// Echoed client token.
        id: String,
        /// Predicted class.
        class: usize,
        /// Logits row.
        logits: Vec<f32>,
    },
    /// Typed failure.
    Err {
        /// Echoed client token.
        id: String,
        /// Machine-readable error code.
        code: String,
    },
}

/// Parse a server `OK`/`ERR` line (bench-client side).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let mut parts = line.split_ascii_whitespace();
    match parts.next() {
        Some("OK") => {
            let id = parts.next().ok_or("OK missing id")?.to_string();
            let InferResponse { class, logits } = parse_class_logits(parts, "OK")?;
            Ok(Reply::Ok { id, class, logits })
        }
        Some("ERR") => {
            let id = parts.next().ok_or("ERR missing id")?.to_string();
            let code = parts.next().ok_or("ERR missing code")?.to_string();
            Ok(Reply::Err { id, code })
        }
        other => Err(format!("unexpected reply {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeError;
    use proptest::prelude::*;

    #[test]
    fn parses_full_infer_line() {
        let req = parse_request("INFER gcn 42 id=c3-r7 deadline_ms=250").unwrap();
        assert_eq!(
            req,
            Request::Infer {
                model: "gcn".into(),
                node: 42,
                id: Some("c3-r7".into()),
                deadline_ms: Some(250),
            }
        );
        assert_eq!(req.deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn parses_minimal_and_control_lines() {
        assert_eq!(
            parse_request("INFER gat 0").unwrap(),
            Request::Infer {
                model: "gat".into(),
                node: 0,
                id: None,
                deadline_ms: None
            }
        );
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("SLOWLOG").unwrap(),
            Request::SlowLog { limit: None }
        );
        assert_eq!(
            parse_request("SLOWLOG 10").unwrap(),
            Request::SlowLog { limit: Some(10) }
        );
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB x").is_err());
        assert!(parse_request("SHARDS").is_err(), "no SHARDS verb");
        assert!(parse_request("STATS").is_err(), "no STATS verb");
        assert!(parse_request("MEMORY").is_err(), "no MEMORY verb");
        assert!(parse_request("INFER gcn").is_err());
        assert!(parse_request("INFER gcn notanode").is_err());
        assert!(parse_request("INFER gcn 1 id=").is_err());
        assert!(parse_request("INFER gcn 1 deadline_ms=soon").is_err());
        assert!(parse_request("INFER gcn 1 frobnicate=1").is_err());
        assert!(parse_request("SLOWLOG many").is_err());
    }

    #[test]
    fn parses_infer_seeds_lines() {
        let req =
            parse_request("INFER_SEEDS gat 3,1,4 fanout=10,5 sample_seed=7 id=c1 deadline_ms=90")
                .unwrap();
        assert_eq!(
            req,
            Request::InferSeeds {
                model: "gat".into(),
                seeds: vec![3, 1, 4],
                fanouts: Some(vec![10, 5]),
                sample_seed: 7,
                feats: None,
                id: Some("c1".into()),
                deadline_ms: Some(90),
            }
        );
        assert_eq!(req.deadline(), Some(Duration::from_millis(90)));
        // Minimal form: defaults are full fanout (None) and sample_seed 0.
        assert_eq!(
            parse_request("INFER_SEEDS gcn 5").unwrap(),
            Request::InferSeeds {
                model: "gcn".into(),
                seeds: vec![5],
                fanouts: None,
                sample_seed: 0,
                feats: None,
                id: None,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn parses_feats_payload() {
        let req = parse_request("INFER_SEEDS gcn 3,1 feats=0.5,-1.25;2,3 id=c9").unwrap();
        match req {
            Request::InferSeeds { feats: Some(f), .. } => {
                assert_eq!(f.shape(), (2, 2));
                assert_eq!(f.as_slice(), &[0.5, -1.25, 2.0, 3.0]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_feats_payloads() {
        // ragged rows
        assert!(parse_request("INFER_SEEDS gcn 1,2 feats=1,2;3").is_err());
        // empty row / empty payload
        assert!(parse_request("INFER_SEEDS gcn 1 feats=").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1,2 feats=1,2;;3,4").is_err());
        // unparsable scalar
        assert!(parse_request("INFER_SEEDS gcn 1 feats=1,x").is_err());
        // non-finite scalars never reach the engine
        assert!(parse_request("INFER_SEEDS gcn 1 feats=nan,1").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1 feats=inf").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1 feats=-inf,0").is_err());
    }

    /// The `feats=` parser this scanner replaced: split on `;`, then on
    /// `,`, `str::parse::<f32>` per token. The reference every scanner
    /// result is checked against, bits and error strings alike.
    fn parse_feats_oracle(tok: &str) -> Result<Dense2<f32>, String> {
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for row_tok in tok.split(';') {
            if row_tok.is_empty() {
                return Err("empty feats row".into());
            }
            let row = row_tok
                .split(',')
                .map(|t| match t.parse::<f32>() {
                    Ok(v) if v.is_finite() => Ok(v),
                    Ok(_) => Err(format!("non-finite feat {t:?}")),
                    Err(_) => Err(format!("bad feat {t:?}")),
                })
                .collect::<Result<Vec<f32>, String>>()?;
            if let Some(first) = rows.first() {
                if row.len() != first.len() {
                    return Err(format!(
                        "ragged feats: row 0 has {} values, row {} has {}",
                        first.len(),
                        rows.len(),
                        row.len()
                    ));
                }
            }
            rows.push(row);
        }
        let cols = rows[0].len();
        let n = rows.len();
        Dense2::from_vec(n, cols, rows.into_iter().flatten().collect())
            .map_err(|e| format!("bad feats shape: {e}"))
    }

    /// A parse outcome with every value as its bits, so `-0` and `0`
    /// differ and the comparison is exact.
    fn feats_bits(parsed: Result<Dense2<f32>, String>) -> Result<(usize, usize, Vec<u32>), String> {
        parsed.map(|f| {
            let (rows, cols) = f.shape();
            (
                rows,
                cols,
                f.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
    }

    /// Tokens at the edges of the fast path and of `str::parse::<f32>`.
    const UGLY_FEATS: [&str; 24] = [
        "-0",
        "+1",
        ".5",
        "5.",
        "-.5",
        ".",
        "1e-45",
        "1e-40",
        "3.4028236e38",
        "inf",
        "nan",
        "-",
        "+",
        "",
        "-inf",
        "NaN",
        "1.5x",
        "1.2.3",
        "00.000",
        "--1",
        "16777217",
        "0.2905522435903549",
        "0.00000000000000000000001",
        "9007199254740993",
    ];

    /// One `feats=` value: the `Display` string of a random f32 bit
    /// pattern, a random `[-+]digits[.digits]` decimal of 1–25 digits, or
    /// an ugly case.
    fn arb_feat() -> impl Strategy<Value = String> {
        let display = (0u32..u32::MAX).prop_map(|b| f32::from_bits(b).to_string());
        let decimal = (
            0usize..3,
            proptest::collection::vec(0u32..10, 1..26),
            0usize..26,
        )
            .prop_map(|(sign, digits, dot)| {
                let mut t: String = ["", "-", "+"][sign].into();
                for (i, d) in digits.iter().enumerate() {
                    if i == dot && i > 0 {
                        t.push('.');
                    }
                    t.push(char::from_digit(*d, 10).expect("a digit"));
                }
                t
            });
        let ugly = (0..UGLY_FEATS.len()).prop_map(|i| UGLY_FEATS[i].to_string());
        prop_oneof![display, decimal, ugly]
    }

    /// A whole payload: 1–4 rows of 0–4 values (so empty and ragged rows
    /// occur), sometimes with a trailing `;` or `,`.
    fn arb_feats_payload() -> impl Strategy<Value = String> {
        let row = proptest::collection::vec(arb_feat(), 0..5).prop_map(|row| row.join(","));
        (proptest::collection::vec(row, 1..5), 0usize..4)
            .prop_map(|(rows, tail)| rows.join(";") + ["", "", ";", ","][tail])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The one-pass scanner returns the oracle's bits or the oracle's
        /// error string, on its own and inside a request line, where the
        /// scanner itself finds the end of the `feats=` word.
        #[test]
        fn feats_scanner_matches_the_oracle(payload in arb_feats_payload(), blank in 0usize..5) {
            let want = feats_bits(parse_feats_oracle(&payload));
            let got = parse_feats(&payload).map(|(f, len)| {
                assert_eq!(len, payload.len(), "{payload:?}");
                f
            });
            prop_assert_eq!(feats_bits(got), want.clone(), "{:?}", payload);
            let blank = [" ", "\t", "  ", "\r", "\x0c"][blank];
            let line = format!("INFER_SEEDS gcn 1 feats={payload}{blank}id=x");
            let got = match parse_request(&line) {
                Ok(Request::InferSeeds { feats: Some(f), id, .. }) => {
                    assert_eq!(id.as_deref(), Some("x"));
                    Ok(f)
                }
                Ok(other) => panic!("{other:?}"),
                Err(e) => Err(e),
            };
            prop_assert_eq!(feats_bits(got), want, "{:?}", line);
        }
    }

    #[test]
    fn feats_edge_cases_match_the_oracle() {
        let payloads = [
            "",
            ";",
            ",",
            "1;",
            "1,",
            "1,2;3",
            "1;2,3",
            "1,x;2",
            "1,2;3,x",
            "1;;2",
            "-",
            "1,-",
            "nan,1",
            "1;inf",
            "3.4028236e38",
            "-0,+0",
            "1e-40,1e-45",
            ".5,5.,-.5",
            ".",
        ];
        for payload in payloads.iter().copied().chain(UGLY_FEATS) {
            let got = parse_feats(payload).map(|(f, _)| f);
            assert_eq!(
                feats_bits(got),
                feats_bits(parse_feats_oracle(payload)),
                "{payload:?}"
            );
        }
    }

    /// Every value the fast path returns is `str::parse::<f32>`'s, bit for
    /// bit, over a million `Display` strings of random f32 bit patterns
    /// and a million random decimals; and it takes a real share of both.
    #[test]
    fn fast_path_is_bit_exact() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let check = |t: &str| {
            let (len, exact) = scan_decimal(t.as_bytes());
            let Some(v) = exact else { return false };
            let want = t[..len].parse::<f32>();
            assert_eq!(want.map(f32::to_bits), Ok(v.to_bits()), "{t:?}");
            len == t.len()
        };
        let cases = 1_000_000;
        let mut token = String::new();
        let (mut display_hits, mut decimal_hits) = (0, 0);
        for _ in 0..cases {
            let bits = next();
            token.clear();
            let _ = write!(token, "{}", f32::from_bits(bits as u32));
            display_hits += usize::from(check(&token));
            // A decimal of 1-25 digits, the point anywhere, maybe signed.
            let digits = 1 + (bits >> 32) as usize % 25;
            let dot = (bits >> 40) as usize % (digits + 1);
            token.clear();
            token.push_str(["", "-", "+"][(bits >> 48) as usize % 3]);
            let mut r = next();
            for i in 0..digits {
                if i == dot && i > 0 {
                    token.push('.');
                }
                if i % 16 == 0 {
                    r = next();
                }
                token.push(char::from(b'0' + (r % 10) as u8));
                r /= 10;
            }
            decimal_hits += usize::from(check(&token));
        }
        assert!(display_hits > cases / 4, "{display_hits}");
        assert!(decimal_hits > cases / 4, "{decimal_hits}");
    }

    /// Two decimals a naive `w as f64 / 10^k` then `as f32` gets wrong,
    /// each refused by one of the fast path's conditions:
    /// - `0.2905522435903549` is `w / 10^16` with `w < 2^53`: its f64 is
    ///   correctly rounded and lands exactly on an f32 midpoint, which the
    ///   cast rounds to even, away from the decimal's nearest f32;
    /// - `1.46866196393966674` has 18 digits but `w > 2^53`: `w as f64`
    ///   rounds first, and the quotient crosses an f32 midpoint.
    #[test]
    fn fast_path_refuses_what_would_round_twice() {
        for (token, w, k, on_midpoint) in [
            ("0.2905522435903549", 2_905_522_435_903_549u64, 16, true),
            ("1.46866196393966674", 146_866_196_393_966_674, 17, false),
        ] {
            let q = w as f64 / POW10[k];
            let midpoint = q.to_bits() & 0x1FFF_FFFF == 0x1000_0000;
            assert_eq!(midpoint, on_midpoint, "{token}");
            let naive = q as f32;
            let want = token.parse::<f32>().unwrap();
            assert_ne!(
                naive.to_bits(),
                want.to_bits(),
                "{token}: the naive cast is wrong"
            );
            assert_eq!(
                scan_decimal(token.as_bytes()),
                (token.len(), None),
                "{token}"
            );
            let (feats, _) = parse_feats(token).unwrap();
            assert_eq!(feats.as_slice()[0].to_bits(), want.to_bits(), "{token}");
        }
    }

    #[test]
    fn rejects_malformed_infer_seeds_lines() {
        assert!(parse_request("INFER_SEEDS gcn").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1,x").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1,2 fanout=").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1 fanout=3,no").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1 sample_seed=soon").is_err());
        assert!(parse_request("INFER_SEEDS gcn 1 frobnicate=1").is_err());
    }

    #[test]
    fn seeds_reply_round_trips() {
        let resp = SeedsResponse {
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
        };
        let lines = format_seeds_ok(Some("c2"), &[9, 4], &resp);
        assert_eq!(lines.len(), 3);
        let header = parse_seeds_header(&lines[0]).unwrap();
        assert_eq!(
            header,
            SeedsHeader {
                id: "c2".into(),
                count: 2,
                sub_vertices: 17,
                sub_edges: 40,
            }
        );
        let (node, first) = parse_seed_line(&lines[1]).unwrap();
        assert_eq!(node, 9);
        assert_eq!(first, resp.results[0]);
        let (node, second) = parse_seed_line(&lines[2]).unwrap();
        assert_eq!(node, 4);
        assert_eq!(second, resp.results[1]);
        assert!(parse_seeds_header("OK - 1").is_err());
        assert!(parse_seed_line("SEED x 1").is_err());
    }

    #[test]
    fn ok_reply_round_trips() {
        let resp = InferResponse {
            class: 2,
            logits: vec![-0.5, 0.25, 1.75],
        };
        let line = format_ok(Some("c0-r1"), &resp);
        match parse_reply(&line).unwrap() {
            Reply::Ok { id, class, logits } => {
                assert_eq!(id, "c0-r1");
                assert_eq!(class, 2);
                assert_eq!(logits, resp.logits);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_reply_round_trips_through_text() {
        let row = |class, logits: &[f32]| InferResponse {
            class,
            logits: logits.to_vec(),
        };
        let replies = [
            WireReply::Pong,
            WireReply::Bye,
            WireReply::Ok {
                id: "c0".into(),
                resp: row(2, &[-0.5, 0.25, 1.75e-7]),
            },
            WireReply::Err {
                id: NO_ID.into(),
                code: "bad-request".into(),
                detail: "bad request: node 9 out of range (graph has 4 vertices)".into(),
            },
            WireReply::Seeds {
                id: "c2".into(),
                seeds: vec![9, 4],
                resp: SeedsResponse {
                    results: vec![row(1, &[0.5, 2.0]), row(0, &[3.25, -1.0])],
                    sub_vertices: 17,
                    sub_edges: 40,
                },
            },
            WireReply::Text("SLOWLOG 1\nSLOW seq=1 model=gcn\n".into()),
            WireReply::Text(
                "# TYPE fgserve_batches counter\nfgserve_batches_total 3\n# EOF\n".into(),
            ),
        ];
        // Back to back on one stream: each read stops at its reply's end.
        let wire: String = replies.iter().map(format_reply).collect();
        let mut reader = wire.as_bytes();
        for reply in &replies {
            assert_eq!(read_reply(&mut reader).unwrap().as_ref(), Some(reply));
        }
        assert_eq!(read_reply(&mut reader).unwrap(), None, "clean EOF");
        // A reply cut short is an error, not a silent partial answer.
        let cut = &wire.as_bytes()[..wire.find("SEED 4").unwrap()];
        let mut reader = cut;
        let outcome = std::iter::from_fn(|| read_reply(&mut reader).transpose()).last();
        assert!(matches!(outcome, Some(Err(_))), "{outcome:?}");
    }

    #[test]
    fn err_reply_round_trips_with_stable_code() {
        let err = ServeError::Overloaded;
        let line = format_reply(&WireReply::Err {
            id: NO_ID.into(),
            code: err.code().into(),
            detail: err.to_string(),
        });
        assert!(line.starts_with("ERR - overloaded "), "{line}");
        match parse_reply(&line).unwrap() {
            Reply::Err { id, code } => {
                assert_eq!(id, NO_ID);
                assert_eq!(code, "overloaded");
            }
            other => panic!("{other:?}"),
        }
    }
}
