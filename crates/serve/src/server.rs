//! TCP front-end: a blocking acceptor and **one blocking thread per
//! admitted connection**.
//!
//! A connection thread reads, decodes, calls `dispatch` — which blocks on
//! the engine until the worker pool answers — writes the reply and reads
//! again. A thread is parked on its request for the whole engine round
//! trip, so threads are what bound the requests in flight: a fixed pool of
//! them would hide overload in a backlog of ready connections instead of
//! letting the engine queue shed it as `overloaded`. So there is no pool.
//! Admission control happens at accept: beyond
//! [`crate::engine::ServeConfig::max_conns`] live connections, new accepts
//! are shed immediately (counted, connection closed), which bounds threads
//! and sockets alike.
//!
//! A connection's books (`active`/`closed`) are closed when its state
//! drops, whatever the path — clean close, failed spawn, panic. A connection
//! with nothing buffered may idle indefinitely; one holding an incomplete
//! line or frame has [`PARTIAL_MESSAGE_DEADLINE`] to complete it before it
//! is closed, so half a message cannot pin a `max_conns` slot. The acceptor
//! keeps a clone of every live socket: on stop it shuts each one down, so
//! threads blocked in `read` return, and joins them — every client sees EOF
//! and no connection thread outlives the server.
//!
//! Both wire protocols share the front-end and everything behind the
//! codec: a message decodes to a [`Request`], one `dispatch` implements each
//! verb once, and its [`WireReply`] is encoded by the connection's codec.
//! A connection's first bytes pick its mode: the [`crate::frame::MAGIC`]
//! prefix selects the binary
//! frame protocol for the connection's lifetime, anything else is parsed
//! as text lines ([`crate::protocol`]). Replies always use the requesting
//! connection's protocol. Malformed input — unparsable text line,
//! undecodable frame payload — produces a typed error reply and the
//! connection stays usable; only unrecoverable framing damage (wrong
//! magic mid-stream, oversized declared length) closes it.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fg_telemetry::{span, TraceScope};

use crate::engine::{Engine, InferRequest, InferSeedsRequest, ServeError};
use crate::frame::{self, Frame, FrameError, WireReply, HEADER_LEN, MAGIC, MAX_PAYLOAD};
use crate::protocol::{self, Request, NO_ID};
use crate::stats::ConnStats;

/// Read chunk size of a connection thread.
const READ_CHUNK: usize = 64 * 1024;

/// How long a connection may hold an incomplete line or frame in its
/// buffer. The clock starts at the read that brought the message's first
/// bytes and later bytes do not restart it; it is checked when a read
/// returns, and a read waits at most this long, so a silent peer is closed
/// this long after its last byte and a trickling one at its first byte past
/// the deadline — a slot is held for under twice this value either way.
pub const PARTIAL_MESSAGE_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on buffered-but-unconsumed bytes per connection: one maximal
/// frame plus its header, with headroom for a pipelined follow-up header.
const MAX_BUFFER: usize = MAX_PAYLOAD as usize + 2 * HEADER_LEN;

/// A running server; dropping it does **not** stop the acceptor — call
/// [`shutdown`](Self::shutdown) or [`join`](Self::join).
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Block until the acceptor exits (i.e. until a `SHUTDOWN` arrives or
    /// [`shutdown`](Self::shutdown) is called from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting connections and gracefully drain the engine.
    pub fn shutdown(mut self) {
        request_stop(&self.stop, self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.engine.shutdown();
    }
}

/// Ask the acceptor to exit: set the flag, then poke the listener with a
/// throwaway connection so the blocking `accept` wakes up.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
}

/// Bind `addr` and serve `engine` until shut down. Pass port 0 to let the
/// OS pick; read the result from [`ServerHandle::addr`].
pub fn serve<A: ToSocketAddrs>(engine: Arc<Engine>, addr: A) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("fgserve-acceptor".into())
            .spawn(move || run_front_end(listener, engine, stop))
            .expect("spawn acceptor")
    };
    Ok(ServerHandle {
        addr,
        engine,
        stop,
        acceptor: Some(acceptor),
    })
}

// ---- per-connection state machine --------------------------------------

/// Wire mode, fixed by the connection's first bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    /// Text lines ([`crate::protocol`]).
    Text,
    /// Length-prefixed binary frames ([`crate::frame`]).
    Binary,
}

/// One admitted connection: its socket, negotiated protocol (`None` until
/// enough bytes arrived to sniff it), and any bytes read but not yet
/// forming a complete message. Dropping it — on any path — closes the
/// connection's books and shuts the socket down (the acceptor holds a clone,
/// so closing this handle alone would not send the peer EOF).
struct ConnState {
    stream: TcpStream,
    proto: Option<Proto>,
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are known to hold no `\n`, so a
    /// text line arriving over many reads is scanned once, not per read.
    scanned: usize,
    /// When the incomplete message at the front of `buf` began arriving;
    /// `None` while `buf` is empty. The socket's read timeout is set exactly
    /// while this is `Some`.
    partial_since: Option<Instant>,
    conn_stats: Arc<ConnStats>,
}

impl Drop for ConnState {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.conn_stats.active.fetch_sub(1, Ordering::Relaxed);
        self.conn_stats.closed.fetch_add(1, Ordering::Relaxed);
    }
}

impl ConnState {
    /// After a service pass over a buffer that held `buffered` bytes going
    /// in: start, keep or clear the partial-message clock, and say whether
    /// the connection is still within [`PARTIAL_MESSAGE_DEADLINE`]. The
    /// socket option changes only when the buffer goes between empty and
    /// non-empty, so a message that takes several reads pays nothing per
    /// chunk.
    fn within_partial_deadline(&mut self, buffered: usize) -> bool {
        if self.buf.is_empty() {
            if self.partial_since.take().is_some() {
                let _ = self.stream.set_read_timeout(None);
            }
            return true;
        }
        match self.partial_since {
            // Nothing was consumed: the same message is still incomplete.
            Some(since) if self.buf.len() == buffered => since.elapsed() < PARTIAL_MESSAGE_DEADLINE,
            // A message completed in this read; what is left began in it.
            Some(_) => {
                self.partial_since = Some(Instant::now());
                true
            }
            None => {
                self.partial_since = Some(Instant::now());
                let _ = self.stream.set_read_timeout(Some(PARTIAL_MESSAGE_DEADLINE));
                true
            }
        }
    }
}

/// What servicing decided about the connection's future.
#[derive(Debug, PartialEq, Eq)]
enum ConnAction {
    /// Keep the connection; wait for more input.
    Keep,
    /// Close it (EOF, IO error, or unrecoverable framing damage).
    Close,
    /// Client asked the whole server to shut down.
    Shutdown,
}

/// Pick the protocol from a connection's first bytes, once there are
/// enough of them: the frame magic selects binary, anything else — or a
/// complete line shorter than the magic — is text.
fn sniff(buf: &[u8]) -> Option<Proto> {
    if buf.len() >= MAGIC.len() && buf[..MAGIC.len()] == MAGIC {
        return Some(Proto::Binary);
    }
    (buf.len() >= MAGIC.len() || buf.contains(&b'\n')).then_some(Proto::Text)
}

/// Consume every complete message currently buffered: decode → [`dispatch`]
/// → encode → write, per message. Partial trailing input stays in
/// `conn.buf` for the next read. Malformed input inside intact
/// framing is answered with a typed `bad-request` and the connection
/// lives on.
fn process_buffer(engine: &Engine, conn: &mut ConnState, conn_stats: &ConnStats) -> ConnAction {
    loop {
        let proto = match conn.proto {
            Some(proto) => proto,
            None => {
                let Some(proto) = sniff(&conn.buf) else {
                    return ConnAction::Keep;
                };
                let seen = match proto {
                    Proto::Text => &conn_stats.text_conns,
                    Proto::Binary => &conn_stats.binary_conns,
                };
                seen.fetch_add(1, Ordering::Relaxed);
                *conn.proto.insert(proto)
            }
        };
        let decoded = match proto {
            Proto::Text => match next_line(&mut conn.buf, &mut conn.scanned) {
                None => return ConnAction::Keep,
                Some(line) if line.trim().is_empty() => continue,
                Some(line) => protocol::parse_request(&line).inspect_err(|_| {
                    conn_stats.bad_lines.fetch_add(1, Ordering::Relaxed);
                }),
            },
            Proto::Binary => match next_frame(&mut conn.buf) {
                Ok(None) => return ConnAction::Keep,
                Ok(Some(frame)) => frame::decode_request(&frame).map_err(|err| {
                    conn_stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    err.to_string()
                }),
                Err(err) => {
                    // Framing is unrecoverable: answer once, then close.
                    conn_stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let reply = bad_input("bad-frame", err.to_string());
                    let _ = write_reply(&mut conn.stream, proto, &reply);
                    return ConnAction::Close;
                }
            },
        };
        // Serialize phase: reply encoding plus the socket write, recorded
        // for the inference verbs only so health checks and scrapes do not
        // dilute it.
        let timed = decoded.as_ref().is_ok_and(Request::is_inference);
        let (reply, action) = match decoded {
            Ok(req) => dispatch(engine, req),
            Err(detail) => (bad_input("bad-request", detail), ConnAction::Keep),
        };
        let ser_start = Instant::now();
        let written = write_reply(&mut conn.stream, proto, &reply);
        if timed {
            engine.record_serialize(ser_start.elapsed());
        }
        match action {
            ConnAction::Keep if written.is_ok() => {}
            // A shutdown request stands even if its sender hung up early.
            ConnAction::Shutdown => return ConnAction::Shutdown,
            _ => return ConnAction::Close,
        }
    }
}

/// Split one `\n`-terminated line off the front of `buf` (CR stripped).
/// `scanned` is how many leading bytes earlier calls found free of `\n`:
/// the search resumes there, and after a line is taken restarts at 0. The
/// line keeps `buf`'s bytes; only invalid UTF-8 is copied, to replace it.
fn next_line(buf: &mut Vec<u8>, scanned: &mut usize) -> Option<String> {
    let Some(pos) = find_newline(&buf[*scanned..]).map(|n| *scanned + n) else {
        *scanned = buf.len();
        return None;
    };
    *scanned = 0;
    let rest = buf.split_off(pos + 1);
    let mut line = std::mem::replace(buf, rest);
    line.pop(); // the \n
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Some(
        String::from_utf8(line)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
    )
}

/// Index of the first `\n` in `bytes`, eight bytes per step: a byte of
/// `x = word ^ 0x0a0a..` is zero exactly where `word` holds `\n`, and
/// `(x - 0x01..) & !x & 0x80..` sets the top bit of the lowest such byte
/// (a borrow can mark only bytes above it).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGHS: u64 = ONES << 7;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ NEWLINES;
        let hit = x.wrapping_sub(ONES) & !x & HIGHS;
        if hit != 0 {
            return Some(8 * k + hit.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let tail_at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|n| tail_at + n)
}

/// Pop one complete frame off the front of `buf`, validating the header.
/// `Ok(None)` = header or payload not fully buffered yet; `Err` = framing
/// damage, after which the stream cannot be resynchronized.
fn next_frame(buf: &mut Vec<u8>) -> Result<Option<Frame>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let (ty, len) = frame::parse_header(&buf[..HEADER_LEN])?;
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let rest = buf.split_off(HEADER_LEN + len);
    let mut payload = std::mem::replace(buf, rest);
    payload.drain(..HEADER_LEN);
    Ok(Some(Frame { ty, payload }))
}

// ---- request dispatch ---------------------------------------------------

/// The reply to input that never became a [`Request`].
fn bad_input(code: &str, detail: String) -> WireReply {
    WireReply::Err {
        id: NO_ID.into(),
        code: code.into(),
        detail,
    }
}

/// Encode `reply` for the connection's protocol and write it out.
fn write_reply(writer: &mut TcpStream, proto: Proto, reply: &WireReply) -> std::io::Result<()> {
    match proto {
        Proto::Text => writer.write_all(protocol::format_reply(reply).as_bytes())?,
        Proto::Binary => writer.write_all(&frame::encode_reply(reply))?,
    }
    writer.flush()
}

/// Turn an inference outcome into its reply, echoing the client's `id`.
fn infer_reply<R>(
    id: Option<String>,
    result: Result<R, ServeError>,
    ok: impl FnOnce(String, R) -> WireReply,
) -> WireReply {
    let id = id.unwrap_or_else(|| NO_ID.into());
    match result {
        Ok(resp) => ok(id, resp),
        Err(err) => WireReply::Err {
            id,
            code: err.code().into(),
            detail: err.to_string(),
        },
    }
}

/// Serve one request, whatever protocol carried it: every verb is
/// implemented here, once, and answers with a protocol-independent
/// [`WireReply`].
fn dispatch(engine: &Engine, req: Request) -> (WireReply, ConnAction) {
    let deadline = req.deadline();
    let reply = match req {
        Request::Shutdown => return (WireReply::Bye, ConnAction::Shutdown),
        Request::Ping => WireReply::Pong,
        // Multi-line; the exposition ends with the "# EOF" terminator line
        // text clients read up to.
        Request::Metrics => WireReply::Text(engine.metrics_text()),
        // Declared-count body: a `SLOWLOG <n>` line, then n entry lines.
        Request::SlowLog { limit } => {
            let entries = engine.slow_requests(limit);
            let mut body = format!("SLOWLOG {}\n", entries.len());
            for entry in &entries {
                body.push_str(&entry.to_wire_line());
                body.push('\n');
            }
            WireReply::Text(body)
        }
        Request::Infer {
            model, node, id, ..
        } => {
            // Mint the trace before submitting so this front-end span and
            // every engine/kernel span below it share one trace id.
            let trace = engine.mint_trace();
            let _scope = TraceScope::enter(trace);
            let _span = span!(
                "serve/request",
                "model={model} node={node} trace={:#x}",
                trace.trace_id
            );
            let req = InferRequest {
                model,
                node,
                deadline,
            };
            let result = engine.submit_traced(req, trace).and_then(|t| t.wait());
            infer_reply(id, result, |id, resp| WireReply::Ok { id, resp })
        }
        Request::InferSeeds {
            model,
            seeds,
            fanouts,
            sample_seed,
            feats,
            id,
            ..
        } => {
            let trace = engine.mint_trace();
            let _scope = TraceScope::enter(trace);
            let _span = span!(
                "serve/request",
                "model={model} seeds={} trace={:#x}",
                seeds.len(),
                trace.trace_id
            );
            let req = InferSeedsRequest {
                model,
                seeds: seeds.clone(),
                fanouts,
                sample_seed,
                feats,
                deadline,
            };
            let result = engine
                .submit_seeds_traced(req, trace)
                .and_then(|t| t.wait());
            infer_reply(id, result, |id, resp| WireReply::Seeds { id, seeds, resp })
        }
    };
    (reply, ConnAction::Keep)
}

// ---- the front-end: blocking accept, one thread per connection ----------

/// Admit one accepted socket: beyond [`crate::engine::ServeConfig::max_conns`]
/// live connections it is shed (counted, closed by the drop) before any
/// thread sees it; otherwise it is counted and wrapped. The returned state
/// owns the connection's accounting from here on.
fn admit_conn(engine: &Engine, stream: TcpStream) -> Option<ConnState> {
    let conn_stats = engine.conn_stats();
    let max = engine.config().max_conns;
    if max > 0 && conn_stats.active.load(Ordering::Relaxed) >= max as u64 {
        conn_stats.admission_shed.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    // Request/reply messages are small; Nagle + delayed ACK would add tens
    // of milliseconds per round trip.
    let _ = stream.set_nodelay(true);
    conn_stats.accepted.fetch_add(1, Ordering::Relaxed);
    conn_stats.active.fetch_add(1, Ordering::Relaxed);
    Some(ConnState {
        stream,
        proto: None,
        buf: Vec::new(),
        scanned: 0,
        partial_since: None,
        conn_stats,
    })
}

/// A connection thread's body: read, service every complete message, repeat
/// until the peer hangs up, the input is beyond repair, a message overstays
/// [`PARTIAL_MESSAGE_DEADLINE`], or the server stops.
fn serve_conn(engine: &Engine, mut conn: ConnState, stop: &AtomicBool) -> ConnAction {
    let conn_stats = Arc::clone(&conn.conn_stats);
    let timed_out = || {
        conn_stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
        ConnAction::Close
    };
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ConnAction::Close,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Only a read under the partial-message timeout can time out.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return timed_out();
            }
            Err(_) => return ConnAction::Close,
        }
        // A message this large can never become valid; drop the connection
        // rather than buffering unboundedly.
        if conn.buf.len() > MAX_BUFFER {
            return ConnAction::Close;
        }
        let buffered = conn.buf.len();
        match process_buffer(engine, &mut conn, &conn_stats) {
            ConnAction::Keep => {}
            other => return other,
        }
        if stop.load(Ordering::SeqCst) {
            return ConnAction::Close;
        }
        if !conn.within_partial_deadline(buffered) {
            return timed_out();
        }
    }
}

/// Join the connection threads that have finished and forget their socket
/// clones. A panic in one is reported here and goes no further: its state
/// already closed the books while unwinding.
fn reap(live: &mut Vec<(TcpStream, JoinHandle<()>)>, all: bool) {
    let (done, running) = std::mem::take(live)
        .into_iter()
        .partition(|(_, thread)| all || thread.is_finished());
    *live = running;
    for (_, thread) in done {
        if thread.join().is_err() {
            eprintln!("fgserve: a connection thread panicked; its connection was closed");
        }
    }
}

fn run_front_end(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
    let addr = listener.local_addr().expect("listener addr");
    // A socket clone and the thread of every connection not yet reaped.
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        reap(&mut live, false);
        let Ok(stream) = conn else { continue };
        let Some(conn) = admit_conn(&engine, stream) else {
            continue;
        };
        // Without the clone the connection could not be woken at stop;
        // dropping `conn` (here, or with the closure of a failed spawn)
        // closes its books.
        let Ok(peer) = conn.stream.try_clone() else {
            continue;
        };
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name("fgserve-conn".into())
            .spawn(move || {
                if serve_conn(&engine, conn, &stop) == ConnAction::Shutdown {
                    request_stop(&stop, addr);
                }
            });
        if let Ok(thread) = spawned {
            live.push((peer, thread));
        }
    }
    // Stop: wake every thread blocked in `read`, then wait for all of them.
    for (peer, _) in &live {
        let _ = peer.shutdown(Shutdown::Both);
    }
    reap(&mut live, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;

    /// A loopback pair: the client end, and the server end admitted as a
    /// connection.
    fn admitted(engine: &Engine) -> (TcpStream, ConnState) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = admit_conn(engine, stream).expect("under max_conns");
        (client, conn)
    }

    fn books(engine: &Engine) -> (u64, u64, u64) {
        let conn = engine.conn_snapshot();
        (conn.accepted, conn.active, conn.closed)
    }

    /// The framing this one replaced: rescan `buf` from byte 0 for `\n`,
    /// then copy the line through `from_utf8_lossy`. The reference the
    /// one-pass framing is checked against.
    fn next_line_oracle(buf: &mut Vec<u8>) -> Option<String> {
        let pos = buf.iter().position(|&b| b == b'\n')?;
        let rest = buf.split_off(pos + 1);
        let mut line = std::mem::replace(buf, rest);
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Feed `stream` in `chunk`-byte reads and take every complete line
    /// after each read, as `process_buffer` does, with both framings.
    fn framed(stream: &[u8], chunk: usize) -> (Vec<String>, Vec<String>) {
        let (mut buf, mut scanned, mut lines) = (Vec::new(), 0, Vec::new());
        let (mut oracle_buf, mut oracle_lines) = (Vec::new(), Vec::new());
        for piece in stream.chunks(chunk) {
            buf.extend_from_slice(piece);
            lines.extend(std::iter::from_fn(|| next_line(&mut buf, &mut scanned)));
            oracle_buf.extend_from_slice(piece);
            oracle_lines.extend(std::iter::from_fn(|| next_line_oracle(&mut oracle_buf)));
        }
        assert_eq!(buf, oracle_buf, "the same partial line is left over");
        (lines, oracle_lines)
    }

    #[test]
    fn lines_frame_as_before() {
        let mut stream =
            b"PING\r\n\n  \r\nMETRICS\nINFER gcn \xff\xfe 1\r\nINFER_SEEDS gcn 1 feats=".to_vec();
        stream.extend((0..4000).map(|i| b"0123456789,;\r\n\xc3\xa9x"[i % 17]));
        stream.extend_from_slice(b"\nSLOWLOG\r\ntail without newline");
        for chunk in [1, 2, 3, 7, 8, 9, 64, 1000, stream.len()] {
            let (lines, oracle_lines) = framed(&stream, chunk);
            assert_eq!(lines, oracle_lines, "{chunk}-byte reads");
        }
        let (lines, _) = framed(&stream, 5);
        assert_eq!(lines[..4], ["PING", "", "  ", "METRICS"]);
        assert_eq!(
            lines[4], "INFER gcn \u{fffd}\u{fffd} 1",
            "invalid UTF-8 is replaced"
        );
    }

    /// A 1 MiB line arriving in 64 KiB reads: each read scans only its own
    /// bytes (the cursor ends every miss at the buffer's end and never
    /// moves back), and the line is found once, whole.
    #[test]
    fn a_long_line_is_scanned_once() {
        let mut stream = vec![b'7'; 1 << 20];
        stream[(1 << 20) - 1] = b'\n';
        let (mut buf, mut scanned, mut found) = (Vec::new(), 0, Vec::new());
        for piece in stream.chunks(READ_CHUNK) {
            buf.extend_from_slice(piece);
            let before = scanned;
            match next_line(&mut buf, &mut scanned) {
                None => {
                    assert!(scanned >= before, "the cursor moved back");
                    assert_eq!(scanned, buf.len(), "a miss scans to the end");
                }
                Some(line) => found.push(line),
            }
        }
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].len(), (1 << 20) - 1);
        assert!(
            buf.is_empty() && scanned == 0,
            "the next line starts afresh"
        );
    }

    #[test]
    fn find_newline_finds_the_first_one() {
        let mut bytes = [b'a'; 40];
        assert_eq!(find_newline(&bytes), None);
        for at in (0..40).rev() {
            bytes[at] = b'\n';
            for start in 0..=at {
                assert_eq!(
                    find_newline(&bytes[start..]),
                    Some(at - start),
                    "{at} {start}"
                );
            }
        }
        // Bytes one off `\n`, and high bytes, are not newlines: in the
        // first full word and in the tail.
        let odd = [
            0x0b, 0x09, 0x8a, 0xff, 0x00, 0x7f, 0x8b, 0x89, 0xff, 0x0b, 0x0a,
        ];
        assert_eq!(find_newline(&odd), Some(10));
        assert_eq!(find_newline(&odd[..10]), None);
    }

    /// Invalid UTF-8 reaches the parser through the lossy copy, as before:
    /// the reply names the replacement characters and the connection lives.
    #[test]
    fn invalid_utf8_gets_the_same_bad_request_reply() {
        let h = serve(Arc::new(Engine::new(ServeConfig::default())), "127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(h.addr()).unwrap();
        client.write_all(b"INFER gcn \xff\r\nPING\n").unwrap();
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
        let mut replies = String::new();
        for _ in 0..2 {
            std::io::BufRead::read_line(&mut reader, &mut replies).unwrap();
        }
        assert_eq!(replies, "ERR - bad-request bad node \"\u{fffd}\"\nPONG\n");
        h.shutdown();
    }

    /// The path a failed `spawn` takes: the connection is admitted, then
    /// dropped without ever being serviced.
    #[test]
    fn dropping_an_admitted_connection_closes_its_books() {
        let engine = Engine::new(ServeConfig::default());
        let (mut client, conn) = admitted(&engine);
        // The acceptor's clone must not keep the peer waiting.
        let _clone = conn.stream.try_clone().unwrap();
        assert_eq!(books(&engine), (1, 1, 0));
        drop(conn);
        assert_eq!(books(&engine), (1, 0, 1));
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "peer sees EOF");
    }

    /// A connection thread that panics unwinds through its state: the slot
    /// is returned, the peer is hung up on, and the join reports it.
    #[test]
    fn a_panicking_connection_thread_closes_its_books() {
        let engine = Engine::new(ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        });
        let (mut client, conn) = admitted(&engine);
        let clone = conn.stream.try_clone().unwrap();
        let thread = std::thread::spawn(move || {
            let _conn = conn;
            panic!("connection thread bug");
        });
        let mut live = vec![(clone, thread)];
        while !live.is_empty() {
            reap(&mut live, false);
        }
        assert_eq!(books(&engine), (1, 0, 1));
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "peer sees EOF");
        // The only slot is free again.
        let (_client, _conn) = admitted(&engine);
        assert_eq!(books(&engine), (2, 1, 1));
    }
}
