//! TCP front-end: a readiness-polled acceptor multiplexing every
//! connection over one epoll instance, serviced by a **fixed pool** of
//! connection handlers — no thread-per-connection.
//!
//! On Linux the acceptor thread owns a [`crate::poll::Poller`]: the
//! listener is registered level-triggered, every accepted connection
//! `EPOLLONESHOT` — a readiness event removes the connection from the
//! shared map and queues its token for the handler pool, and the oneshot
//! registration guarantees no second handler can pick the same connection
//! up until the first one re-arms it. Handlers drain the socket with
//! nonblocking reads, process every *complete* message in the buffer
//! (blocking writes for replies), then re-insert the connection and re-arm.
//! Admission control happens at accept: beyond
//! [`crate::engine::ServeConfig::max_conns`] live connections, new accepts
//! are shed immediately (counted, connection closed) instead of piling
//! onto the handler pool. Off Linux the same per-connection state machine
//! runs on a blocking thread-per-connection fallback.
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

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use fg_telemetry::{span, TraceScope};

use crate::engine::{Engine, InferRequest, InferSeedsRequest, ServeError};
use crate::frame::{self, Frame, FrameError, WireReply, HEADER_LEN, MAGIC, MAX_PAYLOAD};
use crate::protocol::{self, Request, NO_ID};
use crate::stats::ConnStats;

/// Read chunk size for the handler drain loop.
const READ_CHUNK: usize = 64 * 1024;

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
/// throwaway connection so the blocking `accept`/`epoll_wait` wakes up.
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

/// Handler-pool size: configured value, or one handler per available core
/// (bounded) when the config says auto.
fn handler_pool_size(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
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

/// One live connection: its socket, negotiated protocol (`None` until
/// enough bytes arrived to sniff it), and any bytes read but not yet
/// forming a complete message.
struct ConnState {
    stream: TcpStream,
    proto: Option<Proto>,
    buf: Vec<u8>,
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

/// One epoll service pass: drain readable bytes without blocking, process
/// every complete message, and say what to do with the connection. (The
/// fallback threads block in `read` and call [`process_buffer`] directly.)
fn service_conn(engine: &Engine, conn: &mut ConnState, conn_stats: &ConnStats) -> ConnAction {
    let mut saw_eof = false;
    if conn.stream.set_nonblocking(true).is_err() {
        return ConnAction::Close;
    }
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if conn.buf.len() > MAX_BUFFER {
                    // A message this large can never become valid; drop the
                    // connection rather than buffering unboundedly.
                    let _ = conn.stream.set_nonblocking(false);
                    return ConnAction::Close;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                saw_eof = true;
                break;
            }
        }
    }
    if conn.stream.set_nonblocking(false).is_err() {
        return ConnAction::Close;
    }
    match process_buffer(engine, conn, conn_stats) {
        ConnAction::Keep if saw_eof => ConnAction::Close,
        other => other,
    }
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
/// `conn.buf` for the next readiness event. Malformed input inside intact
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
            Proto::Text => match next_line(&mut conn.buf) {
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
fn next_line(buf: &mut Vec<u8>) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let rest = buf.split_off(pos + 1);
    let mut line = std::mem::replace(buf, rest);
    line.pop(); // the \n
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Some(String::from_utf8_lossy(&line).into_owned())
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

/// Multi-line declared-count body: a `<header> <n>` line, then each of
/// `lines` behind `tag`.
fn counted_body(header: &str, tag: &str, lines: &[String]) -> String {
    let mut out = format!("{header} {}\n", lines.len());
    for line in lines {
        out.push_str(tag);
        out.push_str(line);
        out.push('\n');
    }
    out
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
        Request::Stats => {
            let _span = span!("serve/request", "verb=STATS");
            WireReply::Text(format!("STATS {}\n", engine.stats().to_wire_line()))
        }
        // Multi-line; the exposition ends with the "# EOF" terminator line
        // text clients read up to.
        Request::Metrics => WireReply::Text(engine.metrics_text()),
        Request::Memory => {
            let _span = span!("serve/request", "verb=MEMORY");
            let lines = engine.memory_report().to_wire_lines();
            WireReply::Text(counted_body("MEMORY", "MEM ", &lines))
        }
        Request::Shards => {
            let _span = span!("serve/request", "verb=SHARDS");
            let lines = engine.shards_report().to_wire_lines();
            WireReply::Text(counted_body("SHARDS", "SHARD ", &lines))
        }
        Request::SlowLog { limit } => {
            let entries = engine.slow_requests(limit);
            let lines: Vec<String> = entries.iter().map(|e| e.to_wire_line()).collect();
            WireReply::Text(counted_body("SLOWLOG", "", &lines))
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

// ---- connection admission, shared by both front-ends --------------------

/// Admit one accepted socket: beyond [`crate::engine::ServeConfig::max_conns`]
/// live connections it is shed (counted, closed by the drop) before any
/// handler sees it; otherwise it is counted and wrapped.
fn admit_conn(engine: &Engine, conn_stats: &ConnStats, stream: TcpStream) -> Option<ConnState> {
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
    })
}

/// Account one admitted connection as closed.
fn note_closed(conn_stats: &ConnStats) {
    conn_stats.active.fetch_sub(1, Ordering::Relaxed);
    conn_stats.closed.fetch_add(1, Ordering::Relaxed);
}

// ---- Linux: epoll acceptor + fixed handler pool -------------------------

#[cfg(target_os = "linux")]
mod epoll_front {
    use super::*;
    use crate::poll::Poller;
    use std::collections::VecDeque;
    use std::os::fd::AsRawFd;

    /// Token 0 is the listener; connections start at 1.
    const LISTENER_TOKEN: u64 = 0;

    struct FrontEnd {
        poller: Poller,
        conns: Mutex<HashMap<u64, ConnState>>,
        queue: Mutex<VecDeque<u64>>,
        queue_cv: Condvar,
        stop: Arc<AtomicBool>,
        engine: Arc<Engine>,
        conn_stats: Arc<ConnStats>,
        addr: SocketAddr,
    }

    pub(super) fn run(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
        let addr = listener.local_addr().expect("listener addr");
        let poller = match Poller::new() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fgserve: epoll unavailable ({e}); falling back to blocking accept");
                return super::fallback_front::run(listener, engine, stop);
            }
        };
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        poller
            .add(listener.as_raw_fd(), LISTENER_TOKEN, false)
            .expect("register listener");
        let conn_stats = engine.conn_stats();
        let fe = Arc::new(FrontEnd {
            poller,
            conns: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop,
            engine,
            conn_stats,
            addr,
        });
        let handlers = handler_pool_size(fe.engine.config().conn_handlers);
        let mut pool = Vec::with_capacity(handlers);
        for i in 0..handlers {
            let fe = Arc::clone(&fe);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("fgserve-handler-{i}"))
                    .spawn(move || handler_loop(&fe))
                    .expect("spawn handler"),
            );
        }

        let mut next_token: u64 = 1;
        let mut events = Vec::with_capacity(64);
        while !fe.stop.load(Ordering::SeqCst) {
            events.clear();
            // Bounded wait so a stop requested between events is noticed
            // even if the poke connection raced ahead of the flag store.
            if fe.poller.wait(&mut events, 250).is_err() {
                break;
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    accept_ready(&fe, &listener, &mut next_token);
                } else {
                    // Oneshot registration: this token cannot fire again
                    // until a handler re-arms it, so each queue entry maps
                    // to exactly one service pass.
                    let depth = {
                        let mut q = fe.queue.lock().unwrap();
                        q.push_back(ev.token);
                        q.len()
                    };
                    fe.conn_stats.on_dispatch_depth(depth);
                    fe.queue_cv.notify_one();
                }
            }
        }
        // Drain: wake every handler so they observe stop and exit.
        fe.queue_cv.notify_all();
        for h in pool {
            let _ = h.join();
        }
    }

    fn accept_ready(fe: &Arc<FrontEnd>, listener: &TcpListener, next_token: &mut u64) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if fe.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Some(conn) = admit_conn(&fe.engine, &fe.conn_stats, stream) else {
                        continue;
                    };
                    let token = *next_token;
                    *next_token += 1;
                    let fd = conn.stream.as_raw_fd();
                    fe.conns.lock().unwrap().insert(token, conn);
                    if fe.poller.add(fd, token, true).is_err() {
                        close_conn(fe, token);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn close_conn(fe: &Arc<FrontEnd>, token: u64) {
        if let Some(conn) = fe.conns.lock().unwrap().remove(&token) {
            fe.poller.delete(conn.stream.as_raw_fd());
        }
        note_closed(&fe.conn_stats);
    }

    fn handler_loop(fe: &Arc<FrontEnd>) {
        loop {
            let token = {
                let mut q = fe.queue.lock().unwrap();
                loop {
                    if let Some(t) = q.pop_front() {
                        fe.conn_stats
                            .dispatch_depth
                            .store(q.len() as u64, Ordering::Relaxed);
                        break Some(t);
                    }
                    if fe.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = fe.queue_cv.wait(q).unwrap();
                }
            };
            let Some(token) = token else { return };
            // Take ownership: the oneshot registration is spent, so no other
            // handler can race for this connection.
            let Some(mut conn) = fe.conns.lock().unwrap().remove(&token) else {
                continue;
            };
            match service_conn(&fe.engine, &mut conn, &fe.conn_stats) {
                ConnAction::Keep => {
                    let fd = conn.stream.as_raw_fd();
                    // Re-insert before re-arming: once the registration is
                    // live again an event may fire immediately, and the
                    // dispatching handler must find the connection in the
                    // map.
                    fe.conns.lock().unwrap().insert(token, conn);
                    if fe.poller.rearm(fd, token).is_err() {
                        close_conn(fe, token);
                    }
                }
                action => {
                    fe.poller.delete(conn.stream.as_raw_fd());
                    drop(conn);
                    note_closed(&fe.conn_stats);
                    if action == ConnAction::Shutdown {
                        request_stop(&fe.stop, fe.addr);
                        fe.queue_cv.notify_all();
                    }
                }
            }
        }
    }
}

// ---- fallback: blocking accept, thread-per-connection -------------------

mod fallback_front {
    use super::*;

    pub(super) fn run(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
        let addr = listener.local_addr().expect("listener addr");
        // The epoll path may hand over a nonblocking listener.
        let _ = listener.set_nonblocking(false);
        let conn_stats = engine.conn_stats();
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let Some(mut conn) = admit_conn(&engine, &conn_stats, stream) else {
                continue;
            };
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let conn_stats = Arc::clone(&conn_stats);
            let _ = std::thread::Builder::new()
                .name("fgserve-conn".into())
                .spawn(move || {
                    let mut chunk = [0u8; READ_CHUNK];
                    let outcome = loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => break ConnAction::Close,
                            Ok(n) => {
                                conn.buf.extend_from_slice(&chunk[..n]);
                                if conn.buf.len() > MAX_BUFFER {
                                    break ConnAction::Close;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => break ConnAction::Close,
                        }
                        match process_buffer(&engine, &mut conn, &conn_stats) {
                            ConnAction::Keep => {}
                            other => break other,
                        }
                        if stop.load(Ordering::SeqCst) {
                            break ConnAction::Close;
                        }
                    };
                    note_closed(&conn_stats);
                    if outcome == ConnAction::Shutdown {
                        request_stop(&stop, addr);
                    }
                });
        }
    }
}

fn run_front_end(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
    #[cfg(target_os = "linux")]
    {
        epoll_front::run(listener, engine, stop)
    }
    #[cfg(not(target_os = "linux"))]
    {
        fallback_front::run(listener, engine, stop)
    }
}
