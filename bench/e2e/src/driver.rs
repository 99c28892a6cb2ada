//! The closed-loop load driver: two connections from this process, one
//! thread each, against a child `fgserve`; and the in-process training loop.
//! End-to-end numbers come from untraced ops only. In a traced run every
//! other block of ops records client spans (T1), so traced and untraced ops
//! share one window and its conditions, and `METRICS` is scraped before and
//! after the window (T2).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::layers::Trainer;
use crate::ledger::Metrics;
use crate::server::{proc_status, Server};
use crate::stats::{mean, median, quantile, Digest, Fnv};
use crate::stream::{self, Block, Body, Kind, Op, Workload, CONNECTIONS};
use crate::trace::{Recorder, Span};
use crate::wire::{Conn, Proto, Reply, Row, WireError};

/// Socket timeout: the server's own deadline is 500 ms, so a reply that
/// takes this long is lost, not slow.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Replies of connection 0 kept for the oracle on sampled workloads.
const PROBE_OPS: u64 = 32;
/// In a traced run, ops alternate between untraced and traced in blocks of
/// this many per connection.
const TRACE_BLOCK: u64 = 8;

/// A reply kept for the bitwise oracle check.
pub struct Kept {
    /// The op it answers.
    pub op: Op,
    /// Its rows, one per requested vertex.
    pub rows: Vec<Row>,
    /// Sampled subgraph size from the reply header, if it has one.
    pub sub: Option<(u64, u64)>,
}

/// What one run measured.
#[derive(Default)]
pub struct RunOutcome {
    /// End-to-end metrics (untraced window).
    pub e2e: Metrics,
    /// Per-layer metrics from T1 and T2; empty on an untraced run.
    pub layers: Metrics,
    /// Ops sent in every phase, set-up included.
    pub attempted: u64,
    /// Ops that got an error, a malformed or late reply, or a wrong id.
    pub failed: u64,
    /// Latency samples behind the end-to-end metrics (untraced ops).
    pub samples: usize,
    /// Digest of the count-bounded warm-up replies (loss bits for training).
    pub digest: Digest,
    /// Replies kept for the oracle.
    pub kept: Vec<Kept>,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
    /// Latencies of the one-connection sequential pass over the replay ops,
    /// in op order (traced serving runs only).
    pub seq_rtt_ms: Vec<f64>,
    /// First few op failures, for the report.
    pub errors: Vec<String>,
    /// Correctness checks that did not hold (any entry makes the run
    /// incorrect).
    pub incorrect: Vec<String>,
}

impl RunOutcome {
    fn note(&mut self, error: String) {
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

struct Lane<'a> {
    idx: u64,
    conn: Conn,
    pool: &'a [Block],
    next: u64,
}

#[derive(Clone, Copy)]
enum Until {
    Ops(u64),
    Elapsed(Duration),
}

/// Latency of one op that succeeded.
struct Sample {
    ms: f64,
    /// Index of the op's model in the workload's list.
    model: usize,
    /// Whether the op recorded spans.
    traced: bool,
}

#[derive(Default)]
struct PhaseOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    digest: Digest,
    kept: Vec<Kept>,
    errors: Vec<String>,
    req_bytes: u64,
    reply_bytes: u64,
    wall_s: f64,
    spans: Vec<Span>,
}

impl PhaseOut {
    /// Latencies of the traced or of the untraced ops.
    fn latencies(&self, traced: bool) -> Vec<f64> {
        let of_kind = self.samples.iter().filter(|s| s.traced == traced);
        of_kind.map(|s| s.ms).collect()
    }

    fn absorb(&mut self, other: PhaseOut) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digest.merge(other.digest);
        self.kept.extend(other.kept);
        self.errors.extend(other.errors);
        self.req_bytes += other.req_bytes;
        self.reply_bytes += other.reply_bytes;
        self.spans.extend(other.spans);
    }
}

/// A valid reply's rows and, for a sampled reply, its subgraph size.
type Answer = (Vec<Row>, Option<(u64, u64)>);

/// Check a reply against the op it answers: right kind, id echoed, one
/// finite row of `classes` logits per requested vertex.
fn validate(w: &Workload, op: &Op, reply: Reply) -> Result<Answer, String> {
    let row_ok = |r: &Row| {
        r.logits.len() == w.classes
            && r.logits.iter().all(|v| v.is_finite())
            && (r.class as usize) < w.classes
    };
    match (reply, &op.body) {
        (Reply::Err { id, code }, _) => Err(format!("{}: ERR {code} (id {id})", op.id)),
        (Reply::Ok { id, class, logits }, Body::Infer { node }) => {
            let row = Row {
                node: *node,
                class,
                logits,
            };
            if id != op.id {
                Err(format!("{}: reply carries id {id}", op.id))
            } else if !row_ok(&row) {
                Err(format!("{}: malformed row {row:?}", op.id))
            } else {
                Ok((vec![row], None))
            }
        }
        (
            Reply::Seeds {
                id,
                sub_vertices,
                sub_edges,
                rows,
            },
            Body::Seeds { seeds, .. },
        ) => {
            if id != op.id {
                Err(format!("{}: reply carries id {id}", op.id))
            } else if rows.len() != seeds.len()
                || rows
                    .iter()
                    .zip(seeds)
                    .any(|(r, &s)| r.node != s || !row_ok(r))
            {
                Err(format!(
                    "{}: rows do not match the {} seeds asked for",
                    op.id,
                    seeds.len()
                ))
            } else {
                Ok((rows, Some((sub_vertices, sub_edges))))
            }
        }
        (other, _) => Err(format!("{}: unexpected reply {other:?}", op.id)),
    }
}

fn reply_hash(id: &str, rows: &[Row]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(id.as_bytes());
    for r in rows {
        h.u64(r.node).u64(r.class);
        for v in &r.logits {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Run ops on one connection, one at a time. Every request's bytes are
/// complete before its clock starts; the clock stops when the reply is parsed.
fn run_lane(
    w: &Workload,
    seed: u64,
    lane: &mut Lane<'_>,
    until: Until,
    keep: &(dyn Fn(u64, u64) -> bool + Sync),
    mut rec: Option<&mut Recorder>,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut buf = Vec::new();
    let start = Instant::now();
    let bytes_in_before = lane.conn.bytes_in;
    loop {
        match until {
            Until::Ops(n) if out.attempted == n => break,
            Until::Elapsed(d) if start.elapsed() >= d => break,
            _ => {}
        }
        let i = lane.next;
        lane.next += 1;
        let t_build = Instant::now();
        let op = stream::op(w, seed, lane.idx, i);
        buf.clear();
        stream::render(w, &op, lane.pool, &mut buf);
        out.attempted += 1;
        out.req_bytes += buf.len() as u64;

        let t_write = Instant::now();
        let mut t_sent = t_write;
        let mut t_first = t_write;
        let reply = lane
            .conn
            .send(&buf)
            .map_err(WireError::from)
            .and_then(|()| {
                t_sent = Instant::now();
                lane.conn.wait_readable()?;
                t_first = Instant::now();
                lane.conn.recv()
            });
        let t_end = Instant::now();

        let lost = matches!(reply, Err(WireError::Io(_)));
        match reply
            .map_err(|e| format!("{}: {e}", op.id))
            .and_then(|r| validate(w, &op, r))
        {
            Ok((rows, sub)) => {
                out.digest.add(reply_hash(&op.id, &rows));
                let traced = rec.as_deref_mut().filter(|_| (i / TRACE_BLOCK) % 2 == 1);
                out.samples.push(Sample {
                    ms: (t_end - t_write).as_secs_f64() * 1e3,
                    model: w.models.iter().position(|&m| m == op.model).unwrap_or(0),
                    traced: traced.is_some(),
                });
                if let Some(rec) = traced {
                    let req = (lane.idx << 40) | i;
                    rec.span("op", None, req, t_build, t_end);
                    rec.span("client.build", Some("op"), req, t_build, t_write);
                    rec.span("client.write", Some("op"), req, t_write, t_sent);
                    rec.span("client.wait", Some("op"), req, t_sent, t_first);
                    rec.span("client.read_parse", Some("op"), req, t_first, t_end);
                }
                if keep(lane.idx, i) {
                    out.kept.push(Kept { op, rows, sub });
                }
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                if lost {
                    // The connection is out of step; its remaining ops are
                    // not attempted.
                    break;
                }
            }
        }
    }
    out.reply_bytes = lane.conn.bytes_in - bytes_in_before;
    out
}

/// Run one phase on every lane at once, one thread per connection.
fn run_phase(
    w: &Workload,
    seed: u64,
    lanes: &mut [Lane<'_>],
    until: Until,
    keep: &(dyn Fn(u64, u64) -> bool + Sync),
    trace_epoch: Option<Instant>,
) -> PhaseOut {
    let barrier = Barrier::new(lanes.len());
    let results: Vec<(Instant, Instant, PhaseOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = trace_epoch.map(|epoch| Recorder::new(epoch, lane.idx));
                    barrier.wait();
                    let start = Instant::now();
                    let mut out = run_lane(w, seed, lane, until, keep, rec.as_mut());
                    let end = Instant::now();
                    out.spans = rec.map(Recorder::into_spans).unwrap_or_default();
                    (start, end, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let start = results
        .iter()
        .map(|r| r.0)
        .min()
        .expect("at least one lane");
    let end = results
        .iter()
        .map(|r| r.1)
        .max()
        .expect("at least one lane");
    let mut merged = PhaseOut::default();
    for (_, _, out) in results {
        merged.absorb(out);
    }
    merged.wall_s = (end - start).as_secs_f64();
    merged
}

/// Series of a Prometheus exposition, keyed by the full series string.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// T2: layer metrics from two `METRICS` scrapes around the timed window.
/// Counters are differences; the server's phase quantiles are as read.
fn scrape_metrics(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    out: &mut Metrics,
) {
    let gauge = |series: &str| after.get(series).copied().unwrap_or(0.0);
    let delta = |series: &str| gauge(series) - before.get(series).copied().unwrap_or(0.0);
    let phase = |phase: &str, q: &str| {
        gauge(&format!(
            "fgserve_phase_latency_ms{{phase=\"{phase}\",quantile=\"{q}\"}}"
        ))
    };

    out.put("conn.accepted", delta("fgserve_conn_accepted_total"));
    out.put(
        "conn.bad_inputs",
        delta("fgserve_conn_bad_frames_total") + delta("fgserve_conn_bad_lines_total"),
    );
    let mut engine_sum = 0.0;
    for name in [
        "queue_wait",
        "batch_form",
        "sample",
        "plan_compile",
        "execute",
        "exchange",
        "serialize",
    ] {
        let p50 = phase(name, "0.5");
        out.put(format!("engine.{name}_p50_ms"), p50);
        // `serialize` runs in the front-end after the engine's clock stops.
        if name != "serialize" {
            engine_sum += p50;
        }
    }
    out.put("engine.execute_p99_ms", phase("execute", "0.99"));
    out.put("engine.queue_wait_p99_ms", phase("queue_wait", "0.99"));
    let batches = delta("fgserve_batches_total");
    let completed = delta("fgserve_requests_completed_total");
    out.put(
        "batcher.batch_size_mean",
        if batches > 0.0 {
            completed / batches
        } else {
            0.0
        },
    );
    out.put("batcher.batches", batches);
    let hits = delta("fgserve_plan_cache_hits_total");
    let misses = delta("fgserve_plan_cache_misses_total");
    out.put(
        "plan_cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.put("plan_cache.misses", misses);
    out.put(
        "engine.shed",
        delta("fgserve_requests_shed_total") + delta("fgserve_requests_mem_shed_total"),
    );
    out.put("engine.timeouts", delta("fgserve_requests_timed_out_total"));
    let request_p50 = gauge("fgserve_request_latency_ms{quantile=\"0.5\"}");
    out.put(
        "engine.unattributed_pct",
        if request_p50 > 0.0 {
            (1.0 - engine_sum / request_p50) * 100.0
        } else {
            0.0
        },
    );
    out.put(
        "mem.accounted_peak_mb",
        gauge("fgserve_mem_total_peak_bytes") / (1 << 20) as f64,
    );
}

/// The end-to-end metrics, from the untraced ops of the timed window.
/// Throughput counts every op that succeeded in it, traced or not.
fn e2e_metrics(setup_s: &[f64], window: &PhaseOut, rss_kb: u64) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s));
    m.put("ops_per_s", window.samples.len() as f64 / window.wall_s);
    let untraced = window.latencies(false);
    m.put("op_p50_ms", median(&untraced));
    m.put("op_p95_ms", quantile(&untraced, 0.95));
    m.put("rss_peak_mb", rss_kb as f64 / 1024.0);
    m
}

/// Tracing overhead: how much slower the traced ops' median is than the
/// untraced ops' of the same window. Latency depends on the model far more
/// than on tracing, so the medians are compared model by model and the
/// ratios averaged.
fn overhead_pct(window: &PhaseOut) -> f64 {
    let models = window
        .samples
        .iter()
        .map(|s| s.model + 1)
        .max()
        .unwrap_or(0);
    let ratios: Vec<f64> = (0..models)
        .map(|model| {
            let p50 = |traced| {
                let of_model = window
                    .samples
                    .iter()
                    .filter(|s| s.model == model && s.traced == traced);
                median(&of_model.map(|s| s.ms).collect::<Vec<_>>())
            };
            p50(true) / p50(false)
        })
        .filter(|r| r.is_finite())
        .collect();
    (mean(&ratios) - 1.0) * 100.0
}

fn span_p50(spans: &[Span], name: &str) -> f64 {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .collect();
    median(&us)
}

/// Spawn `fgserve`, `PING` it on a control connection, and open the load
/// connections.
fn start_server<'a>(
    w: &Workload,
    seed: u64,
    fgserve: &Path,
    pools: &'a [Vec<Block>],
) -> Result<(Server, Conn, Vec<Lane<'a>>), String> {
    let server = Server::spawn(fgserve, &w.server_args(seed))?;
    let connected = (|| {
        let mut control = Conn::connect(server.addr(), Proto::Text, IO_TIMEOUT)?;
        control.ping()?;
        let mut lanes = Vec::new();
        for (idx, pool) in (0..CONNECTIONS).zip(pools) {
            lanes.push(Lane {
                idx,
                conn: Conn::connect(server.addr(), w.proto, IO_TIMEOUT)?,
                pool,
                next: 0,
            });
        }
        Ok::<_, WireError>((control, lanes))
    })();
    match connected {
        Ok((control, lanes)) => Ok((server, control, lanes)),
        Err(e) => Err(server.failure(&format!("connecting to fgserve: {e}"))),
    }
}

/// Close the load connections, `SHUTDOWN` the server and wait for its exit.
fn stop_server(server: Server, mut control: Conn, lanes: Vec<Lane<'_>>) -> Result<(), String> {
    drop(lanes);
    if let Err(e) = control.shutdown() {
        return Err(server.failure(&format!("SHUTDOWN: {e}")));
    }
    server.wait_exit()
}

/// Run a serving workload against a child `fgserve`. `Err` means the harness
/// could not measure (the server died, never listened, or would not stop);
/// failed ops are counted in the outcome instead.
pub fn run_serving(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    fgserve: &Path,
    pools: &[Vec<Block>],
    trace_epoch: Instant,
) -> Result<RunOutcome, String> {
    let mut run = RunOutcome::default();
    let keep_all = matches!(w.kind, Kind::Full);
    let keep = move |lane: u64, i: u64| keep_all || (lane == 0 && i < PROBE_OPS);
    let keep_none = |_: u64, _: u64| false;

    let mut setup_s = Vec::new();
    let mut live = None;
    let setups = if traced { 1 } else { SETUP_REPEATS };
    for k in 0..setups {
        let t0 = Instant::now();
        let (server, control, mut lanes) = start_server(w, seed, fgserve, pools)?;
        let warm = run_phase(w, seed, &mut lanes, Until::Ops(w.warmup_ops), &keep, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        run.attempted += warm.attempted;
        run.failed += warm.failed;
        warm.errors.iter().for_each(|e| run.note(e.clone()));
        if k > 0 && warm.digest != run.digest {
            run.incorrect.push(format!(
                "warm-up reply digest {:#018x} differs from the first set-up's {:#018x}",
                warm.digest.0, run.digest.0
            ));
        }
        run.digest = warm.digest;
        run.kept = warm.kept;
        if k + 1 < setups {
            // This set-up was only timed.
            stop_server(server, control, lanes)?;
        } else {
            live = Some((server, control, lanes));
        }
    }
    let (server, mut control, mut lanes) = live.expect("at least one set-up");

    let scrape = |control: &mut Conn| control.metrics().map(|text| parse_exposition(&text)).ok();
    let before = if traced { scrape(&mut control) } else { None };
    let length = Until::Elapsed(Duration::from_secs_f64(seconds));
    let mut window = run_phase(
        w,
        seed,
        &mut lanes,
        length,
        &keep,
        traced.then_some(trace_epoch),
    );
    let after = if traced { scrape(&mut control) } else { None };
    let rss_kb = server.proc_status("VmHWM").unwrap_or(0);
    let threads = server.proc_status("Threads").unwrap_or(0);

    run.e2e = e2e_metrics(&setup_s, &window, rss_kb);
    run.samples = window.latencies(false).len();
    if traced {
        let m = &mut run.layers;
        m.put(
            "client.write_p50_us",
            span_p50(&window.spans, "client.write"),
        );
        m.put(
            "client.wait_p50_ms",
            span_p50(&window.spans, "client.wait") / 1e3,
        );
        m.put(
            "client.read_parse_p50_us",
            span_p50(&window.spans, "client.read_parse"),
        );
        m.put("trace.overhead_pct", overhead_pct(&window));
        let all: Vec<f64> = window.samples.iter().map(|s| s.ms).collect();
        m.put("client.rtt_p99_ms", quantile(&all, 0.99));
        m.put(
            "wire.req_bytes_mean",
            window.req_bytes as f64 / window.attempted as f64,
        );
        m.put(
            "wire.reply_bytes_mean",
            window.reply_bytes as f64 / all.len() as f64,
        );
        match (before, after) {
            (Some(before), Some(after)) => scrape_metrics(&before, &after, m),
            _ => return Err(server.failure("METRICS scrape failed")),
        }
        m.put("proc.server_threads", threads as f64);
        run.spans = std::mem::take(&mut window.spans);

        // One connection, one op at a time, over the ops the in-process
        // replay also runs: their difference is the front-end's share.
        lanes[0].next = 0;
        let seq = run_lane(
            w,
            seed,
            &mut lanes[0],
            Until::Ops(w.replay_ops),
            &keep_none,
            None,
        );
        run.seq_rtt_ms = seq.latencies(false);
        window.absorb(seq);
    }
    run.attempted += window.attempted;
    run.failed += window.failed;
    window.errors.iter().for_each(|e| run.note(e.clone()));
    run.kept.extend(window.kept);

    stop_server(server, control, lanes)?;
    Ok(run)
}

/// Run the in-process `train_epoch` workload: one op is one round. In a
/// traced run every other round records its spans.
pub fn run_training(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_epoch: Instant,
) -> RunOutcome {
    let mut run = RunOutcome::default();

    // Task and models built, then the count-bounded warm-up rounds, whose
    // loss bits are the digest.
    let set_up = || {
        let t0 = Instant::now();
        let mut trainer = Trainer::new(w, seed);
        let mut digest = Digest::default();
        for round in 0..w.warmup_ops {
            for clock in trainer.round() {
                digest.add(
                    Fnv::default()
                        .bytes(clock.model.as_bytes())
                        .u64(round)
                        .u64(clock.loss.to_bits())
                        .finish(),
                );
            }
        }
        (trainer, digest, t0.elapsed().as_secs_f64())
    };
    let (mut trainer, digest, first_setup_s) = set_up();
    run.digest = digest;
    run.attempted += w.warmup_ops;

    let mut rec = Recorder::new(trace_epoch, 0);
    let mut window = PhaseOut::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let clocks = trainer.round();
        let t1 = Instant::now();
        window.attempted += 1;
        if clocks.iter().any(|c| !c.loss.is_finite()) {
            window.failed += 1;
            run.note("non-finite training loss".into());
            continue;
        }
        let sample = Sample {
            ms: (t1 - t0).as_secs_f64() * 1e3,
            model: 0,
            traced: traced && window.attempted % 2 == 0,
        };
        let spans = sample.traced;
        window.samples.push(sample);
        if !spans {
            continue;
        }
        let req = window.attempted;
        rec.span("op", None, req, t0, t1);
        for c in &clocks {
            let epoch = match c.model {
                "gcn" => "gnn.epoch_gcn",
                "graphsage" => "gnn.epoch_graphsage",
                _ => "gnn.epoch_gat",
            };
            rec.span(epoch, Some("op"), req, c.fwd.0, c.update.1);
            rec.span("gnn.train_fwd", Some(epoch), req, c.fwd.0, c.fwd.1);
            rec.span("gnn.train_bwd", Some(epoch), req, c.bwd.0, c.bwd.1);
            rec.span("gnn.train_update", Some(epoch), req, c.update.0, c.update.1);
        }
    }
    window.wall_s = start.elapsed().as_secs_f64();
    run.attempted += window.attempted;
    run.failed += window.failed;

    let rss_kb = proc_status(std::process::id(), "VmHWM").unwrap_or(0);
    // The other set-ups are only timed, and run after the peak is read so
    // that the peak is one trainer's, not several generations of heap.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..if traced { 1 } else { SETUP_REPEATS } {
        let (_, digest, seconds) = set_up();
        setup_s.push(seconds);
        run.attempted += w.warmup_ops;
        if digest != run.digest {
            run.incorrect.push(format!(
                "warm-up loss bits differ between set-ups: {:#018x} vs {:#018x}",
                digest.0, run.digest.0
            ));
        }
    }
    run.e2e = e2e_metrics(&setup_s, &window, rss_kb);
    run.samples = window.latencies(false).len();
    if traced {
        let m = &mut run.layers;
        m.put("trace.overhead_pct", overhead_pct(&window));
        for model in ["gcn", "graphsage", "gat"] {
            let name = format!("gnn.epoch_{model}");
            m.put(format!("{name}_ms"), median(&rec.durations_us(&name)) / 1e3);
        }
        // A round's phase time is the sum over its three models.
        let rounds = window.latencies(true).len().max(1) as f64;
        for phase in ["gnn.train_fwd", "gnn.train_bwd", "gnn.train_update"] {
            let total_us: f64 = rec.durations_us(phase).iter().sum();
            m.put(format!("{phase}_ms"), total_us / rounds / 1e3);
        }
        run.spans = rec.into_spans();
    }
    run.incorrect.extend(trainer.check().err());
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lines_parse_with_and_without_labels() {
        let text = "# TYPE fgserve_batches counter\nfgserve_batches_total 7\n\
                    fgserve_phase_latency_ms{phase=\"execute\",quantile=\"0.5\"} 42.5\n# EOF\n";
        let series = parse_exposition(text);
        assert_eq!(series["fgserve_batches_total"], 7.0);
        assert_eq!(
            series["fgserve_phase_latency_ms{phase=\"execute\",quantile=\"0.5\"}"],
            42.5
        );
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn scrape_reports_counter_differences_and_ratios() {
        let before = parse_exposition(
            "fgserve_batches_total 10\nfgserve_requests_completed_total 15\n\
             fgserve_plan_cache_hits_total 5\nfgserve_plan_cache_misses_total 5\n",
        );
        let after = parse_exposition(
            "fgserve_batches_total 20\nfgserve_requests_completed_total 30\n\
             fgserve_plan_cache_hits_total 14\nfgserve_plan_cache_misses_total 6\n\
             fgserve_phase_latency_ms{phase=\"execute\",quantile=\"0.5\"} 3\n\
             fgserve_phase_latency_ms{phase=\"queue_wait\",quantile=\"0.5\"} 1\n\
             fgserve_request_latency_ms{quantile=\"0.5\"} 5\n",
        );
        let mut m = Metrics::default();
        scrape_metrics(&before, &after, &mut m);
        assert_eq!(m.get("batcher.batches"), Some(10.0));
        assert_eq!(m.get("batcher.batch_size_mean"), Some(1.5));
        assert_eq!(m.get("plan_cache.hit_ratio"), Some(0.9));
        assert_eq!(m.get("plan_cache.misses"), Some(1.0));
        assert!((m.get("engine.unattributed_pct").unwrap() - 20.0).abs() < 1e-9);
        assert_eq!(m.get("engine.sample_p50_ms"), Some(0.0));
    }

    #[test]
    fn validate_rejects_wrong_ids_rows_and_error_replies() {
        let w = stream::workload("infer_full").unwrap();
        let op = stream::op(w, 1, 0, 0);
        let Body::Infer { node } = op.body else {
            panic!()
        };
        let ok = |id: &str, n: usize| Reply::Ok {
            id: id.into(),
            class: 1,
            logits: vec![0.5; n],
        };
        let (rows, sub) = validate(w, &op, ok(&op.id, w.classes)).unwrap();
        assert_eq!((rows[0].node, sub), (node, None));
        assert!(validate(w, &op, ok("c9-9", w.classes)).is_err());
        assert!(validate(w, &op, ok(&op.id, w.classes - 1)).is_err());
        assert!(validate(w, &op, Reply::Pong).is_err());
        let err = Reply::Err {
            id: op.id.clone(),
            code: "timeout".into(),
        };
        assert!(validate(w, &op, err).unwrap_err().contains("timeout"));
    }
}
