//! `fgserve` — TCP front-end and benchmark driver for the fg-serve engine.
//!
//! ```text
//! fgserve serve   [--addr 127.0.0.1:7878] [dataset/engine knobs]
//!                 [--trace-sample N] [--slow-ms N] [--trace FILE]
//! fgserve bench   [--addr HOST:PORT] --clients 8 --requests 500 [checks]
//! fgserve metrics --addr HOST:PORT [--require SERIES]...
//! ```
//!
//! `bench` without `--addr` spins up an embedded server on a loopback
//! ephemeral port, benchmarks it, and shuts it down — that is what CI's
//! serve-smoke job runs. `metrics` scrapes one `METRICS` exposition,
//! validates that it parses, and (with `--require`) asserts named series
//! are present with a nonzero value — CI's metrics-smoke job.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_serve::frame::{self, FrameError, WireReply};
use fg_serve::{
    metric_value, parse_exposition, protocol, Engine, LatencyRecorder, MetricSample, ServeConfig,
};
use fg_tensor::Dense2;

/// Which wire protocol bench clients speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireProto {
    /// Line-oriented text for every client.
    Text,
    /// Length-prefixed binary frames for every client.
    Binary,
    /// Even-numbered clients binary, odd text — exercises per-connection
    /// negotiation on one server.
    Mixed,
}

struct Opts {
    addr: Option<String>,
    /// Engine knobs, written straight from their flags (`--queue`,
    /// `--workers`, … `--slow-ms`); the flag defaults are
    /// [`ServeConfig::default`]'s.
    cfg: ServeConfig,
    models: Vec<String>,
    vertices: usize,
    classes: usize,
    avg_deg: usize,
    noise: usize,
    hidden: usize,
    seed: u64,
    clients: usize,
    requests: usize,
    runs: usize,
    seeds_per_request: usize,
    fanout: Option<Vec<usize>>,
    sample_seed: u64,
    feat_cols: usize,
    protocol: WireProto,
    expect_no_shed: bool,
    expect_shed: bool,
    expect_mem_shed: bool,
    trace_file: Option<String>,
    require: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: None,
            cfg: ServeConfig::default(),
            models: vec!["gcn".into()],
            vertices: 3000,
            classes: 3,
            avg_deg: 8,
            noise: 4,
            hidden: 16,
            seed: 42,
            clients: 8,
            requests: 500,
            runs: 1,
            seeds_per_request: 0,
            fanout: None,
            sample_seed: 0,
            feat_cols: 0,
            protocol: WireProto::Text,
            expect_no_shed: false,
            expect_shed: false,
            expect_mem_shed: false,
            trace_file: None,
            require: Vec::new(),
        }
    }
}

const USAGE: &str = "usage:
  fgserve serve   [--addr HOST:PORT] [--model gcn|graphsage|gat|all] [--vertices N]
                  [--classes N] [--avg-deg N] [--noise N] [--hidden N] [--seed N]
                  [--queue N] [--workers N] [--kernel-threads N]
                  [--deadline-ms N] [--exec-delay-ms N] [--mem-budget N]
                  [--feature-dtype f32|bf16] [--max-conns N]
                  [--trace-sample N] [--slow-ms N] [--trace FILE]
  fgserve bench   [--addr HOST:PORT] [--clients N] [--requests N] [--runs N]
                  [--model NAME] [dataset/engine knobs as above when embedded]
                  [--seeds-per-request N] [--fanout F0,F1] [--sample-seed N]
                  [--feat-cols N] [--protocol text|binary|mixed]
                  [--expect-no-shed] [--expect-shed] [--expect-mem-shed]
  fgserve metrics --addr HOST:PORT [--require SERIES]...

Both subcommands accept [--feature-dtype f32|bf16] (bf16 half-precision
feature storage, f32 accumulate) and [--max-conns N] (admission limit on
concurrent connections, each served by its own blocking thread, so also the
bound on front-end threads and requests in flight; 0 = unlimited) when they
build a server.

bench without --addr benchmarks an embedded server on an ephemeral port.
--protocol picks the wire protocol the bench clients speak: text (default),
  binary (length-prefixed frames), or mixed (even clients binary, odd text,
  against one server — exercises per-connection negotiation). Reply digests
  are protocol-independent: binary and text runs over the same workload
  print the same digest.
--seeds-per-request N > 0 switches the bench clients to INFER_SEEDS: each
  request carries N seeds drawn from a power-law popularity distribution
  (a small head of hot vertices gets most of the traffic), with --fanout
  per-hop caps (full fanout when omitted) and a fresh sampler seed per
  request offset by --sample-seed. --feat-cols C > 0 additionally attaches
  C client-supplied feature scalars per seed (the feature-heavy workload:
  over text each scalar is ASCII, and a 32 x 256 block, about 91 KB, costs
  the server about 0.23 ms to decode on a 2-vCPU host, 0.43-0.71 ms before
  one-pass text ingest; binary frames carry the floats as they are).
--mem-budget N sheds new requests with error over-memory-budget while the
  accounted footprint exceeds N bytes (0 = off).
--trace-sample N head-samples 1 in N requests for end-to-end tracing
  (1 = every request); --trace FILE writes the sampled spans as a Chrome
  trace_event file at shutdown.
--slow-ms N logs a phase breakdown of requests slower than N ms (SLOWLOG).
metrics scrapes one METRICS exposition and fails unless it parses and every
  --require SERIES prefix matches at least one nonzero sample.";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => o.addr = Some(value(arg, &mut it)?),
            "--model" => {
                let v = value(arg, &mut it)?;
                o.models = if v == "all" {
                    vec!["gcn".into(), "graphsage".into(), "gat".into()]
                } else {
                    vec![v]
                };
            }
            "--vertices" => o.vertices = num(arg, &value(arg, &mut it)?)?,
            "--classes" => o.classes = num(arg, &value(arg, &mut it)?)?,
            "--avg-deg" => o.avg_deg = num(arg, &value(arg, &mut it)?)?,
            "--noise" => o.noise = num(arg, &value(arg, &mut it)?)?,
            "--hidden" => o.hidden = num(arg, &value(arg, &mut it)?)?,
            "--seed" => o.seed = num(arg, &value(arg, &mut it)?)? as u64,
            "--queue" => o.cfg.queue_capacity = num(arg, &value(arg, &mut it)?)?,
            "--workers" => o.cfg.workers = num(arg, &value(arg, &mut it)?)?,
            "--kernel-threads" => o.cfg.kernel_threads = num(arg, &value(arg, &mut it)?)?,
            "--deadline-ms" => {
                // 0 disables the default per-request deadline.
                let d = millis(arg, &value(arg, &mut it)?)?;
                o.cfg.default_deadline = (!d.is_zero()).then_some(d);
            }
            "--exec-delay-ms" => o.cfg.exec_delay = millis(arg, &value(arg, &mut it)?)?,
            "--mem-budget" => o.cfg.mem_budget = num(arg, &value(arg, &mut it)?)? as u64,
            "--clients" => o.clients = num(arg, &value(arg, &mut it)?)?,
            "--requests" => o.requests = num(arg, &value(arg, &mut it)?)?,
            "--runs" => o.runs = num(arg, &value(arg, &mut it)?)?,
            "--seeds-per-request" => o.seeds_per_request = num(arg, &value(arg, &mut it)?)?,
            "--fanout" => {
                let v = value(arg, &mut it)?;
                o.fanout = Some(
                    v.split(',')
                        .map(|tok| num(arg, tok))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--sample-seed" => o.sample_seed = num(arg, &value(arg, &mut it)?)? as u64,
            "--feat-cols" => o.feat_cols = num(arg, &value(arg, &mut it)?)?,
            "--protocol" => {
                o.protocol = match value(arg, &mut it)?.as_str() {
                    "text" => WireProto::Text,
                    "binary" => WireProto::Binary,
                    "mixed" => WireProto::Mixed,
                    other => return Err(format!("{arg}: expected text|binary|mixed, got {other}")),
                };
            }
            "--feature-dtype" => {
                let v = value(arg, &mut it)?;
                o.cfg.feature_dtype = v.parse().map_err(|e| format!("{arg}: {e}"))?;
            }
            "--max-conns" => o.cfg.max_conns = num(arg, &value(arg, &mut it)?)?,
            "--expect-no-shed" => o.expect_no_shed = true,
            "--expect-shed" => o.expect_shed = true,
            "--expect-mem-shed" => o.expect_mem_shed = true,
            "--trace-sample" => o.cfg.trace_sample = num(arg, &value(arg, &mut it)?)? as u64,
            "--slow-ms" => {
                let v = value(arg, &mut it)?;
                o.cfg.slow_ms = Some(v.parse().map_err(|_| format!("{arg}: bad number {v:?}"))?);
            }
            "--trace" => o.trace_file = Some(value(arg, &mut it)?),
            "--require" => o.require.push(value(arg, &mut it)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn num(flag: &str, v: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
}

fn millis(flag: &str, v: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(num(flag, v)? as u64))
}

/// Generate the dataset once and register every model in `o.models` on
/// it: the engine stores and charges one graph and one feature matrix
/// however many models serve them.
fn build_engine(o: &Opts) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(o.cfg.clone()));
    // Attribute the dataset build: the feature tensor lands in the Features
    // component; build_model scopes its own params.
    let task = {
        let _mem = fg_telemetry::MemScope::enter(fg_telemetry::MemComponent::Features);
        SbmTask::generate(o.vertices, o.classes, o.avg_deg, o.noise, o.seed)
    };
    let (in_dim, classes) = (task.in_dim(), task.num_classes);
    let (graph, features) = (Arc::new(task.graph), Arc::new(task.features));
    for name in &o.models {
        let model = build_model(name, in_dim, o.hidden, classes, o.seed);
        engine.register_model(name, model, Arc::clone(&graph), Arc::clone(&features));
    }
    engine
}

/// Turn telemetry on and install a Chrome-trace sink when `--trace FILE`
/// was given. Returns the sink so shutdown can report write failures.
fn trace_sink_setup(o: &Opts) -> Option<Arc<fg_telemetry::ChromeTraceSink>> {
    let path = o.trace_file.as_ref()?;
    fg_telemetry::set_enabled(true);
    let sink = Arc::new(fg_telemetry::ChromeTraceSink::new(path.clone()));
    fg_telemetry::add_sink(sink.clone());
    Some(sink)
}

fn trace_sink_finish(o: &Opts, sink: Option<Arc<fg_telemetry::ChromeTraceSink>>) {
    let (Some(path), Some(sink)) = (o.trace_file.as_ref(), sink) else {
        return;
    };
    fg_telemetry::flush();
    match sink.write_error() {
        Some(err) => eprintln!("fgserve: failed to write trace to {path}: {err}"),
        None => eprintln!("fgserve: trace written to {path}"),
    }
}

fn cmd_serve(o: &Opts) -> ExitCode {
    let sink = trace_sink_setup(o);
    let engine = build_engine(o);
    let addr = o.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".into());
    let handle = match fg_serve::serve(engine, addr.as_str()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fgserve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fgserve: listening on {} models=[{}] trace_sample={} slow_ms={}",
        handle.addr(),
        o.models.join(","),
        o.cfg.trace_sample,
        o.cfg.slow_ms.map_or("off".into(), |t| format!("{t}")),
    );
    let _ = std::io::stdout().flush();
    handle.join();
    trace_sink_finish(o, sink);
    ExitCode::SUCCESS
}

/// Aggregated outcome of one closed-loop bench run.
#[derive(Default)]
struct RunTally {
    completed: u64,
    shed: u64,
    mem_shed: u64,
    timed_out: u64,
    other_err: u64,
    mismatched: u64,
    /// Order-independent digest over completed reply payloads: per-reply
    /// FNV-1a folded with wrapping add, so the digest is identical no matter
    /// how replies interleave across clients. Two bench runs with the same
    /// workload against bitwise-identical servers print the same digest —
    /// a text run and a binary run of one workload must agree on it.
    digest: u64,
}

/// FNV-1a over one reply line.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic pseudo-random stream, distinct per (client, request, slot).
fn bench_hash(client: usize, i: usize, j: usize) -> u64 {
    let mut x = (client as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((j as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

/// Power-law seed popularity: squaring the uniform draw concentrates mass
/// near vertex 0, so a small head of hot vertices receives most requests.
fn popular_vertex(client: usize, i: usize, j: usize, vertices: usize) -> usize {
    let u = bench_hash(client, i, j) as f64 / u64::MAX as f64;
    ((vertices as f64 * u * u) as usize).min(vertices - 1)
}

/// The `i`-th request of bench client `client`: a pure function of the
/// options and its arguments, so text and binary runs issue the same
/// workload.
/// `--seeds-per-request 0` is plain `INFER`.
fn bench_request(o: &Opts, client: usize, i: usize, id: &str) -> protocol::Request {
    let model = o.models[0].clone();
    if o.seeds_per_request == 0 {
        // Deterministic pseudo-random node pick, distinct stream per client.
        let node = (client
            .wrapping_mul(2654435761)
            .wrapping_add(i.wrapping_mul(40503)))
            % o.vertices;
        return protocol::Request::Infer {
            model,
            node,
            id: Some(id.to_string()),
            deadline_ms: None,
        };
    }
    let seeds: Vec<usize> = (0..o.seeds_per_request)
        .map(|j| popular_vertex(client, i, j, o.vertices))
        .collect();
    // Feature-heavy workload (`--feat-cols` scalars per seed, in [-1, 1),
    // identical on both protocols): over text every scalar crosses the
    // wire as ASCII and is re-parsed server-side — the baseline the binary
    // protocol removes.
    let feats = (o.feat_cols > 0).then(|| {
        Dense2::from_fn(seeds.len(), o.feat_cols, |row, col| {
            let h = bench_hash(client, i, 1_000_000 + row * 4096 + col);
            (h as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
        })
    });
    protocol::Request::InferSeeds {
        model,
        seeds,
        fanouts: o.fanout.clone(),
        // Fresh sampler seed per request: every request samples a
        // different subgraph.
        sample_seed: o.sample_seed.wrapping_add(bench_hash(client, i, 99)),
        feats,
        id: Some(id.to_string()),
        deadline_ms: None,
    }
}

/// One closed-loop bench client. The two protocols differ only in how a
/// request is written and a reply read; replies are tallied — and digested
/// through their canonical text rendering — as [`WireReply`]s, so binary
/// and text runs over the same workload print identical digests.
fn bench_client(
    addr: &str,
    o: &Opts,
    client: usize,
    n: usize,
    binary: bool,
) -> std::io::Result<(RunTally, Vec<Duration>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tally = RunTally::default();
    let mut latencies = Vec::with_capacity(n);
    let io_error = |e: FrameError| std::io::Error::other(e.to_string());
    for i in 0..n {
        let id = format!("c{client}-r{i}");
        let t0 = Instant::now();
        let req = bench_request(o, client, i, &id);
        // A reply that cannot be read or decoded fails the run as a client
        // I/O error; after a clean hang-up (text only — a binary one is an
        // I/O error too) cmd_bench counts the unanswered rest as lost.
        let reply = if binary {
            frame::write_frame(&mut writer, &frame::encode_request(&req))?;
            let frame = frame::read_frame(&mut reader, false).map_err(io_error)?;
            Some(frame::decode_reply(&frame).map_err(io_error)?)
        } else {
            writeln!(writer, "{}", protocol::format_request(&req))?;
            protocol::read_reply(&mut reader)?
        };
        let Some(reply) = reply else { break };
        let elapsed = t0.elapsed();
        match reply {
            WireReply::Ok { id: got, resp } if got == id => {
                tally.completed += 1;
                let line = protocol::format_ok(Some(&id), &resp);
                tally.digest = tally.digest.wrapping_add(fnv1a(&line));
                latencies.push(elapsed);
            }
            WireReply::Seeds {
                id: got,
                seeds,
                resp,
            } if got == id && resp.results.len() == o.seeds_per_request => {
                tally.completed += 1;
                // Digest the SEED payload lines only: the per-seed logits
                // are the answer, the header's subgraph size is how it was
                // computed.
                for line in &protocol::format_seeds_ok(Some(&id), &seeds, &resp)[1..] {
                    tally.digest = tally.digest.wrapping_add(fnv1a(&format!("{id} {line}")));
                }
                latencies.push(elapsed);
            }
            WireReply::Err { id: got, code, .. } if got == id => match code.as_str() {
                "overloaded" => tally.shed += 1,
                "over-memory-budget" => tally.mem_shed += 1,
                "timeout" => tally.timed_out += 1,
                _ => tally.other_err += 1,
            },
            _ => tally.mismatched += 1,
        }
    }
    Ok((tally, latencies))
}

/// Send one text `verb` on a fresh connection and return the body of its
/// text-blob reply (`METRICS` exposition up to `# EOF`, …).
fn fetch_text(addr: &str, verb: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    writeln!(stream, "{verb}").ok()?;
    match protocol::read_reply(&mut BufReader::new(stream)) {
        Ok(Some(WireReply::Text(body))) => Some(body),
        _ => None,
    }
}

/// Per-phase quantile table plus the p99 attribution line, computed from a
/// scraped exposition. Returns the lines to print (empty when no phase has
/// samples).
fn phase_report(samples: &[MetricSample]) -> Vec<String> {
    let lookup = |series: &str| -> Option<f64> {
        samples.iter().find(|s| s.series == series).map(|s| s.value)
    };
    let mut rows = Vec::new();
    let mut p99s: Vec<(&str, f64)> = Vec::new();
    for phase in fg_serve::Phase::ALL.map(fg_serve::Phase::name) {
        let q = |q: &str| {
            lookup(&format!(
                "fgserve_phase_latency_ms{{phase=\"{phase}\",quantile=\"{q}\"}}"
            ))
        };
        let count = lookup(&format!(
            "fgserve_phase_latency_ms_count{{phase=\"{phase}\"}}"
        ))
        .unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        let (p50, p95, p99) = (
            q("0.5").unwrap_or(0.0),
            q("0.95").unwrap_or(0.0),
            q("0.99").unwrap_or(0.0),
        );
        rows.push(format!(
            "    {phase:<13} p50 {p50:>8.3}  p95 {p95:>8.3}  p99 {p99:>8.3}  (n={count})"
        ));
        p99s.push((phase, p99));
    }
    if rows.is_empty() {
        return rows;
    }
    let total: f64 = p99s.iter().map(|&(_, v)| v).sum();
    if total > 0.0 {
        p99s.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let attribution: Vec<String> = p99s
            .iter()
            .map(|(phase, v)| format!("{phase} {:.0}%", v / total * 100.0))
            .collect();
        rows.push(format!("  p99 attribution: {}", attribution.join("  ")));
    }
    rows.insert(0, "  phase latency ms:".into());
    rows
}

fn cmd_metrics(o: &Opts) -> ExitCode {
    let Some(addr) = o.addr.as_deref() else {
        eprintln!("fgserve metrics: --addr is required");
        return ExitCode::FAILURE;
    };
    let Some(text) = fetch_text(addr, "METRICS") else {
        eprintln!("fgserve metrics: failed to scrape METRICS from {addr}");
        return ExitCode::FAILURE;
    };
    let samples = match parse_exposition(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fgserve metrics: exposition does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fgserve metrics: {} samples from {addr}", samples.len());
    let mut failures = Vec::new();
    for series in &o.require {
        let hit = samples
            .iter()
            .find(|s| s.series.starts_with(series.as_str()) && s.value != 0.0);
        match hit {
            Some(s) => println!("  require {series}: {} = {}", s.series, s.value),
            None => failures.push(format!(
                "no nonzero sample matching required series {series:?}"
            )),
        }
    }
    for line in phase_report(&samples) {
        println!("{line}");
    }
    if failures.is_empty() {
        println!("fgserve metrics: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("fgserve metrics: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_bench(o: &Opts) -> ExitCode {
    // Embedded server unless --addr points at a running one.
    let embedded = if o.addr.is_none() {
        let engine = build_engine(o);
        match fg_serve::serve(engine, "127.0.0.1:0") {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("fgserve bench: embedded bind: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match &embedded {
        Some(h) => h.addr().to_string(),
        None => o.addr.clone().unwrap(),
    };
    let model = o.models[0].clone();
    let mut failures: Vec<String> = Vec::new();
    let mut total_shed = 0u64;
    let mut total_mem_shed = 0u64;

    for run in 1..=o.runs.max(1) {
        let per_client = o.requests / o.clients.max(1);
        let remainder = o.requests % o.clients.max(1);
        let t0 = Instant::now();
        let mut tally = RunTally::default();
        let recorder = LatencyRecorder::new();
        let clients: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..o.clients.max(1))
                .map(|c| {
                    let n = per_client + usize::from(c < remainder);
                    let binary = match o.protocol {
                        WireProto::Text => false,
                        WireProto::Binary => true,
                        // Mixed: even-numbered clients speak binary, odd
                        // text — both protocols active on one server.
                        WireProto::Mixed => c % 2 == 0,
                    };
                    let addr = addr.as_str();
                    scope.spawn(move || bench_client(addr, o, c, n, binary))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench client panicked"))
                .collect()
        });
        for client in clients {
            match client {
                Ok((t, lat)) => {
                    tally.completed += t.completed;
                    tally.shed += t.shed;
                    tally.mem_shed += t.mem_shed;
                    tally.timed_out += t.timed_out;
                    tally.other_err += t.other_err;
                    tally.mismatched += t.mismatched;
                    tally.digest = tally.digest.wrapping_add(t.digest);
                    for d in lat {
                        recorder.record(d);
                    }
                }
                Err(e) => failures.push(format!("run {run}: client I/O error: {e}")),
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let answered = tally.completed
            + tally.shed
            + tally.mem_shed
            + tally.timed_out
            + tally.other_err
            + tally.mismatched;
        let lost = (o.requests as u64).saturating_sub(answered);
        let lat = recorder.snapshot();
        println!(
            "fgserve bench run {run}/{}: {} clients x {} requests -> {addr} (model {model})",
            o.runs.max(1),
            o.clients.max(1),
            o.requests
        );
        println!(
            "  completed {}/{}  shed {}  mem_shed {}  timeout {}  failed {}  mismatched {}  lost {}",
            tally.completed, o.requests, tally.shed, tally.mem_shed, tally.timed_out,
            tally.other_err, tally.mismatched, lost
        );
        println!(
            "  wall {wall:.3} s   throughput {:.1} req/s",
            tally.completed as f64 / wall
        );
        println!("  reply digest {:#018x}", tally.digest);
        println!(
            "  latency ms  p50 {:.2}  p95 {:.2}  p99 {:.2}  mean {:.2}  max {:.2}",
            lat.p50_ms, lat.p95_ms, lat.p99_ms, lat.mean_ms, lat.max_ms
        );
        if let Some(text) = fetch_text(&addr, "METRICS") {
            // Queue observability (fed by the batcher's observer).
            let depth_max = metric_value(&text, "fgserve_queue_depth_max").unwrap_or(0.0);
            println!("  queue depth max {depth_max}");
            if let Ok(samples) = parse_exposition(&text) {
                for line in phase_report(&samples) {
                    println!("{line}");
                }
            }
        }
        total_shed += tally.shed;
        total_mem_shed += tally.mem_shed;

        if lost > 0 || tally.mismatched > 0 {
            failures.push(format!(
                "run {run}: {lost} lost / {} mismatched responses",
                tally.mismatched
            ));
        }
        if o.expect_no_shed && tally.shed > 0 {
            failures.push(format!(
                "run {run}: expected zero sheds, saw {}",
                tally.shed
            ));
        }
    }
    if o.expect_shed && total_shed == 0 {
        failures.push("expected overload sheds, saw none".into());
    }
    if o.expect_mem_shed && total_mem_shed == 0 {
        failures.push("expected over-memory-budget sheds, saw none".into());
    }
    if let Some(h) = embedded {
        h.shutdown();
    }
    if failures.is_empty() {
        println!("fgserve bench: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("fgserve bench: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fgserve: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "serve" => cmd_serve(&opts),
        "bench" => cmd_bench(&opts),
        "metrics" => cmd_metrics(&opts),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
