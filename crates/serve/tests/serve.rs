//! End-to-end tests for fg-serve: engine correctness under concurrency
//! (zero lost / zero duplicated responses), typed overload shedding and
//! timeouts, full-graph rows read bitwise from the registration that
//! computed them, and the TCP front-end.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_gnn::FeatgraphBackend;
use fg_serve::{serve, Engine, InferRequest, InferSeedsRequest, ServeConfig, ServeError};
use fg_tensor::{FeatureDtype, FeatureTensor};

fn make_task() -> SbmTask {
    SbmTask::generate(400, 3, 8, 2, 7)
}

fn make_engine(cfg: ServeConfig) -> (Arc<Engine>, SbmTask) {
    let task = make_task();
    let engine = Arc::new(Engine::new(cfg));
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 3);
    engine.register_model("gcn", model, task.graph.clone(), task.features.clone());
    (engine, task)
}

/// Reference logits computed outside the serving stack.
fn reference_logits(task: &SbmTask) -> Vec<Vec<f32>> {
    let backend = FeatgraphBackend::cpu(1);
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 3);
    let (logits, _, _) = fg_gnn::inference(&*model, task, &backend, None);
    (0..task.graph.num_vertices())
        .map(|v| logits.row(v).to_vec())
        .collect()
}

#[test]
fn stress_1k_requests_zero_lost_zero_duplicated() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 125;
    let (engine, task) = make_engine(ServeConfig {
        queue_capacity: 4096,
        workers: 3,
        default_deadline: None,
        ..ServeConfig::default()
    });
    let expected = reference_logits(&task);
    let vertices = task.graph.num_vertices();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut ok = 0usize;
                for i in 0..PER_CLIENT {
                    let node = (c * 131 + i * 17) % vertices;
                    let resp = engine
                        .infer(InferRequest {
                            model: "gcn".into(),
                            node,
                            deadline: None,
                        })
                        .expect("infer failed under nominal load");
                    // The logits row must be exactly the requested node's —
                    // a crossed reply would return some other node's row.
                    assert_eq!(
                        resp.logits, expected[node],
                        "client {c} request {i}: reply for wrong node"
                    );
                    ok += 1;
                }
                ok
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        total,
        CLIENTS * PER_CLIENT,
        "every request answered exactly once"
    );

    let stats = engine.stats();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batches, stats.completed, "a batch is one job");
    assert!(stats.latency.p50_ms > 0.0);
    engine.shutdown();
}

/// Sixteen threads of mixed traffic on three workers: `INFER`, full-fanout
/// `INFER_SEEDS` and capped `INFER_SEEDS`. Every `INFER` and full-fanout
/// row is the `infer_batch` row of the full graph, bitwise; every capped
/// reply is the one the engine gave the same request before the storm
/// (the sampler is keyed by the request alone, so concurrency must not
/// change it).
#[test]
fn stress_16_threads_mixed_traffic() {
    const THREADS: usize = 16;
    const PER_THREAD: usize = 40;
    let (engine, task) = make_engine(ServeConfig {
        queue_capacity: 4096,
        workers: 3,
        default_deadline: None,
        ..ServeConfig::default()
    });
    let vertices = task.graph.num_vertices();
    let expected = Arc::new(reference_logits(&task));

    let node_of = move |t: usize, i: usize| (t * 997 + i * 31) % vertices;
    let capped = move |t: usize, i: usize| InferSeedsRequest {
        model: "gcn".into(),
        seeds: vec![node_of(t, i), (node_of(t, i) + 7) % vertices],
        fanouts: Some(vec![3, 3]),
        sample_seed: (t * PER_THREAD + i) as u64,
        feats: None,
        deadline: None,
    };
    // The engine's own capped answers, one request at a time.
    let mut before = HashMap::new();
    for t in 0..THREADS {
        for i in (0..PER_THREAD).filter(|i| (t + i) % 3 == 1) {
            let resp = engine.infer_seeds(capped(t, i)).expect("capped reference");
            before.insert((t, i), resp);
        }
    }
    let before = Arc::new(before);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let expected = Arc::clone(&expected);
            let before = Arc::clone(&before);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let node = node_of(t, i);
                    match (t + i) % 3 {
                        0 => {
                            let seeds = vec![node, (node + 13) % vertices];
                            let resp = engine
                                .infer_seeds(InferSeedsRequest {
                                    model: "gcn".into(),
                                    seeds: seeds.clone(),
                                    fanouts: None,
                                    sample_seed: i as u64,
                                    feats: None,
                                    deadline: None,
                                })
                                .expect("full-fanout seeds under load");
                            for (seed, row) in seeds.iter().zip(&resp.results) {
                                assert_eq!(row.logits, expected[*seed], "thread {t} req {i}");
                            }
                        }
                        1 => {
                            let resp = engine.infer_seeds(capped(t, i)).expect("capped seeds");
                            assert_eq!(resp, before[&(t, i)], "thread {t} req {i}");
                        }
                        _ => {
                            let got = infer_node(&engine, node);
                            assert_eq!(got, expected[node], "thread {t} req {i}");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = engine.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(
        stats.completed as usize,
        before.len() + THREADS * PER_THREAD,
        "every request answered exactly once"
    );
    engine.shutdown();
}

fn infer_node(engine: &Engine, node: usize) -> Vec<f32> {
    let req = InferRequest {
        model: "gcn".into(),
        node,
        deadline: None,
    };
    engine
        .infer(req)
        .unwrap_or_else(|e| panic!("node {node}: {e}"))
        .logits
}

/// A registration's full-graph logits are its own: re-registering a name
/// with other weights answers from the new registration at once, never
/// from the replaced one's matrix.
#[test]
fn replacing_a_model_serves_the_new_registration() {
    let (engine, task) = make_engine(ServeConfig::default());
    let before = infer_node(&engine, 5);
    assert_eq!(before, reference_logits(&task)[5]);
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 4);
    engine.register_model("gcn", model, task.graph.clone(), task.features.clone());
    let backend = FeatgraphBackend::cpu(1);
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 4);
    let (want, _, _) = fg_gnn::inference(&*model, &task, &backend, None);
    let after = infer_node(&engine, 5);
    assert_ne!(after, before, "other weights, other logits");
    assert_eq!(after, want.row(5));
    assert_eq!(engine.stats().models_replaced, 1);
}

/// Every route to a full-graph row — a 1- or 2-thread fill, f32 or bf16
/// storage — answers every vertex with exactly the row of one
/// single-threaded `infer_batch` over the graph (on the widened features
/// when storage is half precision).
#[test]
fn every_infer_row_is_the_infer_batch_row_bitwise() {
    let task = make_task();
    let nodes: Vec<usize> = (0..task.graph.num_vertices()).collect();
    for name in ["gcn", "graphsage", "gat"] {
        let model = || build_model(name, task.in_dim(), 8, task.num_classes, 3);
        for dtype in [FeatureDtype::F32, FeatureDtype::Bf16] {
            let features = FeatureTensor::from_f32(dtype, task.features.clone());
            let features = features.widened();
            let backend = FeatgraphBackend::cpu(1);
            let want = fg_gnn::infer_batch(&*model(), &task.graph, &features, &backend, &nodes)
                .expect("reference pass");
            for kernel_threads in [1, 2] {
                let engine = Engine::new(ServeConfig {
                    kernel_threads,
                    feature_dtype: dtype,
                    ..ServeConfig::default()
                });
                engine.register_model(name, model(), task.graph.clone(), task.features.clone());
                for &node in &nodes {
                    let req = InferRequest {
                        model: name.into(),
                        node,
                        deadline: None,
                    };
                    let got = engine.infer(req).expect("infer").logits;
                    assert_eq!(
                        got, want[node],
                        "{name} {kernel_threads} kernel thread(s) {dtype:?}: node {node}"
                    );
                }
            }
        }
    }
}

/// Every capped `INFER_SEEDS` row — f32 or bf16 storage, as many hops as
/// layers and one more, client feature rows, a duplicated seed — is
/// bitwise the row of the sampled path's oracle: `prepare_seeds →
/// gather_rows → override → infer_batch` on the whole sampled subgraph,
/// gathering from the widened stored features. GAT answers from its
/// layer-0 table, which its first request fills.
#[test]
fn every_capped_seeds_row_is_the_whole_subgraph_row_bitwise() {
    for dtype in [FeatureDtype::F32, FeatureDtype::Bf16] {
        capped_seeds_rows_match_the_oracle(dtype);
    }
}

fn capped_seeds_rows_match_the_oracle(dtype: FeatureDtype) {
    let task = make_task();
    let model = |name| build_model(name, task.in_dim(), 8, task.num_classes, 3);
    let engine = Engine::new(ServeConfig {
        feature_dtype: dtype,
        ..ServeConfig::default()
    });
    for name in ["gcn", "graphsage", "gat"] {
        engine.register_model(name, model(name), task.graph.clone(), task.features.clone());
    }
    let stored = FeatureTensor::from_f32(dtype, task.features.clone());
    let stored = stored.widened();
    let seeds = vec![17usize, 250, 17, 399];
    let feats = fg_tensor::Dense2::from_fn(seeds.len(), task.in_dim(), |r, c| {
        ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5
    });
    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for name in ["gcn", "graphsage", "gat"] {
        for fanouts in [vec![3, 3], vec![3, 3, 3]] {
            for sample_seed in 0..4 {
                let resp = engine
                    .infer_seeds(InferSeedsRequest {
                        model: name.into(),
                        seeds: seeds.clone(),
                        fanouts: Some(fanouts.clone()),
                        sample_seed,
                        feats: Some(feats.clone()),
                        deadline: None,
                    })
                    .expect("capped seeds");
                let cfg = fg_graph::SampleConfig::new(fanouts.clone(), sample_seed);
                let (sub, sub_gnn) = fg_gnn::prepare_seeds(&task.graph, &seeds, &cfg).unwrap();
                let mut x = fg_gnn::gather_rows(&stored, sub.locals());
                for (i, &l) in sub.seed_locals().iter().enumerate() {
                    x.row_mut(l as usize).copy_from_slice(feats.row(i));
                }
                let locals: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
                let backend = FeatgraphBackend::cpu(1);
                let want = fg_gnn::infer_batch(&*model(name), &sub_gnn, &x, &backend, &locals)
                    .expect("oracle");
                let what = format!("{dtype} {name} fanouts {fanouts:?} sample_seed {sample_seed}");
                assert_eq!(
                    (resp.sub_vertices, resp.sub_edges),
                    (sub.num_vertices(), sub.num_edges()),
                    "{what}"
                );
                assert_eq!(resp.results.len(), want.len(), "{what}");
                for (got, want) in resp.results.iter().zip(&want) {
                    assert_eq!(bits(&got.logits), bits(want), "{what}");
                }
            }
        }
    }
    assert_eq!(engine.stats().failed, 0);
}

/// A feature matrix must cover every vertex: a short one would be indexed
/// past its end by the first request that gathers a missing row, on a
/// worker thread whose client would then never be answered.
#[test]
#[should_panic(expected = "feature matrix has 10 rows, graph has 300 vertices")]
fn registering_fewer_feature_rows_than_vertices_panics() {
    let task = SbmTask::generate(300, 3, 8, 2, 7);
    let short = fg_tensor::Dense2::from_fn(10, task.in_dim(), |r, c| (r + c) as f32);
    let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 3);
    Engine::new(ServeConfig::default()).register_model("gcn", model, task.graph, short);
}

#[test]
fn overload_sheds_with_typed_error_and_drains_on_shutdown() {
    let (engine, _task) = make_engine(ServeConfig {
        queue_capacity: 4,
        workers: 1,
        default_deadline: None,
        exec_delay: Duration::from_millis(30),
        ..ServeConfig::default()
    });
    // Burst far past capacity from one thread: pushes beyond the 4-slot
    // queue must shed immediately with the typed error, never block.
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for node in 0..64 {
        match engine.submit(InferRequest {
            model: "gcn".into(),
            node,
            deadline: None,
        }) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(shed > 0, "burst past capacity must shed");
    assert_eq!(engine.stats().shed, shed as u64);
    // Graceful drain: every accepted ticket still gets a real answer.
    let accepted = tickets.len();
    for t in tickets {
        t.wait().expect("accepted request must complete");
    }
    engine.shutdown();
    assert_eq!(engine.stats().completed, accepted as u64);
}

#[test]
fn expired_deadline_yields_typed_timeout() {
    let (engine, _task) = make_engine(ServeConfig {
        workers: 1,
        exec_delay: Duration::from_millis(40),
        default_deadline: None,
        ..ServeConfig::default()
    });
    // A 1 ms deadline cannot survive the 40 ms artificial exec delay.
    let err = engine
        .infer(InferRequest {
            model: "gcn".into(),
            node: 0,
            deadline: Some(Duration::from_millis(1)),
        })
        .unwrap_err();
    assert_eq!(err, ServeError::Timeout);
    assert_eq!(engine.stats().timed_out, 1);
}

#[test]
fn unknown_model_and_bad_node_fail_fast() {
    let (engine, task) = make_engine(ServeConfig::default());
    let err = engine
        .infer(InferRequest {
            model: "nope".into(),
            node: 0,
            deadline: None,
        })
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownModel("nope".into()));
    let err = engine
        .infer(InferRequest {
            model: "gcn".into(),
            node: task.graph.num_vertices(),
            deadline: None,
        })
        .unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)));
    // A fanout list with fewer hops than the model has layers would be
    // answered, silently, from a truncated neighborhood.
    let err = engine
        .infer_seeds(InferSeedsRequest {
            model: "gcn".into(),
            seeds: vec![1, 2],
            fanouts: Some(vec![4]),
            sample_seed: 0,
            feats: None,
            deadline: None,
        })
        .unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    // None of them consumed queue capacity.
    assert_eq!(engine.stats().accepted, 0);
}

/// The phase rule: `queue_wait`, `batch_form`, `execute` for every
/// completed request; `sample` iff it ran a sampled view — an absent phase
/// stays empty rather than filling with zero-valued samples.
#[test]
fn recorded_phases_follow_the_view() {
    use fg_serve::Phase;
    let counts = |engine: &Engine| {
        let stats = engine.stats();
        [
            Phase::QueueWait,
            Phase::BatchForm,
            Phase::Execute,
            Phase::Sample,
        ]
        .map(|p| stats.phase(p).count)
    };
    let infer = |engine: &Engine, node| {
        let req = InferRequest {
            model: "gcn".into(),
            node,
            deadline: None,
        };
        engine.infer(req).expect("infer");
    };
    let capped_seeds = |engine: &Engine| {
        let req = InferSeedsRequest {
            model: "gcn".into(),
            seeds: vec![5, 6],
            fanouts: Some(vec![3, 3]),
            sample_seed: 1,
            feats: None,
            deadline: None,
        };
        engine.infer_seeds(req).expect("capped seeds");
    };

    let (engine, _task) = make_engine(ServeConfig::default());
    for node in 0..3 {
        infer(&engine, node);
    }
    assert_eq!(counts(&engine), [3, 3, 3, 0], "full view");
    capped_seeds(&engine);
    assert_eq!(counts(&engine), [4, 4, 4, 1], "sampled view");
    engine.shutdown();
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let (engine, _task) = make_engine(ServeConfig::default());
    engine.shutdown();
    let err = engine
        .infer(InferRequest {
            model: "gcn".into(),
            node: 0,
            deadline: None,
        })
        .unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
}

#[test]
fn tcp_front_end_round_trips() {
    let (engine, task) = make_engine(ServeConfig::default());
    let expected = reference_logits(&task);
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let client = |lines: &[String]| -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(reply.trim_end().to_string());
        }
        replies
    };

    let replies = client(&[
        "PING".into(),
        "INFER gcn 5 id=a".into(),
        "INFER gcn 5".into(),
        "INFER nope 0 id=b".into(),
        "INFER gcn 999999 id=c".into(),
        "GARBAGE".into(),
    ]);
    assert_eq!(replies[0], "PONG");
    match fg_serve::protocol::parse_reply(&replies[1]).unwrap() {
        fg_serve::protocol::Reply::Ok { id, logits, .. } => {
            assert_eq!(id, "a");
            assert_eq!(logits, expected[5], "wire logits match reference");
        }
        other => panic!("{other:?}"),
    }
    assert!(replies[2].starts_with("OK - "), "{}", replies[2]);
    assert!(
        replies[3].starts_with("ERR b unknown-model"),
        "{}",
        replies[3]
    );
    assert!(
        replies[4].starts_with("ERR c bad-request"),
        "{}",
        replies[4]
    );
    assert!(
        replies[5].starts_with("ERR - bad-request"),
        "{}",
        replies[5]
    );
    let (mut writer, mut reader) = wire_client(addr);
    let text = scrape(&mut writer, &mut reader);
    assert_eq!(
        fg_serve::metric_value(&text, "fgserve_requests_completed_total"),
        Some(2.0)
    );

    handle.shutdown();
}

#[test]
fn tcp_concurrent_clients_ids_never_cross() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 40;
    let (engine, task) = make_engine(ServeConfig::default());
    let vertices = task.graph.num_vertices();
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut seen: HashMap<String, usize> = HashMap::new();
                for i in 0..PER_CLIENT {
                    let id = format!("c{c}-r{i}");
                    writeln!(writer, "INFER gcn {} id={id}", (c * 53 + i * 7) % vertices).unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    match fg_serve::protocol::parse_reply(reply.trim_end()).unwrap() {
                        fg_serve::protocol::Reply::Ok { id: got, .. } => {
                            assert_eq!(got, id, "client {c}: reply id crossed");
                            *seen.entry(got).or_default() += 1;
                        }
                        other => panic!("client {c}: {other:?}"),
                    }
                }
                seen
            })
        })
        .collect();
    let mut total = 0usize;
    for h in handles {
        let seen = h.join().unwrap();
        assert!(seen.values().all(|&n| n == 1), "duplicated reply id");
        total += seen.len();
    }
    assert_eq!(total, CLIENTS * PER_CLIENT);
    handle.shutdown();
}

/// One line-oriented exchange: send `line`, read one reply line.
fn wire_client(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let writer = stream.try_clone().unwrap();
    (writer, BufReader::new(stream))
}

fn send_recv(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

/// One `METRICS` scrape: the exposition, read up to its `# EOF` line.
fn scrape(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
    writeln!(writer, "METRICS").unwrap();
    match fg_serve::protocol::read_reply(reader).unwrap() {
        Some(fg_serve::frame::WireReply::Text(text)) => text,
        other => panic!("METRICS answered {other:?}"),
    }
}

#[test]
fn metrics_wire_command_exposes_phase_series_that_sum_to_e2e() {
    let (engine, task) = make_engine(ServeConfig::default());
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let vertices = task.graph.num_vertices();

    let (mut writer, mut reader) = wire_client(addr);
    for i in 0..30 {
        let reply = send_recv(
            &mut writer,
            &mut reader,
            &format!("INFER gcn {} id=m{i}", (i * 13) % vertices),
        );
        assert!(reply.starts_with("OK "), "{reply}");
    }

    let text = scrape(&mut writer, &mut reader);
    let lookup = |series: &str| fg_serve::metric_value(&text, series);
    fg_serve::parse_exposition(&text).expect("exposition parses");
    assert_eq!(lookup("fgserve_requests_completed_total"), Some(30.0));
    assert_eq!(lookup("fgserve_plan_cache_bytes"), None, "removed series");
    let activations = lookup("fgserve_mem_component_bytes{component=\"activations\"}");
    assert!(
        activations.unwrap() > 0.0,
        "the first INFER filled the logits"
    );
    for phase in ["queue_wait", "batch_form", "execute"] {
        assert_eq!(
            lookup(&format!(
                "fgserve_phase_latency_ms_count{{phase=\"{phase}\"}}"
            )),
            Some(30.0),
            "phase {phase} must have one sample per completed request"
        );
    }
    assert!(
        lookup("fgserve_phase_latency_ms_count{phase=\"serialize\"}").unwrap() > 0.0,
        "front-end must feed the serialize phase"
    );

    // Engine-side phases (queue wait → execute; serialize happens after
    // the e2e latency is stamped) must account for the end-to-end mean.
    let stats = handle.engine().stats();
    let phase_sum: f64 = [
        fg_serve::Phase::QueueWait,
        fg_serve::Phase::BatchForm,
        fg_serve::Phase::Execute,
    ]
    .iter()
    .map(|&p| stats.phase(p).mean_ms)
    .sum();
    let e2e = stats.latency.mean_ms;
    assert!(
        (phase_sum - e2e).abs() <= e2e * 0.20 + 0.25,
        "phase means must sum to ~e2e mean: phases {phase_sum:.3} ms vs e2e {e2e:.3} ms"
    );

    handle.shutdown();
}

#[test]
fn slow_log_captures_phase_breakdown_over_wire() {
    let (engine, _task) = make_engine(ServeConfig {
        // Threshold 0: every completed request is logged with its phases.
        slow_ms: Some(0.0),
        ..ServeConfig::default()
    });
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let (mut writer, mut reader) = wire_client(handle.addr());
    for i in 0..5 {
        let reply = send_recv(&mut writer, &mut reader, &format!("INFER gcn {i} id=s{i}"));
        assert!(reply.starts_with("OK "), "{reply}");
    }

    let header = send_recv(&mut writer, &mut reader, "SLOWLOG 3");
    let n: usize = header
        .strip_prefix("SLOWLOG ")
        .expect("SLOWLOG header")
        .parse()
        .unwrap();
    assert_eq!(n, 3, "limit honored: {header}");
    for _ in 0..n {
        let mut entry = String::new();
        reader.read_line(&mut entry).unwrap();
        let entry = entry.trim_end();
        assert!(entry.starts_with("SLOW seq="), "{entry}");
        assert!(entry.contains("model=gcn"), "{entry}");
        for key in ["total_ms=", "queue_ms=", "batch_ms=", "execute_ms="] {
            let value = entry
                .split_ascii_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .unwrap_or_else(|| panic!("missing {key} in {entry}"));
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad {key}{value}"));
        }
    }

    let entries = handle.engine().slow_requests(None);
    assert_eq!(entries.len(), 5, "threshold 0 logs every completed request");
    assert!(handle.engine().slow_total() >= 5);
    assert!(entries.iter().all(|e| e.trace_id != 0), "trace ids minted");
    handle.shutdown();
}

#[test]
fn metrics_export_the_per_component_memory_breakdown() {
    let (engine, task) = make_engine(ServeConfig::default());
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let vertices = task.graph.num_vertices();

    let (mut writer, mut reader) = wire_client(handle.addr());
    for i in 0..8 {
        let reply = send_recv(
            &mut writer,
            &mut reader,
            &format!("INFER gcn {}", i % vertices),
        );
        assert!(reply.starts_with("OK "), "{reply}");
    }
    // A burst of sampled requests: the workers that served them keep their
    // sampler scratch (one `u32` mark per vertex), charged to `sampling`.
    for i in 0..16 {
        let req = InferSeedsRequest {
            model: "gcn".into(),
            seeds: vec![i % vertices, (i * 31 + 7) % vertices],
            fanouts: Some(vec![4, 4]),
            sample_seed: i as u64,
            feats: None,
            deadline: None,
        };
        handle.engine().infer_seeds(req).expect("sampled");
    }

    let text = scrape(&mut writer, &mut reader);
    let lookup = |series: &str| fg_serve::metric_value(&text, series);
    for component in [
        "graph_topology",
        "serve_batch",
        "plan_cache",
        "activations",
        "sampling",
    ] {
        for series in [
            "fgserve_mem_component_bytes",
            "fgserve_mem_component_peak_bytes",
        ] {
            let value = lookup(&format!("{series}{{component=\"{component}\"}}"))
                .unwrap_or_else(|| panic!("missing {series} for {component}"));
            assert!(value >= 0.0 && value.fract() == 0.0, "{component}: {value}");
        }
    }
    assert_eq!(lookup("fgserve_requests_mem_shed_total"), Some(0.0));

    let report = handle.engine().memory_report();
    let topo = report
        .components
        .iter()
        .find(|c| c.component.name() == "graph_topology")
        .expect("graph_topology snapshot");
    assert!(
        topo.current > 0,
        "registered graph topology must be charged"
    );
    assert!(report.total_peak >= report.total_current);
    // The accountant is process-wide and other tests run alongside, so this
    // is a floor; `tests/activation_accounting.rs` pins the exact bytes.
    let sampling = report
        .components
        .iter()
        .find(|c| c.component.name() == "sampling")
        .expect("sampling snapshot");
    assert!(
        sampling.current >= (vertices * std::mem::size_of::<u32>()) as u64,
        "a worker's sampler scratch is charged while it lives: {}",
        sampling.current
    );

    handle.shutdown();
}

/// The memory-budget gate sheds before admission once the accounted
/// footprint is over budget. A registered graph alone charges more than one
/// byte, so a 1-byte budget sheds every request; the default budget (0)
/// never does.
#[test]
fn memory_budget_sheds_with_typed_error() {
    let request = || InferRequest {
        model: "gcn".into(),
        node: 0,
        deadline: None,
    };
    let (engine, _task) = make_engine(ServeConfig {
        mem_budget: 1,
        ..ServeConfig::default()
    });
    assert_eq!(
        engine.infer(request()).unwrap_err(),
        ServeError::OverMemoryBudget
    );
    let stats = engine.stats();
    assert_eq!((stats.mem_shed, stats.completed), (1, 0));

    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let (mut writer, mut reader) = wire_client(handle.addr());
    let text = scrape(&mut writer, &mut reader);
    let lookup = |series: &str| fg_serve::metric_value(&text, series);
    assert_eq!(lookup("fgserve_mem_budget_bytes"), Some(1.0));
    assert_eq!(lookup("fgserve_requests_mem_shed_total"), Some(1.0));
    handle.shutdown();

    let (engine, _task) = make_engine(ServeConfig::default());
    assert!(engine.infer(request()).is_ok(), "budget 0 never sheds");
    assert_eq!(engine.stats().mem_shed, 0);
}

#[test]
fn seeded_requests_round_trip_and_match_full_graph_over_wire() {
    let (engine, task) = make_engine(ServeConfig::default());
    let expected = reference_logits(&task);
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let (mut writer, mut reader) = wire_client(handle.addr());

    // Full fanout (no fanout= option): seeded inference must reproduce the
    // full-graph logits bit-for-bit, over the wire.
    writeln!(writer, "INFER_SEEDS gcn 3,7,250 id=sd0").unwrap();
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let header = fg_serve::protocol::parse_seeds_header(header.trim_end()).unwrap();
    assert_eq!(header.id, "sd0");
    assert_eq!(header.count, 3);
    assert!(header.sub_vertices > 0 && header.sub_edges > 0);
    for &seed in &[3usize, 7, 250] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (node, resp) = fg_serve::protocol::parse_seed_line(line.trim_end()).unwrap();
        assert_eq!(node, seed, "SEED lines come back in request order");
        assert_eq!(
            resp.logits, expected[seed],
            "full-fanout seeded logits diverged from full graph for seed {seed}"
        );
    }

    // Capped fanout: still one line per seed, finite logits, smaller
    // subgraph than the full-fanout one.
    writeln!(
        writer,
        "INFER_SEEDS gcn 3,3 fanout=2,2 sample_seed=5 id=sd1"
    )
    .unwrap();
    let mut capped = String::new();
    reader.read_line(&mut capped).unwrap();
    let capped = fg_serve::protocol::parse_seeds_header(capped.trim_end()).unwrap();
    assert_eq!((capped.id.as_str(), capped.count), ("sd1", 2));
    assert!(
        capped.sub_vertices < header.sub_vertices,
        "fanout cap must shrink the subgraph"
    );
    let mut rows = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (node, resp) = fg_serve::protocol::parse_seed_line(line.trim_end()).unwrap();
        assert_eq!(node, 3);
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        rows.push(resp);
    }
    assert_eq!(rows[0], rows[1], "duplicate seeds answer identically");

    // Errors stay single-line ERR.
    let reply = send_recv(&mut writer, &mut reader, "INFER_SEEDS nope 1 id=sd2");
    assert!(reply.starts_with("ERR sd2 unknown-model"), "{reply}");
    let reply = send_recv(&mut writer, &mut reader, "INFER_SEEDS gcn 999999 id=sd3");
    assert!(reply.starts_with("ERR sd3 bad-request"), "{reply}");

    handle.shutdown();
}

/// A sampled request runs on a subgraph of its own, and records one
/// `sample` phase.
#[test]
fn sampled_requests_record_a_sample_phase_each() {
    let (engine, task) = make_engine(ServeConfig::default());
    let vertices = task.graph.num_vertices();
    for round in 0..12u64 {
        let seeds: Vec<usize> = (0..4)
            .map(|i| ((round * 37 + i * 101) as usize) % vertices)
            .collect();
        let resp = engine
            .infer_seeds(InferSeedsRequest {
                model: "gcn".into(),
                seeds: seeds.clone(),
                fanouts: Some(vec![4, 4]),
                sample_seed: round,
                feats: None,
                deadline: None,
            })
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(resp.results.len(), seeds.len());
    }
    let stats = engine.stats();
    // The sample phase got one sample per request, and sampled requests
    // complete like any other.
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.phase(fg_serve::Phase::Sample).count, 12);
    engine.shutdown();
}

#[test]
fn timed_out_requests_record_queue_wait_phase_over_wire() {
    // Satellite regression: requests dropped for expired deadlines during
    // batch formation used to bypass per-phase attribution entirely — the
    // timeout counter moved while queue_wait stayed flat, so dashboards
    // showed timeouts with no latency evidence. The two series must move
    // together.
    let (engine, _task) = make_engine(ServeConfig {
        workers: 1,
        exec_delay: Duration::from_millis(30),
        default_deadline: None,
        ..ServeConfig::default()
    });
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let (mut writer, mut reader) = wire_client(handle.addr());

    let counts = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>| -> (f64, f64) {
        let text = scrape(writer, reader);
        (
            fg_serve::metric_value(&text, "fgserve_requests_timed_out_total").unwrap(),
            fg_serve::metric_value(
                &text,
                "fgserve_phase_latency_ms_count{phase=\"queue_wait\"}",
            )
            .unwrap(),
        )
    };

    let (timeouts0, queue0) = counts(&mut writer, &mut reader);
    for i in 0..3 {
        let reply = send_recv(
            &mut writer,
            &mut reader,
            &format!("INFER gcn 0 id=to{i} deadline_ms=1"),
        );
        assert!(reply.starts_with(&format!("ERR to{i} timeout")), "{reply}");
    }
    let (timeouts1, queue1) = counts(&mut writer, &mut reader);
    assert_eq!(timeouts1 - timeouts0, 3.0, "three requests timed out");
    assert!(
        queue1 - queue0 >= 3.0,
        "every timed-out request must land a queue_wait sample: \
         timeouts {timeouts0}->{timeouts1}, queue_wait count {queue0}->{queue1}"
    );
    handle.shutdown();
}

#[test]
fn sampled_request_yields_one_coherent_trace_tree() {
    use fg_telemetry::{Sink, SpanRecord};
    use std::sync::Mutex;

    struct Collect(Mutex<Vec<(String, u64)>>);
    impl Sink for Collect {
        fn on_span(&self, record: &SpanRecord) {
            self.0
                .lock()
                .unwrap()
                .push((record.name.to_string(), record.trace_id));
        }
    }

    let sink = Arc::new(Collect(Mutex::new(Vec::new())));
    fg_telemetry::set_enabled(true);
    fg_telemetry::add_sink(sink.clone());

    let (engine, _task) = make_engine(ServeConfig {
        trace_sample: 1, // sample every request
        ..ServeConfig::default()
    });
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let (mut writer, mut reader) = wire_client(handle.addr());
    let reply = send_recv(&mut writer, &mut reader, "INFER gcn 3 id=t0");
    assert!(reply.starts_with("OK "), "{reply}");
    handle.shutdown();

    let spans = sink.0.lock().unwrap().clone();
    let trace_id = spans
        .iter()
        .find(|(name, trace)| name == "serve/request" && *trace != 0)
        .map(|&(_, trace)| trace)
        .expect("front-end span carries the minted trace id");
    // Front-end, cross-thread queue wait, worker batch, kernel entry: one
    // tree under one id.
    for name in [
        "serve/request",
        "serve/queue_wait",
        "serve/batch",
        "serve/infer",
        "gnn/infer_batch",
    ] {
        assert!(
            spans.iter().any(|(n, t)| n == name && *t == trace_id),
            "span {name} missing from trace {trace_id:#x}; got {spans:?}"
        );
    }
}

/// A traced sampled request shows its blocks shrinking: `serve/infer` lists
/// each layer's `written/read` rows, and each `model/layer` span of the
/// request carries its own.
#[test]
fn sampled_request_trace_shows_each_layers_rows() {
    use fg_telemetry::{Sink, SpanRecord};
    use std::sync::Mutex;

    type Recorded = (&'static str, u64, String);
    struct Collect(Mutex<Vec<Recorded>>);
    impl Sink for Collect {
        fn on_span(&self, record: &SpanRecord) {
            let args = record.args.clone().unwrap_or_default();
            self.0
                .lock()
                .unwrap()
                .push((record.name, record.trace_id, args));
        }
    }

    let sink = Arc::new(Collect(Mutex::new(Vec::new())));
    fg_telemetry::set_enabled(true);
    fg_telemetry::add_sink(sink.clone());
    let (engine, _task) = make_engine(ServeConfig {
        trace_sample: 1,
        ..ServeConfig::default()
    });
    engine
        .infer_seeds(InferSeedsRequest {
            model: "gcn".into(),
            seeds: vec![3, 7, 3],
            fanouts: Some(vec![3, 3]),
            sample_seed: 1,
            feats: None,
            deadline: None,
        })
        .expect("sampled");
    engine.shutdown();

    let spans = sink.0.lock().unwrap().clone();
    let (trace_id, layers) = spans
        .iter()
        .find_map(|(name, trace, args)| {
            let layers = args.split(' ').find_map(|kv| kv.strip_prefix("layers="))?;
            (*name == "serve/infer" && *trace != 0).then(|| (*trace, layers.to_string()))
        })
        .expect("a traced sampled serve/infer span lists its layers");
    let rows: Vec<(usize, usize)> = layers
        .split(',')
        .map(|wr| {
            let (w, r) = wr.split_once('/').expect("written/read");
            (w.parse().unwrap(), r.parse().unwrap())
        })
        .collect();
    assert_eq!(rows.len(), 2, "{layers}");
    assert_eq!(
        rows[1].0, 2,
        "the last layer writes the distinct seeds: {layers}"
    );
    assert_eq!(
        rows[0].0, rows[1].1,
        "layer 2 reads what layer 1 wrote: {layers}"
    );
    assert!(rows[1].1 < rows[0].1, "{layers}");
    for (layer, (w, r)) in rows.iter().enumerate() {
        let want = format!("layer={} rows={w}/{r}", layer + 1);
        assert!(
            spans
                .iter()
                .any(|(n, t, args)| *n == "model/layer" && *t == trace_id && args.contains(&want)),
            "no model/layer span with {want} in trace {trace_id:#x}"
        );
    }
}
