//! Sharded-serving integration tests: bitwise parity between shard counts,
//! the SHARDS wire command, coordinator seed routing, concurrent mixed
//! traffic against a sharded loopback server, and shard memory accounting.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_graph::ShardStrategy;
use fg_serve::{
    serve, Engine, InferRequest, InferSeedsRequest, ServeConfig, ShardLine, ShardsReport,
};

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

fn sharded_cfg(shards: usize, strategy: ShardStrategy) -> ServeConfig {
    ServeConfig {
        shards,
        shard_strategy: strategy,
        ..ServeConfig::default()
    }
}

/// With Range placement, shard `s` owns a contiguous ascending ID range;
/// recover each shard's first owned vertex from the report's owned counts.
fn range_shard_starts(report: &ShardsReport) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut next = 0usize;
    for line in &report.lines {
        starts.push(next);
        next += line.owned as usize;
    }
    starts
}

#[test]
fn sharded_inference_is_bitwise_identical_to_single_worker() {
    let (reference, task) = make_engine(ServeConfig::default());
    let vertices = task.graph.num_vertices();
    let expected: Vec<Vec<f32>> = (0..vertices)
        .map(|node| {
            reference
                .infer(InferRequest {
                    model: "gcn".into(),
                    node,
                    deadline: None,
                })
                .expect("single-worker reference")
                .logits
        })
        .collect();
    reference.shutdown();

    for shards in [2, 3, 4] {
        for strategy in ShardStrategy::ALL {
            let (engine, _) = make_engine(sharded_cfg(shards, strategy));
            for node in (0..vertices).step_by(7) {
                let resp = engine
                    .infer(InferRequest {
                        model: "gcn".into(),
                        node,
                        deadline: None,
                    })
                    .unwrap_or_else(|e| panic!("{shards} shards {strategy}: node {node}: {e}"));
                assert_eq!(
                    resp.logits, expected[node],
                    "{shards} shards {strategy}: node {node} diverged from single-worker"
                );
            }
            // Full-fanout seeded requests take the sharded path too and must
            // agree bitwise.
            let seeds = vec![0usize, vertices / 2, vertices - 1];
            let resp = engine
                .infer_seeds(InferSeedsRequest {
                    model: "gcn".into(),
                    seeds: seeds.clone(),
                    fanouts: None,
                    sample_seed: 0,
                    feats: None,
                    deadline: None,
                })
                .expect("sharded seeds");
            for (seed, row) in seeds.iter().zip(&resp.results) {
                assert_eq!(
                    row.logits, expected[*seed],
                    "{shards} shards {strategy}: seed {seed} diverged"
                );
            }
            let report = engine.shards_report();
            assert!(
                report.total_exchange_bytes() > 0,
                "{shards} shards {strategy}: halo exchange must move bytes"
            );
            engine.shutdown();
        }
    }
}

#[test]
fn capped_fanout_seeds_fall_back_to_sampled_path_on_sharded_engine() {
    let (sharded, task) = make_engine(sharded_cfg(4, ShardStrategy::Range));
    let (single, _) = make_engine(ServeConfig::default());
    let vertices = task.graph.num_vertices();
    // Capped fanouts are not shard-parity-safe, so the sharded engine must
    // answer them exactly like a single-worker engine (same sampled path,
    // same RNG keying).
    for round in 0..4u64 {
        let seeds: Vec<usize> = (0..3).map(|i| ((round * 91 + i * 57) as usize) % vertices).collect();
        let req = |engine: &Engine| {
            engine
                .infer_seeds(InferSeedsRequest {
                    model: "gcn".into(),
                    seeds: seeds.clone(),
                    fanouts: Some(vec![3, 3]),
                    sample_seed: round,
                    feats: None,
                    deadline: None,
                })
                .expect("capped seeds")
        };
        let a = req(&sharded);
        let b = req(&single);
        assert_eq!(a.sub_vertices, b.sub_vertices, "round {round}: subgraph diverged");
        assert_eq!(a.sub_edges, b.sub_edges);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.logits, y.logits, "round {round}: capped logits diverged");
        }
    }
    // The sampled fallback records Sample phases; the sharded fast path
    // never does.
    assert_eq!(sharded.stats().phase(fg_serve::Phase::Sample).count, 4);
    sharded.shutdown();
    single.shutdown();
}

#[test]
fn shards_wire_command_reports_topology_and_round_trips() {
    let (engine, task) = make_engine(sharded_cfg(4, ShardStrategy::Range));
    let vertices = task.graph.num_vertices() as u64;
    let edges = task.graph.num_edges() as u64;
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writeln!(writer, "SHARDS").unwrap();
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let n: usize = header
        .trim_end()
        .strip_prefix("SHARDS ")
        .expect("SHARDS header")
        .parse()
        .unwrap();
    assert_eq!(n, 4, "one line per shard: {header}");
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().strip_prefix("SHARD ").expect("SHARD prefix").to_string();
        lines.push(line);
    }
    let parsed: Vec<ShardLine> = lines
        .iter()
        .map(|l| ShardLine::parse_wire(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    // Format/parse round-trip is exact.
    for (line, p) in lines.iter().zip(&parsed) {
        assert_eq!(&p.to_wire(), line, "wire round-trip");
    }
    // Destination sharding: owned sets partition the vertices, every edge
    // lands on exactly one owner shard, and locals = owned + halo.
    assert_eq!(parsed.iter().map(|p| p.owned).sum::<u64>(), vertices);
    assert_eq!(parsed.iter().map(|p| p.edges).sum::<u64>(), edges);
    for p in &parsed {
        assert_eq!(p.locals, p.owned + p.halo, "shard {}", p.shard);
        assert_eq!(p.model, "gcn");
        assert_eq!(p.strategy, "range");
        assert!(p.mem_bytes > 0, "shard {} accounts its topology", p.shard);
    }
    handle.shutdown();

    // A single-worker server answers SHARDS 0 with no lines.
    let (engine, _) = make_engine(ServeConfig::default());
    assert_eq!(engine.shards_report(), ShardsReport::default());
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "SHARDS").unwrap();
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert_eq!(header.trim_end(), "SHARDS 0");
    handle.shutdown();
}

#[test]
fn coordinator_routes_seeds_to_owner_shards() {
    let (engine, _task) = make_engine(sharded_cfg(4, ShardStrategy::Range));
    let before = engine.shards_report();
    let starts = range_shard_starts(&before);
    assert_eq!(starts.len(), 4);

    // All seeds owned by shard 0: the reply's subgraph figures are exactly
    // that one shard's local slice.
    let resp = engine
        .infer_seeds(InferSeedsRequest {
            model: "gcn".into(),
            seeds: vec![starts[0], starts[0] + 1, starts[0] + 2],
            fanouts: None,
            sample_seed: 0,
            feats: None,
            deadline: None,
        })
        .expect("one-shard seeds");
    assert_eq!(resp.sub_vertices as u64, before.lines[0].locals);
    assert_eq!(resp.sub_edges as u64, before.lines[0].edges);

    // One seed per shard: the reply spans every shard's local slice.
    let resp = engine
        .infer_seeds(InferSeedsRequest {
            model: "gcn".into(),
            seeds: starts.clone(),
            fanouts: None,
            sample_seed: 0,
            feats: None,
            deadline: None,
        })
        .expect("spread seeds");
    let all_locals: u64 = before.lines.iter().map(|l| l.locals).sum();
    let all_edges: u64 = before.lines.iter().map(|l| l.edges).sum();
    assert_eq!(resp.sub_vertices as u64, all_locals);
    assert_eq!(resp.sub_edges as u64, all_edges);

    // Routing counters: shard 0 saw both requests (3 + 1 rows), the rest
    // exactly one row each.
    let after = engine.shards_report();
    assert_eq!(after.lines[0].rows_routed, 4);
    for line in &after.lines[1..] {
        assert_eq!(line.rows_routed, 1, "shard {}", line.shard);
    }
    engine.shutdown();
}

#[test]
fn stress_16_threads_mixed_traffic_on_4_shard_server() {
    const THREADS: usize = 16;
    const PER_THREAD: usize = 40;
    let (engine, task) = make_engine(ServeConfig {
        queue_capacity: 4096,
        workers: 3,
        default_deadline: None,
        ..sharded_cfg(4, ShardStrategy::Degree)
    });
    let vertices = task.graph.num_vertices();

    // Reference rows from the same engine before the storm (sharded serving
    // is deterministic, so any later reply must match these bitwise).
    let expected: Vec<Vec<f32>> = (0..vertices)
        .map(|node| {
            engine
                .infer(InferRequest {
                    model: "gcn".into(),
                    node,
                    deadline: None,
                })
                .expect("reference row")
                .logits
        })
        .collect();
    let mid = engine.shards_report();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut answered = 0usize;
                for i in 0..PER_THREAD {
                    let node = (t * 997 + i * 31) % vertices;
                    if (t + i) % 3 == 0 {
                        // Full-fanout seeds: sharded scatter-gather path.
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
                            .expect("seeds under load");
                        for (seed, row) in seeds.iter().zip(&resp.results) {
                            assert_eq!(row.logits, expected[*seed], "thread {t} req {i}");
                        }
                    } else {
                        let resp = engine
                            .infer(InferRequest {
                                model: "gcn".into(),
                                node,
                                deadline: None,
                            })
                            .expect("infer under load");
                        assert_eq!(resp.logits, expected[node], "thread {t} req {i}");
                    }
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, THREADS * PER_THREAD, "zero lost replies");

    let stats = engine.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed as usize, vertices + THREADS * PER_THREAD);

    // Per-shard counters are monotone and account for every routed row.
    let after = engine.shards_report();
    let mut routed_after = 0u64;
    for (m, a) in mid.lines.iter().zip(&after.lines) {
        assert!(a.rows_routed >= m.rows_routed, "shard {} went backwards", a.shard);
        assert!(a.exchange_bytes >= m.exchange_bytes, "shard {}", a.shard);
        routed_after += a.rows_routed;
    }
    let seeds_rows: u64 = 2 * (0..THREADS)
        .map(|t| (0..PER_THREAD).filter(|i| (t + i) % 3 == 0).count() as u64)
        .sum::<u64>();
    let node_rows = (vertices + THREADS * PER_THREAD) as u64 - seeds_rows / 2;
    assert_eq!(routed_after, node_rows + seeds_rows, "every answered row routed to a shard");
    assert!(after.total_exchange_bytes() > 0, "halo exchange ran");

    // Memory accounting: the shard_plan component carries at least this
    // engine's shard topology (other tests may hold their own), and the
    // engine total covers the per-component sum it reports.
    #[cfg(feature = "telemetry")]
    {
        let report = engine.memory_report();
        let shard_plan = report
            .components
            .iter()
            .find(|c| c.component.name() == "shard_plan")
            .expect("shard_plan component");
        let lines_sum: u64 = after.lines.iter().map(|l| l.mem_bytes).sum();
        assert!(lines_sum > 0);
        assert!(
            shard_plan.current >= lines_sum,
            "shard_plan accounting ({}) must cover the per-shard report sum ({lines_sum})",
            shard_plan.current
        );
        assert!(report.total_current >= shard_plan.current);
    }
    engine.shutdown();
}
