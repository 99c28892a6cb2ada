//! A deterministic work proxy for full-graph serving: how many edges the
//! CPU kernels walk (`Counter::EdgesProcessed`) to answer `INFER`.
//!
//! Graph, features and weights are frozen at registration, so a
//! registration walks its graph for exactly one forward pass — its first
//! `INFER` — and every later `INFER` is a row read that walks nothing. A
//! per-request (or per-batch) pass coming back fails here as a count, not
//! as a few milliseconds on a noisy clock.
//!
//! This file is one test in its own process because the counter is global.

use std::sync::Barrier;

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_gnn::FeatgraphBackend;
use fg_serve::{Engine, InferRequest, ServeConfig};
use fg_telemetry::{counter_value, Counter};

const MODELS: [&str; 3] = ["gcn", "graphsage", "gat"];

fn edges() -> u64 {
    counter_value(Counter::EdgesProcessed)
}

fn infer(engine: &Engine, model: &str, node: usize) -> Vec<f32> {
    let req = InferRequest {
        model: model.into(),
        node,
        deadline: None,
    };
    engine
        .infer(req)
        .unwrap_or_else(|e| panic!("{model} node {node}: {e}"))
        .logits
}

#[test]
fn a_registration_walks_its_graph_for_one_pass() {
    fg_telemetry::set_enabled(true);
    let task = SbmTask::generate(300, 3, 8, 2, 5);
    let n = task.graph.num_vertices();
    let model = |name: &str| build_model(name, task.in_dim(), 8, task.num_classes, 3);

    // Every later INFER is a row read: the count after each model's first
    // INFER is the count after 200 more.
    let engine = Engine::new(ServeConfig::default());
    for name in MODELS {
        engine.register_model(name, model(name), task.graph.clone(), task.features.clone());
    }
    for name in MODELS {
        let before = edges();
        infer(&engine, name, 0);
        let filled = edges();
        assert!(filled > before, "{name}: the first INFER runs the pass");
        for i in 0..200 {
            infer(&engine, name, (i * 37) % n);
        }
        assert_eq!(edges(), filled, "{name}: 200 INFERs walked edges");
    }

    // Eight first INFERs released together on eight workers wait on one
    // fill: they walk exactly one pass's edges and answer bitwise.
    const THREADS: usize = 8;
    let nodes: Vec<usize> = (0..n).collect();
    for name in MODELS {
        let backend = FeatgraphBackend::cpu(1);
        let before = edges();
        let want =
            fg_gnn::infer_batch(&*model(name), &task.graph, &task.features, &backend, &nodes)
                .expect("reference pass");
        let one_pass = edges() - before;

        let engine = Engine::new(ServeConfig {
            workers: THREADS,
            default_deadline: None,
            ..ServeConfig::default()
        });
        engine.register_model(name, model(name), task.graph.clone(), task.features.clone());
        let start = Barrier::new(THREADS);
        let before = edges();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (engine, start, want) = (&engine, &start, &want);
                s.spawn(move || {
                    start.wait();
                    let node = t * 37;
                    assert_eq!(infer(engine, name, node), want[node], "{name} thread {t}");
                });
            }
        });
        assert_eq!(
            edges() - before,
            one_pass,
            "{name}: a cold burst walks one pass"
        );
    }
}
