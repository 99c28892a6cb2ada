//! The `activations` memory component follows what registrations keep:
//! 0 at registration and under sampled-only GCN traffic, n·classes·4 bytes
//! per model once its first `INFER` fills its logits, n·(hidden+2)·4 bytes
//! per head once a GAT registration's first sampled request fills its
//! layer-0 table; unmoved by later row reads and sampled requests, credited
//! when a replaced entry or the engine drops. The fill's compiled plans are
//! charged to `plan_cache` only while the fill runs. The `sampling`
//! component holds each worker's sampler scratch, charged once for the
//! worker's lifetime, and nothing of any finished request. The accountant
//! is process-wide, so this binary holds a single test and nothing else
//! charges these components while it runs.

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_gnn::prepare_seeds_with;
use fg_graph::{SampleConfig, SampleScratch};
use fg_serve::{Engine, InferRequest, InferSeedsRequest, ServeConfig};
use fg_telemetry::{mem_current, mem_peak, MemComponent};

#[test]
fn activation_charges_follow_what_registrations_keep() {
    const HIDDEN: usize = 8;
    let task = SbmTask::generate(400, 3, 8, 2, 7);
    let one = (task.graph.num_vertices() * task.num_classes * 4) as u64;
    let table = (task.graph.num_vertices() * (HIDDEN + 2) * 4) as u64;
    let activations = || mem_current(MemComponent::Activations);
    let plans = || mem_current(MemComponent::PlanCache);
    let engine = Engine::new(ServeConfig::default());
    let register_as = |name: &str, kind: &str| {
        let model = build_model(kind, task.in_dim(), HIDDEN, task.num_classes, 3);
        engine.register_model(name, model, task.graph.clone(), task.features.clone());
    };
    let register = |name: &str| register_as(name, "gcn");
    let infer = |model: &str, node: usize| {
        let req = InferRequest {
            model: model.into(),
            node,
            deadline: None,
        };
        engine.infer(req).expect("infer");
    };
    let sampled = |model: &str, round: u64| {
        let req = InferSeedsRequest {
            model: model.into(),
            seeds: vec![(round as usize * 37) % 400, 5],
            fanouts: Some(vec![4, 4]),
            sample_seed: round,
            feats: None,
            deadline: None,
        };
        engine.infer_seeds(req).expect("sampled");
    };

    register("a");
    register("b");
    assert_eq!(activations(), 0, "nothing fills at registration");
    for round in 0..20 {
        sampled("a", round);
    }
    assert_eq!(activations(), 0, "sampled traffic never fills");

    infer("a", 5);
    assert_eq!(activations(), one, "the first INFER fills n·classes·4");
    assert_eq!(plans(), 0, "the fill's plans leave with its backend");
    assert!(
        mem_peak(MemComponent::PlanCache) > 0,
        "the plan_cache peak shows the fill's plans"
    );
    for node in 0..50 {
        infer("a", node);
    }
    assert_eq!(activations(), one, "row reads keep nothing");
    infer("b", 7);
    assert_eq!(activations(), 2 * one, "each registration fills its own");

    for _ in 0..3 {
        register("a");
        assert_eq!(activations(), one, "a replaced entry is credited");
        infer("a", 9);
        assert_eq!(activations(), 2 * one);
        assert_eq!(plans(), 0);
    }

    // A single-head GAT keeps its layer-0 table: the first sampled request
    // fills it, later ones read it, a replacement credits it.
    register_as("g", "gat");
    assert_eq!(activations(), 2 * one);
    sampled("g", 0);
    assert_eq!(
        activations(),
        2 * one + table,
        "the first sampled GAT request fills its table"
    );
    for round in 1..10 {
        sampled("g", round);
    }
    assert_eq!(
        activations(),
        2 * one + table,
        "later sampled requests keep nothing"
    );
    infer("g", 3);
    assert_eq!(
        activations(),
        3 * one + table,
        "logits and table side by side"
    );
    register_as("g", "gat");
    assert_eq!(
        activations(),
        2 * one,
        "a replaced entry credits its logits and table"
    );
    sampled("g", 1);
    assert_eq!(activations(), 2 * one + table);
    drop(engine);
    assert_eq!(activations(), 0, "entries credit on engine drop");
    let sampling = || mem_current(MemComponent::Sampling);
    assert_eq!(sampling(), 0, "workers credit their scratch on engine drop");

    // One worker: after every sampled request, `sampling` is exactly its
    // scratch, which the same requests replayed through one scratch
    // reproduce; no request leaves a byte behind.
    let engine = Engine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let model = build_model("gcn", task.in_dim(), HIDDEN, task.num_classes, 3);
    engine.register_model("s", model, task.graph.clone(), task.features.clone());
    let mut replay = SampleScratch::new();
    for round in 0..30usize {
        let seeds = vec![(round * 37) % 400, 5, (round * 11) % 400];
        let fanouts = vec![2 + round % 5, 3];
        let req = InferSeedsRequest {
            model: "s".into(),
            seeds: seeds.clone(),
            fanouts: Some(fanouts.clone()),
            sample_seed: round as u64,
            feats: None,
            deadline: None,
        };
        engine.infer_seeds(req).expect("sampled");
        let cfg = SampleConfig::new(fanouts, round as u64);
        prepare_seeds_with(&mut replay, &task.graph, &seeds, &cfg).expect("replay");
        assert_eq!(sampling(), replay.mem_bytes(), "round {round}");
    }
    assert!(sampling() >= 400 * 4, "the scratch covers every vertex");
    drop(engine);
    assert_eq!(sampling(), 0, "the worker's scratch credits on engine drop");
}
