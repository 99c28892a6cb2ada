//! The `activations` memory component follows what registrations keep:
//! 0 at registration and under sampled-only GCN traffic, n·classes·4 bytes
//! per model once its first `INFER` fills its logits, n·(hidden+2)·4 bytes
//! per head once a GAT registration's first sampled request fills its
//! layer-0 table; unmoved by later row reads and sampled requests, credited
//! when a replaced entry or the engine drops. The fill's compiled plans are
//! charged to `plan_cache` only while the fill runs. The accountant is
//! process-wide, so this binary holds a single test and nothing else
//! charges either component while it runs.

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
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
}
