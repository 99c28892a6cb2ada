//! The `activations` memory component follows the registrations that hold
//! full-graph logits: 0 at registration and under sampled-only traffic,
//! n·classes·4 bytes per model once its first `INFER` fills them, unmoved
//! by later row reads, credited when a replaced entry or the engine drops.
//! The fill's compiled plans are charged to `plan_cache` only while the
//! fill runs. The accountant is process-wide, so this binary holds a single
//! test and nothing else charges either component while it runs.

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_serve::{Engine, InferRequest, InferSeedsRequest, ServeConfig};
use fg_telemetry::{mem_current, mem_peak, MemComponent};

#[test]
fn activation_charges_follow_registrations_and_full_views_only() {
    let task = SbmTask::generate(400, 3, 8, 2, 7);
    let one = (task.graph.num_vertices() * task.num_classes * 4) as u64;
    let activations = || mem_current(MemComponent::Activations);
    let plans = || mem_current(MemComponent::PlanCache);
    let engine = Engine::new(ServeConfig::default());
    let register = |name: &str| {
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 3);
        engine.register_model(name, model, task.graph.clone(), task.features.clone());
    };
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
    drop(engine);
    assert_eq!(activations(), 0, "entries credit on engine drop");
}
