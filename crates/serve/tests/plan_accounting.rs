//! The `plan_cache` memory component follows the registrations that hold
//! compiled plans: charged as a model's first pass compiles them, credited
//! when a replaced entry or the engine drops. The accountant is
//! process-wide, so this binary holds a single test and nothing else
//! charges the component while it runs.

#![cfg(feature = "telemetry")]

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_serve::{Engine, InferRequest, ServeConfig};
use fg_telemetry::{mem_current, MemComponent};

#[test]
fn plan_charges_follow_registrations() {
    let task = SbmTask::generate(400, 3, 8, 2, 7);
    let engine = Engine::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let register = |name: &str| {
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 3);
        engine.register_model(name, model, task.graph.clone(), task.features.clone());
    };
    let infer = |model: &str| {
        let req = InferRequest {
            model: model.into(),
            node: 5,
            deadline: None,
        };
        engine.infer(req).expect("infer");
    };
    let charged = || mem_current(MemComponent::PlanCache);

    register("a");
    register("b");
    assert_eq!(charged(), 0, "nothing compiles at registration");
    infer("a");
    let one = charged();
    assert!(one > 0, "the first pass charges its plans");
    infer("b");
    assert_eq!(charged(), 2 * one, "each registration holds its own plans");
    for _ in 0..3 {
        register("a");
        infer("a");
        assert_eq!(charged(), 2 * one, "a replaced entry's plans are credited");
    }
    assert_eq!(charged(), engine.memory_report().plan_cache_bytes);
    drop(engine);
    assert_eq!(charged(), 0, "the engine's entries credit theirs on drop");
}
