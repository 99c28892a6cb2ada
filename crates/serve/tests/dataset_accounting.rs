//! Registrations made on one dataset share it: three models on one graph
//! and one feature matrix charge `graph_topology` with one graph's bytes
//! and `features` with one matrix (one quantized copy under bf16), a
//! replaced model leaves the dataset charged once, and dropping every
//! registration credits both to 0. The accountant is process-wide, so this
//! binary holds a single test and nothing else charges these components
//! while it runs.

use std::sync::Arc;

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_serve::{Engine, InferRequest, InferSeedsRequest, ServeConfig};
use fg_telemetry::{MemComponent, MemScope};
use fg_tensor::{FeatureDtype, FeatureTensor};

const MODELS: [&str; 3] = ["gcn", "graphsage", "gat"];

/// `(graph_topology, features)` as the engine's memory report reads them.
fn charged(engine: &Engine) -> (u64, u64) {
    let report = engine.memory_report();
    let current = |component| {
        let snapshot = report.components.iter().find(|c| c.component == component);
        snapshot.expect("component snapshot").current
    };
    (
        current(MemComponent::GraphTopology),
        current(MemComponent::Features),
    )
}

#[test]
fn one_dataset_is_charged_once_however_many_models_serve_it() {
    for dtype in [FeatureDtype::F32, FeatureDtype::Bf16] {
        let task = {
            let _mem = MemScope::enter(MemComponent::Features);
            SbmTask::generate(400, 3, 8, 2, 7)
        };
        let (in_dim, classes) = (task.in_dim(), task.num_classes);
        let (graph, features) = (Arc::new(task.graph), Arc::new(task.features));
        let topology = graph.mem_bytes();
        let stored = FeatureTensor::from_f32(dtype, Arc::clone(&features)).mem_bytes();
        // While the caller holds its f32 matrix too, bf16 storage is a
        // second (the engine's one) copy.
        let held = match dtype {
            FeatureDtype::F32 => stored,
            FeatureDtype::Bf16 => stored + features.mem_bytes(),
        };
        let engine = Engine::new(ServeConfig {
            feature_dtype: dtype,
            ..ServeConfig::default()
        });
        let register = |name: &str, seed: u64| {
            let model = build_model(name, in_dim, 8, classes, seed);
            engine.register_model(name, model, Arc::clone(&graph), Arc::clone(&features));
        };
        for name in MODELS {
            register(name, 3);
        }
        assert_eq!(
            charged(&engine),
            (topology, held),
            "{dtype:?}: three models, one dataset"
        );

        // Serving reads the dataset and never grows it.
        for (i, name) in MODELS.into_iter().enumerate() {
            let infer = InferRequest {
                model: name.into(),
                node: i * 97,
                deadline: None,
            };
            engine.infer(infer).expect("full view");
            let seeds = InferSeedsRequest {
                model: name.into(),
                seeds: vec![5, 200 + i],
                fanouts: Some(vec![3, 3]),
                sample_seed: i as u64,
                feats: None,
                deadline: None,
            };
            engine.infer_seeds(seeds).expect("sampled view");
        }
        assert_eq!(
            charged(&engine),
            (topology, held),
            "{dtype:?}: after serving"
        );

        register("graphsage", 4);
        assert_eq!(engine.stats().models_replaced, 1);
        assert_eq!(
            charged(&engine),
            (topology, held),
            "{dtype:?}: after a replacement"
        );

        drop((graph, features));
        assert_eq!(
            charged(&engine),
            (topology, stored),
            "{dtype:?}: the engine's copy only"
        );

        drop(engine);
        let now = |component| fg_telemetry::mem_current(component);
        let credited = (
            now(MemComponent::GraphTopology),
            now(MemComponent::Features),
        );
        assert_eq!(credited, (0, 0), "{dtype:?}: every registration dropped");
    }
}
