//! A deterministic work proxy for one training epoch: how many edges the
//! CPU kernels walk (`Counter::EdgesProcessed`, bumped once per traversal of
//! a partition or visit list).
//!
//! The tape computes only the gradients training reads, so an epoch walks
//! the graph an exact, small number of times. The count repeats exactly,
//! which makes a re-added wasted pass a test failure instead of a few
//! percent on a noisy clock.
//!
//! This file is one test in its own process because the counter is global.

use fg_gnn::data::SbmTask;
use fg_gnn::loss::softmax_cross_entropy;
use fg_gnn::models::build_model;
use fg_gnn::{FeatgraphBackend, Tape};
use fg_telemetry::{counter_value, Counter};

/// Edges walked by one forward + backward of `model`, in units of `|E|`.
fn passes_per_epoch(task: &SbmTask, model: &str, features_are_constant: bool) -> f64 {
    let backend = FeatgraphBackend::cpu(2);
    let model = build_model(model, task.in_dim(), 8, task.num_classes, 3);
    let epoch = || {
        let before = counter_value(Counter::EdgesProcessed);
        let mut tape = Tape::new(&task.graph, &backend, None);
        let x = if features_are_constant {
            tape.leaf(task.features.clone())
        } else {
            tape.param(task.features.clone())
        };
        let (logits, _) = model.forward(&mut tape, x);
        let (_, grad) = softmax_cross_entropy(tape.value(logits), &task.labels, &task.train_mask);
        tape.backward(logits, grad);
        counter_value(Counter::EdgesProcessed) - before
    };
    let first = epoch();
    assert_eq!(epoch(), first, "the count repeats exactly");
    first as f64 / task.graph.num_edges() as f64
}

#[test]
fn an_epoch_walks_the_graph_an_exact_number_of_times() {
    fg_telemetry::set_enabled(true);
    let task = SbmTask::generate(200, 3, 8, 2, 5);
    // GCN, GraphSage: two forward aggregations, and the reverse aggregation
    // under layer 2. Layer 1 aggregates the constant features: no reverse.
    assert_eq!(passes_per_epoch(&task, "gcn", true), 3.0);
    assert_eq!(passes_per_epoch(&task, "graphsage", true), 3.0);
    // GAT, per layer: score-max and aggregate sweeps forward; one
    // destination-major sweep, the reverse weighted SpMM and the reverse
    // edge sum backward. Both layers' `hw = h × W` depend on a parameter.
    assert_eq!(passes_per_epoch(&task, "gat", true), 10.0);
    // Asking for ∂L/∂X (features as a parameter) costs the layer-1 reverse
    // aggregation the constant case skips — the pass this test guards.
    assert_eq!(passes_per_epoch(&task, "gcn", false), 4.0);
    assert_eq!(passes_per_epoch(&task, "graphsage", false), 4.0);
    assert_eq!(passes_per_epoch(&task, "gat", false), 10.0);
}
