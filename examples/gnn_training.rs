//! End-to-end GNN training (§V-E): train a 2-layer GCN on a synthetic
//! vertex-classification task with the naive (message-materializing) backend
//! and with the fused FeatGraph backend, and show that accuracy is identical
//! while epoch time drops.
//!
//! ```sh
//! cargo run --release --example gnn_training
//! ```

use featgraph_suite::fg_gnn::data::SbmTask;
use featgraph_suite::fg_gnn::models::build_model;
use featgraph_suite::fg_gnn::nn::Optimizer;
use featgraph_suite::fg_gnn::{train, FeatgraphBackend, GraphBackend, NaiveBackend};

fn main() {
    let task = SbmTask::generate(3_000, 5, 30, 5, 2026);
    println!(
        "task: {} vertices, {} edges, {} classes, {} input features",
        task.graph.num_vertices(),
        task.graph.num_edges(),
        task.num_classes,
        task.in_dim()
    );

    let epochs = 40;
    let backends: Vec<(&str, Box<dyn GraphBackend>)> = vec![
        ("naive (DGL w/o FeatGraph)", Box::new(NaiveBackend::cpu())),
        ("featgraph (fused kernels)", Box::new(FeatgraphBackend::cpu(1))),
    ];
    for (name, backend) in backends {
        let mut model = build_model("gcn", task.in_dim(), 32, task.num_classes, 7);
        let result = train(
            model.as_mut(),
            &task,
            backend.as_ref(),
            None,
            Optimizer::adam(0.02),
            epochs,
        );
        println!(
            "{name:<28}  {:.3}s/epoch   final loss {:.4}   test accuracy {:.3}",
            result.avg_epoch_seconds,
            result.history.last().unwrap().loss,
            result.test_acc
        );
    }
    println!("same accuracy, different speed — the backend changes performance, not semantics");
}
