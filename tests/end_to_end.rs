//! End-to-end integration: training parity between backends and §V-E's
//! accuracy sanity check on the vertex-classification task.

use featgraph_suite::fg_gnn::data::SbmTask;
use featgraph_suite::fg_gnn::loss::accuracy;
use featgraph_suite::fg_gnn::models::build_model;
use featgraph_suite::fg_gnn::nn::Optimizer;
use featgraph_suite::fg_gnn::{inference, train, FeatgraphBackend, NaiveBackend};

#[test]
fn all_models_learn_with_both_backends_and_match() {
    let task = SbmTask::generate(400, 4, 15, 3, 7);
    for model_name in ["gcn", "graphsage", "gat"] {
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(2);
        let mut m1 = build_model(model_name, task.in_dim(), 16, task.num_classes, 9);
        let mut m2 = build_model(model_name, task.in_dim(), 16, task.num_classes, 9);
        let r1 = train(m1.as_mut(), &task, &naive, None, Optimizer::adam(0.02), 15);
        let r2 = train(m2.as_mut(), &task, &fgb, None, Optimizer::adam(0.02), 15);
        // loss trajectories must be numerically indistinguishable
        for (ep, (a, b)) in r1.history.iter().zip(&r2.history).enumerate() {
            assert!(
                (a.loss - b.loss).abs() < 2e-3,
                "{model_name} epoch {ep}: naive {} vs featgraph {}",
                a.loss,
                b.loss
            );
        }
        assert!(
            (r1.test_acc - r2.test_acc).abs() <= 0.03,
            "{model_name}: accuracies diverge ({} vs {})",
            r1.test_acc,
            r2.test_acc
        );
    }
}

#[test]
fn gcn_reaches_high_accuracy_on_the_sbm_task() {
    // the §V-E sanity check: a GNN should solve the community task well
    let task = SbmTask::generate(800, 4, 25, 4, 11);
    let backend = FeatgraphBackend::cpu(2);
    let mut model = build_model("gcn", task.in_dim(), 32, task.num_classes, 3);
    let result = train(model.as_mut(), &task, &backend, None, Optimizer::adam(0.02), 40);
    assert!(
        result.test_acc > 0.9,
        "GCN test accuracy {} below 0.9",
        result.test_acc
    );
}

#[test]
fn inference_logits_are_identical_across_backends() {
    let task = SbmTask::generate(300, 3, 10, 2, 5);
    let naive = NaiveBackend::cpu();
    let fgb = FeatgraphBackend::cpu(1);
    // untrained model: forward pass only
    let model = build_model("gat", task.in_dim(), 8, task.num_classes, 4);
    let (l1, _, _) = inference(model.as_ref(), &task, &naive, None);
    let (l2, _, _) = inference(model.as_ref(), &task, &fgb, None);
    assert!(
        l1.approx_eq(&l2, 1e-3),
        "logits diverge by {}",
        l1.max_abs_diff(&l2)
    );
    // and both beat random guessing is not required untrained — just finite
    assert!(l1.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn gpu_simulated_training_matches_cpu_results() {
    let task = SbmTask::generate(200, 3, 10, 2, 13);
    let cpu = FeatgraphBackend::cpu(1);
    let gpu = FeatgraphBackend::gpu();
    let mut m1 = build_model("gcn", task.in_dim(), 8, task.num_classes, 6);
    let mut m2 = build_model("gcn", task.in_dim(), 8, task.num_classes, 6);
    let r1 = train(m1.as_mut(), &task, &cpu, None, Optimizer::adam(0.02), 5);
    let r2 = train(m2.as_mut(), &task, &gpu, None, Optimizer::adam(0.02), 5);
    for (a, b) in r1.history.iter().zip(&r2.history) {
        assert!((a.loss - b.loss).abs() < 2e-3);
    }
    // the GPU run must have accumulated simulated kernel time
    assert!(r2.avg_epoch_gpu_ms > 0.0);
    assert_eq!(r1.avg_epoch_gpu_ms, 0.0);
}

#[test]
fn accuracy_helper_is_consistent_with_masks() {
    let task = SbmTask::generate(300, 3, 10, 2, 17);
    let backend = FeatgraphBackend::cpu(1);
    let mut model = build_model("gcn", task.in_dim(), 16, task.num_classes, 2);
    let r = train(model.as_mut(), &task, &backend, None, Optimizer::adam(0.02), 25);
    // train accuracy should be at least as good as test accuracy, roughly
    let (logits, _, _) = inference(model.as_ref(), &task, &backend, None);
    let train_acc = accuracy(&logits, &task.labels, &task.train_mask);
    assert!(train_acc + 0.1 >= r.test_acc);
}
