//! End-to-end training and inference (§V-E, Table VI).

use std::time::Instant;

use fg_telemetry::{gauge_set, span, Gauge};
use fg_tensor::Dense2;

use crate::backend::{GpuCostModel, GraphBackend};
use crate::block::forward;
use crate::data::SbmTask;
use crate::ggraph::GnnGraph;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::models::Model;
use crate::nn::Optimizer;
use crate::tape::Tape;

/// Per-epoch record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Mean training loss.
    pub loss: f64,
    /// Training accuracy.
    pub train_acc: f64,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Wall-clock seconds (forward + backward + update).
    pub seconds: f64,
    /// Simulated GPU milliseconds (graph kernels + dense roofline), if a
    /// GPU backend/cost model was used.
    pub gpu_ms: f64,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Per-epoch history.
    pub history: Vec<EpochStats>,
    /// Test accuracy at the end of training.
    pub test_acc: f64,
    /// Mean wall-clock seconds per epoch.
    pub avg_epoch_seconds: f64,
    /// Mean simulated GPU milliseconds per epoch.
    pub avg_epoch_gpu_ms: f64,
}

/// Train `model` on `task` for `epochs` full-graph epochs.
///
/// The features enter each epoch's tape as a constant ([`Tape::leaf`]) and
/// the model inserts its parameters with [`Tape::param`], so the backward
/// pass computes the parameter gradients the optimizer reads and nothing
/// else — no `∂L/∂X`, no reverse aggregation under the first layer.
pub fn train(
    model: &mut dyn Model,
    task: &SbmTask,
    backend: &dyn GraphBackend,
    dense_gpu: Option<&GpuCostModel>,
    opt: Optimizer,
    epochs: usize,
) -> TrainResult {
    let mut history = Vec::with_capacity(epochs);
    // drain any stale charges
    let _ = backend.take_gpu_ms();
    if let Some(m) = dense_gpu {
        let _ = m.take();
    }
    for epoch in 1..=epochs {
        let _epoch_span = span!("train/epoch", "epoch={epoch}/{epochs}");
        // Per-epoch tensor traffic (leaf clone, layer activations, grads)
        // is attributed to the tape, not the caller's ambient scope.
        let _mem = fg_telemetry::MemScope::enter(fg_telemetry::MemComponent::TapeActivations);
        let t0 = Instant::now();
        let mut tape = Tape::new(&task.graph, backend, dense_gpu);
        let x = tape.leaf(task.features.clone());
        let (logits_var, pvars) = {
            let _fwd_span = span!("train/forward", "epoch={epoch}");
            model.forward(&mut tape, x)
        };
        let (loss, grad) =
            softmax_cross_entropy(tape.value(logits_var), &task.labels, &task.train_mask);
        let train_acc = accuracy(tape.value(logits_var), &task.labels, &task.train_mask);
        let val_acc = accuracy(tape.value(logits_var), &task.labels, &task.val_mask);
        {
            let _bwd_span = span!("train/backward", "epoch={epoch}");
            tape.backward(logits_var, grad);
        }
        let grads: Vec<Dense2<f32>> = pvars.iter().map(|&v| tape.grad(v)).collect();
        for (param, g) in model.params().into_iter().zip(&grads) {
            opt.update(param, g, epoch);
        }
        gauge_set(Gauge::Loss, loss);
        gauge_set(Gauge::ValAccuracy, val_acc);
        let seconds = t0.elapsed().as_secs_f64();
        let gpu_ms =
            backend.take_gpu_ms() + dense_gpu.map_or(0.0, GpuCostModel::take);
        history.push(EpochStats {
            loss,
            train_acc,
            val_acc,
            seconds,
            gpu_ms,
        });
    }
    // final test evaluation
    let (logits, _, _) = inference(model, task, backend, dense_gpu);
    let test_acc = accuracy(&logits, &task.labels, &task.test_mask);
    let avg_epoch_seconds =
        history.iter().map(|e| e.seconds).sum::<f64>() / history.len().max(1) as f64;
    let avg_epoch_gpu_ms =
        history.iter().map(|e| e.gpu_ms).sum::<f64>() / history.len().max(1) as f64;
    TrainResult {
        history,
        test_acc,
        avg_epoch_seconds,
        avg_epoch_gpu_ms,
    }
}

/// One full-graph inference pass. Returns `(logits, wall_seconds, gpu_ms)`.
pub fn inference(
    model: &dyn Model,
    task: &SbmTask,
    backend: &dyn GraphBackend,
    dense_gpu: Option<&GpuCostModel>,
) -> (Dense2<f32>, f64, f64) {
    let _ = backend.take_gpu_ms();
    if let Some(m) = dense_gpu {
        let _ = m.take();
    }
    let _span = span!("train/inference");
    let _mem = fg_telemetry::MemScope::enter(fg_telemetry::MemComponent::TapeActivations);
    let t0 = Instant::now();
    let mut tape = Tape::new(&task.graph, backend, dense_gpu);
    let x = tape.leaf(task.features.clone());
    let (logits_var, _) = model.forward(&mut tape, x);
    let seconds = t0.elapsed().as_secs_f64();
    let gpu_ms = backend.take_gpu_ms() + dense_gpu.map_or(0.0, GpuCostModel::take);
    (tape.value(logits_var).clone(), seconds, gpu_ms)
}

/// Errors from [`infer_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// A requested node ID is outside the graph.
    NodeOutOfRange {
        /// The offending node ID.
        node: usize,
        /// Vertex count of the graph.
        vertices: usize,
    },
    /// The feature matrix does not cover every vertex.
    FeatureRowsMismatch {
        /// Rows in the feature matrix.
        rows: usize,
        /// Vertex count of the graph.
        vertices: usize,
    },
    /// A sampled-inference request named no seed vertices.
    NoSeeds,
    /// A sampled-inference request named no hops (empty fanout list).
    NoHops,
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::NodeOutOfRange { node, vertices } => {
                write!(f, "node {node} out of range (graph has {vertices} vertices)")
            }
            InferError::FeatureRowsMismatch { rows, vertices } => {
                write!(f, "feature matrix has {rows} rows, graph has {vertices} vertices")
            }
            InferError::NoSeeds => write!(f, "no seed vertices supplied"),
            InferError::NoHops => write!(f, "sampling fanouts must name at least one hop"),
        }
    }
}

impl std::error::Error for InferError {}

/// Batched single-node inference: one full-graph forward pass answers every
/// requested node, returning that node's logits row per request.
///
/// This is the layer-by-layer forward (`crate::block::forward`) on one
/// whole-graph tape per layer: every layer writes every row. `fg-serve`
/// calls it once per registration over every vertex and answers each
/// full-graph request with a row of the result; a sampled request runs the
/// same forward over blocks that shrink towards its seeds
/// ([`crate::sampled::SampledBlocks`]), bitwise equal to this function on
/// the whole sampled subgraph. The backend's kernel plans compile on the
/// first call and are reused by any later call on the same graph. Requested
/// node IDs are validated before any compute.
pub fn infer_batch(
    model: &dyn Model,
    graph: &GnnGraph,
    features: &Dense2<f32>,
    backend: &dyn GraphBackend,
    nodes: &[usize],
) -> Result<Vec<Vec<f32>>, InferError> {
    let vertices = graph.num_vertices();
    if features.rows() != vertices {
        return Err(InferError::FeatureRowsMismatch { rows: features.rows(), vertices });
    }
    if let Some(&node) = nodes.iter().find(|&&v| v >= vertices) {
        return Err(InferError::NodeOutOfRange { node, vertices });
    }
    // Runs on a serve worker thread: when the caller entered a TraceScope,
    // this span (and the kernel spans beneath it) carries the request's
    // trace id, completing the accept → kernel trace tree.
    let _span = span!(
        "gnn/infer_batch",
        "nodes={} trace={:#x}",
        nodes.len(),
        fg_telemetry::current_trace_id()
    );
    // Attribute tape traffic to TapeActivations only when no caller set a
    // scope — fg-serve wraps this call in a ServeBatch scope, which wins.
    let _mem = (fg_telemetry::current_component() == fg_telemetry::MemComponent::Scratch)
        .then(|| fg_telemetry::MemScope::enter(fg_telemetry::MemComponent::TapeActivations));
    let tape = |_: usize| Tape::new(graph, backend, None);
    let logits = forward(model, tape, |tape| tape.leaf(features.clone()));
    Ok(nodes.iter().map(|&v| logits.row(v).to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FeatgraphBackend, NaiveBackend};
    use crate::models::build_model;

    fn small_task() -> SbmTask {
        SbmTask::generate(300, 3, 12, 3, 42)
    }

    #[test]
    fn gcn_learns_the_sbm_task() {
        let task = small_task();
        let backend = FeatgraphBackend::cpu(1);
        let mut model = build_model("gcn", task.in_dim(), 16, task.num_classes, 1);
        let result = train(
            model.as_mut(),
            &task,
            &backend,
            None,
            Optimizer::adam(0.02),
            30,
        );
        assert!(
            result.test_acc > 0.8,
            "test accuracy {} too low",
            result.test_acc
        );
        // loss decreased
        let first = result.history.first().unwrap().loss;
        let last = result.history.last().unwrap().loss;
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn backends_train_identically() {
        // identical initial weights + deterministic data => identical loss
        // trajectories regardless of backend (the §V-E accuracy claim)
        let task = SbmTask::generate(150, 3, 8, 2, 11);
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(1);
        let mut m1 = build_model("gcn", task.in_dim(), 8, task.num_classes, 5);
        let mut m2 = build_model("gcn", task.in_dim(), 8, task.num_classes, 5);
        let r1 = train(m1.as_mut(), &task, &naive, None, Optimizer::adam(0.02), 5);
        let r2 = train(m2.as_mut(), &task, &fgb, None, Optimizer::adam(0.02), 5);
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert!(
                (a.loss - b.loss).abs() < 1e-3,
                "loss diverged: {} vs {}",
                a.loss,
                b.loss
            );
        }
        assert!((r1.test_acc - r2.test_acc).abs() < 0.02);
    }

    #[test]
    fn gat_and_sage_train_without_blowup() {
        let task = SbmTask::generate(200, 3, 8, 2, 9);
        let backend = FeatgraphBackend::cpu(1);
        for name in ["graphsage", "gat"] {
            let mut model = build_model(name, task.in_dim(), 8, task.num_classes, 3);
            let result = train(
                model.as_mut(),
                &task,
                &backend,
                None,
                Optimizer::adam(0.02),
                30,
            );
            assert!(
                result.history.iter().all(|e| e.loss.is_finite()),
                "{name} loss blew up"
            );
            assert!(result.test_acc > 0.6, "{name} acc {}", result.test_acc);
        }
    }

    #[test]
    fn infer_batch_matches_full_inference() {
        let task = small_task();
        let backend = FeatgraphBackend::cpu(1);
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let (logits, _, _) = inference(model.as_ref(), &task, &backend, None);
        let nodes = [0usize, 5, 299];
        let rows =
            infer_batch(model.as_ref(), &task.graph, &task.features, &backend, &nodes).unwrap();
        assert_eq!(rows.len(), nodes.len());
        for (row, &v) in rows.iter().zip(&nodes) {
            assert_eq!(row.as_slice(), logits.row(v));
        }
        assert!(matches!(
            infer_batch(model.as_ref(), &task.graph, &task.features, &backend, &[300]),
            Err(InferError::NodeOutOfRange { node: 300, vertices: 300 })
        ));
        let short = Dense2::zeros(10, task.in_dim());
        assert!(matches!(
            infer_batch(model.as_ref(), &task.graph, &short, &backend, &[0]),
            Err(InferError::FeatureRowsMismatch { rows: 10, vertices: 300 })
        ));
    }

    #[test]
    fn only_the_backward_pass_builds_the_reverse_graph() {
        use crate::sampled::infer_seeds;
        use fg_graph::SampleConfig;

        let task = small_task();
        let forward_only = task.graph.mem_bytes();
        let nodes = [0usize, 5, 299];
        for name in ["gcn", "graphsage", "gat"] {
            let model = build_model(name, task.in_dim(), 8, task.num_classes, 2);
            let model = model.as_ref();
            let backend = FeatgraphBackend::cpu(1);
            infer_batch(model, &task.graph, &task.features, &backend, &nodes).unwrap();
            let cfg = SampleConfig::new(vec![4, 4], 3);
            infer_seeds(model, &task.graph, &task.features, 1, &nodes, &cfg).unwrap();
        }
        assert_eq!(
            task.graph.mem_bytes(),
            forward_only,
            "inference built rev()"
        );

        let backend = FeatgraphBackend::cpu(1);
        let mut model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        train(
            model.as_mut(),
            &task,
            &backend,
            None,
            Optimizer::adam(0.02),
            1,
        );
        let trained = task.graph.mem_bytes();
        assert!(trained > forward_only, "one training step builds rev()");
        // The reverse graph holds one CSR (its own transpose stays unbuilt)
        // and carries the edge-ID map; the forward graph's transpose is
        // never built.
        let rev = task.graph.rev();
        assert_eq!(rev.mem_bytes(), rev.in_csr().mem_bytes());
        let eid_bytes = task.graph.num_edges() as u64 * 4;
        assert_eq!(trained, forward_only + rev.mem_bytes() + eid_bytes);
        let fwd = task.graph.fwd();
        assert_eq!(fwd.mem_bytes(), fwd.in_csr().mem_bytes());
    }

    #[test]
    fn gat_serving_logits_are_the_training_forward_bits() {
        // one attention path: `infer_batch`, `inference` and a training
        // tape all build the same fused node, so their logits are equal
        let task = small_task();
        let backend = FeatgraphBackend::cpu(2);
        let model = build_model("gat", task.in_dim(), 8, task.num_classes, 2);
        let mut tape = Tape::new(&task.graph, &backend, None);
        let x = tape.leaf(task.features.clone());
        let (lv, _) = model.forward(&mut tape, x);
        let (logits, _, _) = inference(model.as_ref(), &task, &backend, None);
        assert!(logits.approx_eq(tape.value(lv), 0.0));
        let nodes: Vec<usize> = (0..task.graph.num_vertices()).collect();
        let rows = infer_batch(
            model.as_ref(),
            &task.graph,
            &task.features,
            &backend,
            &nodes,
        )
        .unwrap();
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(row.as_slice(), tape.value(lv).row(v), "vertex {v}");
        }
    }

    #[test]
    fn inference_reports_timing() {
        let task = small_task();
        let backend = FeatgraphBackend::cpu(1);
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let (logits, secs, _) = inference(model.as_ref(), &task, &backend, None);
        assert_eq!(logits.shape(), (300, task.num_classes));
        assert!(secs > 0.0);
    }
}
