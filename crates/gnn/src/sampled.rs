//! Minibatch inference over sampled neighborhoods.
//!
//! [`infer_seeds`] is the sampled counterpart of
//! [`infer_batch`](crate::infer_batch): expand a fanout-bounded
//! neighborhood of the seed vertices, gather the visited vertices' feature
//! rows into the subgraph's local index space, run the model on the induced
//! CSR with the ordinary backends (fused attention included — the subgraph
//! is just a smaller graph), and return only the seeds' logits rows.
//!
//! Under full fanout the result is **bitwise identical** to full-graph
//! inference on the same seeds: every vertex the seed outputs transitively
//! read keeps all of its in-edges in the same (ascending-source) row
//! order, so each float accumulates in the same sequence.

use fg_graph::sampling::{sample_subgraph, SampleConfig, SampleError, SampledSubgraph};
use fg_graph::VId;
use fg_telemetry::{MemCharge, MemComponent};
use fg_tensor::Dense2;

use crate::backend::GraphBackend;
use crate::ggraph::GnnGraph;
use crate::models::Model;
use crate::trainer::{infer_batch, InferError};

/// Gather `locals[i]`-th rows of `features` into a compact matrix whose row
/// `i` is the feature row of the subgraph's local vertex `i`.
pub fn gather_rows(features: &Dense2<f32>, locals: &[VId]) -> Dense2<f32> {
    let mut out = Dense2::zeros(locals.len(), features.cols());
    for (i, &g) in locals.iter().enumerate() {
        out.row_mut(i).copy_from_slice(features.row(g as usize));
    }
    out
}

/// Map a sampling failure onto the inference error vocabulary.
pub fn sample_error_to_infer(e: SampleError, vertices: usize) -> InferError {
    match e {
        SampleError::SeedOutOfRange { seed, .. } => InferError::NodeOutOfRange {
            node: seed as usize,
            vertices,
        },
        SampleError::NoSeeds => InferError::NoSeeds,
        SampleError::NoHops => InferError::NoHops,
    }
}

/// Sample the neighborhood of `seeds` and wrap it for message passing.
/// Returns the subgraph (local→global map, frontier boundaries) plus its
/// [`GnnGraph`]: the forward orientation and in-degrees the forward pass
/// reads — the reverse orientation is built only if a backward pass asks.
pub fn prepare_seeds(
    graph: &GnnGraph,
    seeds: &[usize],
    cfg: &SampleConfig,
) -> Result<(SampledSubgraph, GnnGraph), InferError> {
    let vertices = graph.num_vertices();
    if let Some(&node) = seeds.iter().find(|&&v| v >= vertices) {
        return Err(InferError::NodeOutOfRange { node, vertices });
    }
    let seeds_v: Vec<VId> = seeds.iter().map(|&s| s as VId).collect();
    let sub = sample_subgraph(graph.fwd(), &seeds_v, cfg)
        .map_err(|e| sample_error_to_infer(e, vertices))?;
    let sub_gnn = GnnGraph::new(sub.graph().clone());
    Ok((sub, sub_gnn))
}

/// Sampled minibatch inference: run `model` on the fanout-bounded
/// neighborhood of `seeds` and return one logits row per seed, in input
/// order. `cfg.fanouts` must cover at least as many hops as the model has
/// message-passing layers for the neighborhood to feed every aggregation.
pub fn infer_seeds(
    model: &dyn Model,
    graph: &GnnGraph,
    features: &Dense2<f32>,
    backend: &dyn GraphBackend,
    seeds: &[usize],
    cfg: &SampleConfig,
) -> Result<Vec<Vec<f32>>, InferError> {
    let vertices = graph.num_vertices();
    if features.rows() != vertices {
        return Err(InferError::FeatureRowsMismatch {
            rows: features.rows(),
            vertices,
        });
    }
    let (sub, sub_gnn) = prepare_seeds(graph, seeds, cfg)?;
    // The subgraph and its index maps live until the forward pass is done;
    // account them so MEMORY answers show per-request sampling footprint.
    let _charge = MemCharge::new(MemComponent::Sampling, sub.mem_bytes());
    let gathered = gather_rows(features, sub.locals());
    let seed_nodes: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
    infer_batch(model, &sub_gnn, &gathered, backend, &seed_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FeatgraphBackend;
    use crate::data::SbmTask;
    use crate::models::build_model;

    fn task() -> SbmTask {
        SbmTask::generate(400, 3, 10, 3, 21)
    }

    #[test]
    fn gather_rows_picks_the_right_rows() {
        let m = Dense2::from_fn(5, 3, |r, c| (r * 10 + c) as f32);
        let g = gather_rows(&m, &[4, 1]);
        assert_eq!(g.row(0), m.row(4));
        assert_eq!(g.row(1), m.row(1));
        assert_eq!(g.shape(), (2, 3));
    }

    #[test]
    fn full_fanout_matches_full_graph_bitwise() {
        let task = task();
        let seeds = [0usize, 17, 250, 399];
        for name in ["gcn", "graphsage", "gat"] {
            let model = build_model(name, task.in_dim(), 8, task.num_classes, 2);
            let full_backend = FeatgraphBackend::cpu(1);
            let full = infer_batch(
                model.as_ref(),
                &task.graph,
                &task.features,
                &full_backend,
                &seeds,
            )
            .unwrap();
            let sub_backend = FeatgraphBackend::cpu(1);
            let sampled = infer_seeds(
                model.as_ref(),
                &task.graph,
                &task.features,
                &sub_backend,
                &seeds,
                &SampleConfig::full(2, 0),
            )
            .unwrap();
            assert_eq!(full, sampled, "{name} sampled inference diverged");
        }
    }

    #[test]
    fn full_fanout_is_bitwise_stable_across_partition_hints() {
        // The schedule hint must not change results: partitioning only
        // reorders which rows a thread touches, not per-row accumulation.
        let task = task();
        let seeds = [3usize, 42];
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let auto = FeatgraphBackend::cpu(1);
        let hinted = FeatgraphBackend::cpu_with_partitions(1, 4);
        let cfg = SampleConfig::full(2, 0);
        let a = infer_seeds(model.as_ref(), &task.graph, &task.features, &auto, &seeds, &cfg)
            .unwrap();
        let b = infer_seeds(model.as_ref(), &task.graph, &task.features, &hinted, &seeds, &cfg)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn capped_fanout_returns_finite_rows_per_seed() {
        let task = task();
        let seeds = [1usize, 1, 399];
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let backend = FeatgraphBackend::cpu(1);
        let cfg = SampleConfig::new(vec![4, 4], 9);
        let rows = infer_seeds(
            model.as_ref(),
            &task.graph,
            &task.features,
            &backend,
            &seeds,
            &cfg,
        )
        .unwrap();
        assert_eq!(rows.len(), seeds.len());
        for row in &rows {
            assert_eq!(row.len(), task.num_classes);
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Duplicate seeds answer identically.
        assert_eq!(rows[0], rows[1]);
    }

    #[test]
    fn sampled_inference_is_deterministic_per_seed_value() {
        let task = task();
        let model = build_model("graphsage", task.in_dim(), 8, task.num_classes, 2);
        let cfg = SampleConfig::new(vec![3, 3], 77);
        let run = || {
            let backend = FeatgraphBackend::cpu(2);
            infer_seeds(
                model.as_ref(),
                &task.graph,
                &task.features,
                &backend,
                &[10, 20],
                &cfg,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_bad_inputs() {
        let task = task();
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let backend = FeatgraphBackend::cpu(1);
        let cfg = SampleConfig::full(2, 0);
        assert!(matches!(
            infer_seeds(model.as_ref(), &task.graph, &task.features, &backend, &[400], &cfg),
            Err(InferError::NodeOutOfRange { node: 400, vertices: 400 })
        ));
        assert!(matches!(
            infer_seeds(model.as_ref(), &task.graph, &task.features, &backend, &[], &cfg),
            Err(InferError::NoSeeds)
        ));
        assert!(matches!(
            infer_seeds(
                model.as_ref(),
                &task.graph,
                &task.features,
                &backend,
                &[0],
                &SampleConfig::new(vec![], 0)
            ),
            Err(InferError::NoHops)
        ));
    }
}
