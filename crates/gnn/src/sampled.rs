//! Minibatch inference over sampled neighborhoods.
//!
//! [`infer_seeds`] is the sampled counterpart of
//! [`infer_batch`](crate::infer_batch): expand a fanout-bounded
//! neighborhood of the seed vertices, cut it into one message-flow block per
//! model layer ([`SampledBlocks`]), gather the feature rows layer 0 reads,
//! and run the model layer by layer over the blocks with the ordinary
//! backends (fused attention included — a block is just a smaller graph).
//! Layer ℓ of an L-layer model writes only the rows within L−1−ℓ hops of a
//! seed, so the last layer computes the seeds' rows and nothing else.
//!
//! The result is **bitwise identical** to `infer_batch` on the whole sampled
//! subgraph: every written row keeps its in-edges in the same
//! (ascending-source) order and dense rows are independent. Under full
//! fanout it is therefore bitwise identical to full-graph inference on the
//! same seeds too: every vertex a seed output transitively reads keeps all
//! of its in-edges, so each float accumulates in the same sequence.

use fg_graph::sampling::{
    sample_subgraph_with, SampleConfig, SampleError, SampleScratch, SampledSubgraph,
};
use fg_graph::VId;
use fg_telemetry::{MemCharge, MemComponent};
use fg_tensor::Dense2;

use crate::backend::GraphBackend;
use crate::block::{forward, LayerBlock, LayerInput};
use crate::ggraph::GnnGraph;
use crate::models::Model;
use crate::trainer::InferError;

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
    prepare_seeds_with(&mut SampleScratch::new(), graph, seeds, cfg)
}

/// [`prepare_seeds`] through a caller's [`SampleScratch`] (a serving
/// worker's, reused across requests); the result is the same.
pub fn prepare_seeds_with(
    scratch: &mut SampleScratch,
    graph: &GnnGraph,
    seeds: &[usize],
    cfg: &SampleConfig,
) -> Result<(SampledSubgraph, GnnGraph), InferError> {
    let vertices = graph.num_vertices();
    if let Some(&node) = seeds.iter().find(|&&v| v >= vertices) {
        return Err(InferError::NodeOutOfRange { node, vertices });
    }
    let seeds_v: Vec<VId> = seeds.iter().map(|&s| s as VId).collect();
    let sub = sample_subgraph_with(scratch, graph.fwd(), &seeds_v, cfg)
        .map_err(|e| sample_error_to_infer(e, vertices))?;
    let sub_gnn = GnnGraph::new(sub.graph().clone());
    Ok((sub, sub_gnn))
}

/// A sampled subgraph cut into one message-flow block per model layer
/// ([`fg_graph::Block`]), each wrapped for the tape: what a sampled request
/// runs. Building it touches no features and runs no kernel.
pub struct SampledBlocks {
    /// The distinct graphs the layers run on.
    graphs: Vec<GnnGraph>,
    /// Per layer: its graph's index in `graphs`, and the positions of the
    /// rows it writes (`None`: every row).
    layers: Vec<(usize, Option<Vec<usize>>)>,
    /// Global IDs of the rows layer 0 reads, in its row order.
    inputs: Vec<VId>,
    /// Per seed: its row among layer 0's inputs.
    seed_inputs: Vec<usize>,
    /// Per seed: its row of the last layer's output.
    seed_outputs: Vec<usize>,
    /// Bytes of the block graphs and row maps beyond the subgraph's own.
    mem_bytes: u64,
}

impl SampledBlocks {
    /// Cut `sub` into the blocks of a `layers`-layer model. `sub_gnn` is
    /// `sub`'s graph wrapped for the tape ([`prepare_seeds`]); every block
    /// that is the whole subgraph runs on it, not on a copy.
    ///
    /// # Panics
    /// If `layers` is 0.
    pub fn new(sub: &SampledSubgraph, sub_gnn: GnnGraph, layers: usize) -> Self {
        assert!(layers > 0, "a model has at least one layer");
        let mut sub_gnn = Some(sub_gnn);
        let mut sub_index = None;
        let mut graphs = Vec::new();
        let mut per_layer = Vec::with_capacity(layers);
        let mut mem_bytes = 0;
        let mut first_src = None;
        let mut written: Vec<VId> = Vec::new();
        for layer in 0..layers {
            let (graph, src, dst) = sub.block(layers, layer).into_parts();
            let index = match graph {
                None => *sub_index.get_or_insert_with(|| {
                    graphs.push(sub_gnn.take().expect("the subgraph is pushed once"));
                    graphs.len() - 1
                }),
                Some(graph) => {
                    let graph = GnnGraph::new(graph);
                    mem_bytes += graph.mem_bytes();
                    graphs.push(graph);
                    graphs.len() - 1
                }
            };
            written = dst.iter().map(|&i| src[i]).collect();
            let dst = (dst.len() < src.len()).then_some(dst);
            let dst_bytes = dst.as_ref().map_or(0, Vec::len) * std::mem::size_of::<usize>();
            mem_bytes += dst_bytes as u64;
            per_layer.push((index, dst));
            first_src.get_or_insert(src);
        }
        let src0 = first_src.expect("layers > 0");
        // Every layer reads and writes the seeds (hop 0), so both searches
        // succeed; both lists ascend in local ID.
        let row_of = |rows: &[VId], l: VId| rows.binary_search(&l).expect("a seed row");
        let seeds = sub.seed_locals();
        let seed_inputs: Vec<usize> = seeds.iter().map(|&l| row_of(&src0, l)).collect();
        let seed_outputs: Vec<usize> = seeds.iter().map(|&l| row_of(&written, l)).collect();
        let inputs: Vec<VId> = src0.iter().map(|&l| sub.global_of(l)).collect();
        mem_bytes += (inputs.len() * std::mem::size_of::<VId>()
            + (seed_inputs.len() + seed_outputs.len()) * std::mem::size_of::<usize>())
            as u64;
        Self {
            graphs,
            layers: per_layer,
            inputs,
            seed_inputs,
            seed_outputs,
            mem_bytes,
        }
    }

    /// Global IDs of the rows layer 0 reads, in its row order: gather its
    /// feature (or table) rows with these.
    pub fn inputs(&self) -> &[VId] {
        &self.inputs
    }

    /// `(written, read)` row counts per layer, layer 0 first.
    pub fn rows(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|(g, dst)| {
                let read = self.graphs[*g].num_vertices();
                (dst.as_ref().map_or(read, Vec::len), read)
            })
            .collect()
    }

    /// Heap bytes held beyond the subgraph's own: the blocks' graphs and the
    /// row maps. What a request charges to the `sampling` component on top
    /// of [`SampledSubgraph::mem_bytes`].
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Replace the seeds' rows of layer 0's `input` with rows computed from
    /// `feats` (one row per seed, in seed order; a duplicated seed keeps
    /// its last row): the feature rows themselves, or for a table input the
    /// model's [`Model::layer0_table`] rows of them.
    ///
    /// # Panics
    /// If `input` is a table and `model` has none.
    pub fn override_seeds(&self, model: &dyn Model, input: &mut LayerInput, feats: &Dense2<f32>) {
        let fresh;
        let pairs: Vec<(&mut Dense2<f32>, &Dense2<f32>)> = match input {
            LayerInput::Features(x) => vec![(x, feats)],
            LayerInput::Table(table) => {
                fresh = model
                    .layer0_table(feats)
                    .expect("a table input comes from a model that has one");
                table.iter_mut().zip(&fresh).collect()
            }
        };
        for (rows, from) in pairs {
            for (i, &r) in self.seed_inputs.iter().enumerate() {
                rows.row_mut(r).copy_from_slice(from.row(i));
            }
        }
    }

    /// Run `model` over the blocks from layer 0's `input` (one row per
    /// [`SampledBlocks::inputs`] entry) and return one logits row per seed,
    /// in seed order. Each block graph gets a backend of its own from
    /// `new_backend`: a backend is bound to the first graph it runs on.
    pub fn forward<B: GraphBackend>(
        &self,
        model: &dyn Model,
        input: LayerInput,
        new_backend: impl Fn() -> B,
    ) -> Vec<Vec<f32>> {
        let backends: Vec<B> = self.graphs.iter().map(|_| new_backend()).collect();
        let blocks: Vec<LayerBlock<'_>> = self
            .layers
            .iter()
            .map(|(g, dst)| LayerBlock {
                graph: &self.graphs[*g],
                backend: &backends[*g],
                dst: dst.as_deref(),
            })
            .collect();
        let out = forward(model, &blocks, input);
        let rows = self.seed_outputs.iter().map(|&r| out.row(r).to_vec());
        rows.collect()
    }
}

/// Sampled minibatch inference: run `model` on the fanout-bounded
/// neighborhood of `seeds` and return one logits row per seed, in input
/// order. `cfg.fanouts` must cover at least as many hops as the model has
/// message-passing layers for the neighborhood to feed every aggregation;
/// deeper hops are sampled but no layer reads them. `new_backend` builds
/// one backend per block graph.
pub fn infer_seeds<B: GraphBackend>(
    model: &dyn Model,
    graph: &GnnGraph,
    features: &Dense2<f32>,
    new_backend: impl Fn() -> B,
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
    let blocks = SampledBlocks::new(&sub, sub_gnn, model.num_layers());
    // The subgraph, its blocks and index maps live until the forward pass
    // is done; account them so MEMORY answers show per-request sampling
    // footprint.
    let _charge = MemCharge::new(MemComponent::Sampling, sub.mem_bytes() + blocks.mem_bytes());
    // Attribute tape traffic to TapeActivations only when no caller set a
    // scope, as `infer_batch` does.
    let _mem = (fg_telemetry::current_component() == MemComponent::Scratch)
        .then(|| fg_telemetry::MemScope::enter(MemComponent::TapeActivations));
    let x = gather_rows(features, blocks.inputs());
    Ok(blocks.forward(model, LayerInput::Features(x), new_backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FeatgraphBackend;
    use crate::data::SbmTask;
    use crate::models::build_model;
    use crate::trainer::infer_batch;

    fn task() -> SbmTask {
        SbmTask::generate(400, 3, 10, 3, 21)
    }

    fn cpu1() -> FeatgraphBackend {
        FeatgraphBackend::cpu(1)
    }

    fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
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
            let sampled = infer_seeds(
                model.as_ref(),
                &task.graph,
                &task.features,
                cpu1,
                &seeds,
                &SampleConfig::full(2, 0),
            )
            .unwrap();
            assert_eq!(full, sampled, "{name} sampled inference diverged");
        }
    }

    #[test]
    fn blocks_match_the_whole_subgraph_bitwise() {
        // Capped fanouts, as many hops as layers and one more, a duplicated
        // seed with client rows: the blocked forward (with and without
        // GAT's layer-0 table) gives the bits of `infer_batch` on the whole
        // sampled subgraph.
        let task = task();
        let seeds = [3usize, 42, 3, 399];
        let feats = Dense2::from_fn(seeds.len(), task.in_dim(), |r, c| {
            ((r * 5 + c * 3) % 7) as f32 * 0.25 - 0.5
        });
        for fanouts in [vec![3, 3], vec![3, 3, 3]] {
            let cfg = SampleConfig::new(fanouts, 5);
            let (sub, sub_gnn) = prepare_seeds(&task.graph, &seeds, &cfg).unwrap();
            let mut whole = gather_rows(&task.features, sub.locals());
            for (i, &l) in sub.seed_locals().iter().enumerate() {
                whole.row_mut(l as usize).copy_from_slice(feats.row(i));
            }
            let locals: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
            for name in ["gcn", "graphsage", "gat"] {
                let model = build_model(name, task.in_dim(), 8, task.num_classes, 2);
                let model = model.as_ref();
                let want = infer_batch(model, &sub_gnn, &whole, &cpu1(), &locals).unwrap();
                let blocks = SampledBlocks::new(&sub, sub_gnn.clone(), model.num_layers());
                let mut x = LayerInput::Features(gather_rows(&task.features, blocks.inputs()));
                blocks.override_seeds(model, &mut x, &feats);
                let got = blocks.forward(model, x, cpu1);
                assert!(same_bits(&got, &want), "{name} {cfg:?}");
                if let Some(table) = model.layer0_table(&task.features) {
                    let rows = table.iter().map(|t| gather_rows(t, blocks.inputs()));
                    let mut x = LayerInput::Table(rows.collect());
                    blocks.override_seeds(model, &mut x, &feats);
                    let got = blocks.forward(model, x, cpu1);
                    assert!(same_bits(&got, &want), "{name} table {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn blocks_shrink_towards_the_seeds() {
        let task = task();
        let cfg = SampleConfig::new(vec![4, 4], 9);
        let (sub, sub_gnn) = prepare_seeds(&task.graph, &[1, 1, 399], &cfg).unwrap();
        let blocks = SampledBlocks::new(&sub, sub_gnn, 2);
        let rows = blocks.rows();
        // layer 0 reads the whole subgraph and writes the 1-hop rows; the
        // last layer writes the two distinct seeds
        assert_eq!(rows[0].1, sub.num_vertices());
        assert_eq!(rows[0].0, rows[1].1);
        assert_eq!(rows[1].0, 2);
        assert!(rows[1].1 < rows[0].1);
        assert_eq!(blocks.inputs(), sub.locals());
        assert!(blocks.mem_bytes() > 0);
    }

    #[test]
    fn full_fanout_is_bitwise_stable_across_partition_hints() {
        // The schedule hint must not change results: partitioning only
        // reorders which rows a thread touches, not per-row accumulation.
        let task = task();
        let seeds = [3usize, 42];
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let cfg = SampleConfig::full(2, 0);
        let hinted = || FeatgraphBackend::cpu_with_partitions(1, 4);
        let (model, graph, features) = (model.as_ref(), &task.graph, &task.features);
        let a = infer_seeds(model, graph, features, cpu1, &seeds, &cfg).unwrap();
        let b = infer_seeds(model, graph, features, hinted, &seeds, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn capped_fanout_returns_finite_rows_per_seed() {
        let task = task();
        let seeds = [1usize, 1, 399];
        let model = build_model("gcn", task.in_dim(), 8, task.num_classes, 2);
        let cfg = SampleConfig::new(vec![4, 4], 9);
        let rows = infer_seeds(
            model.as_ref(),
            &task.graph,
            &task.features,
            cpu1,
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
            infer_seeds(
                model.as_ref(),
                &task.graph,
                &task.features,
                || FeatgraphBackend::cpu(2),
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
        let cfg = SampleConfig::full(2, 0);
        let (model, graph, features) = (model.as_ref(), &task.graph, &task.features);
        let no_hops = SampleConfig::new(vec![], 0);
        assert!(matches!(
            infer_seeds(model, graph, features, cpu1, &[400], &cfg),
            Err(InferError::NodeOutOfRange {
                node: 400,
                vertices: 400
            })
        ));
        assert!(matches!(
            infer_seeds(model, graph, features, cpu1, &[], &cfg),
            Err(InferError::NoSeeds)
        ));
        assert!(matches!(
            infer_seeds(model, graph, features, cpu1, &[0], &no_hops),
            Err(InferError::NoHops)
        ));
    }
}
