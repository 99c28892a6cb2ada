//! Minibatch inference over sampled neighborhoods.
//!
//! [`infer_seeds`] is the sampled counterpart of
//! [`infer_batch`](crate::infer_batch): expand a fanout-bounded
//! neighborhood of the seed vertices, cut it into one bipartite
//! message-flow block per model layer ([`SampledBlocks`]), and run the model
//! layer by layer over the blocks on the CPU templates (fused attention
//! included). Layer ℓ of an L-layer model writes only the rows within
//! L−1−ℓ hops of a seed, so the last layer computes the seeds' rows and
//! nothing else. Layer 0 reads its feature (or layer-0 table) rows in place
//! through the block's input map ([`Layer0`]); rows a request overrides come
//! from a small overlay.
//!
//! The result is **bitwise identical** to `infer_batch` on the whole sampled
//! subgraph: every written row keeps its in-edges in the same
//! (ascending-source) order and dense rows are independent. Under full
//! fanout it is therefore bitwise identical to full-graph inference on the
//! same seeds too: every vertex a seed output transitively reads keeps all
//! of its in-edges, so each float accumulates in the same sequence.

use std::borrow::Cow;

use featgraph::Gathered;
use fg_graph::{
    sample_subgraph_with, Block, SampleConfig, SampleError, SampleScratch, SampledSubgraph, VId,
};
use fg_telemetry::{MemCharge, MemComponent};
use fg_tensor::{Bf16, Dense2};

use crate::block::{forward, InputRows};
use crate::ggraph::GnnGraph;
use crate::models::Model;
use crate::tape::Tape;
use crate::trainer::InferError;

/// Gather `locals[i]`-th rows of `features` into a compact matrix whose row
/// `i` is the feature row of the subgraph's local vertex `i`.
///
/// No serve path gathers (a block reads layer 0 in place); this is public
/// as the whole-subgraph oracle's input for `fgcheck --sampler`,
/// `serve/tests/serve.rs` and `bench/e2e`.
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
/// [`GnnGraph`]: what `infer_batch` runs on to give the blocked forward's
/// bits on the whole subgraph.
///
/// Public as that oracle: `fgcheck --sampler`, `serve/tests/serve.rs` and
/// `bench/e2e` check the served (blocked) answer against it. The engine
/// samples through [`prepare_seeds_with`].
pub fn prepare_seeds(
    graph: &GnnGraph,
    seeds: &[usize],
    cfg: &SampleConfig,
) -> Result<(SampledSubgraph, GnnGraph), InferError> {
    let sub = prepare_seeds_with(&mut SampleScratch::new(), graph, seeds, cfg)?;
    let sub_gnn = GnnGraph::new(sub.graph().clone());
    Ok((sub, sub_gnn))
}

/// Sample the neighborhood of `seeds` through a caller's [`SampleScratch`]
/// (a serving worker's, reused across requests): the subgraph of
/// [`prepare_seeds`], which is all [`SampledBlocks::new`] reads.
pub fn prepare_seeds_with(
    scratch: &mut SampleScratch,
    graph: &GnnGraph,
    seeds: &[usize],
    cfg: &SampleConfig,
) -> Result<SampledSubgraph, InferError> {
    let vertices = graph.num_vertices();
    if let Some(&node) = seeds.iter().find(|&&v| v >= vertices) {
        return Err(InferError::NodeOutOfRange { node, vertices });
    }
    let seeds_v: Vec<VId> = seeds.iter().map(|&s| s as VId).collect();
    sample_subgraph_with(scratch, graph.fwd(), &seeds_v, cfg)
        .map_err(|e| sample_error_to_infer(e, vertices))
}

/// What layer 0 reads in place, one row per vertex of the graph the blocks
/// were sampled from: the features (`f32` or `bf16` storage), or the
/// model's layer-0 table ([`Model::layer0_table`]) over every vertex.
#[derive(Clone, Copy)]
pub enum Layer0<'a> {
    /// Full-precision features.
    F32(&'a Dense2<f32>),
    /// bfloat16 features, widened as they are read.
    Bf16(&'a Dense2<Bf16>),
    /// The layer-0 table.
    Table(&'a [Dense2<f32>]),
}

/// A sampled subgraph cut into one bipartite message-flow block per model
/// layer ([`fg_graph::Block`]): what a sampled request runs. Building it
/// touches no features and runs no kernel.
pub struct SampledBlocks {
    /// Per layer, layer 0 first.
    blocks: Vec<Block>,
    /// Global IDs of the rows layer 0 reads, in its row order.
    inputs: Vec<VId>,
    /// Per seed: its row among layer 0's inputs.
    seed_inputs: Vec<usize>,
    /// Per seed: its row of the last layer's output.
    seed_outputs: Vec<usize>,
    /// Bytes of the blocks and row maps beyond the subgraph's own.
    mem_bytes: u64,
}

impl SampledBlocks {
    /// Cut `sub` into the blocks of a `layers`-layer model.
    ///
    /// # Panics
    /// If `layers` is 0.
    pub fn new(sub: &SampledSubgraph, layers: usize) -> Self {
        assert!(layers > 0, "a model has at least one layer");
        let (blocks, srcs): (Vec<_>, Vec<_>) = (0..layers).map(|l| sub.block(layers, l)).unzip();
        let last = &srcs[layers - 1];
        let written: Vec<_> = blocks[layers - 1].dst().iter().map(|&i| last[i as usize]).collect();
        // Every layer reads and writes the seeds (hop 0), so both searches
        // succeed; both lists ascend in local ID.
        let row_of = |rows: &[VId], l: VId| rows.binary_search(&l).expect("a seed row");
        let seeds = sub.seed_locals();
        let seed_inputs: Vec<usize> = seeds.iter().map(|&l| row_of(&srcs[0], l)).collect();
        let seed_outputs: Vec<usize> = seeds.iter().map(|&l| row_of(&written, l)).collect();
        let inputs: Vec<VId> = srcs[0].iter().map(|&l| sub.global_of(l)).collect();
        let maps = inputs.len() * std::mem::size_of::<VId>()
            + (seed_inputs.len() + seed_outputs.len()) * std::mem::size_of::<usize>();
        let mem_bytes = blocks.iter().map(Block::mem_bytes).sum::<u64>() + maps as u64;
        Self {
            blocks,
            inputs,
            seed_inputs,
            seed_outputs,
            mem_bytes,
        }
    }

    /// Global IDs of the rows layer 0 reads, in its row order.
    pub fn inputs(&self) -> &[VId] {
        &self.inputs
    }

    /// `(written, read)` row counts per layer, layer 0 first.
    pub fn rows(&self) -> Vec<(usize, usize)> {
        self.blocks.iter().map(Block::rows).collect()
    }

    /// Heap bytes held beyond the subgraph's own: the blocks and the row
    /// maps. What a request charges to the `sampling` component on top of
    /// [`SampledSubgraph::mem_bytes`].
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Run `model` over the blocks, layer 0 reading `layer0`'s rows in
    /// place through [`SampledBlocks::inputs`], on the CPU templates with
    /// `threads` workers; returns one logits row per seed, in seed order.
    ///
    /// `feats` (one row per seed, in seed order) replaces the seeds' own
    /// rows: the feature rows themselves, or for a table the model's
    /// [`Model::layer0_table`] rows of them. A duplicated seed keeps its
    /// last row. The overlay is the only copy: every other row is read
    /// where it lies.
    ///
    /// # Panics
    /// If `layer0` is a table, `feats` is given and `model` has no table.
    pub fn forward(
        &self,
        model: &dyn Model,
        layer0: Layer0<'_>,
        feats: Option<&Dense2<f32>>,
        threads: usize,
    ) -> Vec<Vec<f32>> {
        let stored = match layer0 {
            Layer0::F32(m) => m.rows(),
            Layer0::Bf16(m) => m.rows(),
            Layer0::Table(t) => t.first().map_or(0, Dense2::rows),
        };
        // An overridden seed's input row names overlay row `i` past the
        // stored rows.
        let mut index = Cow::Borrowed(&self.inputs[..]);
        if feats.is_some() {
            let index = index.to_mut();
            for (i, &r) in self.seed_inputs.iter().enumerate() {
                index[r] = (stored + i) as VId;
            }
        }
        let table_overlay = match (layer0, feats) {
            (Layer0::Table(_), Some(f)) => model.layer0_table(f),
            _ => None,
        };
        let tape = |layer: usize| Tape::on_block(&self.blocks[layer], threads);
        let out = forward(model, tape, |tape| match layer0 {
            Layer0::F32(m) => tape.leaf_rows(InputRows::F32(Gathered::new(m, &index, feats))),
            Layer0::Bf16(m) => tape.leaf_rows(InputRows::Bf16(Gathered::new(m, &index, feats))),
            Layer0::Table(table) => {
                let overlay = |k: usize| table_overlay.as_ref().map(|o| &o[k]);
                let rows = table.iter().enumerate();
                tape.leaf_table(rows.map(|(k, t)| Gathered::new(t, &index, overlay(k))))
            }
        });
        let rows = self.seed_outputs.iter().map(|&r| out.row(r).to_vec());
        rows.collect()
    }
}

/// Sampled minibatch inference: run `model` on the fanout-bounded
/// neighborhood of `seeds` and return one logits row per seed, in input
/// order. `cfg.fanouts` must cover at least as many hops as the model has
/// message-passing layers for the neighborhood to feed every aggregation;
/// deeper hops are sampled but no layer reads them. Kernels run on the CPU
/// templates with `threads` workers.
pub fn infer_seeds(
    model: &dyn Model,
    graph: &GnnGraph,
    features: &Dense2<f32>,
    threads: usize,
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
    let sub = prepare_seeds_with(&mut SampleScratch::new(), graph, seeds, cfg)?;
    let blocks = SampledBlocks::new(&sub, model.num_layers());
    // The subgraph, its blocks and index maps live until the forward pass
    // is done; account them so the `sampling` memory component shows
    // per-request sampling footprint.
    let _charge = MemCharge::new(MemComponent::Sampling, sub.mem_bytes() + blocks.mem_bytes());
    // Attribute tape traffic to TapeActivations only when no caller set a
    // scope, as `infer_batch` does.
    let _mem = (fg_telemetry::current_component() == MemComponent::Scratch)
        .then(|| fg_telemetry::MemScope::enter(MemComponent::TapeActivations));
    Ok(blocks.forward(model, Layer0::F32(features), None, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FeatgraphBackend;
    use crate::data::SbmTask;
    use crate::models::build_model;
    use crate::trainer::infer_batch;
    use fg_tensor::{dequantize, quantize};

    fn task() -> SbmTask {
        SbmTask::generate(400, 3, 10, 3, 21)
    }

    fn cpu() -> FeatgraphBackend {
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
                1,
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
        // seed with client rows: the blocked forward, reading layer 0 in
        // place from f32 or bf16 storage or (GAT) its layer-0 table, gives
        // the bits of `infer_batch` on the whole sampled subgraph fed the
        // same rows widened.
        let task = task();
        let seeds = [3usize, 42, 3, 399];
        let feats = Dense2::from_fn(seeds.len(), task.in_dim(), |r, c| {
            ((r * 5 + c * 3) % 7) as f32 * 0.25 - 0.5
        });
        let half: Dense2<Bf16> = quantize(&task.features);
        let widened = dequantize(&half);
        for fanouts in [vec![3, 3], vec![3, 3, 3]] {
            let cfg = SampleConfig::new(fanouts, 5);
            let (sub, sub_gnn) = prepare_seeds(&task.graph, &seeds, &cfg).unwrap();
            let locals: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
            let whole = |stored: &Dense2<f32>, feats: Option<&Dense2<f32>>| {
                let mut whole = gather_rows(stored, sub.locals());
                if let Some(f) = feats {
                    for (i, &l) in sub.seed_locals().iter().enumerate() {
                        whole.row_mut(l as usize).copy_from_slice(f.row(i));
                    }
                }
                whole
            };
            for name in ["gcn", "graphsage", "gat"] {
                let model = build_model(name, task.in_dim(), 8, task.num_classes, 2);
                let model = model.as_ref();
                let blocks = SampledBlocks::new(&sub, model.num_layers());
                let table = model.layer0_table(&task.features);
                for feats in [None, Some(&feats)] {
                    let oracle = |stored| {
                        let x = whole(stored, feats);
                        infer_batch(model, &sub_gnn, &x, &cpu(), &locals).unwrap()
                    };
                    let want = oracle(&task.features);
                    let got = blocks.forward(model, Layer0::F32(&task.features), feats, 1);
                    assert!(same_bits(&got, &want), "{name} {cfg:?}");
                    let got = blocks.forward(model, Layer0::Bf16(&half), feats, 2);
                    assert!(same_bits(&got, &oracle(&widened)), "{name} bf16 {cfg:?}");
                    if let Some(table) = &table {
                        let got = blocks.forward(model, Layer0::Table(table), feats, 1);
                        assert!(same_bits(&got, &want), "{name} table {cfg:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_shrink_towards_the_seeds() {
        let task = task();
        let cfg = SampleConfig::new(vec![4, 4], 9);
        let (sub, _) = prepare_seeds(&task.graph, &[1, 1, 399], &cfg).unwrap();
        let blocks = SampledBlocks::new(&sub, 2);
        let rows = blocks.rows();
        // layer 0 reads the whole subgraph and writes the 1-hop rows; the
        // last layer writes the two distinct seeds
        assert_eq!(rows[0].1, sub.num_vertices());
        assert_eq!(rows[0].0, rows[1].1);
        assert_eq!(rows[1].0, 2);
        assert!(rows[1].1 < rows[0].1);
        assert_eq!(blocks.inputs(), sub.locals());
        // each block holds a CSR row and a position per written row, and an
        // index per edge: no square graph over the rows it reads
        let edges: usize = (0..2).map(|l| sub.block(2, l).0.csr().nnz()).sum();
        let word = std::mem::size_of::<usize>();
        let csrs = (rows[0].0 + 1 + rows[1].0 + 1) * word + edges * 4;
        let positions = (rows[0].0 + rows[1].0) * 4;
        let maps = sub.num_vertices() * 4 + (3 + 3) * word;
        assert_eq!(blocks.mem_bytes(), (csrs + positions + maps) as u64);
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
            1,
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
                2,
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
            infer_seeds(model, graph, features, 1, &[400], &cfg),
            Err(InferError::NodeOutOfRange {
                node: 400,
                vertices: 400
            })
        ));
        assert!(matches!(
            infer_seeds(model, graph, features, 1, &[], &cfg),
            Err(InferError::NoSeeds)
        ));
        assert!(matches!(
            infer_seeds(model, graph, features, 1, &[0], &no_hops),
            Err(InferError::NoHops)
        ));
    }
}
