//! The one inference forward: a model's layers run over per-layer
//! message-flow blocks (DGL's "blocks").
//!
//! A [`LayerBlock`] is what one layer runs on: a graph, the backend bound
//! to it, and the rows of it the layer writes. Full-graph inference
//! ([`crate::infer_batch`]) is `L` identity blocks over one graph; a sampled
//! request ([`crate::sampled::SampledBlocks`]) is `L` shrinking blocks, so
//! each layer computes only the rows a later layer or a seed reads. Every
//! written row keeps its in-edges in the same ascending-source order and
//! dense rows are independent, so a row's bits do not depend on the block
//! that computed it.

use fg_tensor::Dense2;

use crate::backend::GraphBackend;
use crate::ggraph::GnnGraph;
use crate::models::Model;
use crate::tape::Tape;

/// One layer's block: the graph its kernels run on (square, over the rows
/// the layer reads), the backend bound to that graph, and the positions of
/// the rows the layer writes (`None`: every row).
#[derive(Clone, Copy)]
pub struct LayerBlock<'a> {
    /// The graph over the rows the layer reads.
    pub graph: &'a GnnGraph,
    /// A backend bound to `graph` (see [`crate::FeatgraphBackend`]).
    pub backend: &'a dyn GraphBackend,
    /// Positions in `graph` of the rows the layer writes, ascending.
    pub dst: Option<&'a [usize]>,
}

/// A layer's input rows, one per row of its block's graph.
pub enum LayerInput {
    /// Activations (layer 0: feature rows).
    Features(Dense2<f32>),
    /// Layer 0's row-wise tensors in [`Model::layer0_table`] layout, in
    /// place of the features they are computed from.
    Table(Vec<Dense2<f32>>),
}

/// Run layer `layer` of `model` on a tape of its own over `block`; returns
/// one output row per written row.
pub fn run_layer(
    model: &dyn Model,
    block: &LayerBlock<'_>,
    input: LayerInput,
    layer: usize,
) -> Dense2<f32> {
    let mut tape = Tape::on_block(block.graph, block.backend, block.dst);
    let h = match input {
        LayerInput::Features(h) => tape.leaf(h),
        LayerInput::Table(table) => {
            let table = table.into_iter().map(|t| tape.leaf(t)).collect();
            tape.set_table(table);
            // the layer reads its table, not features
            tape.leaf(Dense2::zeros(block.graph.num_vertices(), 0))
        }
    };
    let (out, _) = model.forward_layer(&mut tape, h, layer);
    tape.into_value(out)
}

/// Run every layer of `model`, layer `ℓ` on `blocks[ℓ]`, from layer 0's
/// `input`; returns the last layer's rows.
///
/// # Panics
/// If `blocks` does not hold one block per model layer.
pub fn forward(model: &dyn Model, blocks: &[LayerBlock<'_>], input: LayerInput) -> Dense2<f32> {
    assert_eq!(
        blocks.len(),
        model.num_layers(),
        "one block per layer of {}",
        model.name()
    );
    let mut layers = blocks.iter().enumerate();
    let (_, first) = layers.next().expect("a model has at least one layer");
    let mut h = run_layer(model, first, input, 0);
    for (layer, block) in layers {
        h = run_layer(model, block, LayerInput::Features(h), layer);
    }
    h
}
