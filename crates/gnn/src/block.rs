//! The one inference forward: a model's layers run over per-layer
//! message-flow blocks (DGL's "blocks").
//!
//! A layer's block is a bipartite graph ([`fg_graph::Block`]): a
//! `|dst| × |src|` destination-major CSR whose row `r` lists the in-edges of
//! the `r`-th row the layer writes, by position among the rows it reads,
//! plus the written rows' positions among the read rows. Its kernels
//! ([`Tape::on_block`]) are the CPU templates, compiled on the block's own
//! CSR (a one-partition plan borrows it), and they write `|dst|` rows. A
//! sampled request
//! ([`crate::sampled::SampledBlocks`]) is `L` blocks that shrink towards its
//! seeds, so each layer computes only the rows a later layer or a seed
//! reads. Every written row keeps its in-edges in the same
//! ascending-source order and dense rows are independent, so a row's bits do
//! not depend on the block that computed it. Full-graph inference
//! ([`crate::infer_batch`]) runs the same layers on whole-graph tapes.
//!
//! Layer 0 reads its rows in place ([`Tape::leaf_rows`],
//! [`Tape::leaf_table`]): a [`Gathered`] source over the matrix that holds
//! every vertex's row, through the block's input map, with a small overlay
//! for rows a request overrides. No `|src| × d` copy is made.

use featgraph::{
    CpuFused, CpuSpmm, CpuSpmmOptions, Fds, FusedOp, Gathered, Reducer, Udf, VertexRows,
};
use fg_graph::Block;
use fg_tensor::{Bf16, Dense2};

use crate::models::Model;
use crate::tape::{Tape, Var};

/// A CPU kernel's feature schedule for `d`-wide rows, and its options:
/// `threads` workers over `partitions` source partitions — when `None`, the
/// cache model's count for `sources` source rows read by `udf`.
pub(crate) fn cpu_plan(
    sources: usize,
    udf: &Udf,
    d: usize,
    threads: usize,
    partitions: Option<usize>,
) -> (Fds, CpuSpmmOptions) {
    let fds = Fds::cpu_tiled((d / 64).max(1));
    let parts = partitions.unwrap_or_else(|| CpuSpmmOptions::cache_partitions(sources, udf, &fds));
    (fds, CpuSpmmOptions::with_threads(parts, threads))
}

/// `out[r] = mean of x over the in-edges of written row r`, one row per row
/// `block` writes; `x` holds one row per row it reads.
pub(crate) fn mean_spmm<X: VertexRows>(block: &Block, x: &X, threads: usize) -> Dense2<f32> {
    let (d, sources) = (x.num_cols(), block.csr().num_cols());
    let udf = Udf::copy_src(d);
    let (fds, opts) = cpu_plan(sources, &udf, d, threads, None);
    let k = CpuSpmm::on_csr(block.csr(), &udf, Reducer::Mean, &fds, &opts);
    let mut out = Dense2::zeros(block.rows().0, d);
    k.and_then(|k| k.run_rows(x, &mut out)).expect("block mean aggregation");
    out
}

/// GAT attention into the rows `block` writes: messages `x` and source
/// scores `sl` hold one row per row it reads, destination scores `sr` one
/// per row it writes.
pub(crate) fn attention(
    block: &Block,
    [x, sl, sr]: [Gathered<'_, f32>; 3],
    slope: f32,
    threads: usize,
) -> Dense2<f32> {
    let (d, sources) = (x.num_cols(), block.csr().num_cols());
    let op = FusedOp::gat_attention(d, slope as f64);
    let (_, opts) = cpu_plan(sources, &op.message, d, threads, None);
    let k = CpuFused::on_csr(block.csr(), &op, &opts);
    let mut out = Dense2::zeros(block.rows().0, d);
    k.and_then(|k| k.attend(&x, &sl, &sr, &mut out)).expect("block attention");
    out
}

/// Rows a block reads in place, one per read row: a stored `f32` or `bf16`
/// matrix through an index, with an `f32` overlay ([`Gathered`]).
#[derive(Clone, Copy)]
pub enum InputRows<'a> {
    /// Full-precision storage.
    F32(Gathered<'a, f32>),
    /// bfloat16 storage, widened as it is read.
    Bf16(Gathered<'a, Bf16>),
}

impl InputRows<'_> {
    /// Rows `at` (positions; every row when `None`), widened into a dense
    /// matrix.
    pub fn widened(&self, at: Option<&[u32]>) -> Dense2<f32> {
        match self {
            InputRows::F32(g) => g.widened(at),
            InputRows::Bf16(g) => g.widened(at),
        }
    }
}

/// Run layer `layer` of `model` on `tape` from its input `h`; returns one
/// output row per row the tape's graph writes.
fn run_layer(model: &dyn Model, mut tape: Tape<'_>, h: Var, layer: usize) -> Dense2<f32> {
    let (out, _) = model.forward_layer(&mut tape, h, layer);
    tape.into_value(out)
}

/// Run every layer of `model`, layer `ℓ` on `tape(ℓ)`, `input` putting
/// layer 0's input on its tape; returns the last layer's rows.
pub fn forward<'g>(
    model: &dyn Model,
    mut tape: impl FnMut(usize) -> Tape<'g>,
    input: impl FnOnce(&mut Tape<'g>) -> Var,
) -> Dense2<f32> {
    let mut first = tape(0);
    let h = input(&mut first);
    let mut h = run_layer(model, first, h, 0);
    for layer in 1..model.num_layers() {
        let mut next = tape(layer);
        let x = next.leaf(h);
        h = run_layer(model, next, x, layer);
    }
    h
}
