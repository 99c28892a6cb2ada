//! Tape-based reverse-mode autograd over dense and graph operations.
//!
//! The graph-op gradients implement the duality the paper highlights in
//! §II-A: the backward of a generalized SpMM is a generalized SDDMM (the
//! weight gradient is a per-edge dot product) and the backward of SDDMM-style
//! edge computations is an SpMM-style aggregation. Every graph op of a
//! whole-graph tape dispatches through the active [`GraphBackend`], so the
//! same model trains on the naive or the FeatGraph backend bit-for-bit
//! identically; an inference block's tape ([`Tape::on_block`]) runs them on
//! the CPU templates.
//!
//! A tape has two kinds of leaves. [`Tape::param`] inserts a tensor the
//! caller will read a gradient for; [`Tape::leaf`] inserts a constant
//! (input features, fixed edge weights). Every other node *requires a
//! gradient* iff one of its inputs does, and [`Tape::backward`] computes
//! exactly the gradients of nodes that require one: a constant's branch of
//! each op's backward — the `g × Wᵀ` of a first-layer matmul, the reverse
//! aggregation under a first-layer SpMM — is never run. No value on a path
//! to a parameter depends on those branches, so parameter gradients are
//! bitwise what a differentiate-everything pass gives.

use std::borrow::Cow;

use featgraph::{Gathered, SoftmaxStats};
use fg_graph::Block;
use fg_tensor::ops as dops;
use fg_tensor::Dense2;

use crate::backend::{AttentionForward, Dir, GpuCostModel, GraphBackend};
use crate::block::{self, InputRows};
use crate::ggraph::GnnGraph;

/// A handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Matmul(Var, Var),
    Add(Var, Var),
    AddBias(Var, Var),
    Relu(Var),
    #[cfg(test)]
    LeakyRelu(Var, f32),
    /// `out[v] = Σ_{u→v} w_e · x[u]` (w optional).
    Spmm {
        x: Var,
        w: Option<Var>,
    },
    /// `out[v] = mean_{u→v} x[u]`.
    MeanSpmm {
        x: Var,
    },
    /// `out[e] = a[src] + b[dst]`.
    #[cfg(test)]
    SddmmAdd(Var, Var),
    /// Per-destination softmax over incoming-edge rows.
    #[cfg(test)]
    EdgeSoftmax(Var),
    /// GAT attention as one backend call (fused SDDMM → softmax → SpMM on
    /// the FeatGraph backend), with the softmax state its backward reads.
    Attention {
        hw: Var,
        sl: Var,
        sr: Var,
        slope: f32,
        stats: Option<SoftmaxStats>,
    },
}

struct Node<'g> {
    value: Dense2<f32>,
    /// For a [`Tape::leaf_rows`] leaf, the rows it reads in place (`value`
    /// is then empty).
    rows: Option<InputRows<'g>>,
    grad: Option<Dense2<f32>>,
    /// Whether [`Tape::backward`] computes this node's gradient: set on a
    /// [`Tape::param`], and on an op with such a node among its inputs.
    requires_grad: bool,
    op: Op,
}

/// The autograd tape. Build the forward computation through its methods,
/// then call [`Tape::backward`].
///
/// A tape runs on a whole graph through a [`GraphBackend`] ([`Tape::new`]:
/// training and full-graph inference, forward and backward), or on one
/// inference block ([`Tape::on_block`]) on the CPU templates. A block's
/// graph ops write only the rows it writes and read inputs held in place
/// ([`Tape::leaf_rows`]); a block tape runs the forward only — its graph
/// ops have no backward.
pub struct Tape<'g> {
    on: On<'g>,
    dense_gpu: Option<&'g GpuCostModel>,
    /// Row-wise tensors precomputed for this layer ([`Tape::table`]).
    table: Vec<Var>,
    nodes: Vec<Node<'g>>,
}

/// What a tape's graph ops run on.
#[derive(Clone, Copy)]
enum On<'g> {
    /// A whole graph through a backend: every row is read and written.
    Graph(&'g GnnGraph, &'g dyn GraphBackend),
    /// One block, on the CPU templates with this many threads.
    Block(&'g Block, usize),
}

impl<'g> Tape<'g> {
    /// New tape over a graph and backend. `dense_gpu` charges dense ops to
    /// a GPU roofline for simulated end-to-end GPU timing.
    pub fn new(
        graph: &'g GnnGraph,
        backend: &'g dyn GraphBackend,
        dense_gpu: Option<&'g GpuCostModel>,
    ) -> Self {
        Self {
            on: On::Graph(graph, backend),
            dense_gpu,
            table: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// New forward-only tape over one block, its kernels on the CPU
    /// templates with `threads` workers.
    pub fn on_block(block: &'g Block, threads: usize) -> Self {
        let on = On::Block(block, threads.max(1));
        Self { on, dense_gpu: None, table: Vec::new(), nodes: Vec::new() }
    }

    /// `(written, read)` row counts of this tape's graph, for layer spans.
    pub fn block_rows(&self) -> (usize, usize) {
        match self.on {
            On::Graph(g, _) => (g.num_vertices(), g.num_vertices()),
            On::Block(b, _) => b.rows(),
        }
    }

    /// The whole graph and backend of a [`Tape::new`] tape.
    ///
    /// # Panics
    /// On a block tape: only the forward's mean aggregation and attention
    /// run on a block.
    fn whole(&self) -> (&'g GnnGraph, &'g dyn GraphBackend) {
        match self.on {
            On::Graph(g, b) => (g, b),
            On::Block(..) => panic!("a block tape runs mean aggregation and attention only"),
        }
    }

    /// Hand layer 0 its row-wise tensors computed ahead of it (see
    /// [`crate::models::Model::layer0_table`]), read in place like
    /// [`Tape::leaf_rows`]; returns the input the layer then leaves unread.
    pub fn leaf_table(&mut self, table: impl IntoIterator<Item = Gathered<'g, f32>>) -> Var {
        let table = table.into_iter().map(|t| self.leaf_rows(InputRows::F32(t)));
        self.table = table.collect();
        self.leaf(Dense2::zeros(self.block_rows().1, 0))
    }

    /// The row-wise tensors [`Tape::leaf_table`] handed this layer; empty
    /// when the layer computes its own.
    pub fn table(&self) -> &[Var] {
        &self.table
    }

    fn push_node(&mut self, value: Dense2<f32>, requires_grad: bool, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            rows: None,
            grad: None,
            requires_grad,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Push the result of an op over `inputs`.
    fn push<const N: usize>(&mut self, value: Dense2<f32>, inputs: [Var; N], op: Op) -> Var {
        let requires_grad = inputs.iter().any(|&v| self.needs(v));
        self.push_node(value, requires_grad, op)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    fn charge(&self, flops: u64, bytes: u64) {
        if let Some(m) = self.dense_gpu {
            m.charge(flops, bytes);
        }
    }

    /// Insert a constant input (features, fixed edge weights). The backward
    /// pass computes nothing for it, so its [`Tape::grad`] is zeros.
    pub fn leaf(&mut self, value: Dense2<f32>) -> Var {
        self.push_node(value, false, Op::Leaf)
    }

    /// Insert a constant input whose rows are read in place, one per row the
    /// tape's graph reads. A block's graph ops read them where they lie;
    /// any other op reads them widened into a matrix.
    pub fn leaf_rows(&mut self, rows: InputRows<'g>) -> Var {
        let v = self.leaf(Dense2::zeros(self.block_rows().1, 0));
        self.nodes[v.0].rows = Some(rows);
        v
    }

    /// `v` as a dense matrix: its value, or its in-place rows widened.
    fn dense(&self, v: Var) -> Cow<'_, Dense2<f32>> {
        match &self.nodes[v.0].rows {
            Some(rows) => Cow::Owned(rows.widened(None)),
            None => Cow::Borrowed(&self.nodes[v.0].value),
        }
    }

    /// `v` as an `f32` kernel operand on a block: read in place unless it
    /// is stored narrower, in which case `owned` keeps its widened rows.
    fn operand<'s>(&'s self, v: Var, owned: &'s mut Option<Dense2<f32>>) -> Gathered<'s, f32> {
        match self.nodes[v.0].rows {
            Some(InputRows::F32(rows)) => rows,
            Some(InputRows::Bf16(_)) => Gathered::all(owned.insert(self.dense(v).into_owned())),
            None => Gathered::all(&self.nodes[v.0].value),
        }
    }

    /// Insert a differentiable leaf: a tensor whose gradient the caller
    /// reads after [`Tape::backward`].
    pub fn param(&mut self, value: Dense2<f32>) -> Var {
        self.push_node(value, true, Op::Leaf)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Dense2<f32> {
        &self.nodes[v.0].value
    }

    /// Consume the tape, keeping only `v`'s value.
    pub fn into_value(mut self, v: Var) -> Dense2<f32> {
        self.nodes.swap_remove(v.0).value
    }

    /// Gradient of a [`Tape::param`] after [`Tape::backward`] (zeros-shaped
    /// if backward never reached it — always, for a constant [`Tape::leaf`]).
    /// Interior nodes hand their gradient on during the reverse pass and
    /// read as zeros too.
    pub fn grad(&self, v: Var) -> Dense2<f32> {
        let n = &self.nodes[v.0];
        n.grad
            .clone()
            .unwrap_or_else(|| Dense2::zeros(n.value.rows(), n.value.cols()))
    }

    /// `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = dops::matmul(&self.dense(a), &self.dense(b)).expect("matmul shapes");
        self.charge_matmul(a, b);
        self.push(value, [a, b], Op::Matmul(a, b))
    }

    /// One `m × k × n` GEMM on the dense roofline: `a × b` itself, or either
    /// of its two gradients (same FLOPs, same three operands).
    fn charge_matmul(&self, a: Var, b: Var) {
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        self.charge(
            (2 * m * k * n) as u64,
            ((m * k + k * n + m * n) * 4) as u64,
        );
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = dops::add(self.value(a), self.value(b)).expect("add shapes");
        let len = value.as_slice().len();
        self.charge(len as u64, (3 * len * 4) as u64);
        self.push(value, [a, b], Op::Add(a, b))
    }

    /// `x + bias` broadcast over rows (`bias` is `1 × d`).
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = dops::add_bias(self.value(x), self.value(bias).row(0)).expect("bias shapes");
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, [x, bias], Op::AddBias(x, bias))
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = dops::relu(self.value(x));
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, [x], Op::Relu(x))
    }

    /// Element-wise leaky ReLU.
    #[cfg(test)]
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let value = dops::leaky_relu(self.value(x), slope);
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, [x], Op::LeakyRelu(x, slope))
    }

    /// Sum aggregation `out[v] = Σ_{u→v} w_e · x[u]`; `w` (if given) is an
    /// `|E| × 1` per-edge scalar weight (e.g. attention coefficients).
    pub fn spmm(&mut self, x: Var, w: Option<Var>) -> Var {
        let (graph, backend) = self.whole();
        let weights = w.map(|wv| self.value(wv));
        let value = backend.weighted_spmm(graph, Dir::Fwd, self.value(x), weights);
        let requires_grad = self.needs(x) || w.is_some_and(|wv| self.needs(wv));
        self.push_node(value, requires_grad, Op::Spmm { x, w })
    }

    /// Mean aggregation: one row per row the tape's graph writes.
    pub fn mean_spmm(&mut self, x: Var) -> Var {
        let value = match self.on {
            On::Graph(g, backend) => backend.mean_spmm(g, &self.dense(x)),
            On::Block(b, threads) => match self.nodes[x.0].rows {
                Some(InputRows::Bf16(rows)) => block::mean_spmm(b, &rows, threads),
                _ => block::mean_spmm(b, &self.operand(x, &mut None), threads),
            },
        };
        self.push(value, [x], Op::MeanSpmm { x })
    }

    /// `out[e] = a[src_e] + b[dst_e]`.
    #[cfg(test)]
    pub fn sddmm_add(&mut self, a: Var, b: Var) -> Var {
        let (graph, backend) = self.whole();
        let value = backend.sddmm_add(graph, self.value(a), self.value(b));
        self.push(value, [a, b], Op::SddmmAdd(a, b))
    }

    /// Per-destination softmax over incoming-edge rows (DGL's
    /// `edge_softmax`; canonical edge order makes segments contiguous).
    #[cfg(test)]
    pub fn edge_softmax(&mut self, e: Var) -> Var {
        let value = edge_softmax_forward(self.whole().0, self.value(e));
        let len = value.as_slice().len();
        self.charge((4 * len) as u64, (4 * len * 4) as u64);
        self.push(value, [e], Op::EdgeSoftmax(e))
    }

    /// The GAT attention chain: per-destination
    /// `softmax(LeakyReLU(sl[src] + sr[dst]))`-weighted aggregation of
    /// `hw`, as one node over [`GraphBackend::attention_forward`] whose
    /// backward is [`GraphBackend::attention_backward`]. The tests check it
    /// against the same chain spelled out stage by stage: the test-only ops
    /// `sddmm_add` → `leaky_relu` → `edge_softmax`, then [`Tape::spmm`].
    ///
    /// On a block, `hw` and `sl` hold one row per row the block reads (in
    /// place or not) and `sr`'s rows are read at the rows it writes.
    pub fn gat_attention(&mut self, hw: Var, sl: Var, sr: Var, slope: f32) -> Var {
        let (value, stats) = match self.on {
            On::Graph(g, backend) => {
                let (x, l, r) = (self.dense(hw), self.dense(sl), self.dense(sr));
                backend.attention_forward(g, &x, &l, &r, slope)
            }
            On::Block(b, threads) => {
                let ([mut ox, mut ol, mut or], mut at) = ([None, None, None], Vec::new());
                let (x, l) = (self.operand(hw, &mut ox), self.operand(sl, &mut ol));
                // `sr` is read at the rows the block writes
                let r = self.operand(sr, &mut or).rows_at(b.dst(), &mut at);
                (block::attention(b, [x, l, r], slope, threads), None)
            }
        };
        let op = Op::Attention {
            hw,
            sl,
            sr,
            slope,
            stats,
        };
        self.push(value, [hw, sl, sr], op)
    }

    /// The rows of `x` the tape's graph writes, in order (GraphSage's self
    /// half). On a whole-graph tape every row is written and this is `x`
    /// itself; on a block it is a constant copy of `|dst|` rows.
    pub fn dst_rows(&mut self, x: Var) -> Var {
        let On::Block(block, _) = self.on else {
            return x;
        };
        let value = match &self.nodes[x.0].rows {
            Some(rows) => rows.widened(Some(block.dst())),
            None => Gathered::all(self.value(x)).widened(Some(block.dst())),
        };
        self.leaf(value)
    }

    /// Add `g` into `v`'s gradient; a constant never holds one.
    fn accumulate(&mut self, v: Var, g: Dense2<f32>) {
        let node = &mut self.nodes[v.0];
        assert_eq!(
            g.shape(),
            node.value.shape(),
            "a gradient's shape (left) must equal its node's value shape (right)"
        );
        if !node.requires_grad {
            return;
        }
        match &mut node.grad {
            Some(existing) => {
                for (e, &x) in existing.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *e += x;
                }
            }
            None => node.grad = Some(g),
        }
    }

    /// Reverse pass from `seed_var` with gradient `seed_grad`: afterwards
    /// every [`Tape::param`] that `seed_var` depends on holds its gradient.
    /// Each op computes the gradient of those inputs that require one and
    /// nothing else.
    ///
    /// # Panics
    /// On a block tape (see [`Tape::on_block`]).
    pub fn backward(&mut self, seed_var: Var, seed_grad: Dense2<f32>) {
        let (graph, backend) = self.whole();
        self.accumulate(seed_var, seed_grad);
        for i in (0..self.nodes.len()).rev() {
            // An interior node's gradient is moved out of its slot and on
            // into its inputs; only a leaf's is put back, to be read.
            let Some(mut g) = self.nodes[i].grad.take() else {
                continue;
            };
            match self.nodes[i].op {
                Op::Leaf => self.nodes[i].grad = Some(g),
                Op::Matmul(a, b) => {
                    if self.needs(a) {
                        let ga = dops::matmul_bt(&g, self.value(b)).expect("grad a");
                        self.charge_matmul(a, b);
                        self.accumulate(a, ga);
                    }
                    if self.needs(b) {
                        let gb = dops::matmul_at(self.value(a), &g).expect("grad b");
                        self.charge_matmul(a, b);
                        self.accumulate(b, gb);
                    }
                }
                Op::Add(a, b) => {
                    if self.needs(a) && self.needs(b) {
                        self.accumulate(a, g.clone());
                    }
                    let last = if self.needs(b) { b } else { a };
                    self.accumulate(last, g);
                }
                Op::AddBias(x, bias) => {
                    if self.needs(bias) {
                        // bias grad: column sums
                        let mut gb = Dense2::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += v;
                            }
                        }
                        self.accumulate(bias, gb);
                    }
                    self.accumulate(x, g);
                }
                Op::Relu(x) => {
                    let y = &self.nodes[i].value;
                    for (gv, &yv) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        if yv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    self.accumulate(x, g);
                }
                #[cfg(test)]
                Op::LeakyRelu(x, slope) => {
                    let xv = &self.nodes[x.0].value;
                    for (gv, &v) in g.as_mut_slice().iter_mut().zip(xv.as_slice()) {
                        if v <= 0.0 {
                            *gv *= slope;
                        }
                    }
                    self.accumulate(x, g);
                }
                Op::Spmm { x, w } => {
                    if self.needs(x) {
                        // ∂L/∂x[u] = Σ_{u→v} w_e ∂L/∂h[v]  (reverse aggregation)
                        let gx = backend.weighted_spmm(
                            graph,
                            Dir::Rev,
                            &g,
                            w.map(|wv| self.value(wv)),
                        );
                        self.accumulate(x, gx);
                    }
                    if let Some(wv) = w.filter(|&wv| self.needs(wv)) {
                        // ∂L/∂w_e = x[src_e] · ∂L/∂h[dst_e] — an SDDMM,
                        // exactly the paper's §II-A gradient duality.
                        let gw = backend.sddmm_dot(graph, self.value(x), &g);
                        self.accumulate(wv, gw);
                    }
                }
                Op::MeanSpmm { x } => {
                    // divide incoming grads by destination degree, then
                    // reverse-aggregate (`x` requires a gradient: it is the
                    // only input, and this node got one)
                    for v in 0..g.rows() {
                        let deg = graph.in_degrees()[v].max(1) as f32;
                        for o in g.row_mut(v) {
                            *o /= deg;
                        }
                    }
                    let gx = backend.weighted_spmm(graph, Dir::Rev, &g, None);
                    self.accumulate(x, gx);
                }
                #[cfg(test)]
                Op::SddmmAdd(a, b) => {
                    // ∂L/∂a[u] = Σ_{e out of u} g_e ; ∂L/∂b[v] = Σ_{e into v} g_e
                    if self.needs(a) {
                        let ga = backend.edge_sum(graph, Dir::Rev, &g);
                        self.accumulate(a, ga);
                    }
                    if self.needs(b) {
                        let gb = backend.edge_sum(graph, Dir::Fwd, &g);
                        self.accumulate(b, gb);
                    }
                }
                #[cfg(test)]
                Op::EdgeSoftmax(e) => {
                    let gx = edge_softmax_backward(graph, &self.nodes[i].value, &g);
                    self.accumulate(e, gx);
                }
                Op::Attention {
                    hw,
                    sl,
                    sr,
                    slope,
                    ref stats,
                } => {
                    let fwd = AttentionForward {
                        x: self.value(hw),
                        sl: self.value(sl),
                        sr: self.value(sr),
                        slope,
                        out: &self.nodes[i].value,
                        stats: stats.as_ref(),
                    };
                    let grads = backend.attention_backward(graph, &fwd, &g);
                    self.accumulate(hw, grads.x);
                    self.accumulate(sl, grads.sl);
                    self.accumulate(sr, grads.sr);
                }
            }
        }
    }
}

/// Segment softmax over contiguous per-destination edge ranges. Also the
/// reference normalization the backends' default attention uses.
pub(crate) fn edge_softmax_forward(g: &GnnGraph, e: &Dense2<f32>) -> Dense2<f32> {
    let mut out = e.clone();
    let indptr = g.fwd().in_csr().indptr();
    let d = e.cols();
    for v in 0..g.num_vertices() {
        let (lo, hi) = (indptr[v], indptr[v + 1]);
        if lo == hi {
            continue;
        }
        for c in 0..d {
            let mut mx = f32::MIN;
            for r in lo..hi {
                mx = mx.max(out.at(r, c));
            }
            let mut sum = 0.0f32;
            for r in lo..hi {
                let ev = (out.at(r, c) - mx).exp();
                out.set(r, c, ev);
                sum += ev;
            }
            if sum > 0.0 {
                for r in lo..hi {
                    let v2 = out.at(r, c) / sum;
                    out.set(r, c, v2);
                }
            }
        }
    }
    out
}

/// Segment softmax Jacobian-vector product:
/// `gx_e = y_e (g_e - Σ_seg g·y)` per segment and column.
pub(crate) fn edge_softmax_backward(
    g: &GnnGraph,
    y: &Dense2<f32>,
    grad: &Dense2<f32>,
) -> Dense2<f32> {
    let mut out = Dense2::zeros(y.rows(), y.cols());
    let indptr = g.fwd().in_csr().indptr();
    let d = y.cols();
    for v in 0..g.num_vertices() {
        let (lo, hi) = (indptr[v], indptr[v + 1]);
        for c in 0..d {
            let mut dot = 0.0f32;
            for r in lo..hi {
                dot += grad.at(r, c) * y.at(r, c);
            }
            for r in lo..hi {
                out.set(r, c, y.at(r, c) * (grad.at(r, c) - dot));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FeatgraphBackend, NaiveBackend};

    fn setup() -> (GnnGraph, FeatgraphBackend) {
        (
            GnnGraph::new(fg_graph::uniform(30, 4, 13)),
            FeatgraphBackend::cpu(1),
        )
    }

    fn feats(n: usize, d: usize, salt: usize) -> Dense2<f32> {
        // irrational-ish step keeps ReLU inputs away from exact kinks, so
        // finite differences stay valid
        Dense2::from_fn(n, d, |v, i| {
            ((v * 7 + i * 3 + salt) % 11) as f32 * 0.0937 - 0.4211
        })
    }

    /// Numerical gradient of `loss(x) = Σ target ⊙ f(x)` w.r.t. one input.
    fn finite_diff(
        build: &dyn Fn(&mut Tape<'_>, Var) -> Var,
        g: &GnnGraph,
        backend: &dyn GraphBackend,
        x0: &Dense2<f32>,
        target: &Dense2<f32>,
    ) -> Dense2<f32> {
        let eps = 1e-2f32;
        let mut grad = Dense2::zeros(x0.rows(), x0.cols());
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let eval = |delta: f32| -> f32 {
                    let mut xp = x0.clone();
                    xp.set(r, c, xp.at(r, c) + delta);
                    let mut tape = Tape::new(g, backend, None);
                    let x = tape.leaf(xp);
                    let y = build(&mut tape, x);
                    tape.value(y)
                        .as_slice()
                        .iter()
                        .zip(target.as_slice())
                        .map(|(&a, &b)| a * b)
                        .sum()
                };
                let hi = eval(eps);
                let lo = eval(-eps);
                grad.set(r, c, (hi - lo) / (2.0 * eps));
            }
        }
        grad
    }

    fn check_gradient(build: impl Fn(&mut Tape<'_>, Var) -> Var, n: usize, d: usize) {
        let (g, backend) = setup();
        let x0 = feats(n.min(g.num_vertices()), d, 1);
        // forward once to size the target
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.param(x0.clone());
        let y = build(&mut tape, x);
        let target = feats(tape.value(y).rows(), tape.value(y).cols(), 9);
        tape.backward(y, target.clone());
        let got = tape.grad(x);
        let want = finite_diff(&build, &g, &backend, &x0, &target);
        assert_bulk_close(&got, &want);
    }

    /// Finite differences are invalid at (leaky-)ReLU kinks; tolerate a
    /// small number of such entries but require the bulk to match tightly.
    fn assert_bulk_close(got: &Dense2<f32>, want: &Dense2<f32>) {
        let mut mismatches = 0usize;
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            let diff = (a - b).abs();
            if diff > 2e-2 && diff > 2e-2 * a.abs().max(b.abs()) {
                mismatches += 1;
            }
        }
        let allowed = got.as_slice().len() / 50 + 1; // <= ~2%
        assert!(
            mismatches <= allowed,
            "grad mismatch on {mismatches}/{} entries (max diff {})",
            got.as_slice().len(),
            got.max_abs_diff(want)
        );
    }

    #[test]
    fn spmm_gradient_matches_finite_difference() {
        check_gradient(|t, x| t.spmm(x, None), 30, 4);
    }

    #[test]
    fn mean_spmm_gradient() {
        check_gradient(|t, x| t.mean_spmm(x), 30, 3);
    }

    #[test]
    fn relu_backward_masks_by_activation() {
        // analytic check (finite differences are invalid at ReLU kinks):
        // grad(relu(h)) = g ⊙ 1[h > 0], then flows through spmm's reverse
        let (g, backend) = setup();
        let x0 = feats(30, 4, 1);
        let target = feats(30, 4, 9);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.param(x0.clone());
        let h = tape.spmm(x, None);
        let y = tape.relu(h);
        let hval = tape.value(h).clone();
        tape.backward(y, target.clone());
        // expected: mask target by hval > 0, then reverse-aggregate
        let mut masked = target.clone();
        for (m, &hv) in masked.as_mut_slice().iter_mut().zip(hval.as_slice()) {
            if hv <= 0.0 {
                *m = 0.0;
            }
        }
        let want = backend.weighted_spmm(&g, Dir::Rev, &masked, None);
        assert!(
            tape.grad(x).approx_eq(&want, 1e-4),
            "diff {}",
            tape.grad(x).max_abs_diff(&want)
        );
        // and the gradient right below the relu is exactly the masked target
        let mut tape = Tape::new(&g, &backend, None);
        let h = tape.param(hval);
        let y = tape.relu(h);
        tape.backward(y, target);
        assert!(tape.grad(h).approx_eq(&masked, 0.0));
    }

    #[test]
    fn matmul_gradient() {
        let (g, backend) = setup();
        let x0 = feats(30, 4, 2);
        let w0 = feats(4, 5, 3);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.param(x0.clone());
        let w = tape.param(w0.clone());
        let y = tape.matmul(x, w);
        let target = feats(30, 5, 7);
        tape.backward(y, target.clone());
        // analytic: gx = target @ w^T ; gw = x^T @ target
        let gx_want = dops::matmul_bt(&target, &w0).unwrap();
        let gw_want = dops::matmul_at(&x0, &target).unwrap();
        assert!(tape.grad(x).approx_eq(&gx_want, 1e-4));
        assert!(tape.grad(w).approx_eq(&gw_want, 1e-4));
    }

    #[test]
    fn weighted_spmm_weight_gradient_is_sddmm() {
        let (g, backend) = setup();
        let m = g.num_edges();
        let x0 = feats(30, 4, 2);
        let w0 = Dense2::full(m, 1, 0.7f32);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0.clone());
        let w = tape.param(w0.clone());
        let y = tape.spmm(x, Some(w));
        let target = feats(30, 4, 5);
        tape.backward(y, target.clone());
        let gw = tape.grad(w);
        // analytic: gw[e] = x[src_e] . target[dst_e]
        for (src, dst, eid) in g.fwd().edges() {
            let want: f32 = x0
                .row(src as usize)
                .iter()
                .zip(target.row(dst as usize))
                .map(|(&a, &b)| a * b)
                .sum();
            assert!((gw.at(eid as usize, 0) - want).abs() < 1e-3);
        }
    }

    #[test]
    fn edge_softmax_rows_sum_to_one_per_destination() {
        let (g, backend) = setup();
        let e0 = feats(g.num_edges(), 1, 3);
        let mut tape = Tape::new(&g, &backend, None);
        let e = tape.leaf(e0);
        let sm = tape.edge_softmax(e);
        let y = tape.value(sm);
        let indptr = g.fwd().in_csr().indptr();
        for v in 0..g.num_vertices() {
            let (lo, hi) = (indptr[v], indptr[v + 1]);
            if lo == hi {
                continue;
            }
            let sum: f32 = (lo..hi).map(|r| y.at(r, 0)).sum();
            assert!((sum - 1.0).abs() < 1e-4, "v={v} sum {sum}");
        }
    }

    #[test]
    fn edge_softmax_gradient_matches_finite_difference() {
        let (g, backend) = setup();
        let m = g.num_edges();
        let e0 = feats(m, 1, 3);
        let target = feats(m, 1, 6);
        let mut tape = Tape::new(&g, &backend, None);
        let e = tape.param(e0.clone());
        let y = tape.edge_softmax(e);
        tape.backward(y, target.clone());
        let got = tape.grad(e);
        // finite difference
        let eps = 1e-2f32;
        for idx in 0..m.min(20) {
            let eval = |delta: f32| -> f32 {
                let mut ep = e0.clone();
                ep.set(idx, 0, ep.at(idx, 0) + delta);
                let y = edge_softmax_forward(&g, &ep);
                y.as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (fd - got.at(idx, 0)).abs() < 2e-2,
                "edge {idx}: fd {fd} vs {}",
                got.at(idx, 0)
            );
        }
        let _ = backend;
    }

    #[test]
    fn edge_softmax_single_edge_segments_get_weight_one() {
        // v2 has two incoming edges, v3 exactly one; a single-edge segment
        // must normalize to exactly 1.0 regardless of the raw score
        let g = GnnGraph::new(fg_graph::Graph::from_edges(
            4,
            &[(0, 2), (1, 2), (0, 3)],
        ));
        let mut e = Dense2::zeros(3, 1);
        e.set(0, 0, 5.0);
        e.set(1, 0, -3.0);
        e.set(2, 0, 123.456);
        let y = edge_softmax_forward(&g, &e);
        let indptr = g.fwd().in_csr().indptr();
        let (lo3, hi3) = (indptr[3], indptr[4]);
        assert_eq!(hi3 - lo3, 1, "v3 should have one incoming edge");
        assert_eq!(y.at(lo3, 0), 1.0, "single-edge segment weight");
        let (lo2, hi2) = (indptr[2], indptr[3]);
        let sum: f32 = (lo2..hi2).map(|r| y.at(r, 0)).sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn edge_softmax_skips_zero_degree_destinations() {
        // v0 and v1 have no incoming edges; their (empty) segments must not
        // disturb the others or produce NaN anywhere
        let g = GnnGraph::new(fg_graph::Graph::from_edges(3, &[(0, 2), (1, 2)]));
        let e = Dense2::from_fn(2, 2, |r, c| (r + c) as f32);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let indptr = g.fwd().in_csr().indptr();
        assert_eq!(indptr[0], indptr[1], "v0 zero-degree");
        assert_eq!(indptr[1], indptr[2], "v1 zero-degree");
        for c in 0..2 {
            let sum: f32 = (indptr[2]..indptr[3]).map(|r| y.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "col {c} sum {sum}");
        }
    }

    #[test]
    fn edge_softmax_survives_large_negative_scores() {
        // max-subtraction keeps exp() in range even when every raw score is
        // a huge negative number (attention masking produces these)
        let g = GnnGraph::new(fg_graph::Graph::from_edges(2, &[(0, 1), (1, 1)]));
        let mut e = Dense2::zeros(2, 1);
        e.set(0, 0, -1e30);
        e.set(1, 0, -1e30);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!((y.at(0, 0) - 0.5).abs() < 1e-6);
        assert!((y.at(1, 0) - 0.5).abs() < 1e-6);
        // one edge much less masked than the other: it takes all the weight
        e.set(1, 0, 0.0);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!((y.at(1, 0) - 1.0).abs() < 1e-6);
        assert!(y.at(0, 0).abs() < 1e-6);
    }

    #[test]
    fn edge_softmax_on_duplicate_edges_and_tied_scores() {
        // the graph layer canonicalizes duplicate (src, dst) pairs away, so
        // edge_softmax never sees a repeated edge in a segment...
        let g = GnnGraph::new(fg_graph::Graph::from_edges(
            3,
            &[(0, 2), (0, 2), (1, 2)],
        ));
        assert_eq!(g.num_edges(), 2, "duplicate edge deduplicated");
        // ...and tied scores within a segment split the weight evenly
        let mut e = Dense2::zeros(2, 1);
        e.set(0, 0, 1.0);
        e.set(1, 0, 1.0);
        let y = edge_softmax_forward(&g, &e);
        let indptr = g.fwd().in_csr().indptr();
        for r in indptr[2]..indptr[3] {
            assert!((y.at(r, 0) - 0.5).abs() < 1e-6, "row {r}: {}", y.at(r, 0));
        }
    }

    /// The attention chain spelled out op by op — what `gat_attention` was
    /// on a training tape before it became one node everywhere.
    fn unfused_chain(t: &mut Tape<'_>, hw: Var, sl: Var, sr: Var, slope: f32) -> Var {
        let e = t.sddmm_add(sl, sr);
        let e = t.leaky_relu(e, slope);
        let alpha = t.edge_softmax(e);
        t.spmm(hw, Some(alpha))
    }

    #[test]
    fn every_tape_builds_the_same_attention_node() {
        let (g, backend) = setup();
        let run = |tape: &mut Tape<'_>| {
            let hw = tape.param(feats(30, 4, 1));
            let sl = tape.param(feats(30, 1, 2));
            let sr = tape.param(feats(30, 1, 3));
            let out = tape.gat_attention(hw, sl, sr, 0.2);
            tape.backward(out, feats(30, 4, 5));
            (
                tape.value(out).clone(),
                tape.grad(hw),
                tape.grad(sl),
                tape.grad(sr),
            )
        };
        // a second tape on the same backend (its plans already compiled):
        // the same bits, forward and backward
        let first = run(&mut Tape::new(&g, &backend, None));
        let second = run(&mut Tape::new(&g, &backend, None));
        assert!(second.0.approx_eq(&first.0, 0.0));
        assert!(second.1.approx_eq(&first.1, 0.0));
        assert!(second.2.approx_eq(&first.2, 0.0));
        assert!(second.3.approx_eq(&first.3, 0.0));
        assert!(first.2.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn attention_node_matches_the_unfused_chain_forward_and_backward() {
        let g = GnnGraph::new(fg_graph::uniform(30, 4, 13));
        let target = feats(30, 4, 5);
        type Build = fn(&mut Tape<'_>, Var, Var, Var, f32) -> Var;
        let run = |backend: &dyn GraphBackend, build: Build| {
            let mut tape = Tape::new(&g, backend, None);
            let hw = tape.param(feats(30, 4, 1));
            let sl = tape.param(feats(30, 1, 2));
            let sr = tape.param(feats(30, 1, 3));
            let out = build(&mut tape, hw, sl, sr, 0.2);
            tape.backward(out, target.clone());
            [
                tape.value(out).clone(),
                tape.grad(hw),
                tape.grad(sl),
                tape.grad(sr),
            ]
        };
        let want = run(&NaiveBackend::cpu(), unfused_chain);
        let backends: [&dyn GraphBackend; 3] = [
            &NaiveBackend::cpu(),
            &FeatgraphBackend::cpu(1),
            &FeatgraphBackend::gpu(),
        ];
        for backend in backends {
            let got = run(backend, |t, hw, sl, sr, slope| {
                t.gat_attention(hw, sl, sr, slope)
            });
            for (what, (a, b)) in ["out", "g_hw", "g_sl", "g_sr"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert!(
                    a.approx_eq(b, 1e-4),
                    "{} {what}: diff {}",
                    backend.name(),
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        // loss = Σ target ⊙ attention(hw, sl, sr), perturbing one input at a
        // time; the other two enter as constants
        let (g, backend) = setup();
        let inputs = [feats(30, 4, 1), feats(30, 1, 2), feats(30, 1, 3)];
        let target = feats(30, 4, 5);
        for which in 0..3 {
            let build = |t: &mut Tape<'_>, x: Var| {
                let mut vars = [x; 3];
                for (k, v) in vars.iter_mut().enumerate() {
                    if k != which {
                        *v = t.leaf(inputs[k].clone());
                    }
                }
                t.gat_attention(vars[0], vars[1], vars[2], 0.2)
            };
            let mut tape = Tape::new(&g, &backend, None);
            let x = tape.param(inputs[which].clone());
            let y = build(&mut tape, x);
            tape.backward(y, target.clone());
            let got = tape.grad(x);
            let want = finite_diff(&build, &g, &backend, &inputs[which], &target);
            assert_bulk_close(&got, &want);
        }
    }

    #[test]
    fn constants_get_no_gradient_and_cost_no_backward_work() {
        // x is a constant: matmul's `g × wᵀ` and the reverse aggregation
        // under it are not run, which the GPU roofline charge shows.
        let (g, _) = setup();
        let charged = |x_is_param: bool| {
            let backend = FeatgraphBackend::gpu();
            let dense = GpuCostModel::new(fg_gpusim::DeviceConfig::v100());
            let mut tape = Tape::new(&g, &backend, Some(&dense));
            let x0 = feats(30, 4, 2);
            let x = if x_is_param {
                tape.param(x0)
            } else {
                tape.leaf(x0)
            };
            let w = tape.param(feats(4, 5, 3));
            let agg = tape.spmm(x, None);
            let y = tape.matmul(agg, w);
            let (_, _) = (dense.take(), backend.take_gpu_ms());
            tape.backward(y, feats(30, 5, 7));
            assert_eq!(
                tape.grad(x).as_slice().iter().any(|&v| v != 0.0),
                x_is_param
            );
            assert!(tape.grad(w).as_slice().iter().any(|&v| v != 0.0));
            (dense.take(), backend.take_gpu_ms())
        };
        let (dense_full, graph_full) = charged(true);
        let (dense_pruned, graph_pruned) = charged(false);
        // one GEMM instead of two (same shape, so exactly half) ...
        assert!((dense_pruned - dense_full / 2.0).abs() < 1e-12 * dense_full);
        // ... and no reverse SpMM launch at all
        assert!(graph_full > 0.0);
        assert_eq!(graph_pruned, 0.0);
    }

    #[test]
    #[should_panic(
        expected = "a gradient's shape (left) must equal its node's value shape (right)"
    )]
    fn accumulating_a_mis_shaped_gradient_panics() {
        let (g, backend) = setup();
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.param(feats(30, 4, 1));
        let y = tape.relu(x);
        // one row short: zip-and-add would silently drop the tail
        tape.backward(y, feats(29, 4, 2));
    }

    #[test]
    fn a_block_tape_writes_only_its_rows_and_reads_inputs_in_place() {
        let (g, backend) = setup();
        let dst = vec![0u32, 3, 17, 29];
        let in_csr = g.fwd().in_csr();
        let mut indptr = vec![0];
        let mut indices = Vec::new();
        for &p in &dst {
            indices.extend_from_slice(in_csr.row(p));
            indptr.push(indices.len());
        }
        let csr = fg_graph::Csr::new(dst.len(), 30, indptr, indices);
        let block = Block::new(csr, dst.clone());
        // the whole-graph rows the block's writes must equal, bitwise
        let (x0, s0) = (feats(30, 8, 1), feats(30, 1, 2));
        let r0 = feats(30, 1, 3);
        let mut whole = Tape::new(&g, &backend, None);
        let (x, sl, sr) = (whole.leaf(x0.clone()), whole.leaf(s0.clone()), whole.leaf(r0.clone()));
        let (mean, att) = (whole.mean_spmm(x), whole.gat_attention(x, sl, sr, 0.2));
        assert_eq!(whole.block_rows(), (30, 30));
        assert_eq!(whole.dst_rows(x), x, "a whole-graph tape writes every row");
        let at = |m: &Dense2<f32>| {
            Dense2::from_fn(dst.len(), m.cols(), |i, c| m.at(dst[i] as usize, c))
        };
        let (want_mean, want_att) = (at(whole.value(mean)), at(whole.value(att)));

        // dense inputs, one row per read row
        let mut tape = Tape::on_block(&block, 2);
        assert_eq!(tape.block_rows(), (4, 30));
        let (x, sl, sr) = (tape.leaf(x0.clone()), tape.leaf(s0.clone()), tape.leaf(r0.clone()));
        let mean = tape.mean_spmm(x);
        assert_eq!(tape.value(mean), &want_mean);
        let att = tape.gat_attention(x, sl, sr, 0.2);
        assert_eq!(tape.value(att), &want_att);
        let own = tape.dst_rows(x);
        assert_eq!(tape.value(own), &at(&x0));

        // the same rows read in place from larger matrices, in reverse row
        // order, one of them from an overlay
        let index: Vec<u32> = (0..30).map(|k| 29 - k).collect();
        let flip = |m: &Dense2<f32>| Dense2::from_fn(30, m.cols(), |r, c| m.at(29 - r, c));
        let (xs, ss, rs) = (flip(&x0), flip(&s0), flip(&r0));
        let mut overlay_index = index.clone();
        overlay_index[3] = 30;
        let overlay = Dense2::from_fn(1, 8, |_, c| x0.at(3, c));
        let mut tape = Tape::on_block(&block, 1);
        let rows = |m, ix| InputRows::F32(Gathered::new(m, ix, None));
        let x = tape.leaf_rows(InputRows::F32(Gathered::new(&xs, &overlay_index, Some(&overlay))));
        let (sl, sr) = (tape.leaf_rows(rows(&ss, &index)), tape.leaf_rows(rows(&rs, &index)));
        let mean = tape.mean_spmm(x);
        assert_eq!(tape.value(mean), &want_mean);
        let att = tape.gat_attention(x, sl, sr, 0.2);
        assert_eq!(tape.value(att), &want_att);
        let own = tape.dst_rows(x);
        assert_eq!(tape.value(own), &at(&x0));
    }

    #[test]
    fn sddmm_add_gradients_scatter_correctly() {
        let (g, backend) = setup();
        let a0 = feats(30, 1, 1);
        let b0 = feats(30, 1, 2);
        let mut tape = Tape::new(&g, &backend, None);
        let a = tape.param(a0);
        let b = tape.param(b0);
        let e = tape.sddmm_add(a, b);
        let target = Dense2::full(g.num_edges(), 1, 1.0f32);
        tape.backward(e, target);
        let ga = tape.grad(a);
        let gb = tape.grad(b);
        for v in 0..30u32 {
            assert!((ga.at(v as usize, 0) - g.fwd().out_degree(v) as f32).abs() < 1e-4);
            assert!((gb.at(v as usize, 0) - g.fwd().in_degree(v) as f32).abs() < 1e-4);
        }
    }

    #[test]
    fn both_backends_produce_identical_gradients() {
        let g = GnnGraph::new(fg_graph::uniform(25, 3, 5));
        let x0 = feats(25, 4, 4);
        let target = feats(25, 4, 8);
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(1);
        let run = |backend: &dyn GraphBackend| -> Dense2<f32> {
            let mut tape = Tape::new(&g, backend, None);
            let x = tape.param(x0.clone());
            let h = tape.spmm(x, None);
            let y = tape.relu(h);
            tape.backward(y, target.clone());
            tape.grad(x)
        };
        let a = run(&naive);
        let b = run(&fgb);
        assert!(a.approx_eq(&b, 1e-4), "diff {}", a.max_abs_diff(&b));
    }
}
