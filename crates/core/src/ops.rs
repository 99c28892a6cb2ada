//! The op slots every kernel template computes with, on both targets.
//!
//! SpMM, SDDMM and their fusion are one loop nest with three slots (the
//! FusedMM decomposition): the **storage** the vertex rows are read from
//! (`V: FeatElem` — `f32`, `bf16`, `f16`), the per-edge **message op**
//! ([`MessageOp`]: the UDF, as a recognized fast path or the interpreter)
//! and the **reduce op** ([`ReduceOp`]: how a message element lands in the
//! sink row). All three are type parameters resolved once per `run`, so the
//! per-edge loops carry no `match`, `dyn` call or function pointer.
//!
//! The message op is the same object under every template; only the sink
//! differs. SpMM folds it into the destination row with [`sum`] / [`max`] /
//! [`min`], SDDMM [`store`]s it into the edge row, and the fused template
//! wraps the reducer in [`scaled`] by the edge's attention weight, computed
//! by a [`ScoreOp`].
//!
//! Nothing here knows the target. The CPU skeletons (`cpu::skeleton`) and
//! the simulated-GPU skeleton (`gpu::skeleton`) differ in how they traverse
//! the graph and what they charge, never in the arithmetic: both lower a UDF
//! with [`lower`] / [`lower_fused`] and fold with these ops.

use std::any::Any;
use std::borrow::Cow;
use std::mem::size_of;
use std::ops::Range;

use fg_ir::interp::{eval_udf, EdgeCtx};
use fg_ir::{FusedOp, FusedPattern, KernelPattern, Udf};
use fg_tensor::half::{dequantize, WIDEN_CHUNK};
use fg_tensor::{Dense2, FeatElem};

use crate::inputs::{FusedInputs, GraphTensors};

/// How one message element `m` is folded into its slot of the sink row.
/// Reducers are zero-sized function items (or [`scaled`]'s closure), so a
/// loop generic over `R` inlines the fold.
pub(crate) trait ReduceOp: Fn(&mut f32, f32) + Copy + Send + Sync {}

impl<T: Fn(&mut f32, f32) + Copy + Send + Sync> ReduceOp for T {}

/// `acc += m`. Also `Reducer::Mean`: its division is the finalize sweep.
#[inline(always)]
pub(crate) fn sum(acc: &mut f32, m: f32) {
    *acc += m;
}

/// `acc = max(acc, m)` as compare-and-store (a NaN message is dropped).
#[inline(always)]
pub(crate) fn max(acc: &mut f32, m: f32) {
    if m > *acc {
        *acc = m;
    }
}

/// `acc = min(acc, m)` as compare-and-store.
#[inline(always)]
pub(crate) fn min(acc: &mut f32, m: f32) {
    if m < *acc {
        *acc = m;
    }
}

/// `acc = m` — SDDMM's sink: the message *is* the edge's output row.
#[inline(always)]
pub(crate) fn store(acc: &mut f32, m: f32) {
    *acc = m;
}

/// Fold `w · m` with `r` (the fused template's scale slot, and the per-edge
/// scalar weight of `src · edge[0]`).
#[inline(always)]
pub(crate) fn scaled(w: f32, r: impl ReduceOp) -> impl ReduceOp {
    move |acc: &mut f32, m: f32| r(acc, w * m)
}

/// Resolve a runtime [`fg_ir::Reducer`] to its reduce op, once, outside
/// every loop: the continuation `$k` is compiled per op. `Mean` folds as a
/// sum; its division is the finalize sweep.
macro_rules! with_reduce_op {
    ($agg:expr, $k:expr) => {
        match $agg {
            fg_ir::Reducer::Sum | fg_ir::Reducer::Mean => ($k)($crate::ops::sum),
            fg_ir::Reducer::Max => ($k)($crate::ops::max),
            fg_ir::Reducer::Min => ($k)($crate::ops::min),
        }
    };
}
pub(crate) use with_reduce_op;

// Storage tiers and the combine primitive.
//
// An operand row reaches the arithmetic as `f32` in one of three ways, chosen
// per storage type at compile time:
//
// * `f32` rows are read in place (`load` is the identity);
// * `bf16` rows decode inline (`load` is one shift, so the loop still
//   vectorizes);
// * `f16` rows (`STAGED_WIDEN`) are widened `WIDEN_CHUNK` elements at a time
//   into a stack buffer, so the 8-wide F16C decode stays out of the
//   arithmetic loop, and the same loop then runs on the `f32` chunk.

/// `chunk` as `f32`: itself when it already is, else widened into `buf`.
#[inline(always)]
fn staged<'a, E: FeatElem>(chunk: &'a [E], buf: &'a mut [f32; WIDEN_CHUNK]) -> &'a [f32] {
    match E::as_f32(chunk) {
        Some(wide) => wide,
        None => {
            let wide = &mut buf[..chunk.len()];
            E::widen(chunk, wide);
            wide
        }
    }
}

/// Fold the row `a` into `out`, element by element.
#[inline(always)]
pub(crate) fn combine<R: ReduceOp, A: FeatElem>(r: R, out: &mut [f32], a: &[A]) {
    if !A::STAGED_WIDEN {
        for (o, &x) in out.iter_mut().zip(a) {
            r(o, x.load());
        }
        return;
    }
    let mut buf = [0.0; WIDEN_CHUNK];
    for (oc, ac) in out.chunks_mut(WIDEN_CHUNK).zip(a.chunks(WIDEN_CHUNK)) {
        combine(r, oc, staged(ac, &mut buf));
    }
}

/// Fold `f(a[i], b[i])` into `out`, element by element.
#[inline(always)]
pub(crate) fn combine2<R: ReduceOp, A: FeatElem, B: FeatElem>(
    r: R,
    out: &mut [f32],
    a: &[A],
    b: &[B],
    f: impl Fn(f32, f32) -> f32 + Copy,
) {
    if !(A::STAGED_WIDEN || B::STAGED_WIDEN) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            r(o, f(x.load(), y.load()));
        }
        return;
    }
    let (mut ba, mut bb) = ([0.0; WIDEN_CHUNK], [0.0; WIDEN_CHUNK]);
    for ((oc, ac), bc) in out
        .chunks_mut(WIDEN_CHUNK)
        .zip(a.chunks(WIDEN_CHUNK))
        .zip(b.chunks(WIDEN_CHUNK))
    {
        combine2(r, oc, staged(ac, &mut ba), staged(bc, &mut bb), f);
    }
}

/// Independent partial sums [`dot`] keeps, so its loop vectorizes instead of
/// waiting on one add chain.
const DOT_LANES: usize = 8;

/// `Σ a[i] · b[i]` in `f32`. Product `i` goes to lane `i % DOT_LANES`, each
/// lane sums in index order and the lanes meet in one fixed tree — the value
/// depends on the operands only, never on the schedule or the target ISA.
#[inline(always)]
pub(crate) fn dot<A: FeatElem, B: FeatElem>(a: &[A], b: &[B]) -> f32 {
    if A::STAGED_WIDEN || B::STAGED_WIDEN {
        let (mut ba, mut bb) = ([0.0; WIDEN_CHUNK], [0.0; WIDEN_CHUNK]);
        let mut acc = 0.0;
        for (ac, bc) in a.chunks(WIDEN_CHUNK).zip(b.chunks(WIDEN_CHUNK)) {
            acc += dot(staged(ac, &mut ba), staged(bc, &mut bb));
        }
        return acc;
    }
    let mut lanes = [0f32; DOT_LANES];
    let (ac, bc) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let tail = ac.remainder().iter().zip(bc.remainder());
    for (x, y) in ac.zip(bc) {
        for ((l, &p), &q) in lanes.iter_mut().zip(x).zip(y) {
            *l += p.load() * q.load();
        }
    }
    for (l, (&p, &q)) in lanes.iter_mut().zip(tail) {
        *l += p.load() * q.load();
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
}

/// A per-edge message function, evaluated straight into a sink row.
pub(crate) trait MessageOp: Sync {
    /// True when the op evaluates whole output rows, so a pass over it is
    /// never column-tiled.
    const WHOLE_ROWS: bool = false;

    /// Operand bytes read per edge for a `w`-column tile. The skeleton adds
    /// the sink row's own `4 · w`.
    fn bytes_per_edge(&self, w: usize) -> usize;

    /// Fold the message of edge `e` into the sink `to`.
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge);
}

/// A borrowed op is an op, so a template that takes its op by value (the
/// recognized ops are a few references wide and `Copy`) can still be handed
/// the interpreter, which owns widened operands, by reference.
impl<M: MessageOp> MessageOp for &M {
    const WHOLE_ROWS: bool = M::WHOLE_ROWS;

    fn bytes_per_edge(&self, w: usize) -> usize {
        (**self).bytes_per_edge(w)
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        (**self).edge(r, to, e)
    }
}

/// One edge `eid = (src → dst)`.
#[derive(Clone, Copy)]
pub(crate) struct Edge {
    pub src: u32,
    pub dst: u32,
    pub eid: u32,
}

/// Where a message lands. `cols` is the FDS tile the pass covers and `out`
/// holds exactly those columns of the sink row (for [`HeadDot`], `cols`
/// covers the reduce axis instead and `out` is the whole edge row).
pub(crate) struct Sink<'a> {
    pub out: &'a mut [f32],
    pub cols: Range<usize>,
    /// Scratch owned by the parallel band, for ops that stage a message.
    pub scratch: &'a mut Vec<f32>,
}

impl<'a> Sink<'a> {
    pub(crate) fn new(out: &'a mut [f32], cols: Range<usize>, scratch: &'a mut Vec<f32>) -> Self {
        Self { out, cols, scratch }
    }
}

/// Resolve a runtime [`fg_ir::pattern::ElemOp`] to a closure type, once,
/// outside every loop: the continuation `$k` is compiled per operator.
macro_rules! with_elem_op {
    ($op:expr, $k:expr) => {
        match $op {
            fg_ir::pattern::ElemOp::Add => ($k)(|a: f32, b: f32| a + b),
            fg_ir::pattern::ElemOp::Mul => ($k)(|a: f32, b: f32| a * b),
            fg_ir::pattern::ElemOp::Sub => ($k)(|a: f32, b: f32| a - b),
        }
    };
}

/// `msg[i] = rows[k][i]` with `k` the edge's source vertex or, `BY_EDGE`,
/// its edge id.
#[derive(Clone, Copy)]
pub(crate) struct CopyRow<'a, V, const BY_EDGE: bool> {
    pub rows: &'a Dense2<V>,
}
/// `msg[i] = src[i]` (GCN aggregation).
pub(crate) type CopySrc<'a, V> = CopyRow<'a, V, false>;
/// `msg[i] = edge[i]`.
pub(crate) type CopyEdge<'a> = CopyRow<'a, f32, true>;

impl<V: FeatElem, const BY_EDGE: bool> MessageOp for CopyRow<'_, V, BY_EDGE> {
    fn bytes_per_edge(&self, w: usize) -> usize {
        w * size_of::<V>()
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        let k = if BY_EDGE { e.eid } else { e.src };
        combine(r, to.out, &self.rows.row(k as usize)[to.cols.clone()]);
    }
}

/// `msg[i] = f(src[i], other[i])` with `other` the destination's row of `b`
/// or, `BY_EDGE`, the edge's.
#[derive(Clone, Copy)]
pub(crate) struct SrcZip<'a, V, B, F, const BY_EDGE: bool> {
    pub x: &'a Dense2<V>,
    pub b: &'a Dense2<B>,
    pub f: F,
}
/// `msg[i] = f(src[i], edge[i])`.
pub(crate) type SrcEdge<'a, V, F> = SrcZip<'a, V, f32, F, true>;
/// `msg[i] = f(src[i], dst[i])`.
pub(crate) type SrcDst<'a, V, F> = SrcZip<'a, V, V, F, false>;

impl<V: FeatElem, B: FeatElem, F, const BY_EDGE: bool> MessageOp for SrcZip<'_, V, B, F, BY_EDGE>
where
    F: Fn(f32, f32) -> f32 + Copy + Sync,
{
    /// A destination row is shared by all of the destination's edges and
    /// stays cached across them, so only an edge row is charged per edge.
    fn bytes_per_edge(&self, w: usize) -> usize {
        w * (size_of::<V>() + if BY_EDGE { size_of::<B>() } else { 0 })
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        let k = if BY_EDGE { e.eid } else { e.dst };
        let (a, b) = (self.x.row(e.src as usize), self.b.row(k as usize));
        combine2(r, to.out, &a[to.cols.clone()], &b[to.cols.clone()], self.f);
    }
}

/// `msg[i] = src[i] · edge[0]` (attention-weighted aggregation).
#[derive(Clone, Copy)]
pub(crate) struct SrcScalar<'a, V> {
    pub x: &'a Dense2<V>,
    pub w: &'a Dense2<f32>,
}

impl<V: FeatElem> MessageOp for SrcScalar<'_, V> {
    fn bytes_per_edge(&self, w: usize) -> usize {
        w * size_of::<V>() + size_of::<f32>()
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        let r = scaled(self.w.at(e.eid as usize, 0), r);
        combine(r, to.out, &self.x.row(e.src as usize)[to.cols.clone()]);
    }
}

/// `msg[i] = relu(Σ_k (src[k] + dst[k]) · W[k][i])` (MLP aggregation,
/// Fig. 3b). The output axis is tiled by the skeleton (`cols`); the reduce
/// axis is walked in index order, which any `reduce_tiles` split of it is.
#[derive(Clone, Copy)]
pub(crate) struct Mlp<'a, V> {
    pub x: &'a Dense2<V>,
    pub xd: &'a Dense2<V>,
    pub w: &'a Dense2<f32>,
}

impl<V: FeatElem> MessageOp for Mlp<'_, V> {
    /// Both vertex rows, plus the weight tile streamed once per edge.
    fn bytes_per_edge(&self, w: usize) -> usize {
        self.w.rows() * (2 * size_of::<V>() + w * size_of::<f32>())
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        // Scratch: the `src + dst` row, then the accumulator tile.
        to.scratch.resize(self.w.rows() + to.cols.len(), 0.0);
        let (tmp, acc) = to.scratch.split_at_mut(self.w.rows());
        let (srow, drow) = (self.x.row(e.src as usize), self.xd.row(e.dst as usize));
        for ((t, &a), &b) in tmp.iter_mut().zip(srow).zip(drow) {
            *t = a.load() + b.load();
        }
        acc.fill(0.0);
        for (k, &tv) in tmp.iter().enumerate() {
            for (a, &wv) in acc.iter_mut().zip(&self.w.row(k)[to.cols.clone()]) {
                *a += tv * wv;
            }
        }
        combine(move |o: &mut f32, a: f32| r(o, a.max(0.0)), to.out, acc);
    }
}

/// Interpreter fallback: correct for every expressible UDF. Evaluates whole
/// output rows ([`MessageOp::WHOLE_ROWS`]). The interpreter
/// reads scalars at arbitrary indices — there is no row stream to decode on
/// the fly — so half-precision vertex tensors are widened once per run.
pub(crate) struct Interp<'a> {
    udf: &'a Udf,
    x: Cow<'a, Dense2<f32>>,
    xd: Option<Cow<'a, Dense2<f32>>>,
    xe: Option<&'a Dense2<f32>>,
    params: &'a [&'a Dense2<f32>],
}

/// `x` as an `f32` tensor: itself when it is one, else a dequantized copy.
fn widened<V: FeatElem>(x: &Dense2<V>) -> Cow<'_, Dense2<f32>> {
    match (x as &dyn Any).downcast_ref::<Dense2<f32>>() {
        Some(wide) => Cow::Borrowed(wide),
        None => Cow::Owned(dequantize(x)),
    }
}

impl<'a> Interp<'a> {
    pub(crate) fn new<V: FeatElem>(udf: &'a Udf, inputs: &GraphTensors<'a, f32, V>) -> Self {
        Self {
            udf,
            x: widened(inputs.vertex),
            xd: inputs.vertex_dst.map(widened),
            xe: inputs.edge,
            params: inputs.params,
        }
    }

    /// Fold the UDF's whole output row for edge `e` into `out`.
    #[inline(always)]
    pub(crate) fn eval(&self, r: impl ReduceOp, out: &mut [f32], e: Edge) {
        // An operand the UDF declares no length for is never read.
        let (udf, x, xd) = (self.udf, &*self.x, self.xd.as_deref().unwrap_or(&self.x));
        let ctx = EdgeCtx {
            src: if udf.src_len > 0 { x.row(e.src as usize) } else { &[] },
            dst: if udf.dst_len > 0 { xd.row(e.dst as usize) } else { &[] },
            edge: match self.xe {
                Some(xe) if udf.edge_len > 0 => xe.row(e.eid as usize),
                _ => &[],
            },
        };
        eval_udf(udf, &ctx, self.params, out, r);
    }
}

impl MessageOp for Interp<'_> {
    const WHOLE_ROWS: bool = true;

    fn bytes_per_edge(&self, _: usize) -> usize {
        (self.udf.src_len + self.udf.dst_len + self.udf.edge_len) * size_of::<f32>()
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        self.eval(r, to.out, e);
    }
}

/// `out[h] = Σ_k src[h·d+k] · dst[h·d+k]`: multi-head dot (Fig. 4b) over
/// whole heads or, `ONE_HEAD`, dot-product attention (Fig. 4a) over the tile
/// `cols` of its *reduce* axis, so that a pass folds a partial dot.
#[derive(Clone, Copy)]
pub(crate) struct HeadDot<'a, V, const ONE_HEAD: bool> {
    pub x: &'a Dense2<V>,
    pub xd: &'a Dense2<V>,
    pub d: usize,
}

pub(crate) type Dot<'a, V> = HeadDot<'a, V, true>;
pub(crate) type MultiHeadDot<'a, V> = HeadDot<'a, V, false>;

impl<V: FeatElem, const ONE_HEAD: bool> MessageOp for HeadDot<'_, V, ONE_HEAD> {
    fn bytes_per_edge(&self, w: usize) -> usize {
        2 * w * size_of::<V>()
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        let (a, b) = (self.x.row(e.src as usize), self.xd.row(e.dst as usize));
        if ONE_HEAD {
            return r(&mut to.out[0], dot(&a[to.cols.clone()], &b[to.cols.clone()]));
        }
        for (h, o) in to.out.iter_mut().enumerate() {
            let head = h * self.d..(h + 1) * self.d;
            r(o, dot(&a[head.clone()], &b[head]));
        }
    }
}

/// A per-edge scalar score (the SDDMM half of the fused operator).
pub(crate) trait ScoreOp: Sync {
    /// The score of `dst`'s in-edges, with the destination-side operand
    /// hoisted out of the row's edge loop.
    fn for_dst(&self, dst: u32) -> impl Fn(Edge) -> f32 + '_;

    /// The largest score among `edges`, all into `dst` (−∞ if there are
    /// none).
    fn row_max(&self, dst: u32, edges: impl Iterator<Item = Edge>) -> f32 {
        edges
            .map(self.for_dst(dst))
            .fold(f32::NEG_INFINITY, f32::max)
    }
}

/// GAT additive attention, `leaky_relu(sl[src] + sr[dst])`.
pub(crate) struct GatScore<'a, V> {
    sl: &'a Dense2<V>,
    sr: &'a Dense2<V>,
    slope: f32,
}

#[inline(always)]
pub(crate) fn leaky_relu(v: f32, slope: f32) -> f32 {
    if v > 0.0 { v } else { slope * v }
}

impl<V: FeatElem> ScoreOp for GatScore<'_, V> {
    #[inline(always)]
    fn for_dst(&self, dst: u32) -> impl Fn(Edge) -> f32 + '_ {
        let sr = self.sr.at(dst as usize, 0).load();
        move |e| leaky_relu(self.sl.at(e.src as usize, 0).load() + sr, self.slope)
    }

    /// Leaky-relu is monotonic, so the row's max score is
    /// `leaky(max sl[src] + sr[dst])`: the per-edge work collapses to one
    /// load + compare.
    #[inline(always)]
    fn row_max(&self, dst: u32, edges: impl Iterator<Item = Edge>) -> f32 {
        let sl = |e: Edge| self.sl.at(e.src as usize, 0).load();
        let z = edges.map(sl).fold(f32::NEG_INFINITY, f32::max);
        if z > f32::NEG_INFINITY {
            leaky_relu(z + self.sr.at(dst as usize, 0).load(), self.slope)
        } else {
            z
        }
    }
}

/// Any scalar score UDF, through the interpreter.
pub(crate) struct UdfScore<'a>(Interp<'a>);

impl ScoreOp for UdfScore<'_> {
    #[inline(always)]
    fn for_dst(&self, _: u32) -> impl Fn(Edge) -> f32 + '_ {
        move |e| {
            let mut s = [0f32];
            self.0.eval(store, &mut s, e);
            s[0]
        }
    }
}

/// What a template does with a lowered UDF, compiled once per message op.
pub(crate) trait WithMessage {
    type Out;
    fn run<M: MessageOp + Copy>(self, op: M) -> Self::Out;
}

/// The one `KernelPattern` → message-op lowering, shared by every template
/// on both targets. The dot patterns reduce rather than map element-wise:
/// only the SDDMM templates give them their own op ([`HeadDot`]); here they,
/// like every unrecognized UDF, run the interpreter.
pub(crate) fn lower<'a, V: FeatElem, K: WithMessage>(
    udf: &'a Udf,
    pattern: KernelPattern,
    inputs: &GraphTensors<'a, f32, V>,
    k: K,
) -> K::Out {
    let (x, xd) = (inputs.vertex, inputs.dst_tensor());
    // Present whenever the pattern reads it: `validate` checked.
    let xe = || inputs.edge.expect("validated");
    match pattern {
        KernelPattern::CopySrc => k.run(CopySrc { rows: x }),
        KernelPattern::CopyEdge => k.run(CopyEdge { rows: xe() }),
        KernelPattern::SrcOpEdge(op) => with_elem_op!(op, |f| k.run(SrcEdge { x, b: xe(), f })),
        KernelPattern::SrcOpDst(op) => with_elem_op!(op, |f| k.run(SrcDst { x, b: xd, f })),
        KernelPattern::SrcMulEdgeScalar => k.run(SrcScalar { x, w: xe() }),
        KernelPattern::MlpSrcDst => k.run(Mlp {
            x,
            xd,
            w: inputs.params[0],
        }),
        _ => k.run(&Interp::new(udf, inputs)),
    }
}

/// What a fused template does with a lowered score and message op.
pub(crate) trait WithFused {
    type Out;
    fn run<S: ScoreOp, M: MessageOp>(self, score: &S, msg: &M) -> Self::Out;
}

/// The fused operator's lowering, shared by both targets: the GAT score over
/// a copy-src message, else the interpreted score over a copy-src or an
/// interpreted message.
pub(crate) fn lower_fused<'a, V: FeatElem, K: WithFused>(
    op: &'a FusedOp,
    pattern: FusedPattern,
    inputs: &FusedInputs<'a, f32, V>,
    k: K,
) -> K::Out {
    let rows = inputs.message.vertex;
    match pattern {
        // Recognized only over a copy-src message.
        FusedPattern::GatAttention { slope } => {
            let (sl, sr) = (inputs.score.vertex, inputs.score.dst_tensor());
            k.run(
                &GatScore {
                    sl,
                    sr,
                    slope: slope as f32,
                },
                &CopySrc { rows },
            )
        }
        FusedPattern::Generic => {
            let score = UdfScore(Interp::new(&op.score, &inputs.score));
            if KernelPattern::of(&op.message) == KernelPattern::CopySrc {
                k.run(&score, &CopySrc { rows })
            } else {
                k.run(&score, &Interp::new(&op.message, &inputs.message))
            }
        }
    }
}
