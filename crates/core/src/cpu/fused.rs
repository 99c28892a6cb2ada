//! CPU fused SDDMM → (softmax) → SpMM template.
//!
//! The unfused composition materializes an `|E| × d` edge tensor between the
//! SDDMM and SpMM templates (three full passes over the edge set for an
//! attention layer). This kernel walks each CSR partition and evaluates the
//! edge score *inside* the aggregation loop, combining the scaled message
//! directly into the destination row.
//!
//! The softmax variant streams a per-destination running max in a first
//! (exp-free) pass, then recomputes each score in the aggregate pass,
//! combining `exp(s - m[dst]) · message` unnormalized while accumulating the
//! per-destination exp-sum, and closes with one `O(|V|·d)` row-scale by
//! `1 / sum[dst]`. One `exp` per edge; peak intermediate state is two
//! `|V|`-length f32 vectors — never the `|E| × d` normalized-score tensor.
//! Those two vectors are handed back ([`SoftmaxStats`]): they are all a
//! backward pass needs to recompute every edge's weight, which is what
//! [`CpuFused::attention_backward`] does in one more sweep.

use fg_graph::{Csr, Graph};
use fg_ir::{FusedOp, FusedPattern};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::{Dense2, FeatElem, FeatureDtype};

use crate::cpu::skeleton::{DstMajor, InEdges};
use crate::cpu::spmm::CpuSpmmOptions;
use crate::error::KernelError;
use crate::inputs::{check_shape, Dims, FusedInputs, VertexRows};
use crate::ops::{self, leaky_relu, Edge, MessageOp, ReduceOp, ScoreOp, Sink, WithFused};
use crate::util::SharedRows;
use crate::{AttentionBackward, RunStats, SoftmaxStats};

/// A compiled CPU fused-attention kernel over a destination-major CSR of
/// any shape (see [`CpuSpmm`](crate::cpu::spmm::CpuSpmm)): one output row
/// per CSR row.
pub struct CpuFused<'g> {
    op: FusedOp,
    pattern: FusedPattern,
    plan: DstMajor<'g>,
}

impl CpuFused<'static> {
    /// Validate and build the execution plan for `graph`, owning what it
    /// runs on. Reuses the SpMM template options (1D source partitions +
    /// worker threads) — the traversal is the same, only the per-edge work
    /// differs.
    pub fn compile(
        graph: &Graph,
        op: &FusedOp,
        opts: &CpuSpmmOptions,
    ) -> Result<Self, KernelError> {
        let k = CpuFused::on_csr(graph.in_csr(), op, opts)?;
        Ok(CpuFused {
            plan: k.plan.into_owned(),
            ..k
        })
    }
}

impl<'g> CpuFused<'g> {
    /// Validate and build the plan for `csr` (`num_rows` destinations by
    /// `num_cols` sources); a one-partition plan borrows it.
    pub fn on_csr(csr: &'g Csr, op: &FusedOp, opts: &CpuSpmmOptions) -> Result<Self, KernelError> {
        op.validate()?;
        Ok(Self {
            op: op.clone(),
            pattern: FusedPattern::of(op),
            plan: DstMajor::build(csr, opts)?,
        })
    }

    fn dims(&self) -> Dims {
        Dims {
            src: self.plan.num_cols,
            dst: self.plan.num_rows,
            edges: self.plan.num_edges,
        }
    }

    /// The recognized fused pattern (which score op will run).
    pub fn pattern(&self) -> FusedPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (partitioned CSR + degree
    /// array).
    pub fn mem_bytes(&self) -> u64 {
        self.plan.mem_bytes()
    }

    /// Execute the kernel. As in the SpMM template, vertex operands of both
    /// UDFs may be stored as `f32` or `bf16` (`V`).
    pub fn run<V: FeatElem>(
        &self,
        inputs: &FusedInputs<'_, f32, V>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        inputs.validate(&self.op, self.dims(), out)?;
        let exec = Exec {
            k: self,
            dtype: V::DTYPE,
            out,
        };
        let softmax = ops::lower_fused(&self.op, self.pattern, inputs, exec);
        Ok(RunStats {
            softmax,
            ..RunStats::default()
        })
    }

    /// Execute a GAT attention kernel whose operands come from any
    /// [`VertexRows`] sources, read where they lie: the messages `x` and
    /// source scores `sl` one row per source, the destination scores `sr`
    /// one row per destination.
    pub fn attend<X: VertexRows, L: VertexRows, R: VertexRows>(
        &self,
        x: &X,
        sl: &L,
        sr: &R,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let FusedPattern::GatAttention { slope } = self.pattern else {
            return Err(KernelError::Unsupported(
                "row sources feed the GAT attention pattern only",
            ));
        };
        let (src, dst, d) = (self.plan.num_cols, self.plan.num_rows, self.op.out_len());
        check_shape("vertex", (x.num_rows(), x.num_cols()), src, d, false)?;
        check_shape("vertex", (sl.num_rows(), sl.num_cols()), src, 1, false)?;
        check_shape("vertex_dst", (sr.num_rows(), sr.num_cols()), dst, 1, false)?;
        check_shape("out", out.shape(), dst, d, true)?;
        let score = ops::GatScore {
            sl,
            sr,
            slope: slope as f32,
        };
        let exec = Exec {
            k: self,
            dtype: X::Elem::DTYPE,
            out,
        };
        let softmax = exec.run(&score, &ops::CopySrc { rows: x });
        Ok(RunStats {
            softmax,
            ..RunStats::default()
        })
    }

    /// Softmax path: (A) stream a per-destination running max (exp-free),
    /// (B) combine `exp(s - max) · message` unnormalized while accumulating
    /// the per-destination exp-sum, (C) scale each output row by `1 / sum`.
    /// Returns the max and exp-sum vectors of (A) and (B).
    fn softmax<S: ScoreOp, M: MessageOp>(
        &self,
        score: &S,
        msg: &M,
        out: &mut Dense2<f32>,
    ) -> SoftmaxStats {
        let (n, d) = (self.plan.num_rows, self.op.out_len());

        // Pass A. Per edge: the source-side score operand plus the
        // running-max read/update (the destination operand is hoisted).
        let mut maxes = Dense2::full(n, 1, f32::NEG_INFINITY);
        let no_aux = &mut vec![(); n][..];
        let plan = &self.plan;
        let row_max = |edges: InEdges<'_>, max: &mut Sink<'_>, _: &mut ()| {
            let m = score.row_max(edges.dst, edges.iter());
            if m > max.out[0] {
                max.out[0] = m;
            }
        };
        plan.sweep("fused/max", 3 * 4, &mut maxes, 0..1, no_aux, row_max);

        // Pass B: every weight is exp(s - max) ∈ (0, 1]; the row with the
        // max contributes exactly 1, so any destination with an edge ends
        // with sum >= 1 and the accumulation cannot overflow. Per edge: the
        // score recompute, the message, the output combine and the exp-sum.
        out.fill(0.0);
        let mut sums = vec![0f32; n];
        let bytes = msg.bytes_per_edge(d) + 4 * d + 3 * 4;
        let row = |edges: InEdges<'_>, to: &mut Sink<'_>, sum: &mut f32| {
            let max = maxes.at(edges.dst as usize, 0);
            let score = score.for_dst(edges.dst);
            // Continue the row's running sum across partitions, so the
            // exp-sum folds in ascending-source order as the output does.
            let mut local = *sum;
            for e in edges.iter() {
                let w = (score(e) - max).exp();
                local += w;
                // softmax implies Sum aggregation (validated)
                msg.edge(ops::scaled(w, ops::sum), to, e);
            }
            *sum = local;
        };
        plan.sweep("fused/aggregate", bytes, out, 0..d, &mut sums, row);

        // Pass C: one O(|V|·d) row-scale closes the softmax normalization.
        let _span = span!("fused/normalize", "rows={n}");
        plan.for_each_row(out, |v, row| {
            if sums[v] > 0.0 {
                let inv = 1.0 / sums[v];
                for o in row {
                    *o *= inv;
                }
            }
        });
        SoftmaxStats {
            max: maxes.as_slice().to_vec(),
            sum: sums,
        }
    }

    /// Backward of the GAT attention forward `out[v] = Σ_{u→v} α_e · hw[u]`,
    /// `α = softmax_v(leaky_relu(sl[u] + sr[v]))`, from the forward's saved
    /// [`SoftmaxStats`] and the upstream gradient `grad = ∂L/∂out`.
    ///
    /// With `t_e = hw[u] · grad[v]`, the softmax Jacobian gives
    /// `∂L/∂s_e = α_e (t_e − Σ_{e'→v} α_e' t_e')`, and the subtracted sum is
    /// `out[v] · grad[v]` because `out[v]` *is* `Σ α_e' hw[u']` — one row dot
    /// per destination instead of a pass over the edges. So one sweep
    /// recomputes each `α_e` from the saved max / exp-sum, takes `t_e`, and
    /// writes `α_e` and `∂L/∂z_e` (through the leaky-ReLU) per edge while
    /// summing the latter per destination. The source-side reductions
    /// (`∂L/∂hw = Σ_out α_e grad[v]`, `∂L/∂sl = Σ_out ∂L/∂z_e`) run over the
    /// reverse graph and are the caller's: see [`AttentionBackward`].
    pub fn attention_backward(
        &self,
        inputs: &FusedInputs<'_, f32>,
        out: &Dense2<f32>,
        stats: &SoftmaxStats,
        grad: &Dense2<f32>,
    ) -> Result<AttentionBackward, KernelError> {
        let FusedPattern::GatAttention { slope } = self.pattern else {
            return Err(KernelError::Unsupported(
                "fused backward is implemented for the GAT attention pattern only",
            ));
        };
        let (n, m, d) = (self.plan.num_rows, self.plan.num_edges, self.op.out_len());
        inputs.validate(&self.op, self.dims(), out)?;
        for (what, got, expected) in [
            ("grad", grad.shape(), (n, d)),
            ("softmax max", (stats.max.len(), 1), (n, 1)),
            ("softmax sum", (stats.sum.len(), 1), (n, 1)),
        ] {
            if got != expected {
                let what = what.into();
                return Err(KernelError::Shape {
                    what,
                    expected,
                    got,
                });
            }
        }
        let _span = span!(
            "fused/backward",
            "d={d} parts={}",
            self.plan.num_partitions()
        );
        let (hw, sl, sr) = (
            inputs.message.vertex,
            inputs.score.vertex,
            inputs.score.dst_tensor(),
        );
        let slope = slope as f32;
        let plan = &self.plan;

        let mut c = Dense2::zeros(n, 1);
        plan.for_each_row(&mut c, |v, c| c[0] = ops::dot(out.row(v), grad.row(v)));

        let (mut alpha, mut gz) = (Dense2::zeros(m, 1), Dense2::zeros(m, 1));
        let mut g_dst = Dense2::zeros(n, 1);
        let alpha_rows = SharedRows::new(alpha.as_mut_slice(), 1);
        let gz_rows = SharedRows::new(gz.as_mut_slice(), 1);
        let no_aux = &mut vec![(); n][..];
        // Per edge: the source's `hw` row and score operand, two edge writes.
        let bytes = 4 * d + 3 * 4;
        let row = |edges: InEdges<'_>, to: &mut Sink<'_>, _: &mut ()| {
            let v = edges.dst as usize;
            let (max, inv, cv) = (stats.max[v], 1.0 / stats.sum[v], c.at(v, 0));
            let (sr, gv) = (sr.at(v, 0), grad.row(v));
            for e in edges.iter() {
                let z = sl.at(e.src as usize, 0) + sr;
                let a = (leaky_relu(z, slope) - max).exp() * inv;
                let gs = a * (ops::dot(hw.row(e.src as usize), gv) - cv);
                let g = if z > 0.0 { gs } else { slope * gs };
                // SAFETY: an edge id lies in exactly one (partition,
                // destination) segment and a destination in exactly one
                // band, so no other thread touches row `eid` of either
                // buffer during this sweep.
                unsafe {
                    alpha_rows.row_mut(e.eid as usize)[0] = a;
                    gz_rows.row_mut(e.eid as usize)[0] = g;
                }
                to.out[0] += g;
            }
        };
        plan.sweep("fused/backward_edges", bytes, &mut g_dst, 0..1, no_aux, row);
        Ok(AttentionBackward { alpha, gz, g_dst })
    }
}

/// The fused template over one lowered score and message op.
struct Exec<'a, 'g> {
    k: &'a CpuFused<'g>,
    dtype: FeatureDtype,
    out: &'a mut Dense2<f32>,
}

impl WithFused for Exec<'_, '_> {
    type Out = Option<SoftmaxStats>;

    fn run<S: ScoreOp, M: MessageOp>(self, score: &S, msg: &M) -> Option<SoftmaxStats> {
        let (k, out) = (self.k, self.out);
        let parts = k.plan.num_partitions();
        let _run_span = span!(
            "fused/run",
            "pattern={} dtype={} d={} parts={parts} softmax={}",
            k.pattern.name(),
            self.dtype,
            k.op.out_len(),
            k.op.softmax
        );
        counter_add(Counter::Partitions, parts as u64);
        if k.op.softmax {
            return Some(k.softmax(score, msg, out));
        }
        // One pass, `out[v] = agg of score · message`: the SpMM template
        // over a score-weighted message.
        let op = Weighted { score, msg };
        k.plan.aggregate("fused/aggregate", k.op.agg, 1, &op, out);
        None
    }
}

/// `score(e) · msg(e)`: the non-softmax fused operator as a message op.
struct Weighted<'a, S, M> {
    score: &'a S,
    msg: &'a M,
}

impl<S: ScoreOp, M: MessageOp> MessageOp for Weighted<'_, S, M> {
    /// The message's operands plus the score's.
    fn bytes_per_edge(&self, w: usize) -> usize {
        self.msg.bytes_per_edge(w) + 4 * 4
    }

    #[inline(always)]
    fn edge<R: ReduceOp>(&self, r: R, to: &mut Sink<'_>, e: Edge) {
        let w = self.score.for_dst(e.dst)(e);
        self.msg.edge(ops::scaled(w, r), to, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::GraphTensors;
    use crate::reference::fused_reference;
    use fg_ir::{Reducer, Udf};

    fn features(n: usize, d: usize, salt: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| {
            ((v * 31 + i * 7 + salt * 13) % 23) as f32 * 0.25 - 2.0
        })
    }

    fn check(g: &Graph, op: &FusedOp, inputs: &FusedInputs<'_, f32>, opts: &CpuSpmmOptions) {
        let k = CpuFused::compile(g, op, opts).unwrap();
        let mut out = Dense2::zeros(g.num_vertices(), op.out_len());
        k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_vertices(), op.out_len());
        fused_reference(g, op, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch: max diff {} (pattern {}, opts {opts:?})",
            out.max_abs_diff(&want),
            k.pattern().name()
        );
    }

    #[test]
    fn a_block_attends_into_the_square_graphs_rows_bitwise() {
        // Every third row as a bipartite block; destination scores are read
        // at the written rows, sources through an index into a reversed
        // copy.
        use crate::cpu::spmm::tests::block_of;
        use crate::inputs::Gathered;
        let g = fg_graph::uniform(200, 6, 5);
        let (d, op) = (16, FusedOp::gat_attention(16, 0.2));
        let dst: Vec<u32> = (0..200).step_by(3).collect();
        let csr = block_of(&g, &dst);
        let (x, sl, sr) = (features(200, d, 0), features(200, 1, 1), features(200, 1, 2));
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        let flip = |m: &Dense2<f32>| Dense2::from_fn(200, m.cols(), |r, c| m.at(199 - r, c));
        let (xf, slf, srf) = (flip(&x), flip(&sl), flip(&sr));
        let index: Vec<u32> = (0..200).map(|v| 199 - v).collect();
        let at_dst: Vec<u32> = dst.iter().map(|&v| 199 - v).collect();
        let mut whole = Dense2::zeros(200, d);
        let one = CpuSpmmOptions::with_threads(1, 1);
        CpuFused::compile(&g, &op, &one).unwrap().run(&inputs, &mut whole).unwrap();
        let want = Dense2::from_fn(dst.len(), d, |r, c| whole.at(dst[r] as usize, c));
        for (parts, threads) in [(1, 1), (3, 2), (7, 3)] {
            let opts = CpuSpmmOptions::with_threads(parts, threads);
            let k = CpuFused::on_csr(&csr, &op, &opts).unwrap();
            let mut out = Dense2::zeros(dst.len(), d);
            let (xg, slg) = (Gathered::new(&xf, &index, None), Gathered::new(&slf, &index, None));
            let srg = Gathered::new(&srf, &at_dst, None);
            let stats = k.attend(&xg, &slg, &srg, &mut out).unwrap().softmax;
            assert_eq!(out, want, "parts {parts}");
            assert_eq!(stats.map(|s| s.sum.len()), Some(dst.len()));
        }
    }

    #[test]
    fn gat_attention_matches_reference_across_schedules() {
        let g = fg_graph::uniform(200, 6, 5);
        let d = 32;
        let x = features(200, d, 0);
        let sl = features(200, 1, 1);
        let sr = features(200, 1, 2);
        let op = FusedOp::gat_attention(d, 0.2);
        assert_eq!(
            FusedPattern::of(&op),
            FusedPattern::GatAttention { slope: 0.2 }
        );
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        for parts in [1, 4, 7] {
            for threads in [1, 3] {
                check(&g, &op, &inputs, &CpuSpmmOptions::with_threads(parts, threads));
            }
        }
        // Every destination's exp-sum folds in ascending-source order
        // across partitions, so the partition count moves no bit.
        let run = |parts| {
            let opts = CpuSpmmOptions::with_threads(parts, 1);
            let mut out = Dense2::zeros(200, d);
            CpuFused::compile(&g, &op, &opts).unwrap().run(&inputs, &mut out).unwrap();
            out
        };
        let one = run(1);
        for parts in [4, 7] {
            assert_eq!(run(parts), one, "parts {parts}");
        }
    }

    #[test]
    fn generic_fused_softmax_message_udf() {
        // src_mul_edge message forces the interpreter path but keeps softmax.
        let g = fg_graph::uniform(80, 5, 3);
        let d = 8;
        let x = features(80, d, 0);
        let xe = features(g.num_edges(), d, 4);
        let sl = features(80, 1, 1);
        let sr = features(80, 1, 2);
        let mut op = FusedOp::gat_attention(d, 0.2);
        op.message = Udf::src_mul_edge(d);
        assert_eq!(FusedPattern::of(&op), FusedPattern::Generic);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::with_edge(&x, &xe),
        };
        check(&g, &op, &inputs, &CpuSpmmOptions::with_threads(3, 2));
    }

    #[test]
    fn plain_weighted_aggregation_without_softmax() {
        // dot-score × copy-src message, every reducer.
        let g = fg_graph::uniform(100, 4, 9);
        let d = 16;
        let x = features(100, d, 0);
        let p = features(100, d, 5);
        let mut op = FusedOp {
            score: Udf::dot(d),
            softmax: false,
            message: Udf::copy_src(d),
            agg: Reducer::Sum,
        };
        let inputs = FusedInputs {
            score: GraphTensors::vertex_only(&p),
            message: GraphTensors::vertex_only(&x),
        };
        for agg in [Reducer::Sum, Reducer::Mean, Reducer::Max, Reducer::Min] {
            op.agg = agg;
            check(&g, &op, &inputs, &CpuSpmmOptions::with_threads(3, 2));
        }
    }

    #[test]
    fn zero_degree_and_single_edge_destinations() {
        // vertex 0: no in-edges; vertex 1: exactly one in-edge (softmax
        // weight must be exactly 1); vertex 2: duplicate edges.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (0, 2), (1, 2)]);
        let x = features(3, 4, 0);
        let sl = features(3, 1, 1);
        let sr = features(3, 1, 2);
        let op = FusedOp::gat_attention(4, 0.2);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        let k = CpuFused::compile(&g, &op, &CpuSpmmOptions::single_thread(2)).unwrap();
        let mut out = Dense2::zeros(3, 4);
        k.run(&inputs, &mut out).unwrap();
        assert_eq!(out.row(0), &[0.0; 4], "zero-degree row stays zero");
        assert_eq!(out.row(1), x.row(0), "single-edge softmax weight is 1");
        let mut want = Dense2::zeros(3, 4);
        fused_reference(&g, &op, &inputs, &mut want).unwrap();
        assert!(out.approx_eq(&want, 1e-5));
    }

    #[test]
    fn large_negative_scores_stay_finite() {
        // Online softmax must not overflow exp() even when all scores are
        // hugely negative.
        let g = Graph::from_edges(2, &[(0, 1), (1, 1)]);
        let x = features(2, 4, 0);
        let sl = Dense2::from_fn(2, 1, |v, _| -1e30 - v as f32);
        let sr = Dense2::zeros(2, 1);
        let op = FusedOp::gat_attention(4, 0.2);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        let k = CpuFused::compile(&g, &op, &CpuSpmmOptions::single_thread(1)).unwrap();
        let mut out = Dense2::zeros(2, 4);
        k.run(&inputs, &mut out).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        let mut want = Dense2::zeros(2, 4);
        fused_reference(&g, &op, &inputs, &mut want).unwrap();
        assert!(out.approx_eq(&want, 1e-4));
    }

    #[test]
    fn softmax_run_hands_back_max_and_exp_sum_and_backward_rebuilds_the_weights() {
        // vertex 0 has no in-edges, vertex 1 one, vertex 3 three
        let g = Graph::from_edges(4, &[(0, 1), (0, 3), (1, 3), (2, 3), (3, 2)]);
        let (x, sl, sr) = (features(4, 6, 0), features(4, 1, 1), features(4, 1, 2));
        let op = FusedOp::gat_attention(6, 0.2);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        for parts in [1, 3] {
            let k = CpuFused::compile(&g, &op, &CpuSpmmOptions::with_threads(parts, 2)).unwrap();
            let mut out = Dense2::zeros(4, 6);
            let stats = k
                .run(&inputs, &mut out)
                .unwrap()
                .softmax
                .expect("softmax run");
            assert_eq!(stats.max[0], f32::NEG_INFINITY);
            assert_eq!(stats.sum[0], 0.0);
            assert_eq!(stats.sum[1], 1.0, "a lone edge is its own max");
            let score = |u: usize, v: usize| leaky_relu(sl.at(u, 0) + sr.at(v, 0), 0.2);
            let max3 = (0..3).map(|u| score(u, 3)).fold(f32::MIN, f32::max);
            assert_eq!(stats.max[3], max3);
            assert!(stats.sum[3] >= 1.0 && stats.sum[3] <= 3.0);

            let grad = features(4, 6, 3);
            let b = k.attention_backward(&inputs, &out, &stats, &grad).unwrap();
            let (indptr, srcs) = (g.in_csr().indptr(), g.in_csr().indices());
            for v in 0..4 {
                let seg = indptr[v]..indptr[v + 1];
                if seg.is_empty() {
                    assert_eq!(b.g_dst.at(v, 0), 0.0);
                    continue;
                }
                let total: f32 = seg.clone().map(|e| b.alpha.at(e, 0)).sum();
                assert!((total - 1.0).abs() < 1e-6, "weights of {v} sum to {total}");
                let gz: f32 = seg.clone().map(|e| b.gz.at(e, 0)).sum();
                assert!((gz - b.g_dst.at(v, 0)).abs() < 1e-5);
                // out[v] is the α-weighted sum of the source rows
                for c in 0..6 {
                    let want: f32 = seg
                        .clone()
                        .map(|e| b.alpha.at(e, 0) * x.at(srcs[e] as usize, c))
                        .sum();
                    assert!((out.at(v, c) - want).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn backward_rejects_other_patterns_and_mis_shaped_operands() {
        let g = fg_graph::uniform(10, 2, 1);
        let (x, s) = (features(10, 4, 0), features(10, 1, 1));
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&s, &s),
            message: GraphTensors::vertex_only(&x),
        };
        let opts = CpuSpmmOptions::single_thread(1);
        let gat = CpuFused::compile(&g, &FusedOp::gat_attention(4, 0.2), &opts).unwrap();
        let mut out = Dense2::zeros(10, 4);
        let stats = gat.run(&inputs, &mut out).unwrap().softmax.unwrap();
        let short = Dense2::<f32>::zeros(9, 4);
        assert!(matches!(
            gat.attention_backward(&inputs, &out, &stats, &short),
            Err(KernelError::Shape { .. })
        ));
        let truncated = SoftmaxStats {
            max: stats.max[..9].to_vec(),
            sum: stats.sum.clone(),
        };
        assert!(matches!(
            gat.attention_backward(&inputs, &out, &truncated, &out),
            Err(KernelError::Shape { .. })
        ));
        // a softmax whose score is not the additive GAT form
        let mut op = FusedOp::gat_attention(4, 0.2);
        op.score = Udf::dot(4);
        let generic = CpuFused::compile(&g, &op, &opts).unwrap();
        assert!(matches!(
            generic.attention_backward(&inputs, &out, &stats, &out),
            Err(KernelError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_invalid_op_and_schedule() {
        let g = fg_graph::uniform(10, 2, 1);
        let mut op = FusedOp::gat_attention(4, 0.2);
        op.agg = Reducer::Max;
        assert!(matches!(
            CpuFused::compile(&g, &op, &CpuSpmmOptions::single_thread(1)),
            Err(KernelError::Fused(_))
        ));
        let op = FusedOp::gat_attention(4, 0.2);
        let opts = CpuSpmmOptions {
            graph_partitions: 0,
            ..CpuSpmmOptions::single_thread(1)
        };
        assert!(matches!(
            CpuFused::compile(&g, &op, &opts),
            Err(KernelError::BadSchedule(_))
        ));
    }

    #[test]
    fn rejects_bad_inputs_at_run_time() {
        let g = fg_graph::uniform(10, 2, 1);
        let op = FusedOp::gat_attention(8, 0.2);
        let k = CpuFused::compile(&g, &op, &CpuSpmmOptions::single_thread(1)).unwrap();
        let x = Dense2::<f32>::zeros(10, 4); // message wants 8 cols
        let sl = Dense2::zeros(10, 1);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sl),
            message: GraphTensors::vertex_only(&x),
        };
        let mut out = Dense2::zeros(10, 8);
        assert!(k.run(&inputs, &mut out).is_err());
    }
}
