//! GPU fused SDDMM → (softmax) → SpMM template: the row-block skeleton over
//! the shared score and message ops.
//!
//! Mirrors the CPU fused kernel on the [`fg_gpusim`] cost model: the softmax
//! variant is two launches (an exp-free score-max pass, then an aggregate
//! pass that recomputes each score and keeps the per-row exp-sum in a
//! register), the plain variant one launch. Both walk destination rows
//! block-parallel like the GPU SpMM template and never allocate the
//! `|E| × d` edge tensor — the inter-launch state is one `|V|`-length
//! max vector. The destination-side GAT score operand is loop-invariant per
//! row and consecutive across a block's rows, so it is fetched as one
//! coalesced read per block instead of one scattered read per edge.

use std::ops::Range;

use fg_gpusim::{BlockCtx, DeviceConfig, LaunchReport};
use fg_graph::Graph;
use fg_ir::{FusedOp, FusedPattern};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::gpu::skeleton::{charge_interp, gpu_stats, Grid, RowBlocks, F32};
use crate::inputs::{Dims, FusedInputs};
use crate::ops::{self, with_reduce_op, MessageOp, ReduceOp, ScoreOp, Sink, WithFused};
use crate::RunStats;

/// Template-level options for the GPU fused kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuFusedOptions {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Destination rows per block.
    pub rows_per_block: usize,
    /// Threads per block (the feature axis binds to `thread.x`).
    pub threads_per_block: usize,
}

impl Default for GpuFusedOptions {
    fn default() -> Self {
        Self {
            device: DeviceConfig::v100(),
            rows_per_block: 32,
            threads_per_block: 256,
        }
    }
}

/// A compiled GPU fused-attention kernel.
pub struct GpuFused {
    op: FusedOp,
    pattern: FusedPattern,
    rows: RowBlocks,
}

impl GpuFused {
    /// Validate and build the plan.
    pub fn compile(
        graph: &Graph,
        op: &FusedOp,
        opts: &GpuFusedOptions,
    ) -> Result<Self, KernelError> {
        op.validate()?;
        let grid = Grid {
            device: opts.device,
            threads: opts.threads_per_block,
            per_block: opts.rows_per_block,
            items: graph.num_vertices(),
            shared_mem_bytes: 0,
        };
        Ok(Self {
            op: op.clone(),
            pattern: FusedPattern::of(op),
            rows: RowBlocks::build(graph, grid)?,
        })
    }

    /// The recognized fused pattern.
    pub fn pattern(&self) -> FusedPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (the CSR copy).
    pub fn mem_bytes(&self) -> u64 {
        self.rows.csr.mem_bytes()
    }

    /// Execute on the simulator; `RunStats::gpu_time_ms` sums the launches.
    pub fn run(
        &self,
        inputs: &FusedInputs<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let (n, m) = (self.rows.grid.items, self.rows.csr.nnz());
        inputs.validate(&self.op, Dims::square(n, m), out)?;
        let _run_span = span!(
            "gpu/fused/run",
            "pattern={} d={} grid={} softmax={}",
            self.pattern.name(),
            self.op.out_len(),
            self.rows.grid.grid_dim(),
            self.op.softmax
        );
        let passes = if self.op.softmax { 2 } else { 1 };
        counter_add(Counter::EdgesProcessed, passes * m as u64);
        let launches = ops::lower_fused(&self.op, self.pattern, inputs, Launch { k: self, out });
        Ok(gpu_stats(launches))
    }

    fn gat(&self) -> bool {
        matches!(self.pattern, FusedPattern::GatAttention { .. })
    }

    /// Pass A: stream scores, keep the per-destination running max. Exp-free.
    fn max_pass<S: ScoreOp>(&self, score: &S, m: &mut [f32]) -> LaunchReport {
        self.rows.launch("fg-fused-max", |rows, ctx| {
            self.charge_dst_terms(ctx, &rows);
            for dst in rows.clone() {
                m[dst] = score.row_max(dst as u32, self.rows.in_edges(dst));
                for _ in 0..self.rows.degree(dst) {
                    if self.gat() {
                        // leaky-relu is monotonic, so the row max is
                        // leaky(max sl[src] + t): one load + compare per edge
                        ctx.global_scattered(1, F32);
                    } else {
                        self.charge_score(ctx);
                    }
                    ctx.alu(1); // running-max compare
                }
                if self.gat() && self.rows.degree(dst) > 0 {
                    ctx.alu(2); // add + leaky select, once per row
                }
            }
            // write the max vector, coalesced across the block's rows
            ctx.global_contiguous(rows.start, rows.len(), F32);
        })
    }

    /// Pass B (or the only pass when softmax is off): recompute scores,
    /// combine `exp(s - max)`-weighted messages into the destination rows
    /// while keeping the exp-sum in a register, then scale the row by its
    /// reciprocal.
    fn aggregate<R: ReduceOp, S: ScoreOp, M: MessageOp>(
        &self,
        r: R,
        score: &S,
        msg: &M,
        m: &[f32],
        out: &mut Dense2<f32>,
    ) -> LaunchReport {
        let (op, d) = (&self.op, self.op.out_len());
        let (mut acc, mut scratch) = (vec![0f32; d], Vec::new());
        self.rows.launch("fg-fused-aggregate", |rows, ctx| {
            self.charge_dst_terms(ctx, &rows);
            if op.softmax {
                // read the max vector, coalesced across the block's rows
                ctx.global_contiguous(rows.start, rows.len(), F32);
            }
            let mut to = Sink::new(&mut acc, 0..d, &mut scratch);
            for dst in rows {
                let (score, max) = (score.for_dst(dst as u32), m[dst]);
                let mut sum = 0f32;
                self.rows
                    .reduce_row(ctx, op.agg, dst, &mut to, out, |e, to, ctx| {
                        self.charge_score(ctx);
                        let w = if op.softmax {
                            ctx.alu(2); // exp + sum update
                            let w = (score(e) - max).exp();
                            sum += w;
                            w
                        } else {
                            score(e)
                        };
                        if M::WHOLE_ROWS {
                            // an interpreted message: a blackbox per-thread loop
                            charge_interp(ctx, &op.message);
                        } else {
                            // copy-src, feature axis on thread.x: a coalesced row
                            ctx.global_contiguous(e.src as usize * d, d, F32);
                        }
                        msg.edge(ops::scaled(w, r), to, e);
                        ctx.alu(2 * d as u64); // scale + combine, one lane per element
                    });
                if op.softmax && sum > 0.0 {
                    // close the softmax in-register: one reciprocal + row
                    // scale (a Sum row, so finalize left it as accumulated)
                    ctx.alu(1 + d as u64);
                    let inv = 1.0 / sum;
                    for o in out.row_mut(dst) {
                        *o *= inv;
                    }
                }
            }
        })
    }

    /// Charge one coalesced read for the block's destination-side GAT score
    /// operands (loop-invariant per row, consecutive across the block's
    /// rows). No-op on the interpreter path, which reads per edge.
    fn charge_dst_terms(&self, ctx: &mut BlockCtx<'_>, rows: &Range<usize>) {
        if self.gat() {
            ctx.global_contiguous(rows.start, rows.len(), F32);
        }
    }

    /// The per-edge score: one scattered source read + add + select with the
    /// GAT destination operand hoisted, else the interpreter.
    fn charge_score(&self, ctx: &mut BlockCtx<'_>) {
        if self.gat() {
            ctx.global_scattered(1, F32);
            ctx.alu(2);
        } else {
            charge_interp(ctx, &self.op.score);
        }
    }
}

/// The fused launches over one lowered score and message op.
struct Launch<'a> {
    k: &'a GpuFused,
    out: &'a mut Dense2<f32>,
}

impl WithFused for Launch<'_> {
    type Out = Vec<LaunchReport>;

    fn run<S: ScoreOp, M: MessageOp>(self, score: &S, msg: &M) -> Vec<LaunchReport> {
        let (k, out) = (self.k, self.out);
        let mut m = vec![f32::NEG_INFINITY; k.rows.grid.items];
        let mut launches = Vec::new();
        if k.op.softmax {
            launches.push(k.max_pass(score, &mut m));
        }
        launches.push(with_reduce_op!(k.op.agg, |r| k.aggregate(r, score, msg, &m, out)));
        launches
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

    fn check(g: &Graph, op: &FusedOp, inputs: &FusedInputs<'_, f32>, opts: &GpuFusedOptions) -> RunStats {
        let k = GpuFused::compile(g, op, opts).unwrap();
        let mut out = Dense2::zeros(g.num_vertices(), op.out_len());
        let stats = k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_vertices(), op.out_len());
        fused_reference(g, op, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch: max diff {} (pattern {})",
            out.max_abs_diff(&want),
            k.pattern().name()
        );
        stats
    }

    #[test]
    fn gpu_gat_attention_matches_reference_and_reports_two_launches() {
        let g = fg_graph::uniform(150, 6, 5);
        let d = 32;
        let x = features(150, d, 0);
        let sl = features(150, 1, 1);
        let sr = features(150, 1, 2);
        let op = FusedOp::gat_attention(d, 0.2);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::vertex_only(&x),
        };
        let stats = check(&g, &op, &inputs, &GpuFusedOptions::default());
        assert_eq!(stats.gpu_launches.len(), 2, "max/sum pass + aggregate pass");
        assert!(stats.gpu_time_ms.unwrap() > 0.0);
    }

    #[test]
    fn gpu_plain_weighted_aggregation_is_one_launch() {
        let g = fg_graph::uniform(80, 4, 9);
        let d = 16;
        let x = features(80, d, 0);
        let p = features(80, d, 5);
        let op = FusedOp {
            score: Udf::dot(d),
            softmax: false,
            message: Udf::copy_src(d),
            agg: Reducer::Mean,
        };
        let inputs = FusedInputs {
            score: GraphTensors::vertex_only(&p),
            message: GraphTensors::vertex_only(&x),
        };
        let stats = check(&g, &op, &inputs, &GpuFusedOptions::default());
        assert_eq!(stats.gpu_launches.len(), 1);
    }

    #[test]
    fn gpu_generic_message_udf() {
        let g = fg_graph::uniform(60, 5, 3);
        let d = 8;
        let x = features(60, d, 0);
        let xe = features(g.num_edges(), d, 4);
        let sl = features(60, 1, 1);
        let sr = features(60, 1, 2);
        let mut op = FusedOp::gat_attention(d, 0.2);
        op.message = Udf::src_mul_edge(d);
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(&sl, &sr),
            message: GraphTensors::with_edge(&x, &xe),
        };
        check(&g, &op, &inputs, &GpuFusedOptions::default());
    }

    #[test]
    fn gpu_schedule_validation() {
        let g = fg_graph::uniform(10, 2, 1);
        let op = FusedOp::gat_attention(4, 0.2);
        let bad = GpuFusedOptions {
            rows_per_block: 0,
            ..Default::default()
        };
        assert!(matches!(
            GpuFused::compile(&g, &op, &bad),
            Err(KernelError::BadSchedule(_))
        ));
        let bad = GpuFusedOptions {
            threads_per_block: 1_000_000,
            ..Default::default()
        };
        assert!(matches!(
            GpuFused::compile(&g, &op, &bad),
            Err(KernelError::BadSchedule(_))
        ));
    }
}
