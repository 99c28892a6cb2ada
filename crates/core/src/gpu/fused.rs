//! GPU fused SDDMM → (softmax) → SpMM template (vertex-parallel).
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

use fg_gpusim::{launch, BlockCtx, DeviceConfig, GpuKernel};
use fg_graph::{Csr, Graph, VId};
use fg_ir::interp::{eval_udf, EdgeCtx};
use fg_ir::{FusedOp, FusedPattern, KernelPattern};
use fg_tensor::Dense2;
use fg_telemetry::{counter_add, span, Counter};

use crate::error::KernelError;
use crate::inputs::FusedInputs;
use crate::RunStats;

const F32: usize = std::mem::size_of::<f32>();

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
    csr: Csr,
    degrees: Vec<u32>,
    num_vertices: usize,
    num_edges: usize,
    opts: GpuFusedOptions,
}

impl GpuFused {
    /// Validate and build the plan.
    pub fn compile(graph: &Graph, op: &FusedOp, opts: &GpuFusedOptions) -> Result<Self, KernelError> {
        op.validate()?;
        if opts.rows_per_block == 0 {
            return Err(KernelError::BadSchedule("rows_per_block must be >= 1".into()));
        }
        if opts.threads_per_block == 0 || opts.threads_per_block > opts.device.max_threads_per_sm {
            return Err(KernelError::BadSchedule(format!(
                "threads_per_block {} out of range",
                opts.threads_per_block
            )));
        }
        counter_add(Counter::KernelCompiles, 1);
        Ok(Self {
            op: op.clone(),
            pattern: FusedPattern::of(op),
            csr: graph.in_csr().clone(),
            degrees: (0..graph.num_vertices() as VId)
                .map(|v| graph.in_degree(v) as u32)
                .collect(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            opts: *opts,
        })
    }

    /// The recognized fused pattern.
    pub fn pattern(&self) -> FusedPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (CSR copy + degree array).
    pub fn mem_bytes(&self) -> u64 {
        self.csr.mem_bytes() + (self.degrees.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Execute on the simulator; `RunStats::gpu_time_ms` sums the launches.
    pub fn run(
        &self,
        inputs: &FusedInputs<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        inputs.validate(&self.op, self.num_vertices, self.num_edges, out)?;
        let _run_span = span!(
            "gpu/fused/run",
            "pattern={} d={} grid={} softmax={}",
            self.pattern.name(),
            self.op.out_len(),
            self.grid_dim(),
            self.op.softmax
        );

        let mut launches = Vec::new();
        let mut m = vec![f32::NEG_INFINITY; self.num_vertices];
        if self.op.softmax {
            counter_add(Counter::EdgesProcessed, 2 * self.num_edges as u64);
            let mut pass_a = MaxKernel { plan: self, inputs, m: &mut m };
            launches.push(launch(&self.opts.device, &mut pass_a));
        } else {
            counter_add(Counter::EdgesProcessed, self.num_edges as u64);
        }
        let mut pass_b = AggregateKernel {
            plan: self,
            inputs,
            m: &m,
            out,
        };
        launches.push(launch(&self.opts.device, &mut pass_b));

        Ok(RunStats {
            gpu_time_ms: Some(launches.iter().map(|r| r.time_ms).sum()),
            gpu_launches: launches,
            softmax: None,
        })
    }

    fn grid_dim(&self) -> usize {
        self.num_vertices.div_ceil(self.opts.rows_per_block).max(1)
    }

    fn block_rows(&self, block: usize) -> std::ops::Range<usize> {
        let lo = block * self.opts.rows_per_block;
        let hi = (lo + self.opts.rows_per_block).min(self.num_vertices);
        lo..hi
    }

    /// Charge one coalesced read for the block's destination-side GAT score
    /// operands (loop-invariant per row, consecutive across the block's
    /// rows). No-op on the interpreter path, which reads per edge.
    fn account_dst_terms(&self, ctx: &mut BlockCtx<'_>, rows: &std::ops::Range<usize>) {
        if matches!(self.pattern, FusedPattern::GatAttention { .. }) {
            ctx.global_contiguous(rows.start, rows.len(), F32);
        }
    }

    /// The hoisted destination-side score operand for one row (charged by
    /// [`Self::account_dst_terms`]; 0.0 on the interpreter path).
    #[inline]
    fn dst_term(&self, inputs: &FusedInputs<'_, f32>, dst: VId) -> f32 {
        if matches!(self.pattern, FusedPattern::GatAttention { .. }) {
            inputs.score.dst_tensor().at(dst as usize, 0)
        } else {
            0.0
        }
    }

    /// Evaluate the per-edge score (fast path or interpreter) and charge the
    /// simulator for the operand reads + ALU.
    fn score(
        &self,
        ctx: &mut BlockCtx<'_>,
        inputs: &FusedInputs<'_, f32>,
        src: VId,
        dst: VId,
        eid: u32,
        dst_term: f32,
    ) -> f32 {
        if let FusedPattern::GatAttention { slope } = self.pattern {
            // one scattered source read + add + select (dst operand hoisted)
            ctx.global_scattered(1, F32);
            ctx.alu(2);
            let v = inputs.score.vertex.at(src as usize, 0) + dst_term;
            return if v > 0.0 { v } else { slope as f32 * v };
        }
        let udf = &self.op.score;
        let empty: [f32; 0] = [];
        if udf.src_len > 0 {
            ctx.global_scattered(udf.src_len, F32);
        }
        if udf.dst_len > 0 {
            ctx.global_scattered(udf.dst_len, F32);
        }
        if udf.edge_len > 0 {
            ctx.global_scattered(udf.edge_len, F32);
        }
        let ectx = EdgeCtx {
            src: if udf.src_len > 0 { inputs.score.vertex.row(src as usize) } else { &empty },
            dst: if udf.dst_len > 0 { inputs.score.dst_tensor().row(dst as usize) } else { &empty },
            edge: match inputs.score.edge {
                Some(e) if udf.edge_len > 0 => e.row(eid as usize),
                _ => &empty,
            },
        };
        ctx.warp_exec(1, udf.flops_per_edge() as u64);
        let mut out1 = [0f32; 1];
        eval_udf(udf, &ectx, inputs.score.params, &mut out1, |slot, v| *slot = v);
        out1[0]
    }
}

/// Pass A: stream scores, keep the per-destination running max. Exp-free.
struct MaxKernel<'a, 'b> {
    plan: &'a GpuFused,
    inputs: &'a FusedInputs<'b, f32>,
    m: &'a mut [f32],
}

impl GpuKernel for MaxKernel<'_, '_> {
    fn name(&self) -> &'static str {
        "fg-fused-max"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.opts.threads_per_block
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let rows = plan.block_rows(block);
        account_index_reads(plan, ctx, &rows);
        plan.account_dst_terms(ctx, &rows);
        for dst in rows.clone() {
            let dst = dst as VId;
            let t = plan.dst_term(self.inputs, dst);
            let srcs = plan.csr.row(dst);
            let base = plan.csr.row_start(dst);
            let mut mv = f32::NEG_INFINITY;
            if let FusedPattern::GatAttention { slope } = plan.pattern {
                // leaky-relu is monotonic: the row max is
                // leaky(max sl[src] + t) — one load + compare per edge.
                let mut z = f32::NEG_INFINITY;
                for &src in srcs {
                    ctx.global_scattered(1, F32);
                    ctx.alu(1); // running-max compare
                    z = z.max(self.inputs.score.vertex.at(src as usize, 0));
                }
                if z > f32::NEG_INFINITY {
                    ctx.alu(2); // add + leaky select, once per row
                    let v = z + t;
                    mv = if v > 0.0 { v } else { slope as f32 * v };
                }
            } else {
                for (i, &src) in srcs.iter().enumerate() {
                    let v = plan.score(ctx, self.inputs, src, dst, (base + i) as u32, t);
                    if v > mv {
                        mv = v;
                    }
                    ctx.alu(1); // running-max compare
                }
            }
            self.m[dst as usize] = mv;
        }
        // write the max vector, coalesced across the block's rows
        ctx.global_contiguous(rows.start, rows.len(), F32);
    }
}

/// Pass B (or the only pass when softmax is off): recompute scores, combine
/// `exp(s - max)`-weighted messages into the destination rows while keeping
/// the exp-sum in a register, then scale the row by its reciprocal.
struct AggregateKernel<'a, 'b> {
    plan: &'a GpuFused,
    inputs: &'a FusedInputs<'b, f32>,
    m: &'a [f32],
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for AggregateKernel<'_, '_> {
    fn name(&self) -> &'static str {
        "fg-fused-aggregate"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.opts.threads_per_block
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let op = &plan.op;
        let d = op.out_len();
        let rows = plan.block_rows(block);
        let copy_src = matches!(plan.pattern, FusedPattern::GatAttention { .. })
            || KernelPattern::of(&op.message) == KernelPattern::CopySrc;
        let empty: [f32; 0] = [];
        account_index_reads(plan, ctx, &rows);
        plan.account_dst_terms(ctx, &rows);
        if op.softmax {
            // read the max vector, coalesced across the block's rows
            ctx.global_contiguous(rows.start, rows.len(), F32);
        }

        let mut acc = vec![0f32; d];
        let mut msg = vec![0f32; d];
        for dst in rows {
            let dst = dst as VId;
            let t = plan.dst_term(self.inputs, dst);
            let srcs = plan.csr.row(dst);
            let base = plan.csr.row_start(dst);
            acc.fill(op.agg.identity());
            let mv = if op.softmax { self.m[dst as usize] } else { 0.0 };
            let mut sum = 0f32;
            for (i, &src) in srcs.iter().enumerate() {
                let eid = (base + i) as u32;
                let raw = plan.score(ctx, self.inputs, src, dst, eid, t);
                let w = if op.softmax {
                    ctx.alu(2); // exp + sum update
                    let w = (raw - mv).exp();
                    sum += w;
                    w
                } else {
                    raw
                };
                let mrow: &[f32] = if copy_src {
                    // feature axis on thread.x: coalesced row read
                    ctx.global_contiguous(src as usize * d, d, F32);
                    self.inputs.message.vertex.row(src as usize)
                } else {
                    let mudf = &op.message;
                    if mudf.src_len > 0 {
                        ctx.global_scattered(mudf.src_len, F32);
                    }
                    if mudf.dst_len > 0 {
                        ctx.global_scattered(mudf.dst_len, F32);
                    }
                    if mudf.edge_len > 0 {
                        ctx.global_scattered(mudf.edge_len, F32);
                    }
                    let ectx = EdgeCtx {
                        src: if mudf.src_len > 0 {
                            self.inputs.message.vertex.row(src as usize)
                        } else {
                            &empty
                        },
                        dst: if mudf.dst_len > 0 {
                            self.inputs.message.dst_tensor().row(dst as usize)
                        } else {
                            &empty
                        },
                        edge: match self.inputs.message.edge {
                            Some(e) if mudf.edge_len > 0 => e.row(eid as usize),
                            _ => &empty,
                        },
                    };
                    ctx.warp_exec(1, mudf.flops_per_edge() as u64);
                    eval_udf(mudf, &ectx, self.inputs.message.params, &mut msg, |slot, v| {
                        *slot = v
                    });
                    &msg
                };
                for (a, &v) in acc.iter_mut().zip(mrow) {
                    *a = op.agg.combine(*a, w * v);
                }
                ctx.alu(2 * d as u64); // scale + combine, one lane per element
            }
            if op.softmax && sum > 0.0 {
                // close the softmax in-register: one reciprocal + row scale
                ctx.alu(1 + d as u64);
                let inv = 1.0 / sum;
                for a in acc.iter_mut() {
                    *a *= inv;
                }
            }
            finalize_row(plan, ctx, self.out, dst, &acc, d);
        }
    }
}

fn finalize_row(
    plan: &GpuFused,
    ctx: &mut BlockCtx<'_>,
    out: &mut Dense2<f32>,
    dst: VId,
    acc: &[f32],
    d: usize,
) {
    // Softmax weights already sum to one; finalize still handles mean /
    // zero-degree normalization for the plain path.
    let deg = plan.degrees[dst as usize] as usize;
    let orow = out.row_mut(dst as usize);
    for (o, &a) in orow.iter_mut().zip(acc) {
        *o = plan.op.agg.finalize(a, deg);
    }
    ctx.global_contiguous(dst as usize * d, d, F32);
}

/// Index reads for a block: indptr entries + column indices, coalesced.
#[inline]
fn account_index_reads(plan: &GpuFused, ctx: &mut BlockCtx<'_>, rows: &std::ops::Range<usize>) {
    let start = plan.csr.row_start(rows.start as VId);
    let end = plan.csr.row_start(rows.end as VId);
    ctx.global_contiguous(rows.start, rows.len() + 1, std::mem::size_of::<usize>());
    ctx.global_contiguous(start, end - start, std::mem::size_of::<VId>());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::GraphTensors;
    use crate::reference::fused_reference;
    use fg_graph::generators;
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
        let g = generators::uniform(150, 6, 5);
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
        let g = generators::uniform(80, 4, 9);
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
        let g = generators::uniform(60, 5, 3);
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
        let g = generators::uniform(10, 2, 1);
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
