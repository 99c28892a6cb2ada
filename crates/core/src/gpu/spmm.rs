//! GPU generalized SpMM template: the row-block skeleton (vertex
//! parallelization, §III-C2) over the shared message ops, priced per
//! pattern.
//!
//! * **Element-wise messages** (`fg-spmm-elemwise`). With the FDS binding
//!   the feature axis to `thread.x` (Fig. 7a) a source row is one coalesced
//!   read and the combine one lane per element; feature-dimension-blind, one
//!   thread walks the row and its reads scatter. Optional **hybrid
//!   partitioning** stages a block's high-out-degree sources in shared
//!   memory (§III-C3, Fig. 13).
//! * **MLP aggregation** (`fg-spmm-mlp`, Fig. 9): the `src + dst` row is
//!   staged in shared memory and every weight element is used once per edge.
//! * **Anything else** (`fg-spmm-generic`) runs the interpreter, one thread
//!   per edge.

use fg_gpusim::{BlockCtx, DeviceConfig, LaunchReport};
use fg_graph::{Graph, VId};
use fg_ir::{Fds, GpuBind, KernelPattern, Reducer, Udf};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::gpu::skeleton::{charge_interp, gpu_stats, Grid, RowBlocks, F32};
use crate::inputs::{Dims, GraphTensors};
use crate::ops::{self, with_reduce_op, MessageOp, ReduceOp, Sink, WithMessage};
use crate::RunStats;

/// Hybrid (degree-split) partitioning options (§III-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridOptions {
    /// Source vertices with out-degree `>= degree_threshold` are staged in
    /// shared memory.
    pub degree_threshold: usize,
    /// Shared-memory budget per block for staged rows (default 24 KB). A
    /// footprint larger than the device's per-SM shared memory is rejected
    /// at compile time.
    pub shared_budget_bytes: usize,
}

impl Default for HybridOptions {
    fn default() -> Self {
        Self {
            degree_threshold: 1000,
            // 24 KB keeps 4 blocks resident per SM (96 KB carve-out), so
            // staging never starves occupancy
            shared_budget_bytes: 24 * 1024,
        }
    }
}

impl HybridOptions {
    /// Source rows of `d` floats staged per stage.
    fn rows_per_stage(&self, d: usize) -> usize {
        (self.shared_budget_bytes / (d * F32).max(1)).max(1)
    }
}

/// Template-level options for the GPU SpMM kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpmmOptions {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Destination rows per block. The grid is `ceil(|V| / rows_per_block)`;
    /// Fig. 15 sweeps this via [`GpuSpmmOptions::with_num_blocks`].
    pub rows_per_block: usize,
    /// Hybrid partitioning (None = off).
    pub hybrid: Option<HybridOptions>,
}

impl Default for GpuSpmmOptions {
    fn default() -> Self {
        Self {
            device: DeviceConfig::v100(),
            rows_per_block: 1,
            hybrid: None,
        }
    }
}

impl GpuSpmmOptions {
    /// Configure the launch to use (approximately) `blocks` blocks, as in
    /// the Fig. 15 sweep.
    pub fn with_num_blocks(graph: &Graph, blocks: usize) -> Self {
        Self {
            rows_per_block: graph.num_vertices().div_ceil(blocks.max(1)).max(1),
            ..Self::default()
        }
    }
}

/// How a recognized pattern is priced.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Elementwise,
    Mlp,
    Generic,
}

/// A compiled GPU generalized-SpMM kernel.
pub struct GpuSpmm {
    udf: Udf,
    agg: Reducer,
    fds: Fds,
    pattern: KernelPattern,
    kind: Kind,
    /// Hybrid staging, when on and the pattern is element-wise.
    hybrid: Option<HybridOptions>,
    rows: RowBlocks,
    /// For hybrid: out-degree per source vertex.
    out_degrees: Vec<u32>,
}

impl GpuSpmm {
    /// Validate and build the plan.
    pub fn compile(
        graph: &Graph,
        udf: &Udf,
        agg: Reducer,
        fds: &Fds,
        opts: &GpuSpmmOptions,
    ) -> Result<Self, KernelError> {
        udf.validate()?;
        let pattern = KernelPattern::of(udf);
        let kind = match pattern {
            KernelPattern::MlpSrcDst => Kind::Mlp,
            KernelPattern::Dot | KernelPattern::MultiHeadDot { .. } | KernelPattern::Generic => {
                Kind::Generic
            }
            _ => Kind::Elementwise,
        };
        let hybrid = opts.hybrid.filter(|_| kind == Kind::Elementwise);
        let d = udf.out_len;
        let shared_mem_bytes = match (kind, hybrid) {
            // the shared tile holding src+dst sums (d1 floats)
            (Kind::Mlp, _) => udf.red_len() * F32,
            (_, Some(h)) => (h.rows_per_stage(d) * d * F32).min(h.shared_budget_bytes),
            _ => 0,
        };
        let grid = Grid {
            device: opts.device,
            threads: fds.gpu.threads_per_block,
            per_block: opts.rows_per_block,
            items: graph.num_vertices(),
            shared_mem_bytes,
        };
        Ok(Self {
            udf: udf.clone(),
            agg,
            fds: *fds,
            pattern,
            kind,
            hybrid,
            rows: RowBlocks::build(graph, grid)?,
            out_degrees: (0..graph.num_vertices() as VId)
                .map(|v| graph.out_degree(v) as u32)
                .collect(),
        })
    }

    /// The recognized kernel pattern.
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (CSR copy + out-degree array).
    pub fn mem_bytes(&self) -> u64 {
        self.rows.csr.mem_bytes() + (self.out_degrees.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Execute on the simulator; `RunStats::gpu_time_ms` carries the
    /// simulated time.
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let (n, m) = (self.rows.grid.items, self.rows.csr.nnz());
        inputs.validate(&self.udf, Dims::square(n, m), out, n)?;
        let _run_span = span!(
            "gpu/spmm/run",
            "pattern={:?} d={} grid={} tpb={}",
            self.pattern,
            self.udf.out_len,
            self.rows.grid.grid_dim(),
            self.fds.gpu.threads_per_block
        );
        counter_add(Counter::EdgesProcessed, m as u64);
        let report = ops::lower(&self.udf, self.pattern, inputs, Launch { k: self, out });
        Ok(gpu_stats(vec![report]))
    }

    /// One launch: per block the staging, per destination row the in-edges
    /// folded with `r` by `op` and charged per [`Kind`].
    fn launch<R: ReduceOp, M: MessageOp>(
        &self,
        r: R,
        op: M,
        out: &mut Dense2<f32>,
    ) -> LaunchReport {
        let (d, d1) = (self.udf.out_len, self.udf.red_len());
        let name = match self.kind {
            Kind::Elementwise => "fg-spmm-elemwise",
            Kind::Mlp => "fg-spmm-mlp",
            Kind::Generic => "fg-spmm-generic",
        };
        let (mut acc, mut scratch) = (vec![0f32; d], Vec::new());
        self.rows.launch(name, |rows, ctx| {
            let staged = self.stage(ctx, &rows, d);
            if self.kind == Kind::Mlp {
                // Weight matrix is re-read per block (resident in L2 on real
                // hardware; charged once per block here).
                ctx.global_contiguous(0, d1 * d, F32);
            }
            let mut to = Sink::new(&mut acc, 0..d, &mut scratch);
            for dst in rows {
                if self.kind == Kind::Mlp {
                    ctx.global_contiguous(dst * d1, d1, F32);
                }
                self.rows
                    .reduce_row(ctx, self.agg, dst, &mut to, out, |e, to, ctx| {
                        op.edge(r, to, e);
                        match self.kind {
                            Kind::Elementwise => self.charge_elementwise(ctx, e, &staged),
                            Kind::Mlp => self.charge_mlp(ctx, e.src),
                            Kind::Generic => charge_interp(ctx, &self.udf),
                        }
                    });
            }
        })
    }

    /// Hybrid staging for a block: its distinct high-out-degree sources are
    /// loaded from global into shared memory once, in stages of what the
    /// budget holds; every stage past the first re-reads and re-writes the
    /// block's output accumulators (the Fig. 6 merge cost, on GPU). Returns
    /// the sorted staged sources (none when hybrid is off).
    fn stage(&self, ctx: &mut BlockCtx<'_>, rows: &std::ops::Range<usize>, d: usize) -> Vec<VId> {
        let Some(h) = self.hybrid else {
            return Vec::new();
        };
        let csr = &self.rows.csr;
        let srcs = rows
            .clone()
            .flat_map(|dst| csr.row(dst as VId).iter().copied());
        let high = |&src: &VId| self.out_degrees[src as usize] as usize >= h.degree_threshold;
        let mut staged: Vec<VId> = srcs.filter(high).collect();
        staged.sort_unstable();
        staged.dedup();
        if staged.is_empty() {
            return staged;
        }
        for &src in &staged {
            ctx.global_contiguous(src as usize * d, d, F32);
            ctx.shared(d as u64);
        }
        ctx.barrier();
        for _ in 1..staged.len().div_ceil(h.rows_per_stage(d)) {
            ctx.global_contiguous(rows.start * d, rows.len() * d, F32);
            ctx.global_contiguous(rows.start * d, rows.len() * d, F32);
            ctx.barrier();
        }
        staged
    }

    /// An element-wise message: the source row (staging-aware), the second
    /// operand, the op and the aggregation combine.
    fn charge_elementwise(&self, ctx: &mut BlockCtx<'_>, e: ops::Edge, staged: &[VId]) {
        let d = self.udf.out_len;
        let (eid, feature_parallel) = (e.eid as usize, self.fds.gpu.bind_out != GpuBind::None);
        // the second operand's (offset, length) and whether the op costs ALU
        let (operand, op_alu) = match self.pattern {
            KernelPattern::CopyEdge => (Some((eid * d, d)), false),
            KernelPattern::SrcOpEdge(_) => (Some((eid * d, d)), true),
            KernelPattern::SrcOpDst(_) => (Some((e.dst as usize * d, d)), true),
            KernelPattern::SrcMulEdgeScalar => (Some((eid, 1)), true),
            _ => (None, false), // copy-src
        };
        if self.pattern != KernelPattern::CopyEdge {
            if staged.binary_search(&e.src).is_ok() {
                ctx.shared(d as u64);
            } else if feature_parallel {
                // feature axis bound to thread.x: warp lanes read consecutive
                // elements of the row (Fig. 7a)
                ctx.global_contiguous(e.src as usize * d, d, F32);
            } else {
                // feature-dimension-blind: each thread walks a different row,
                // so concurrent lanes touch unrelated addresses
                ctx.global_scattered(d, F32);
            }
        }
        if let Some((at, len)) = operand {
            ctx.global_contiguous(at, len, F32);
        }
        if op_alu {
            ctx.alu(d as u64);
        }
        if feature_parallel {
            ctx.alu(d as u64); // the aggregation combine, one lane per element
        } else {
            ctx.warp_exec(1, d as u64);
        }
    }

    /// An MLP message (output axis on blocks/threads, reduce axis
    /// in-thread): the source row, `src + dst` staged in shared memory, then
    /// the dense `(1×d1)·(d1×d2)` product.
    fn charge_mlp(&self, ctx: &mut BlockCtx<'_>, src: VId) {
        let (d1, d2) = (self.udf.red_len(), self.udf.out_len);
        ctx.global_contiguous(src as usize * d1, d1, F32);
        ctx.alu(d1 as u64);
        ctx.shared(d1 as u64);
        ctx.barrier();
        if self.fds.gpu.bind_out != GpuBind::None {
            ctx.alu((2 * d1 * d2 + d2) as u64);
            ctx.shared((d1 * d2) as u64); // tmp re-reads from shared
        } else {
            ctx.warp_exec(1, (2 * d1 * d2) as u64);
        }
    }
}

/// The SpMM launch over one lowered message op.
struct Launch<'a> {
    k: &'a GpuSpmm,
    out: &'a mut Dense2<f32>,
}

impl WithMessage for Launch<'_> {
    type Out = LaunchReport;

    fn run<M: MessageOp + Copy>(self, op: M) -> LaunchReport {
        let (k, out) = (self.k, self.out);
        with_reduce_op!(k.agg, |r| k.launch(r, op, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmm_reference;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 31 + i * 7) % 23) as f32 * 0.25 - 2.0)
    }

    fn check(
        g: &Graph,
        udf: &Udf,
        agg: Reducer,
        inputs: &GraphTensors<'_, f32>,
        fds: &Fds,
        opts: &GpuSpmmOptions,
    ) -> RunStats {
        let k = GpuSpmm::compile(g, udf, agg, fds, opts).unwrap();
        let mut out = Dense2::zeros(g.num_vertices(), udf.out_len);
        let stats = k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_vertices(), udf.out_len);
        spmm_reference(g, udf, agg, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch {} (pattern {:?})",
            out.max_abs_diff(&want),
            k.pattern()
        );
        stats
    }

    #[test]
    fn gpu_copy_src_matches_reference_and_reports_time() {
        let g = fg_graph::uniform(300, 6, 5);
        let x = features(300, 32);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(32);
        let stats = check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &Fds::gpu_thread_x(32),
            &GpuSpmmOptions::default(),
        );
        assert!(stats.gpu_time_ms.unwrap() > 0.0);
        assert_eq!(stats.gpu_launches.len(), 1);
    }

    #[test]
    fn gpu_mean_and_max_aggregations() {
        let g = fg_graph::uniform(100, 4, 2);
        let x = features(100, 16);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(16);
        for agg in [Reducer::Mean, Reducer::Max, Reducer::Min] {
            check(
                &g,
                &udf,
                agg,
                &inputs,
                &Fds::gpu_thread_x(32),
                &GpuSpmmOptions::default(),
            );
        }
    }

    #[test]
    fn gpu_mlp_matches_reference() {
        let g = fg_graph::uniform(60, 4, 7);
        let x = features(60, 8);
        let w = Dense2::from_fn(8, 12, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.1 - 0.5);
        let params = [&w];
        let inputs = GraphTensors::with_params(&x, &params);
        let udf = Udf::mlp(8, 12);
        check(
            &g,
            &udf,
            Reducer::Max,
            &inputs,
            &Fds::gpu_block_tree(64),
            &GpuSpmmOptions::default(),
        );
    }

    #[test]
    fn gpu_generic_fallback() {
        use fg_ir::ScalarExpr;
        let g = fg_graph::uniform(40, 3, 4);
        let x = features(40, 6);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf {
            out_len: 6,
            src_len: 6,
            dst_len: 6,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::Exp(Box::new(ScalarExpr::src_i().sub(ScalarExpr::dst_i()))),
            post_relu: false,
        };
        check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &Fds::gpu_thread_x(32),
            &GpuSpmmOptions::default(),
        );
    }

    #[test]
    fn hybrid_partitioning_is_functionally_transparent_and_cuts_traffic() {
        // two-tier graph: high-degree sources dominate reads
        let g = fg_graph::two_tier(30, 100, 470, 4, 9);
        let x = features(500, 32);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(32);
        let fds = Fds::gpu_thread_x(32);

        let plain = GpuSpmmOptions {
            rows_per_block: 64,
            ..Default::default()
        };
        let hybrid = GpuSpmmOptions {
            rows_per_block: 64,
            hybrid: Some(HybridOptions {
                degree_threshold: 50,
                shared_budget_bytes: 48 * 1024,
            }),
            ..Default::default()
        };
        let sp = check(&g, &udf, Reducer::Sum, &inputs, &fds, &plain);
        let sh = check(&g, &udf, Reducer::Sum, &inputs, &fds, &hybrid);
        let tp = &sp.gpu_launches[0].tally;
        let th = &sh.gpu_launches[0].tally;
        assert!(
            th.global_transactions < tp.global_transactions,
            "hybrid {} vs plain {}",
            th.global_transactions,
            tp.global_transactions
        );
        assert!(th.shared_accesses > 0);
    }

    #[test]
    fn feature_blind_schedule_is_slower() {
        let g = fg_graph::uniform(200, 8, 3);
        let x = features(200, 64);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(64);
        let fast = check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &Fds::gpu_thread_x(64),
            &GpuSpmmOptions::default(),
        );
        let blind = check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &Fds::default(), // GpuBind::None
            &GpuSpmmOptions::default(),
        );
        assert!(
            blind.gpu_time_ms.unwrap() > fast.gpu_time_ms.unwrap(),
            "blind {} fast {}",
            blind.gpu_time_ms.unwrap(),
            fast.gpu_time_ms.unwrap()
        );
    }

    #[test]
    fn fewer_blocks_is_slower_once_sms_starve() {
        let g = fg_graph::uniform(4000, 8, 1);
        let x = features(4000, 32);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(32);
        let fds = Fds::gpu_thread_x(32);
        let many = check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &fds,
            &GpuSpmmOptions::with_num_blocks(&g, 4000),
        );
        let few = check(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &fds,
            &GpuSpmmOptions::with_num_blocks(&g, 8),
        );
        assert!(few.gpu_launches[0].sm_cycles > many.gpu_launches[0].sm_cycles);
    }

    #[test]
    fn schedule_validation() {
        let g = fg_graph::uniform(10, 2, 1);
        let udf = Udf::copy_src(4);
        let bad = GpuSpmmOptions {
            rows_per_block: 0,
            ..Default::default()
        };
        assert!(matches!(
            GpuSpmm::compile(&g, &udf, Reducer::Sum, &Fds::default(), &bad),
            Err(KernelError::BadSchedule(_))
        ));
        let mut fds = Fds::gpu_thread_x(32);
        fds.gpu.threads_per_block = 100_000;
        assert!(matches!(
            GpuSpmm::compile(&g, &udf, Reducer::Sum, &fds, &GpuSpmmOptions::default()),
            Err(KernelError::BadSchedule(_))
        ));
    }
}
