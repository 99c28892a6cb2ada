//! GPU generalized SpMM template (vertex-parallel, feature-thread binding).

use fg_gpusim::{launch, BlockCtx, DeviceConfig, GpuKernel};
use fg_graph::{Csr, Graph, VId};
use fg_ir::interp::{eval_udf, EdgeCtx};
use fg_ir::pattern::ElemOp;
use fg_ir::{Fds, GpuBind, KernelPattern, Reducer, Udf};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::inputs::GraphTensors;
use crate::RunStats;

const F32: usize = std::mem::size_of::<f32>();

/// Hybrid (degree-split) partitioning options (§III-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridOptions {
    /// Source vertices with out-degree `>= degree_threshold` are staged in
    /// shared memory.
    pub degree_threshold: usize,
    /// Shared-memory budget per block for staged rows (default 48 KB, the
    /// V100 default carve-out).
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

/// A compiled GPU generalized-SpMM kernel.
pub struct GpuSpmm {
    udf: Udf,
    agg: Reducer,
    fds: Fds,
    pattern: KernelPattern,
    csr: Csr,
    eid_is_position: bool,
    degrees: Vec<u32>,
    /// For hybrid: out-degree per source vertex.
    out_degrees: Vec<u32>,
    num_vertices: usize,
    num_edges: usize,
    opts: GpuSpmmOptions,
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
        if opts.rows_per_block == 0 {
            return Err(KernelError::BadSchedule("rows_per_block must be >= 1".into()));
        }
        if fds.gpu.threads_per_block == 0
            || fds.gpu.threads_per_block > opts.device.max_threads_per_sm
        {
            return Err(KernelError::BadSchedule(format!(
                "threads_per_block {} out of range",
                fds.gpu.threads_per_block
            )));
        }
        counter_add(Counter::KernelCompiles, 1);
        Ok(Self {
            udf: udf.clone(),
            agg,
            fds: *fds,
            pattern: KernelPattern::of(udf),
            csr: graph.in_csr().clone(),
            eid_is_position: true,
            degrees: (0..graph.num_vertices() as VId)
                .map(|v| graph.in_degree(v) as u32)
                .collect(),
            out_degrees: (0..graph.num_vertices() as VId)
                .map(|v| graph.out_degree(v) as u32)
                .collect(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            opts: *opts,
        })
    }

    /// The recognized kernel pattern.
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (CSR copy + degree arrays).
    pub fn mem_bytes(&self) -> u64 {
        self.csr.mem_bytes()
            + ((self.degrees.len() + self.out_degrees.len()) * std::mem::size_of::<u32>()) as u64
    }

    /// Execute on the simulator; `RunStats::gpu_time_ms` carries the
    /// simulated time.
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        inputs.validate(&self.udf, self.num_vertices, self.num_edges, out, self.num_vertices)?;
        debug_assert!(self.eid_is_position);

        let _run_span = span!(
            "gpu/spmm/run",
            "pattern={:?} d={} grid={} tpb={}",
            self.pattern,
            self.udf.out_len,
            self.grid_dim(),
            self.fds.gpu.threads_per_block
        );
        counter_add(Counter::EdgesProcessed, self.num_edges as u64);

        let report = match self.pattern {
            KernelPattern::CopySrc
            | KernelPattern::CopyEdge
            | KernelPattern::SrcOpDst(_)
            | KernelPattern::SrcOpEdge(_)
            | KernelPattern::SrcMulEdgeScalar => {
                let mut kernel = ElemwiseKernel {
                    plan: self,
                    x: inputs.vertex,
                    xd: inputs.dst_tensor(),
                    xe: inputs.edge,
                    out,
                    kind: self.pattern,
                };
                launch(&self.opts.device, &mut kernel)
            }
            KernelPattern::MlpSrcDst => {
                let mut kernel = MlpKernel {
                    plan: self,
                    x: inputs.vertex,
                    xd: inputs.dst_tensor(),
                    w: inputs.params[0],
                    out,
                };
                launch(&self.opts.device, &mut kernel)
            }
            _ => {
                let mut kernel = GenericKernel {
                    plan: self,
                    inputs,
                    out,
                };
                launch(&self.opts.device, &mut kernel)
            }
        };
        Ok(RunStats {
            gpu_time_ms: Some(report.time_ms),
            gpu_launches: vec![report],
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

    /// Rows of staged sources per hybrid stage, given the feature width.
    fn hybrid_rows_per_stage(&self, d: usize) -> usize {
        let h = self.opts.hybrid.expect("hybrid only");
        (h.shared_budget_bytes / (d * F32).max(1)).max(1)
    }
}

/// Account the read of one source-feature row, staging-aware. Returns true
/// if served from shared memory.
#[inline]
fn account_row_read(
    plan: &GpuSpmm,
    ctx: &mut BlockCtx<'_>,
    src: VId,
    d: usize,
    staged: Option<&[VId]>,
    coalesced: bool,
) -> bool {
    if let (Some(h), Some(staged)) = (plan.opts.hybrid, staged) {
        if plan.out_degrees[src as usize] as usize >= h.degree_threshold
            && staged.binary_search(&src).is_ok()
        {
            ctx.shared(d as u64);
            return true;
        }
    }
    if coalesced {
        // feature axis bound to thread.x: warp lanes read consecutive
        // elements of the row (Fig. 7a)
        ctx.global_contiguous(src as usize * d, d, F32);
    } else {
        // feature-dimension-blind: each thread walks a different row, so
        // concurrent lanes touch unrelated addresses
        ctx.global_scattered(d, F32);
    }
    false
}

/// Shared accounting for the start of a block: index reads.
#[inline]
fn account_index_reads(plan: &GpuSpmm, ctx: &mut BlockCtx<'_>, rows: &std::ops::Range<usize>) {
    let start = plan.csr.row_start(rows.start as VId);
    let end = plan.csr.row_start(rows.end as VId);
    // indptr entries + column indices for the whole block, coalesced.
    ctx.global_contiguous(rows.start, rows.len() + 1, std::mem::size_of::<usize>());
    ctx.global_contiguous(start, end - start, std::mem::size_of::<VId>());
}

/// Hybrid staging for a block: determine staged source set, account the
/// stage loads and merge overhead. Returns the sorted staged sources
/// (empty when hybrid is off).
fn account_hybrid_staging(
    plan: &GpuSpmm,
    ctx: &mut BlockCtx<'_>,
    rows: &std::ops::Range<usize>,
    d: usize,
) -> Vec<VId> {
    let Some(h) = plan.opts.hybrid else {
        return Vec::new();
    };
    // Distinct high-degree sources feeding this block.
    let mut high: Vec<VId> = Vec::new();
    for dst in rows.clone() {
        for &src in plan.csr.row(dst as VId) {
            if plan.out_degrees[src as usize] as usize >= h.degree_threshold {
                high.push(src);
            }
        }
    }
    high.sort_unstable();
    high.dedup();
    if high.is_empty() {
        return high;
    }
    let per_stage = plan.hybrid_rows_per_stage(d);
    let stages = high.len().div_ceil(per_stage);
    ctx.alloc_shared((per_stage.min(high.len()) * d * F32).min(h.shared_budget_bytes));
    // Stage loads: each staged row read from global once, written to shared.
    for &src in &high {
        ctx.global_contiguous(src as usize * d, d, F32);
        ctx.shared(d as u64);
    }
    ctx.barrier();
    // Merge overhead: each extra stage re-reads and re-writes the block's
    // output accumulators (the Fig. 6 merge cost, on GPU).
    if stages > 1 {
        let merge_elems = rows.len() * d;
        for _ in 1..stages {
            ctx.global_contiguous(rows.start * d, merge_elems, F32);
            ctx.global_contiguous(rows.start * d, merge_elems, F32);
            ctx.barrier();
        }
    }
    high
}

/// Fused element-wise SpMM (copy/add/mul/sub messages).
struct ElemwiseKernel<'a> {
    plan: &'a GpuSpmm,
    x: &'a Dense2<f32>,
    xd: &'a Dense2<f32>,
    xe: Option<&'a Dense2<f32>>,
    out: &'a mut Dense2<f32>,
    kind: KernelPattern,
}

impl GpuKernel for ElemwiseKernel<'_> {
    fn name(&self) -> &'static str {
        "fg-spmm-elemwise"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.fds.gpu.threads_per_block
    }
    fn shared_mem_bytes(&self) -> usize {
        match self.plan.opts.hybrid {
            Some(h) => {
                let d = self.plan.udf.out_len;
                (self.plan.hybrid_rows_per_stage(d) * d * F32).min(h.shared_budget_bytes)
            }
            None => 0,
        }
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let d = plan.udf.out_len;
        let rows = plan.block_rows(block);
        let feature_parallel = plan.fds.gpu.bind_out != GpuBind::None;

        account_index_reads(plan, ctx, &rows);
        let staged = account_hybrid_staging(plan, ctx, &rows, d);
        let staged_opt = (!staged.is_empty()).then_some(staged.as_slice());

        let mut acc = vec![0.0f32; d];
        for dst in rows {
            let dst = dst as VId;
            let srcs = plan.csr.row(dst);
            let base = plan.csr.row_start(dst);
            acc.fill(plan.agg.identity());
            for (i, &src) in srcs.iter().enumerate() {
                let eid = (base + i) as u32;
                // functional message + ALU/memory accounting
                match self.kind {
                    KernelPattern::CopySrc => {
                        account_row_read(plan, ctx, src, d, staged_opt, feature_parallel);
                        combine(plan.agg, &mut acc, self.x.row(src as usize), |v| v);
                    }
                    KernelPattern::CopyEdge => {
                        let xe = self.xe.expect("validated");
                        ctx.global_contiguous(eid as usize * d, d, F32);
                        combine(plan.agg, &mut acc, xe.row(eid as usize), |v| v);
                    }
                    KernelPattern::SrcMulEdgeScalar => {
                        let xe = self.xe.expect("validated");
                        account_row_read(plan, ctx, src, d, staged_opt, feature_parallel);
                        ctx.global_contiguous(eid as usize, 1, F32);
                        let wscalar = xe.at(eid as usize, 0);
                        combine(plan.agg, &mut acc, self.x.row(src as usize), |v| v * wscalar);
                        ctx.alu(d as u64);
                    }
                    KernelPattern::SrcOpDst(op) => {
                        account_row_read(plan, ctx, src, d, staged_opt, feature_parallel);
                        ctx.global_contiguous(dst as usize * d, d, F32);
                        let drow = self.xd.row(dst as usize);
                        combine2(plan.agg, op, &mut acc, self.x.row(src as usize), drow);
                        ctx.alu(d as u64);
                    }
                    KernelPattern::SrcOpEdge(op) => {
                        let xe = self.xe.expect("validated");
                        account_row_read(plan, ctx, src, d, staged_opt, feature_parallel);
                        ctx.global_contiguous(eid as usize * d, d, F32);
                        combine2(plan.agg, op, &mut acc, self.x.row(src as usize), xe.row(eid as usize));
                        ctx.alu(d as u64);
                    }
                    _ => unreachable!("elemwise kernel on non-elemwise pattern"),
                }
                if feature_parallel {
                    ctx.alu(d as u64); // the aggregation combine, one lane per element
                } else {
                    // feature-dimension-blind: one thread walks the row
                    ctx.warp_exec(1, d as u64);
                }
            }
            let deg = plan.degrees[dst as usize] as usize;
            let orow = self.out.row_mut(dst as usize);
            for (o, &a) in orow.iter_mut().zip(&acc) {
                *o = plan.agg.finalize(a, deg);
            }
            ctx.global_contiguous(dst as usize * d, d, F32);
        }
    }
}

/// Fused MLP-aggregation SpMM (Fig. 9 schedule: output axis on blocks/
/// threads, reduce axis in-thread).
struct MlpKernel<'a> {
    plan: &'a GpuSpmm,
    x: &'a Dense2<f32>,
    xd: &'a Dense2<f32>,
    w: &'a Dense2<f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for MlpKernel<'_> {
    fn name(&self) -> &'static str {
        "fg-spmm-mlp"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.fds.gpu.threads_per_block
    }
    fn shared_mem_bytes(&self) -> usize {
        // the shared tile holding src+dst sums (d1 floats)
        self.plan.udf.red_len() * F32
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let d1 = plan.udf.red_len();
        let d2 = plan.udf.out_len;
        let rows = plan.block_rows(block);
        let feature_parallel = plan.fds.gpu.bind_out != GpuBind::None;

        account_index_reads(plan, ctx, &rows);
        ctx.alloc_shared(d1 * F32);
        // Weight matrix is re-read per block (resident in L2 on real
        // hardware; charged once per block here).
        ctx.global_contiguous(0, d1 * d2, F32);

        let mut tmp = vec![0.0f32; d1];
        let mut acc = vec![0.0f32; d2];
        for dst in rows {
            let dst = dst as VId;
            let srcs = plan.csr.row(dst);
            acc.fill(plan.agg.identity());
            let drow = self.xd.row(dst as usize);
            ctx.global_contiguous(dst as usize * d1, d1, F32);
            for &src in srcs {
                ctx.global_contiguous(src as usize * d1, d1, F32);
                let srow = self.x.row(src as usize);
                for ((t, &a), &b) in tmp.iter_mut().zip(srow).zip(drow) {
                    *t = a + b;
                }
                ctx.alu(d1 as u64);
                ctx.shared(d1 as u64); // stage tmp
                ctx.barrier();
                // dense (1×d1)·(d1×d2): every element of W used once
                for (i, a) in acc.iter_mut().enumerate() {
                    let mut s = 0.0f32;
                    for (k, &t) in tmp.iter().enumerate() {
                        s += t * self.w.at(k, i);
                    }
                    let m = s.max(0.0);
                    *a = plan.agg.combine(*a, m);
                }
                if feature_parallel {
                    ctx.alu((2 * d1 * d2 + d2) as u64);
                    ctx.shared((d1 * d2) as u64); // tmp re-reads from shared
                } else {
                    ctx.warp_exec(1, (2 * d1 * d2) as u64);
                }
            }
            let deg = plan.degrees[dst as usize] as usize;
            let orow = self.out.row_mut(dst as usize);
            for (o, &a) in orow.iter_mut().zip(&acc) {
                *o = plan.agg.finalize(a, deg);
            }
            ctx.global_contiguous(dst as usize * d2, d2, F32);
        }
    }
}

/// Interpreter fallback on GPU: per-edge UDF evaluation, serialized per
/// thread (the cost a blackbox-UDF system pays).
struct GenericKernel<'a, 'b> {
    plan: &'a GpuSpmm,
    inputs: &'a GraphTensors<'b, f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for GenericKernel<'_, '_> {
    fn name(&self) -> &'static str {
        "fg-spmm-generic"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.fds.gpu.threads_per_block
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let udf = &plan.udf;
        let d = udf.out_len;
        let rows = plan.block_rows(block);
        let empty: [f32; 0] = [];
        account_index_reads(plan, ctx, &rows);

        let flops = udf.flops_per_edge() as u64;
        let mut acc = vec![0.0f32; d];
        for dst in rows {
            let dst = dst as VId;
            let srcs = plan.csr.row(dst);
            let base = plan.csr.row_start(dst);
            acc.fill(plan.agg.identity());
            for (i, &src) in srcs.iter().enumerate() {
                let eid = (base + i) as u32;
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
                    src: if udf.src_len > 0 { self.inputs.vertex.row(src as usize) } else { &empty },
                    dst: if udf.dst_len > 0 {
                        self.inputs.dst_tensor().row(dst as usize)
                    } else {
                        &empty
                    },
                    edge: match self.inputs.edge {
                        Some(e) if udf.edge_len > 0 => e.row(eid as usize),
                        _ => &empty,
                    },
                };
                let agg = plan.agg;
                eval_udf(udf, &ectx, self.inputs.params, &mut acc, |slot, v| {
                    *slot = agg.combine(*slot, v)
                });
                ctx.warp_exec(1, flops);
            }
            let deg = plan.degrees[dst as usize] as usize;
            let orow = self.out.row_mut(dst as usize);
            for (o, &a) in orow.iter_mut().zip(&acc) {
                *o = plan.agg.finalize(a, deg);
            }
            ctx.global_contiguous(dst as usize * d, d, F32);
        }
    }
}

#[inline(always)]
fn combine(agg: Reducer, acc: &mut [f32], msg: &[f32], f: impl Fn(f32) -> f32) {
    match agg {
        Reducer::Sum | Reducer::Mean => {
            for (a, &m) in acc.iter_mut().zip(msg) {
                *a += f(m);
            }
        }
        Reducer::Max => {
            for (a, &m) in acc.iter_mut().zip(msg) {
                let v = f(m);
                if v > *a {
                    *a = v;
                }
            }
        }
        Reducer::Min => {
            for (a, &m) in acc.iter_mut().zip(msg) {
                let v = f(m);
                if v < *a {
                    *a = v;
                }
            }
        }
    }
}

#[inline(always)]
fn combine2(agg: Reducer, op: ElemOp, acc: &mut [f32], a: &[f32], b: &[f32]) {
    let apply = |x: f32, y: f32| match op {
        ElemOp::Add => x + y,
        ElemOp::Mul => x * y,
        ElemOp::Sub => x - y,
    };
    match agg {
        Reducer::Sum | Reducer::Mean => {
            for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                *s += apply(x, y);
            }
        }
        Reducer::Max => {
            for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                let v = apply(x, y);
                if v > *s {
                    *s = v;
                }
            }
        }
        Reducer::Min => {
            for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                let v = apply(x, y);
                if v < *s {
                    *s = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmm_reference;
    use fg_graph::generators;

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
        let g = generators::uniform(300, 6, 5);
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
        let g = generators::uniform(100, 4, 2);
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
        let g = generators::uniform(60, 4, 7);
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
        let g = generators::uniform(40, 3, 4);
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
        let g = generators::two_tier(30, 100, 470, 4, 9);
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
        let g = generators::uniform(200, 8, 3);
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
        let g = generators::uniform(4000, 8, 1);
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
        let g = generators::uniform(10, 2, 1);
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
