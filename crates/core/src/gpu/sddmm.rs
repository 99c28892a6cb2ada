//! GPU generalized SDDMM template (edge-parallel).

use fg_gpusim::{launch, BlockCtx, DeviceConfig, GpuKernel};
use fg_graph::{Graph, VId};
use fg_ir::interp::{eval_udf, EdgeCtx};
use fg_ir::{Fds, KernelPattern, Udf};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::inputs::GraphTensors;
use crate::RunStats;

const F32: usize = std::mem::size_of::<f32>();

/// Template-level options for the GPU SDDMM kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSddmmOptions {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Edges per block.
    pub edges_per_block: usize,
}

impl Default for GpuSddmmOptions {
    fn default() -> Self {
        Self {
            device: DeviceConfig::v100(),
            edges_per_block: 256,
        }
    }
}

/// A compiled GPU generalized-SDDMM kernel.
pub struct GpuSddmm {
    udf: Udf,
    fds: Fds,
    pattern: KernelPattern,
    /// `(src, dst)` per canonical edge ID.
    edges: Vec<(VId, VId)>,
    num_vertices: usize,
    opts: GpuSddmmOptions,
}

impl GpuSddmm {
    /// Validate and build the plan.
    pub fn compile(
        graph: &Graph,
        udf: &Udf,
        fds: &Fds,
        opts: &GpuSddmmOptions,
    ) -> Result<Self, KernelError> {
        udf.validate()?;
        if opts.edges_per_block == 0 {
            return Err(KernelError::BadSchedule("edges_per_block must be >= 1".into()));
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
            fds: *fds,
            pattern: KernelPattern::of(udf),
            edges: graph.edge_list(),
            num_vertices: graph.num_vertices(),
            opts: *opts,
        })
    }

    /// The recognized kernel pattern.
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (the gathered edge list).
    pub fn mem_bytes(&self) -> u64 {
        (self.edges.len() * std::mem::size_of::<(VId, VId)>()) as u64
    }

    /// Execute on the simulator.
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        inputs.validate(&self.udf, self.num_vertices, self.edges.len(), out, self.edges.len())?;
        let _run_span = span!(
            "gpu/sddmm/run",
            "pattern={:?} d={} grid={} tree={}",
            self.pattern,
            self.udf.red_len(),
            self.grid_dim(),
            self.fds.gpu.tree_reduce
        );
        counter_add(Counter::EdgesProcessed, self.edges.len() as u64);
        if self.fds.gpu.tree_reduce {
            // depth of the log₂ combine tree over the reduce axis (Fig. 7b)
            let d = self.udf.red_len().max(1);
            counter_add(
                Counter::TreeReductionDepth,
                u64::from(usize::BITS - (d - 1).leading_zeros()),
            );
        }
        let report = match self.pattern {
            KernelPattern::Dot | KernelPattern::MultiHeadDot { .. } => {
                let mut kernel = DotKernel {
                    plan: self,
                    x: inputs.vertex,
                    xd: inputs.dst_tensor(),
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
        self.edges.len().div_ceil(self.opts.edges_per_block).max(1)
    }

    fn block_edges(&self, block: usize) -> std::ops::Range<usize> {
        let lo = block * self.opts.edges_per_block;
        let hi = (lo + self.opts.edges_per_block).min(self.edges.len());
        lo..hi
    }
}

/// Fused (multi-head) dot-product attention.
///
/// With `fds.gpu.tree_reduce`, the block's threads cooperate on each dot via
/// a `log₂`-depth tree (Fig. 7b): low register pressure, shared-memory
/// traffic for the reduction. Without it, each thread computes a full dot
/// serially in registers — the Fig. 12 ablation — which inflates
/// `regs_per_thread` and therefore costs occupancy.
struct DotKernel<'a> {
    plan: &'a GpuSddmm,
    x: &'a Dense2<f32>,
    xd: &'a Dense2<f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for DotKernel<'_> {
    fn name(&self) -> &'static str {
        "fg-sddmm-dot"
    }
    fn grid_dim(&self) -> usize {
        self.plan.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.plan.fds.gpu.threads_per_block
    }
    fn shared_mem_bytes(&self) -> usize {
        if self.plan.fds.gpu.tree_reduce {
            self.plan.fds.gpu.threads_per_block * F32
        } else {
            0
        }
    }
    fn regs_per_thread(&self) -> usize {
        if self.plan.fds.gpu.tree_reduce {
            32
        } else {
            // Serial per-thread dot: accumulator chain + unrolled loads.
            // Grows with the feature length until the compiler spills —
            // the register-pressure effect the paper cites for Fig. 12.
            (40 + self.plan.udf.red_len() / 4).min(168)
        }
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let plan = self.plan;
        let d = plan.udf.red_len();
        let heads = plan.udf.out_len; // 1 for plain dot
        let range = plan.block_edges(block);
        let tpb = plan.fds.gpu.threads_per_block as u64;
        let tree = plan.fds.gpu.tree_reduce;

        // edge endpoint indices, coalesced
        ctx.global_contiguous(range.start * 2, range.len() * 2, std::mem::size_of::<VId>());

        for eid in range.clone() {
            let (src, dst) = plan.edges[eid];
            let srow = self.x.row(src as usize);
            let drow = self.xd.row(dst as usize);
            ctx.global_contiguous(src as usize * heads * d, heads * d, F32);
            ctx.global_contiguous(dst as usize * heads * d, heads * d, F32);
            let orow = self.out.row_mut(eid);
            for (h, o) in orow.iter_mut().enumerate() {
                let a = &srow[h * d..(h + 1) * d];
                let b = &drow[h * d..(h + 1) * d];
                *o = a.iter().zip(b).map(|(&p, &q)| p * q).sum();
            }
            if tree {
                // lane multiplies + warp-synchronous tree combine: shuffles
                // within warps, one shared-memory exchange across warps
                ctx.alu((2 * heads * d) as u64);
                ctx.alu(heads as u64 * (64 - u64::from((d as u64).leading_zeros())));
                ctx.shared(heads as u64 * (tpb / 32).max(1) * 2);
            } else {
                // one thread per edge: d lockstep iterations per warp
                ctx.warp_exec(32, (2 * heads * d) as u64 / 32 + 1);
            }
        }
        if tree {
            ctx.barrier();
        }
        // coalesced write of the block's contiguous output rows
        ctx.global_contiguous(range.start * heads, range.len() * heads, F32);
    }
}

/// Interpreter fallback: arbitrary edge UDFs, serialized per thread.
struct GenericKernel<'a, 'b> {
    plan: &'a GpuSddmm,
    inputs: &'a GraphTensors<'b, f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for GenericKernel<'_, '_> {
    fn name(&self) -> &'static str {
        "fg-sddmm-generic"
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
        let range = plan.block_edges(block);
        let empty: [f32; 0] = [];
        let flops = udf.flops_per_edge() as u64;

        ctx.global_contiguous(range.start * 2, range.len() * 2, std::mem::size_of::<VId>());
        for eid in range.clone() {
            let (src, dst) = plan.edges[eid];
            if udf.src_len > 0 {
                ctx.global_contiguous(src as usize * udf.src_len, udf.src_len, F32);
            }
            if udf.dst_len > 0 {
                ctx.global_contiguous(dst as usize * udf.dst_len, udf.dst_len, F32);
            }
            if udf.edge_len > 0 {
                ctx.global_contiguous(eid * udf.edge_len, udf.edge_len, F32);
            }
            let ectx = EdgeCtx {
                src: if udf.src_len > 0 { self.inputs.vertex.row(src as usize) } else { &empty },
                dst: if udf.dst_len > 0 {
                    self.inputs.dst_tensor().row(dst as usize)
                } else {
                    &empty
                },
                edge: match self.inputs.edge {
                    Some(e) if udf.edge_len > 0 => e.row(eid),
                    _ => &empty,
                },
            };
            let orow = self.out.row_mut(eid);
            eval_udf(udf, &ectx, self.inputs.params, orow, |slot, v| *slot = v);
            ctx.warp_exec(1, flops);
        }
        ctx.global_contiguous(range.start * udf.out_len, range.len() * udf.out_len, F32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sddmm_reference;
    use fg_graph::generators;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 13 + i * 5) % 17) as f32 * 0.125 - 1.0)
    }

    fn check(
        g: &Graph,
        udf: &Udf,
        inputs: &GraphTensors<'_, f32>,
        fds: &Fds,
        opts: &GpuSddmmOptions,
    ) -> RunStats {
        let k = GpuSddmm::compile(g, udf, fds, opts).unwrap();
        let mut out = Dense2::zeros(g.num_edges(), udf.out_len);
        let stats = k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_edges(), udf.out_len);
        sddmm_reference(g, udf, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch {} ({:?})",
            out.max_abs_diff(&want),
            k.pattern()
        );
        stats
    }

    #[test]
    fn dot_attention_with_and_without_tree_reduction() {
        let g = generators::uniform(200, 6, 5);
        let x = features(200, 128);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::dot(128);
        let tree = check(&g, &udf, &inputs, &Fds::gpu_tree_reduce(64), &GpuSddmmOptions::default());
        let mut no_tree_fds = Fds::gpu_tree_reduce(64);
        no_tree_fds.gpu.tree_reduce = false;
        let serial = check(&g, &udf, &inputs, &no_tree_fds, &GpuSddmmOptions::default());
        // tree reduction wins at large feature lengths (Fig. 12 shape)
        assert!(
            tree.gpu_time_ms.unwrap() < serial.gpu_time_ms.unwrap(),
            "tree {} vs serial {}",
            tree.gpu_time_ms.unwrap(),
            serial.gpu_time_ms.unwrap()
        );
    }

    #[test]
    fn multi_head_dot_matches_reference() {
        let g = generators::uniform(100, 4, 3);
        let x = features(100, 4 * 16);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::multi_head_dot(4, 16);
        check(&g, &udf, &inputs, &Fds::gpu_tree_reduce(64), &GpuSddmmOptions::default());
    }

    #[test]
    fn generic_edge_udf_on_gpu() {
        use fg_ir::ScalarExpr;
        let g = generators::uniform(50, 3, 8);
        let x = features(50, 6);
        let xe = features(g.num_edges(), 6);
        let inputs = GraphTensors::with_edge(&x, &xe);
        let udf = Udf {
            out_len: 6,
            src_len: 6,
            dst_len: 6,
            edge_len: 6,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i()
                .add(ScalarExpr::edge_i())
                .mul(ScalarExpr::dst_i()),
            post_relu: false,
        };
        check(&g, &udf, &inputs, &Fds::gpu_thread_x(32), &GpuSddmmOptions::default());
    }

    #[test]
    fn schedule_validation() {
        let g = generators::uniform(10, 2, 1);
        let udf = Udf::dot(4);
        let bad = GpuSddmmOptions {
            edges_per_block: 0,
            ..Default::default()
        };
        assert!(matches!(
            GpuSddmm::compile(&g, &udf, &Fds::default(), &bad),
            Err(KernelError::BadSchedule(_))
        ));
    }

    #[test]
    fn empty_graph_launch() {
        let g = Graph::from_edges(4, &[]);
        let x = features(4, 8);
        let udf = Udf::dot(8);
        let k = GpuSddmm::compile(&g, &udf, &Fds::gpu_tree_reduce(32), &GpuSddmmOptions::default()).unwrap();
        let mut out = Dense2::zeros(0, 1);
        let stats = k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
        assert!(stats.gpu_time_ms.unwrap() > 0.0); // launch overhead only
    }
}
