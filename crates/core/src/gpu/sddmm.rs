//! GPU generalized SDDMM template: edge blocks (edge parallelization,
//! §III-C2) over the shared message ops.
//!
//! Each block computes a chunk of edges in canonical order and writes their
//! output rows with one coalesced store. The dot patterns (`fg-sddmm-dot`)
//! are priced by the FDS: with `fds.gpu.tree_reduce` the block's threads
//! cooperate on each dot via a `log₂`-depth tree (Fig. 7b) — low register
//! pressure, shared-memory traffic for the reduction; without it each
//! thread computes a full dot serially in registers (the Fig. 12 ablation),
//! which inflates `regs_per_thread` and therefore costs occupancy. Every
//! other UDF (`fg-sddmm-generic`) is priced as the interpreter, one thread
//! per edge.

use std::mem::size_of;
use std::ops::Range;

use fg_gpusim::{BlockCtx, DeviceConfig, LaunchReport};
use fg_graph::{Graph, VId};
use fg_ir::{Fds, KernelPattern, Udf};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::gpu::skeleton::{gpu_stats, Grid, F32};
use crate::inputs::GraphTensors;
use crate::ops::{self, Dot, Edge, MessageOp, MultiHeadDot, Sink, WithMessage};
use crate::RunStats;

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
    /// The pattern is a (multi-head) dot, priced by the FDS.
    dot: bool,
    /// `(src, dst)` per canonical edge ID.
    edges: Vec<(VId, VId)>,
    num_vertices: usize,
    grid: Grid,
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
        let pattern = KernelPattern::of(udf);
        let dot = matches!(
            pattern,
            KernelPattern::Dot | KernelPattern::MultiHeadDot { .. }
        );
        let tree = dot && fds.gpu.tree_reduce;
        let grid = Grid {
            device: opts.device,
            threads: fds.gpu.threads_per_block,
            per_block: opts.edges_per_block,
            items: graph.num_edges(),
            shared_mem_bytes: usize::from(tree) * fds.gpu.threads_per_block * F32,
        };
        Ok(Self {
            udf: udf.clone(),
            fds: *fds,
            pattern,
            dot,
            edges: graph.edge_list(),
            num_vertices: graph.num_vertices(),
            grid: grid.validate("edges_per_block")?,
        })
    }

    /// The recognized kernel pattern.
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (the gathered edge list).
    pub fn mem_bytes(&self) -> u64 {
        (self.edges.len() * size_of::<(VId, VId)>()) as u64
    }

    /// Execute on the simulator.
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let m = self.edges.len();
        inputs.validate(&self.udf, self.num_vertices, m, out, m)?;
        let _run_span = span!(
            "gpu/sddmm/run",
            "pattern={:?} d={} grid={} tree={}",
            self.pattern,
            self.udf.red_len(),
            self.grid.grid_dim(),
            self.fds.gpu.tree_reduce
        );
        counter_add(Counter::EdgesProcessed, m as u64);
        if self.fds.gpu.tree_reduce {
            // depth of the log₂ combine tree over the reduce axis (Fig. 7b)
            let d = self.udf.red_len().max(1);
            counter_add(
                Counter::TreeReductionDepth,
                u64::from(usize::BITS - (d - 1).leading_zeros()),
            );
        }
        let (x, xd) = (inputs.vertex, inputs.dst_tensor());
        let report = match self.pattern {
            KernelPattern::Dot => {
                let d = self.udf.red_len();
                self.launch(Dot { x, xd, d }, 0..d, out)
            }
            KernelPattern::MultiHeadDot { d } => {
                self.launch(MultiHeadDot { x, xd, d }, 0..self.udf.src_len, out)
            }
            _ => ops::lower(&self.udf, self.pattern, inputs, Launch { k: self, out }),
        };
        Ok(gpu_stats(vec![report]))
    }

    /// One launch storing `op`'s message for columns `cols` into each edge's
    /// output row.
    fn launch<M: MessageOp>(
        &self,
        op: M,
        cols: Range<usize>,
        out: &mut Dense2<f32>,
    ) -> LaunchReport {
        let w = self.udf.out_len;
        let tree = self.dot && self.fds.gpu.tree_reduce;
        let (name, regs) = match (self.dot, tree) {
            (false, _) => ("fg-sddmm-generic", 32),
            (true, true) => ("fg-sddmm-dot", 32),
            // Serial per-thread dot: accumulator chain + unrolled loads.
            // Grows with the feature length until the compiler spills —
            // the register-pressure effect the paper cites for Fig. 12.
            (true, false) => ("fg-sddmm-dot", (40 + self.udf.red_len() / 4).min(168)),
        };
        let mut scratch = Vec::new();
        self.grid.launch(name, regs, |range, ctx| {
            // edge endpoint indices, coalesced
            ctx.global_contiguous(range.start * 2, range.len() * 2, size_of::<VId>());
            let edges = self.edges[range.clone()].iter().zip(range.start as u32..);
            for (&(src, dst), eid) in edges {
                let e = Edge { src, dst, eid };
                let mut to = Sink::new(out.row_mut(eid as usize), cols.clone(), &mut scratch);
                op.edge(ops::store, &mut to, e);
                if self.dot {
                    self.charge_dot(ctx, e, tree);
                } else {
                    self.charge_generic(ctx, e);
                }
            }
            if tree {
                ctx.barrier();
            }
            // coalesced write of the block's contiguous output rows
            ctx.global_contiguous(range.start * w, range.len() * w, F32);
        })
    }

    /// Both endpoint rows, then a tree or a serial dot per head.
    fn charge_dot(&self, ctx: &mut BlockCtx<'_>, e: Edge, tree: bool) {
        let (d, heads) = (self.udf.red_len(), self.udf.out_len);
        for v in [e.src, e.dst] {
            ctx.global_contiguous(v as usize * heads * d, heads * d, F32);
        }
        if tree {
            // lane multiplies + warp-synchronous tree combine: shuffles
            // within warps, one shared-memory exchange across warps
            let warps = (self.fds.gpu.threads_per_block as u64 / 32).max(1);
            ctx.alu((2 * heads * d) as u64);
            ctx.alu(heads as u64 * (64 - u64::from((d as u64).leading_zeros())));
            ctx.shared(heads as u64 * warps * 2);
        } else {
            // one thread per edge: d lockstep iterations per warp
            ctx.warp_exec(32, (2 * heads * d) as u64 / 32 + 1);
        }
    }

    /// The interpreter, one thread per edge, its operand rows read whole.
    fn charge_generic(&self, ctx: &mut BlockCtx<'_>, e: Edge) {
        let udf = &self.udf;
        let lens = [udf.src_len, udf.dst_len, udf.edge_len];
        for (row, len) in [e.src, e.dst, e.eid].into_iter().zip(lens) {
            if len > 0 {
                ctx.global_contiguous(row as usize * len, len, F32);
            }
        }
        ctx.warp_exec(1, udf.flops_per_edge() as u64);
    }
}

/// The SDDMM launch over one lowered message op.
struct Launch<'a> {
    k: &'a GpuSddmm,
    out: &'a mut Dense2<f32>,
}

impl WithMessage for Launch<'_> {
    type Out = LaunchReport;

    fn run<M: MessageOp + Copy>(self, op: M) -> LaunchReport {
        self.k.launch(op, 0..self.k.udf.out_len, self.out)
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
