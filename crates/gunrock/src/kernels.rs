//! Edge-parallel GNN kernels in the Gunrock style.

use fg_gpusim::{launch, BlockCtx, DeviceConfig, GpuKernel, LaunchReport};
use fg_graph::{Graph, VId};
use fg_tensor::Dense2;

const F32: usize = std::mem::size_of::<f32>();
/// Opaque-functor overhead: frontier bookkeeping, bounds checks, and the
/// indirect call per edge (instructions per warp).
const FUNCTOR_OVERHEAD_INSTR: u64 = 24;

/// Launch configuration shared by the Gunrock-style kernels.
#[derive(Debug, Clone, Copy)]
pub struct GunrockOptions {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Edges per block (threads per block; one edge per thread).
    pub edges_per_block: usize,
}

impl Default for GunrockOptions {
    fn default() -> Self {
        Self {
            device: DeviceConfig::v100(),
            edges_per_block: 256,
        }
    }
}

/// Shared plumbing: the flattened edge work list.
struct EdgeParallel<'a> {
    edges: &'a [(VId, VId)],
    edges_per_block: usize,
}

impl EdgeParallel<'_> {
    fn grid_dim(&self) -> usize {
        self.edges.len().div_ceil(self.edges_per_block).max(1)
    }

    fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        let lo = block * self.edges_per_block;
        let hi = (lo + self.edges_per_block).min(self.edges.len());
        lo..hi
    }
}

/// Count, for one warp's destinations, how many lanes conflict with an
/// earlier lane writing the same destination (those atomics serialize).
fn warp_dst_conflicts(dsts: &[VId]) -> u64 {
    let mut sorted: Vec<VId> = dsts.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).filter(|w| w[0] == w[1]).count() as u64
}

/// GCN aggregation (`out[v] = Σ_{u→v} x[u]`), edge-parallel with atomic
/// accumulation. Returns the simulated launch report.
pub fn gcn_aggregation(
    graph: &Graph,
    x: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &GunrockOptions,
) -> LaunchReport {
    assert_eq!(x.shape(), out.shape(), "shape mismatch");
    out.fill_zero();
    let edges = graph.edge_list();
    let mut kernel = GcnKernel {
        ep: EdgeParallel {
            edges: &edges,
            edges_per_block: opts.edges_per_block,
        },
        x,
        out,
    };
    launch(&opts.device, &mut kernel)
}

struct GcnKernel<'a> {
    ep: EdgeParallel<'a>,
    x: &'a Dense2<f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for GcnKernel<'_> {
    fn name(&self) -> &'static str {
        "gunrock-spmm"
    }
    fn grid_dim(&self) -> usize {
        self.ep.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.ep.edges_per_block
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let d = self.x.cols();
        let range = self.ep.block_range(block);
        ctx.global_contiguous(range.start * 2, range.len() * 2, std::mem::size_of::<VId>());
        for warp in self.ep.edges[range].chunks(32) {
            ctx.warp_exec(warp.len() as u64, FUNCTOR_OVERHEAD_INSTR);
            // each lane walks its source row sequentially (L1-friendly)
            for &(src, _) in warp {
                ctx.global_contiguous(src as usize * d, d, F32);
            }
            // the feature loop runs inside each thread, lockstep per warp
            ctx.warp_exec(warp.len() as u64, d as u64);
            // one atomicAdd per feature element per edge; lanes sharing a
            // destination serialize element-wise
            let dsts: Vec<VId> = warp.iter().map(|&(_, dst)| dst).collect();
            let conflicts = warp_dst_conflicts(&dsts);
            ctx.atomic(warp.len() as u64 * d as u64, conflicts * d as u64);
            // atomics land scattered (one element at a time across rows)
            ctx.global_scattered(warp.len() * d, F32);
            // functional accumulation
            for &(src, dst) in warp {
                let srow = self.x.row(src as usize);
                let orow = self.out.row_mut(dst as usize);
                for (o, &v) in orow.iter_mut().zip(srow) {
                    *o += v;
                }
            }
        }
    }
}

/// MLP aggregation (`out[v] = max_{u→v} relu((x[u]+x[v])·W)`), edge-parallel:
/// the whole MLP runs inside one thread per edge, re-reading `W` from global
/// memory every edge (a blackbox functor cannot stage it).
pub fn mlp_aggregation(
    graph: &Graph,
    x: &Dense2<f32>,
    w: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &GunrockOptions,
) -> LaunchReport {
    let d1 = x.cols();
    let d2 = w.cols();
    assert_eq!(w.rows(), d1, "weight shape mismatch");
    assert_eq!(out.shape(), (graph.num_vertices(), d2), "out shape mismatch");
    out.fill(f32::MIN);
    let edges = graph.edge_list();
    let mut kernel = MlpKernel {
        ep: EdgeParallel {
            edges: &edges,
            edges_per_block: opts.edges_per_block,
        },
        x,
        w,
        out,
    };
    let report = launch(&opts.device, &mut kernel);
    for v in 0..graph.num_vertices() {
        if graph.in_degree(v as u32) == 0 {
            out.row_mut(v).fill(0.0);
        }
    }
    report
}

struct MlpKernel<'a> {
    ep: EdgeParallel<'a>,
    x: &'a Dense2<f32>,
    w: &'a Dense2<f32>,
    out: &'a mut Dense2<f32>,
}

impl GpuKernel for MlpKernel<'_> {
    fn name(&self) -> &'static str {
        "gunrock-mlp"
    }
    fn grid_dim(&self) -> usize {
        self.ep.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.ep.edges_per_block
    }
    fn regs_per_thread(&self) -> usize {
        // per-thread d2-length accumulation spills hard
        96
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let d1 = self.x.cols();
        let d2 = self.w.cols();
        let range = self.ep.block_range(block);
        ctx.global_contiguous(range.start * 2, range.len() * 2, std::mem::size_of::<VId>());
        let mut tmp = vec![0.0f32; d1];
        for warp in self.ep.edges[range].chunks(32) {
            ctx.warp_exec(warp.len() as u64, FUNCTOR_OVERHEAD_INSTR);
            for &(src, dst) in warp {
                ctx.global_contiguous(src as usize * d1, d1, F32);
                ctx.global_contiguous(dst as usize * d1, d1, F32);
                // blackbox functor: W re-read per edge; lanes read different
                // W elements at different times -> sector-granular traffic
                ctx.global_scattered(d1 * d2, F32);
            }
            // the whole (1×d1)·(d1×d2) product per thread, lockstep
            ctx.warp_exec(warp.len() as u64, (2 * d1 * d2) as u64);
            let dsts: Vec<VId> = warp.iter().map(|&(_, dst)| dst).collect();
            let conflicts = warp_dst_conflicts(&dsts);
            ctx.atomic(warp.len() as u64 * d2 as u64, conflicts * d2 as u64);
            ctx.global_scattered(warp.len() * d2, F32);
            // functional
            for &(src, dst) in warp {
                let srow = self.x.row(src as usize);
                let drow = self.x.row(dst as usize);
                for ((t, &a), &b) in tmp.iter_mut().zip(srow).zip(drow) {
                    *t = a + b;
                }
                let orow = self.out.row_mut(dst as usize);
                for (i, o) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (k, &t) in tmp.iter().enumerate() {
                        acc += t * self.w.at(k, i);
                    }
                    let msg = acc.max(0.0);
                    if msg > *o {
                        *o = msg;
                    }
                }
            }
        }
    }
}

/// Dot-product attention (`out[eid] = x[src]·x[dst]`), edge-parallel with a
/// serial per-thread dot — Gunrock's natural mapping (Fig. 12's baseline).
pub fn dot_attention(
    graph: &Graph,
    x: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &GunrockOptions,
) -> LaunchReport {
    let d = x.cols();
    assert_eq!(out.shape(), (graph.num_edges(), 1), "out shape mismatch");
    let edges = graph.edge_list();
    let mut kernel = DotKernel {
        ep: EdgeParallel {
            edges: &edges,
            edges_per_block: opts.edges_per_block,
        },
        x,
        out,
        d,
    };
    launch(&opts.device, &mut kernel)
}

struct DotKernel<'a> {
    ep: EdgeParallel<'a>,
    x: &'a Dense2<f32>,
    out: &'a mut Dense2<f32>,
    d: usize,
}

impl GpuKernel for DotKernel<'_> {
    fn name(&self) -> &'static str {
        "gunrock-sddmm"
    }
    fn grid_dim(&self) -> usize {
        self.ep.grid_dim()
    }
    fn block_dim(&self) -> usize {
        self.ep.edges_per_block
    }
    fn regs_per_thread(&self) -> usize {
        // serial dot accumulators, like the FeatGraph w/o-tree ablation
        (40 + self.d / 4).min(168)
    }
    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        let d = self.d;
        let range = self.ep.block_range(block);
        ctx.global_contiguous(range.start * 2, range.len() * 2, std::mem::size_of::<VId>());
        for warp in self.ep.edges[range.clone()].chunks(32) {
            ctx.warp_exec(warp.len() as u64, FUNCTOR_OVERHEAD_INSTR);
            for &(src, dst) in warp {
                ctx.global_contiguous(src as usize * d, d, F32);
                ctx.global_contiguous(dst as usize * d, d, F32);
            }
            ctx.warp_exec(warp.len() as u64, (2 * d) as u64);
            // scattered single-float writes through the functor interface
            ctx.global_scattered(warp.len(), F32);
        }
        for (eid, &(src, dst)) in range.clone().zip(&self.ep.edges[range]) {
            let srow = self.x.row(src as usize);
            let drow = self.x.row(dst as usize);
            let acc: f32 = srow.iter().zip(drow).map(|(&a, &b)| a * b).sum();
            self.out.set(eid, 0, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 31 + i * 7) % 23) as f32 * 0.25 - 2.0)
    }

    #[test]
    fn gcn_functional_correctness() {
        let g = fg_graph::uniform(120, 5, 3);
        let x = features(120, 16);
        let mut out = Dense2::zeros(120, 16);
        let report = gcn_aggregation(&g, &x, &mut out, &GunrockOptions::default());
        assert!(report.time_ms > 0.0);
        assert!(report.tally.atomic_ops > 0);
        let mut want = Dense2::zeros(120, 16);
        for (src, dst, _) in g.edges() {
            for k in 0..16 {
                let v = want.at(dst as usize, k) + x.at(src as usize, k);
                want.set(dst as usize, k, v);
            }
        }
        assert!(out.approx_eq(&want, 1e-4));
    }

    #[test]
    fn dst_grouped_warps_conflict_heavily() {
        // high in-degree graph: whole warps share a destination
        let g = fg_graph::uniform(50, 64, 7);
        let x = features(50, 32);
        let mut out = Dense2::zeros(50, 32);
        let report = gcn_aggregation(&g, &x, &mut out, &GunrockOptions::default());
        let t = &report.tally;
        assert!(
            t.atomic_conflicts as f64 > 0.5 * t.atomic_ops as f64,
            "conflicts {} of {}",
            t.atomic_conflicts,
            t.atomic_ops
        );
    }

    #[test]
    fn mlp_functional_correctness() {
        let g = fg_graph::uniform(40, 4, 9);
        let x = features(40, 8);
        let w = Dense2::from_fn(8, 6, |r, c| ((r + 2 * c) % 5) as f32 * 0.2 - 0.4);
        let mut out = Dense2::zeros(40, 6);
        mlp_aggregation(&g, &x, &w, &mut out, &GunrockOptions::default());
        for v in 0..40u32 {
            let srcs = g.in_csr().row(v);
            for i in 0..6 {
                let mut want = f32::MIN;
                for &src in srcs {
                    let mut acc = 0.0;
                    for k in 0..8 {
                        acc += (x.at(src as usize, k) + x.at(v as usize, k)) * w.at(k, i);
                    }
                    want = want.max(acc.max(0.0));
                }
                if srcs.is_empty() {
                    want = 0.0;
                }
                assert!((out.at(v as usize, i) - want).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn dot_attention_functional_correctness() {
        let g = fg_graph::uniform(60, 3, 2);
        let x = features(60, 12);
        let mut out = Dense2::zeros(g.num_edges(), 1);
        dot_attention(&g, &x, &mut out, &GunrockOptions::default());
        for (src, dst, eid) in g.edges() {
            let want: f32 = (0..12)
                .map(|k| x.at(src as usize, k) * x.at(dst as usize, k))
                .sum();
            assert!((out.at(eid as usize, 0) - want).abs() < 1e-3);
        }
    }

    #[test]
    fn warp_conflict_counter() {
        assert_eq!(warp_dst_conflicts(&[1, 2, 3]), 0);
        assert_eq!(warp_dst_conflicts(&[5, 5, 5, 5]), 3);
        assert_eq!(warp_dst_conflicts(&[1, 2, 1, 3, 2]), 2);
        assert_eq!(warp_dst_conflicts(&[]), 0);
    }
}
