//! GPU kernel measurements on the simulator: FeatGraph vs Gunrock vs
//! cuSPARSE (Table IV, Figs. 12/13/15).

use featgraph::{
    Fds, GpuSddmmOptions, GpuSpmmOptions, GraphTensors, HybridOptions, Reducer, Target, Udf,
};
use fg_graph::Graph;
use fg_gunrock::GunrockOptions;
use fg_sparselib::CusparseOptions;
use fg_tensor::Dense2;

use crate::runner::{features, weights, KernelKind, MLP_D1};

/// GPU systems compared in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuSystem {
    /// Gunrock-style edge-parallel baseline.
    Gunrock,
    /// cuSPARSE-like vendor kernel; GCN aggregation only.
    Cusparse,
    /// FeatGraph.
    FeatGraph,
}

impl GpuSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuSystem::Gunrock => "Gunrock",
            GpuSystem::Cusparse => "cuSPARSE",
            GpuSystem::FeatGraph => "FeatGraph",
        }
    }
}

/// FeatGraph GPU knobs (overridden by the Fig. 12/13/15 ablations).
#[derive(Debug, Clone, Copy)]
pub struct FeatgraphGpuConfig {
    /// Hybrid partitioning (Fig. 13).
    pub hybrid: Option<HybridOptions>,
    /// Tree reduction for SDDMM (Fig. 12); `false` = serial per-thread dot.
    pub tree_reduce: bool,
    /// Destination rows per block (Fig. 15 sweeps the implied block count).
    pub rows_per_block: usize,
    /// Simulated device (V100 by default; `a100` for the newer-hardware
    /// comparison).
    pub device: fg_gpusim::DeviceConfig,
}

impl Default for FeatgraphGpuConfig {
    fn default() -> Self {
        Self {
            hybrid: None,
            tree_reduce: true,
            rows_per_block: 8,
            device: fg_gpusim::DeviceConfig::v100(),
        }
    }
}

/// Simulated milliseconds for one Table IV cell. `None` where the paper has
/// no number (cuSPARSE covers only vanilla SpMM).
pub fn gpu_kernel_ms(system: GpuSystem, kind: KernelKind, graph: &Graph, d: usize) -> Option<f64> {
    let n = graph.num_vertices();
    match (system, kind) {
        (GpuSystem::Cusparse, KernelKind::GcnAggregation) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(n, d);
            let report = fg_sparselib::cusparse_csrmm(
                graph,
                &x,
                &mut out,
                &CusparseOptions {
                    rows_per_block: 8,
                    ..Default::default()
                },
            );
            Some(report.time_ms)
        }
        (GpuSystem::Cusparse, _) => None,
        (GpuSystem::Gunrock, KernelKind::GcnAggregation) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(n, d);
            Some(fg_gunrock::gcn_aggregation(graph, &x, &mut out, &GunrockOptions::default()).time_ms)
        }
        (GpuSystem::Gunrock, KernelKind::MlpAggregation) => {
            let x = features(n, MLP_D1);
            let w = weights(MLP_D1, d);
            let mut out = Dense2::zeros(n, d);
            Some(
                fg_gunrock::mlp_aggregation(graph, &x, &w, &mut out, &GunrockOptions::default())
                    .time_ms,
            )
        }
        (GpuSystem::Gunrock, KernelKind::DotAttention) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(graph.num_edges(), 1);
            Some(fg_gunrock::dot_attention(graph, &x, &mut out, &GunrockOptions::default()).time_ms)
        }
        (GpuSystem::FeatGraph, _) => Some(featgraph_gpu_ms(
            kind,
            graph,
            d,
            FeatgraphGpuConfig::default(),
        )),
    }
}

/// FeatGraph GPU measurement with explicit knobs.
pub fn featgraph_gpu_ms(kind: KernelKind, graph: &Graph, d: usize, cfg: FeatgraphGpuConfig) -> f64 {
    let n = graph.num_vertices();
    match kind {
        KernelKind::GcnAggregation => {
            let udf = Udf::copy_src(d);
            // 256-thread blocks: full occupancy regardless of the hybrid
            // staging footprint; lanes beyond d idle harmlessly
            let fds = Fds::gpu_thread_x(256);
            let opts = GpuSpmmOptions {
                rows_per_block: cfg.rows_per_block,
                hybrid: cfg.hybrid,
                device: cfg.device,
            };
            let kernel = featgraph::spmm_with_options(
                graph,
                &udf,
                Reducer::Sum,
                &fds,
                Target::Gpu,
                None,
                Some(&opts),
            )
            .expect("compile");
            let x = features(n, d);
            let inputs = GraphTensors::vertex_only(&x);
            let mut out = Dense2::zeros(n, d);
            kernel.run(&inputs, &mut out).expect("run").total_gpu_ms()
        }
        KernelKind::MlpAggregation => {
            let udf = Udf::mlp(MLP_D1, d);
            let fds = Fds::gpu_block_tree(d.clamp(32, 1024));
            let opts = GpuSpmmOptions {
                rows_per_block: cfg.rows_per_block,
                hybrid: None,
                device: cfg.device,
            };
            let kernel = featgraph::spmm_with_options(
                graph,
                &udf,
                Reducer::Max,
                &fds,
                Target::Gpu,
                None,
                Some(&opts),
            )
            .expect("compile");
            let x = features(n, MLP_D1);
            let w = weights(MLP_D1, d);
            let params = [&w];
            let inputs = GraphTensors::with_params(&x, &params);
            let mut out = Dense2::zeros(n, d);
            kernel.run(&inputs, &mut out).expect("run").total_gpu_ms()
        }
        KernelKind::DotAttention => {
            let udf = Udf::dot(d);
            let mut fds = Fds::gpu_tree_reduce(256);
            fds.gpu.tree_reduce = cfg.tree_reduce;
            let sddmm_opts = GpuSddmmOptions {
                device: cfg.device,
                ..Default::default()
            };
            let kernel = featgraph::sddmm_with_options(
                graph,
                &udf,
                &fds,
                Target::Gpu,
                None,
                Some(&sddmm_opts),
            )
            .expect("compile");
            let x = features(n, d);
            let inputs = GraphTensors::vertex_only(&x);
            let mut out = Dense2::zeros(graph.num_edges(), 1);
            kernel.run(&inputs, &mut out).expect("run").total_gpu_ms()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_report_gcn_times() {
        let g = fg_graph::uniform(300, 6, 1);
        for sys in [GpuSystem::Gunrock, GpuSystem::Cusparse, GpuSystem::FeatGraph] {
            let t = gpu_kernel_ms(sys, KernelKind::GcnAggregation, &g, 32);
            assert!(t.unwrap() > 0.0, "{sys:?}");
        }
    }

    #[test]
    fn cusparse_covers_only_vanilla_spmm() {
        let g = fg_graph::uniform(100, 4, 2);
        assert!(gpu_kernel_ms(GpuSystem::Cusparse, KernelKind::MlpAggregation, &g, 16).is_none());
        assert!(gpu_kernel_ms(GpuSystem::Cusparse, KernelKind::DotAttention, &g, 16).is_none());
    }

    #[test]
    fn gunrock_loses_badly_on_gcn_aggregation() {
        // the Table IVa shape: atomics + blackbox feature loops
        let g = fg_graph::uniform(2000, 50, 3);
        let gunrock = gpu_kernel_ms(GpuSystem::Gunrock, KernelKind::GcnAggregation, &g, 64).unwrap();
        let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::GcnAggregation, &g, 64).unwrap();
        assert!(
            gunrock > 5.0 * fg,
            "gunrock {gunrock:.3} ms vs featgraph {fg:.3} ms"
        );
    }

    #[test]
    fn featgraph_is_on_par_with_cusparse() {
        let g = fg_graph::uniform(2000, 50, 4);
        let cu = gpu_kernel_ms(GpuSystem::Cusparse, KernelKind::GcnAggregation, &g, 64).unwrap();
        let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::GcnAggregation, &g, 64).unwrap();
        let ratio = fg / cu;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "featgraph/cusparse ratio {ratio}"
        );
    }
}
