//! CPU kernel measurements: FeatGraph vs Ligra vs MKL-like (Table III,
//! Figs. 10/11/14, Table V).

use featgraph::{
    CpuSddmmOptions, CpuSpmmOptions, Fds, GraphTensors, Reducer, Target, Traversal, Udf,
};
use fg_graph::Graph;
use fg_ligra::EdgeMapOptions;
use fg_tensor::Dense2;

use crate::runner::{features, time_samples, weights, KernelKind, Samples, MLP_D1};

/// Effective cache the partitioning heuristic targets on *this* host. The
/// paper's c5.9xlarge has a 25 MB LLC; this container exposes a 2 MB private
/// L2 in front of a huge shared host L3, so L2 is the level partitioning
/// pays off against (measured in Fig. 14's grid).
pub const EFFECTIVE_LLC_BYTES: usize = 2 * 1024 * 1024;

/// CPU systems compared in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSystem {
    /// Ligra-style engine (`fg-ligra`).
    Ligra,
    /// MKL-like vendor library (`fg-sparselib`); GCN aggregation only.
    Mkl,
    /// FeatGraph.
    FeatGraph,
}

impl CpuSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CpuSystem::Ligra => "Ligra",
            CpuSystem::Mkl => "MKL",
            CpuSystem::FeatGraph => "FeatGraph",
        }
    }
}

/// Measure one cell of Table III: mean seconds for `system` running `kind`
/// at feature length `d` with `threads` workers. Returns `None` where the
/// paper has no number (MKL only supports vanilla SpMM). Thin wrapper over
/// [`cpu_kernel_samples`] for callers that only need a point estimate.
pub fn cpu_kernel_secs(
    system: CpuSystem,
    kind: KernelKind,
    graph: &Graph,
    d: usize,
    threads: usize,
    runs: usize,
) -> Option<f64> {
    cpu_kernel_samples(system, kind, graph, d, threads, runs).map(|s| s.mean())
}

/// Per-run timing samples for one Table III cell (see [`cpu_kernel_secs`]).
pub fn cpu_kernel_samples(
    system: CpuSystem,
    kind: KernelKind,
    graph: &Graph,
    d: usize,
    threads: usize,
    runs: usize,
) -> Option<Samples> {
    let n = graph.num_vertices();
    match (system, kind) {
        (CpuSystem::Mkl, KernelKind::GcnAggregation) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(n, d);
            Some(time_samples(runs, || {
                fg_sparselib::mkl_csrmm(graph, &x, &mut out, threads)
            }))
        }
        (CpuSystem::Mkl, _) => None, // not in the library's API
        (CpuSystem::Ligra, KernelKind::GcnAggregation) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(n, d);
            let opts = EdgeMapOptions {
                threads,
                ..Default::default()
            };
            Some(time_samples(runs, || {
                fg_ligra::gcn_aggregation(graph, &x, &mut out, &opts)
            }))
        }
        (CpuSystem::Ligra, KernelKind::MlpAggregation) => {
            let x = features(n, MLP_D1);
            let w = weights(MLP_D1, d);
            let mut out = Dense2::zeros(n, d);
            let opts = EdgeMapOptions {
                threads,
                ..Default::default()
            };
            Some(time_samples(runs, || {
                fg_ligra::mlp_aggregation(graph, &x, &w, &mut out, &opts)
            }))
        }
        (CpuSystem::Ligra, KernelKind::DotAttention) => {
            let x = features(n, d);
            let mut out = Dense2::zeros(graph.num_edges(), 1);
            let opts = EdgeMapOptions {
                threads,
                ..Default::default()
            };
            Some(time_samples(runs, || {
                fg_ligra::dot_attention(graph, &x, &mut out, &opts)
            }))
        }
        (CpuSystem::FeatGraph, _) => Some(featgraph_cpu_samples(
            kind,
            graph,
            d,
            threads,
            runs,
            FeatgraphCpuConfig::default(),
        )),
    }
}

/// Template/FDS knobs for the FeatGraph CPU measurement (the Fig. 11/14
/// ablations override these).
#[derive(Debug, Clone, Copy)]
pub struct FeatgraphCpuConfig {
    /// Explicit graph partitions (`None` = cache heuristic).
    pub graph_partitions: Option<usize>,
    /// Explicit feature tiles (`None` = `max(1, d/128)`).
    pub feature_tiles: Option<usize>,
    /// SDDMM traversal order.
    pub traversal: Traversal,
}

impl Default for FeatgraphCpuConfig {
    fn default() -> Self {
        Self {
            graph_partitions: None,
            feature_tiles: None,
            traversal: Traversal::Hilbert,
        }
    }
}

/// Default feature-tile count. Tiling trades extra adjacency traversals for
/// smaller feature working sets (Fig. 6b), so it only pays when the feature
/// matrix is large relative to both the cache *and* the adjacency; graph
/// partitioning carries the rest. The sweep defaults therefore tile only
/// wide features, leaving Fig. 11/14 and the autotuner to explore the rest
/// of the space.
pub fn default_feature_tiles(graph: &Graph, d: usize) -> usize {
    let feature_bytes = graph.num_vertices() * d * std::mem::size_of::<f32>();
    let adjacency_bytes = graph.in_csr().index_bytes();
    if feature_bytes > EFFECTIVE_LLC_BYTES && feature_bytes > 2 * adjacency_bytes {
        (d / 256).clamp(1, 8)
    } else {
        1
    }
}

/// Graph-partition count targeting [`EFFECTIVE_LLC_BYTES`].
pub fn default_graph_partitions(graph: &Graph, tile_cols: usize) -> usize {
    fg_graph::partitions_for_cache(
        graph.num_vertices(),
        tile_cols.max(1),
        std::mem::size_of::<f32>(),
        EFFECTIVE_LLC_BYTES,
    )
}

/// Measure FeatGraph's CPU kernel with explicit scheduling knobs; mean
/// seconds (wrapper over [`featgraph_cpu_samples`]).
pub fn featgraph_cpu_secs(
    kind: KernelKind,
    graph: &Graph,
    d: usize,
    threads: usize,
    runs: usize,
    cfg: FeatgraphCpuConfig,
) -> f64 {
    featgraph_cpu_samples(kind, graph, d, threads, runs, cfg).mean()
}

/// Per-run timing samples for FeatGraph's CPU kernel with explicit
/// scheduling knobs.
pub fn featgraph_cpu_samples(
    kind: KernelKind,
    graph: &Graph,
    d: usize,
    threads: usize,
    runs: usize,
    cfg: FeatgraphCpuConfig,
) -> Samples {
    let n = graph.num_vertices();
    let tiles = cfg
        .feature_tiles
        .unwrap_or_else(|| default_feature_tiles(graph, d));
    match kind {
        KernelKind::GcnAggregation => {
            let udf = Udf::copy_src(d);
            let fds = Fds::cpu_tiled(tiles);
            let parts = cfg
                .graph_partitions
                .unwrap_or_else(|| default_graph_partitions(graph, d / tiles.max(1)));
            let opts = CpuSpmmOptions::with_threads(parts, threads);
            let kernel =
                featgraph::spmm_with_options(graph, &udf, Reducer::Sum, &fds, Target::Cpu, Some(&opts), None)
                    .expect("compile");
            let x = features(n, d);
            let inputs = GraphTensors::vertex_only(&x);
            let mut out = Dense2::zeros(n, d);
            time_samples(runs, || {
                kernel.run(&inputs, &mut out).expect("run");
            })
        }
        KernelKind::MlpAggregation => {
            let udf = Udf::mlp(MLP_D1, d);
            let fds = Fds::cpu_tiled2(tiles, 1);
            // sources feed the MLP at width d1
            let parts = cfg
                .graph_partitions
                .unwrap_or_else(|| default_graph_partitions(graph, MLP_D1));
            let opts = CpuSpmmOptions::with_threads(parts, threads);
            let kernel =
                featgraph::spmm_with_options(graph, &udf, Reducer::Max, &fds, Target::Cpu, Some(&opts), None)
                    .expect("compile");
            let x = features(n, MLP_D1);
            let w = weights(MLP_D1, d);
            let params = [&w];
            let inputs = GraphTensors::with_params(&x, &params);
            let mut out = Dense2::zeros(n, d);
            time_samples(runs, || {
                kernel.run(&inputs, &mut out).expect("run");
            })
        }
        KernelKind::DotAttention => {
            let udf = Udf::dot(d);
            let fds = Fds::cpu_tiled(tiles);
            let opts = CpuSddmmOptions {
                traversal: cfg.traversal,
                threads,
            };
            let kernel =
                featgraph::sddmm_with_options(graph, &udf, &fds, Target::Cpu, Some(&opts), None)
                    .expect("compile");
            let x = features(n, d);
            let inputs = GraphTensors::vertex_only(&x);
            let mut out = Dense2::zeros(graph.num_edges(), 1);
            time_samples(runs, || {
                kernel.run(&inputs, &mut out).expect("run");
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_produce_a_time_for_gcn() {
        let g = fg_graph::uniform(300, 6, 1);
        for sys in [CpuSystem::Ligra, CpuSystem::Mkl, CpuSystem::FeatGraph] {
            let t = cpu_kernel_secs(sys, KernelKind::GcnAggregation, &g, 16, 1, 1);
            assert!(t.unwrap() > 0.0, "{sys:?}");
        }
    }

    #[test]
    fn mkl_covers_only_vanilla_spmm() {
        let g = fg_graph::uniform(100, 4, 2);
        assert!(cpu_kernel_secs(CpuSystem::Mkl, KernelKind::MlpAggregation, &g, 16, 1, 1).is_none());
        assert!(cpu_kernel_secs(CpuSystem::Mkl, KernelKind::DotAttention, &g, 16, 1, 1).is_none());
    }

    #[test]
    fn featgraph_runs_all_three_kernels() {
        let g = fg_graph::uniform(200, 5, 3);
        for kind in [
            KernelKind::GcnAggregation,
            KernelKind::MlpAggregation,
            KernelKind::DotAttention,
        ] {
            let t = featgraph_cpu_secs(kind, &g, 32, 1, 1, FeatgraphCpuConfig::default());
            assert!(t > 0.0, "{kind:?}");
        }
    }
}
