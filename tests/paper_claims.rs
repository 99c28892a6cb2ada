//! The paper's qualitative evaluation claims, as assertions.
//!
//! GPU-side claims run on the deterministic simulator, so they are exact and
//! CI-stable. CPU-side claims involve wall clocks and use generous margins.

use featgraph_suite::featgraph;
use featgraph_suite::fg_graph::{self, Dataset};

use fg_bench::{
    cpu_kernel_secs, featgraph_cpu_secs, featgraph_gpu_ms, gpu_kernel_ms, CpuSystem,
    FeatgraphCpuConfig, FeatgraphGpuConfig, GpuSystem, KernelKind,
};

const SCALE: usize = 192;

/// Table IVa: Gunrock is more than an order of magnitude slower than
/// FeatGraph on GCN aggregation (paper: 24×–206×).
#[test]
fn gunrock_loses_an_order_of_magnitude_on_gcn_aggregation() {
    let g = Dataset::Reddit.generate(SCALE);
    for d in [32, 256] {
        let gunrock =
            gpu_kernel_ms(GpuSystem::Gunrock, KernelKind::GcnAggregation, &g, d).unwrap();
        let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::GcnAggregation, &g, d).unwrap();
        assert!(gunrock > 10.0 * fg, "d={d}: {gunrock:.2} vs {fg:.2} ms");
    }
}

/// Table IVb: the gap is even larger on MLP aggregation (paper: 18×–96×) —
/// the blackbox functor re-reads the weight matrix per edge.
#[test]
fn gunrock_loses_catastrophically_on_mlp_aggregation() {
    let g = Dataset::Reddit.generate(SCALE);
    let gunrock = gpu_kernel_ms(GpuSystem::Gunrock, KernelKind::MlpAggregation, &g, 128).unwrap();
    let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::MlpAggregation, &g, 128).unwrap();
    assert!(gunrock > 20.0 * fg, "{gunrock:.2} vs {fg:.2} ms");
}

/// Table IVc: on dot-product attention the gap is small (paper: 1.2×–3.1×) —
/// no atomics, bandwidth-parity reads.
#[test]
fn gunrock_is_only_modestly_slower_on_attention() {
    let g = Dataset::Reddit.generate(SCALE);
    for d in [32, 512] {
        let gunrock = gpu_kernel_ms(GpuSystem::Gunrock, KernelKind::DotAttention, &g, d).unwrap();
        let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::DotAttention, &g, d).unwrap();
        let ratio = gunrock / fg;
        assert!(
            (1.0..=8.0).contains(&ratio),
            "d={d}: ratio {ratio:.2} out of the paper's band"
        );
    }
}

/// Table IVa: FeatGraph is on par with cuSPARSE on vanilla SpMM
/// (paper: ±10–20%).
#[test]
fn featgraph_matches_cusparse_on_vanilla_spmm() {
    for ds in Dataset::ALL {
        let g = ds.generate(SCALE);
        let cu = gpu_kernel_ms(GpuSystem::Cusparse, KernelKind::GcnAggregation, &g, 128).unwrap();
        let fg = gpu_kernel_ms(GpuSystem::FeatGraph, KernelKind::GcnAggregation, &g, 128).unwrap();
        let ratio = fg / cu;
        assert!((0.7..=1.3).contains(&ratio), "{}: ratio {ratio:.2}", ds.name());
    }
}

/// Fig. 12: tree reduction wins over the serial per-thread dot, and the win
/// grows with the feature length (paper: up to 2×).
#[test]
fn tree_reduction_speedup_grows_with_feature_length() {
    let g = Dataset::Rand100K.generate(SCALE);
    let ratio_at = |d: usize| {
        let serial = featgraph_gpu_ms(
            KernelKind::DotAttention,
            &g,
            d,
            FeatgraphGpuConfig {
                tree_reduce: false,
                ..Default::default()
            },
        );
        let tree = featgraph_gpu_ms(KernelKind::DotAttention, &g, d, FeatgraphGpuConfig::default());
        serial / tree
    };
    let small = ratio_at(32);
    let large = ratio_at(512);
    assert!(large > small, "small-d {small:.2} vs large-d {large:.2}");
    assert!(large > 1.5, "large-d speedup only {large:.2}");
}

/// Fig. 13: hybrid partitioning helps on the two-tier rand-100K graph
/// (paper: 10–20% over cuSPARSE; stronger at reduced scale).
#[test]
fn hybrid_partitioning_beats_plain_on_two_tier_graphs() {
    use featgraph::HybridOptions;
    let g = Dataset::Rand100K.generate(96);
    let n = g.num_vertices();
    let rows_per_block = (n / 320).clamp(2, 64);
    let mut degs: Vec<usize> = (0..n as u32).map(|v| g.out_degree(v)).collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let threshold = degs[n / 5].max(1);
    let plain = featgraph_gpu_ms(
        KernelKind::GcnAggregation,
        &g,
        128,
        FeatgraphGpuConfig {
            rows_per_block,
            ..Default::default()
        },
    );
    let hybrid = featgraph_gpu_ms(
        KernelKind::GcnAggregation,
        &g,
        128,
        FeatgraphGpuConfig {
            rows_per_block,
            hybrid: Some(HybridOptions {
                degree_threshold: threshold,
                shared_budget_bytes: 24 * 1024,
            }),
            ..Default::default()
        },
    );
    assert!(hybrid < plain, "hybrid {hybrid:.3} vs plain {plain:.3} ms");
}

/// Fig. 15: starving the SMs with too few blocks is slow; block counts past
/// saturation plateau.
#[test]
fn block_count_sensitivity_has_the_fig15_shape() {
    let g = Dataset::Reddit.generate(SCALE);
    let n = g.num_vertices();
    let ms_at = |blocks: usize| {
        featgraph_gpu_ms(
            KernelKind::GcnAggregation,
            &g,
            128,
            FeatgraphGpuConfig {
                rows_per_block: n.div_ceil(blocks).max(1),
                ..Default::default()
            },
        )
    };
    let starved = ms_at(8);
    let saturated = ms_at(256);
    let oversubscribed = ms_at(1024.min(n));
    assert!(starved > 2.0 * saturated, "{starved:.3} vs {saturated:.3}");
    assert!((oversubscribed / saturated - 1.0).abs() < 0.3);
}

/// Table III: Ligra's blackbox per-edge execution loses to the fused kernels
/// on the CPU too (paper: 1.4×–6×). Wall-clock based: generous margin.
/// The fused kernels' advantage (fewer passes, more work per inner loop) only
/// materializes with optimizations on — in unoptimized builds the extra
/// abstraction makes the ratio meaningless, so skip outside `--release`.
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock perf ratio; only meaningful in optimized builds"
)]
#[test]
fn ligra_is_slower_than_featgraph_on_cpu_kernels() {
    let g = fg_graph::uniform(2000, 60, 3);
    for kind in [KernelKind::MlpAggregation, KernelKind::GcnAggregation] {
        let ligra = cpu_kernel_secs(CpuSystem::Ligra, kind, &g, 64, 1, 2).unwrap();
        let fg = featgraph_cpu_secs(kind, &g, 64, 1, 2, FeatgraphCpuConfig::default());
        assert!(ligra > 1.2 * fg, "{kind:?}: ligra {ligra:.4}s vs fg {fg:.4}s");
    }
}

/// §III-C1: Hilbert-curve traversal improves SDDMM locality; measurable in
/// the order's jump metric deterministically.
#[test]
fn hilbert_traversal_improves_locality_metric() {
    use featgraph_suite::fg_graph::{mean_jump, EdgeOrder};
    let g = Dataset::Reddit.generate(SCALE);
    let canonical = mean_jump(&EdgeOrder::canonical(&g));
    let hilbert = mean_jump(&EdgeOrder::hilbert(&g));
    assert!(
        hilbert < 0.5 * canonical,
        "hilbert {hilbert:.1} vs canonical {canonical:.1}"
    );
}

/// The flexibility column of Table I: the vendor libraries simply do not
/// provide the generalized kernels FeatGraph covers.
#[test]
fn vendor_libraries_lack_generalized_kernels() {
    let g = fg_graph::uniform(50, 4, 1);
    for kind in [KernelKind::MlpAggregation, KernelKind::DotAttention] {
        assert!(cpu_kernel_secs(CpuSystem::Mkl, kind, &g, 16, 1, 1).is_none());
        assert!(gpu_kernel_ms(GpuSystem::Cusparse, kind, &g, 16).is_none());
    }
    // while FeatGraph runs them all
    for kind in [
        KernelKind::GcnAggregation,
        KernelKind::MlpAggregation,
        KernelKind::DotAttention,
    ] {
        assert!(featgraph_cpu_secs(kind, &g, 16, 1, 1, FeatgraphCpuConfig::default()) > 0.0);
    }
}
