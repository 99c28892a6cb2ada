//! Cross-system agreement: every system in the workspace — FeatGraph CPU,
//! FeatGraph GPU-sim, Ligra, MKL-like, cuSPARSE-like, Gunrock — must compute
//! identical results for the shared kernels. This is the workspace-level
//! guarantee that performance comparisons compare like with like.

use featgraph::{sddmm, spmm, Fds, GraphTensors, Reducer, Target, Udf};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph::{self, Graph};
use featgraph_suite::fg_gunrock;
use featgraph_suite::fg_ligra::{self, EdgeMapOptions};
use featgraph_suite::fg_sparselib;
use featgraph_suite::fg_tensor::Dense2;

fn test_graph() -> Graph {
    fg_graph::power_law(400, 8, 0.6, 33)
}

fn features(n: usize, d: usize) -> Dense2<f32> {
    Dense2::from_fn(n, d, |v, i| ((v * 31 + i * 7) % 23) as f32 * 0.25 - 2.0)
}

#[test]
fn all_six_systems_agree_on_gcn_aggregation() {
    let g = test_graph();
    let n = g.num_vertices();
    let d = 24;
    let x = features(n, d);

    // reference
    let mut want = Dense2::zeros(n, d);
    featgraph::spmm_reference(
        &g,
        &Udf::copy_src(d),
        Reducer::Sum,
        &GraphTensors::vertex_only(&x),
        &mut want,
    )
    .unwrap();

    // featgraph cpu
    let k = spmm(&g, &Udf::copy_src(d), Reducer::Sum, Target::Cpu, &Fds::cpu_tiled(3)).unwrap();
    let mut out = Dense2::zeros(n, d);
    k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    assert!(out.approx_eq(&want, 1e-3), "featgraph cpu");

    // featgraph gpu-sim
    let k = spmm(&g, &Udf::copy_src(d), Reducer::Sum, Target::Gpu, &Fds::gpu_thread_x(64)).unwrap();
    let mut out = Dense2::zeros(n, d);
    k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    assert!(out.approx_eq(&want, 1e-3), "featgraph gpu");

    // ligra
    let mut out = Dense2::zeros(n, d);
    fg_ligra::gcn_aggregation(&g, &x, &mut out, &EdgeMapOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "ligra");

    // mkl-like
    let mut out = Dense2::zeros(n, d);
    fg_sparselib::mkl_csrmm(&g, &x, &mut out, 2);
    assert!(out.approx_eq(&want, 1e-3), "mkl");

    // cusparse-like
    let mut out = Dense2::zeros(n, d);
    fg_sparselib::cusparse_csrmm(
        &g,
        &x,
        &mut out,
        &fg_sparselib::CusparseOptions::default(),
    );
    assert!(out.approx_eq(&want, 1e-3), "cusparse");

    // gunrock
    let mut out = Dense2::zeros(n, d);
    fg_gunrock::gcn_aggregation(&g, &x, &mut out, &fg_gunrock::GunrockOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "gunrock");
}

#[test]
fn all_systems_agree_on_mlp_aggregation() {
    let g = test_graph();
    let n = g.num_vertices();
    let (d1, d2) = (8, 12);
    let x = features(n, d1);
    let w = Dense2::from_fn(d1, d2, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.1 - 0.5);

    let udf = Udf::mlp(d1, d2);
    let params = [&w];
    let inputs = GraphTensors::with_params(&x, &params);
    let mut want = Dense2::zeros(n, d2);
    featgraph::spmm_reference(&g, &udf, Reducer::Max, &inputs, &mut want).unwrap();

    // featgraph cpu + gpu
    for (target, fds) in [
        (Target::Cpu, Fds::cpu_tiled2(2, 2)),
        (Target::Gpu, Fds::gpu_block_tree(64)),
    ] {
        let k = spmm(&g, &udf, Reducer::Max, target, &fds).unwrap();
        let mut out = Dense2::zeros(n, d2);
        k.run(&inputs, &mut out).unwrap();
        assert!(out.approx_eq(&want, 1e-3), "featgraph {target:?}");
    }

    // ligra
    let mut out = Dense2::zeros(n, d2);
    fg_ligra::mlp_aggregation(&g, &x, &w, &mut out, &EdgeMapOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "ligra mlp");

    // gunrock
    let mut out = Dense2::zeros(n, d2);
    fg_gunrock::mlp_aggregation(&g, &x, &w, &mut out, &fg_gunrock::GunrockOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "gunrock mlp");
}

#[test]
fn all_systems_agree_on_dot_attention() {
    let g = test_graph();
    let n = g.num_vertices();
    let m = g.num_edges();
    let d = 16;
    let x = features(n, d);

    let udf = Udf::dot(d);
    let inputs = GraphTensors::vertex_only(&x);
    let mut want = Dense2::zeros(m, 1);
    featgraph::sddmm_reference(&g, &udf, &inputs, &mut want).unwrap();

    for (target, fds) in [
        (Target::Cpu, Fds::cpu_tiled(2)),
        (Target::Gpu, Fds::gpu_tree_reduce(64)),
    ] {
        let k = sddmm(&g, &udf, target, &fds).unwrap();
        let mut out = Dense2::zeros(m, 1);
        k.run(&inputs, &mut out).unwrap();
        assert!(out.approx_eq(&want, 1e-3), "featgraph {target:?}");
    }

    let mut out = Dense2::zeros(m, 1);
    fg_ligra::dot_attention(&g, &x, &mut out, &EdgeMapOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "ligra attention");

    let mut out = Dense2::zeros(m, 1);
    fg_gunrock::dot_attention(&g, &x, &mut out, &fg_gunrock::GunrockOptions::default());
    assert!(out.approx_eq(&want, 1e-3), "gunrock attention");
}

#[test]
fn hybrid_partitioning_changes_cost_not_results() {
    use featgraph::{GpuSpmm, GpuSpmmOptions, HybridOptions};
    let g = fg_graph::two_tier(40, 150, 760, 5, 5);
    let n = g.num_vertices();
    let d = 32;
    let x = features(n, d);
    let udf = Udf::copy_src(d);
    let fds = Fds::gpu_thread_x(256);

    let run = |opts: &GpuSpmmOptions| -> Dense2<f32> {
        let k = GpuSpmm::compile(&g, &udf, Reducer::Sum, &fds, opts).unwrap();
        let mut out = Dense2::zeros(n, d);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
        out
    };
    let plain = run(&GpuSpmmOptions {
        rows_per_block: 16,
        ..Default::default()
    });
    let hybrid = run(&GpuSpmmOptions {
        rows_per_block: 16,
        hybrid: Some(HybridOptions {
            degree_threshold: 50,
            ..Default::default()
        }),
        ..Default::default()
    });
    assert!(plain.approx_eq(&hybrid, 1e-4));
}
