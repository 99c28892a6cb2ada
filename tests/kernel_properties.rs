//! Property-based tests: on random graphs, random feature data, and random
//! schedules, the optimized kernels must agree with the reference
//! implementations — the workspace's core correctness invariant.

use featgraph::{
    CpuSddmm, CpuSddmmOptions, CpuSpmm, CpuSpmmOptions, Fds, GraphTensors, Reducer, Target,
    Traversal, Udf,
};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph::{Coo, Graph};
use featgraph_suite::fg_tensor::Dense2;
use proptest::prelude::*;

/// Random graph strategy: up to 60 vertices, up to 240 edges.
fn graphs() -> impl Strategy<Value = Graph> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..240)
            .prop_map(move |edges| Graph::from_coo(Coo::from_edges(n, &edges)))
    })
}

fn reducers() -> impl Strategy<Value = Reducer> {
    prop_oneof![
        Just(Reducer::Sum),
        Just(Reducer::Max),
        Just(Reducer::Min),
        Just(Reducer::Mean),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cpu_spmm_matches_reference_under_any_schedule(
        g in graphs(),
        agg in reducers(),
        d in 1usize..24,
        parts in 1usize..8,
        tiles in 1usize..6,
        threads in 1usize..4,
        seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let x = Dense2::<f32>::from_fn(n, d, |v, i| {
            (((v * 7 + i * 13 + seed as usize) % 29) as f32) * 0.17 - 2.0
        });
        let udf = Udf::copy_src(d);
        let inputs = GraphTensors::vertex_only(&x);

        let mut want = Dense2::zeros(n, d);
        featgraph::spmm_reference(&g, &udf, agg, &inputs, &mut want).unwrap();

        let fds = Fds::cpu_tiled(tiles);
        let opts = CpuSpmmOptions::with_threads(parts, threads);
        let k = CpuSpmm::compile(&g, &udf, agg, &fds, &opts).unwrap();
        let mut out = Dense2::zeros(n, d);
        k.run(&inputs, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-3), "diff {}", out.max_abs_diff(&want));
    }

    #[test]
    fn cpu_sddmm_matches_reference_under_any_schedule(
        g in graphs(),
        d in 1usize..24,
        tiles in 1usize..6,
        hilbert in any::<bool>(),
        threads in 1usize..4,
    ) {
        let n = g.num_vertices();
        let m = g.num_edges();
        let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v * 3 + i * 11) % 17) as f32 * 0.21 - 1.5);
        let udf = Udf::dot(d);
        let inputs = GraphTensors::vertex_only(&x);

        let mut want = Dense2::zeros(m, 1);
        featgraph::sddmm_reference(&g, &udf, &inputs, &mut want).unwrap();

        let opts = CpuSddmmOptions {
            traversal: if hilbert { Traversal::Hilbert } else { Traversal::Canonical },
            threads,
        };
        let k = CpuSddmm::compile(&g, &udf, &Fds::cpu_tiled(tiles), &opts).unwrap();
        let mut out = Dense2::zeros(m, 1);
        k.run(&inputs, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-3));
    }

    #[test]
    fn gpu_spmm_matches_cpu_reference(
        g in graphs(),
        d in 1usize..20,
        rows_per_block in 1usize..12,
    ) {
        let n = g.num_vertices();
        let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v * 5 + i * 7) % 19) as f32 * 0.13 - 1.0);
        let udf = Udf::copy_src(d);
        let inputs = GraphTensors::vertex_only(&x);

        let mut want = Dense2::zeros(n, d);
        featgraph::spmm_reference(&g, &udf, Reducer::Sum, &inputs, &mut want).unwrap();

        let opts = featgraph::GpuSpmmOptions {
            rows_per_block,
            ..Default::default()
        };
        let k = featgraph::GpuSpmm::compile(
            &g, &udf, Reducer::Sum, &Fds::gpu_thread_x(64), &opts,
        ).unwrap();
        let mut out = Dense2::zeros(n, d);
        let stats = k.run(&inputs, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-3));
        prop_assert!(stats.gpu_time_ms.unwrap() > 0.0);
    }

    #[test]
    fn mlp_aggregation_matches_reference_under_tiling(
        g in graphs(),
        d2 in 1usize..16,
        ft in 1usize..5,
        rt in 1usize..4,
    ) {
        let n = g.num_vertices();
        let d1 = 6;
        let x = Dense2::<f32>::from_fn(n, d1, |v, i| ((v + i * 3) % 13) as f32 * 0.2 - 1.1);
        let w = Dense2::<f32>::from_fn(d1, d2, |r, c| ((r * 3 + c) % 7) as f32 * 0.3 - 0.9);
        let udf = Udf::mlp(d1, d2);
        let params = [&w];
        let inputs = GraphTensors::with_params(&x, &params);

        let mut want = Dense2::zeros(n, d2);
        featgraph::spmm_reference(&g, &udf, Reducer::Max, &inputs, &mut want).unwrap();

        let k = featgraph::spmm(&g, &udf, Reducer::Max, Target::Cpu, &Fds::cpu_tiled2(ft, rt)).unwrap();
        let mut out = Dense2::zeros(n, d2);
        k.run(&inputs, &mut out).unwrap();
        prop_assert!(out.approx_eq(&want, 1e-3));
    }
}
