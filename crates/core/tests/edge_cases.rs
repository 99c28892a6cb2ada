//! Degenerate-input regression tests: empty graphs, isolated vertices, and
//! zero feature dimensions must produce `Err` or a well-defined empty
//! result — never a panic.

use featgraph::reference::{sddmm_reference, spmm_reference};
use featgraph::{
    sddmm, spmm, GraphTensors, KernelError, Reducer, Target, Udf,
};
use fg_graph::Graph;
use fg_ir::Fds;
use fg_tensor::Dense2;

const ALL_REDUCERS: [Reducer; 4] = [Reducer::Sum, Reducer::Max, Reducer::Min, Reducer::Mean];

/// Deterministic quarter-integer lattice values in `[-2, 2]`: sums and
/// products stay exact in f32, so everything but `Mean`'s division can be
/// compared bit-for-bit against the reference.
fn lattice_features(rows: usize, cols: usize) -> Dense2<f32> {
    Dense2::from_fn(rows, cols, |r, c| ((r * 5 + c * 3) % 17) as f32 * 0.25 - 2.0)
}

fn assert_close(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            (w - g).abs() <= 1e-5 * w.abs().max(1.0),
            "{what}: index {i}: want {w}, got {g}"
        );
    }
}

fn empty_graph() -> Graph {
    Graph::from_edges(0, &[])
}

fn edgeless_graph(n: usize) -> Graph {
    Graph::from_edges(n, &[])
}

#[test]
fn zero_feature_dim_is_a_clean_error() {
    let g = edgeless_graph(4);
    let udf = Udf::copy_src(0);
    for target in [Target::Cpu, Target::Gpu] {
        let Err(err) = spmm(&g, &udf, Reducer::Sum, target, &Fds::default()) else {
            panic!("zero-dim spmm compiled");
        };
        assert!(matches!(err, KernelError::Udf(_)), "{err}");
        let Err(err) = sddmm(&g, &udf, target, &Fds::default()) else {
            panic!("zero-dim sddmm compiled");
        };
        assert!(matches!(err, KernelError::Udf(_)), "{err}");
    }
}

#[test]
fn spmm_on_zero_vertex_graph() {
    let g = empty_graph();
    let x = Dense2::<f32>::zeros(0, 8);
    let udf = Udf::copy_src(8);
    for target in [Target::Cpu, Target::Gpu] {
        let k = spmm(&g, &udf, Reducer::Sum, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::zeros(0, 8);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    }
}

#[test]
fn spmm_on_edgeless_graph_yields_identity_rows() {
    // 5 isolated vertices: sum-aggregation output is all zeros, no panic
    // from the partitioner or the thread pool.
    let g = edgeless_graph(5);
    let x = Dense2::<f32>::from_fn(5, 4, |v, i| (v + i) as f32);
    let udf = Udf::copy_src(4);
    for target in [Target::Cpu, Target::Gpu] {
        let k = spmm(&g, &udf, Reducer::Sum, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::from_fn(5, 4, |_, _| 7.0);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}

#[test]
fn sddmm_on_zero_vertex_graph() {
    let g = empty_graph();
    let x = Dense2::<f32>::zeros(0, 8);
    let udf = Udf::dot(8);
    for target in [Target::Cpu, Target::Gpu] {
        let k = sddmm(&g, &udf, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::zeros(0, 1);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    }
}

#[test]
fn sddmm_on_edgeless_graph() {
    let g = edgeless_graph(6);
    let x = Dense2::<f32>::from_fn(6, 8, |v, i| (v * i) as f32 * 0.1);
    let udf = Udf::dot(8);
    for target in [Target::Cpu, Target::Gpu] {
        let k = sddmm(&g, &udf, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::zeros(0, 1);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    }
}

#[test]
fn mlp_spmm_on_empty_graph() {
    // the MLP fast path indexes params and shared tiles; make sure the
    // empty iteration spaces hold up
    let g = empty_graph();
    let x = Dense2::<f32>::zeros(0, 8);
    let w = Dense2::<f32>::zeros(8, 4);
    let params = [&w];
    let inputs = GraphTensors::with_params(&x, &params);
    let udf = Udf::mlp(8, 4);
    for target in [Target::Cpu, Target::Gpu] {
        let k = spmm(&g, &udf, Reducer::Sum, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::zeros(0, 4);
        k.run(&inputs, &mut out).unwrap();
    }
}

#[test]
fn oversized_schedule_parameters_clamp() {
    // more feature tiles than feature columns, more partitions than
    // vertices: the schedule should clamp, not panic or mis-aggregate
    let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    let x = Dense2::<f32>::from_fn(3, 2, |v, i| (v * 2 + i) as f32);
    let udf = Udf::copy_src(2);
    use featgraph::cpu::spmm::{CpuSpmm, CpuSpmmOptions};
    let fds = Fds::cpu_tiled(16); // 16 tiles over 2 columns
    let opts = CpuSpmmOptions::with_threads(64, 1); // 64 partitions over 3 vertices
    let k = CpuSpmm::compile(&g, &udf, Reducer::Sum, &fds, &opts).unwrap();
    let mut out = Dense2::<f32>::zeros(3, 2);
    k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    // ring graph: each vertex receives exactly its predecessor's feature
    assert_eq!(out.row(1), x.row(0));
}

// --- degenerate-topology differential tests (fg-check satellite) ---------
//
// Duplicate edges, self-loops, and all-isolated vertex sets are the graph
// shapes the fg-check fuzzer weights hardest; these lock the audited
// behavior in as plain unit tests: every reducer, both kernels, both
// optimized targets, and the ligra/gunrock/sparselib baselines must agree
// with the naive reference.

fn self_loop_graph() -> Graph {
    Graph::from_edges(4, &[(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 1), (3, 0)])
}

fn duplicate_edges() -> &'static [(u32, u32)] {
    &[(0, 1), (0, 1), (2, 3), (2, 3), (2, 3), (4, 0), (1, 2), (1, 2), (3, 3)]
}

fn unique_edges() -> &'static [(u32, u32)] {
    &[(0, 1), (2, 3), (4, 0), (1, 2), (3, 3)]
}

fn spmm_matches_reference_on(g: &Graph, what: &str) {
    let (n, d) = (g.num_vertices(), 4);
    let x = lattice_features(n, d);
    let udf = Udf::copy_src(d);
    let inputs = GraphTensors::vertex_only(&x);
    for reducer in ALL_REDUCERS {
        let mut want = Dense2::<f32>::zeros(n, d);
        spmm_reference(g, &udf, reducer, &inputs, &mut want).unwrap();
        for target in [Target::Cpu, Target::Gpu] {
            let k = spmm(g, &udf, reducer, target, &Fds::default()).unwrap();
            // canary fill: a skipped row cannot masquerade as a correct zero
            let mut out = Dense2::<f32>::from_fn(n, d, |_, _| -77.25);
            k.run(&inputs, &mut out).unwrap();
            assert_close(
                want.as_slice(),
                out.as_slice(),
                &format!("{what}: spmm {reducer:?} {target:?}"),
            );
        }
    }
}

fn sddmm_matches_reference_on(g: &Graph, what: &str) {
    let (n, m, d) = (g.num_vertices(), g.num_edges(), 4);
    let x = lattice_features(n, d);
    let udf = Udf::dot(d);
    let inputs = GraphTensors::vertex_only(&x);
    let mut want = Dense2::<f32>::zeros(m, 1);
    sddmm_reference(g, &udf, &inputs, &mut want).unwrap();
    for target in [Target::Cpu, Target::Gpu] {
        let k = sddmm(g, &udf, target, &Fds::default()).unwrap();
        let mut out = Dense2::<f32>::from_fn(m, 1, |_, _| -77.25);
        k.run(&inputs, &mut out).unwrap();
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: sddmm {target:?}"));
    }
}

#[test]
fn every_reducer_matches_reference_on_self_loops() {
    let g = self_loop_graph();
    spmm_matches_reference_on(&g, "self-loop");
    sddmm_matches_reference_on(&g, "self-loop");
}

#[test]
fn every_reducer_matches_reference_on_duplicate_edges() {
    let g = Graph::from_edges(5, duplicate_edges());
    spmm_matches_reference_on(&g, "duplicate-edge");
    sddmm_matches_reference_on(&g, "duplicate-edge");
}

#[test]
fn duplicate_edges_collapse_to_the_deduplicated_graph() {
    // Construction canonicalizes: a list with repeats and its unique form
    // must produce identical kernels (Sum in particular would double-count
    // if duplicates survived anywhere in the pipeline).
    let dup = Graph::from_edges(5, duplicate_edges());
    let uni = Graph::from_edges(5, unique_edges());
    assert_eq!(dup.num_edges(), uni.num_edges());
    let x = lattice_features(5, 3);
    let udf = Udf::copy_src(3);
    let inputs = GraphTensors::vertex_only(&x);
    for reducer in ALL_REDUCERS {
        for target in [Target::Cpu, Target::Gpu] {
            let mut out_dup = Dense2::<f32>::zeros(5, 3);
            let mut out_uni = Dense2::<f32>::zeros(5, 3);
            spmm(&dup, &udf, reducer, target, &Fds::default())
                .unwrap()
                .run(&inputs, &mut out_dup)
                .unwrap();
            spmm(&uni, &udf, reducer, target, &Fds::default())
                .unwrap()
                .run(&inputs, &mut out_uni)
                .unwrap();
            assert_eq!(
                out_dup.as_slice(),
                out_uni.as_slice(),
                "{reducer:?} {target:?}"
            );
        }
    }
}

#[test]
fn every_reducer_on_all_isolated_vertices_is_zero() {
    // Zero-in-degree audit: Max/Min must normalize their ±∞-like identity
    // to 0.0 exactly once, Mean must not divide by zero — on every path.
    let g = edgeless_graph(7);
    spmm_matches_reference_on(&g, "all-isolated");
    let x = lattice_features(7, 4);
    let udf = Udf::copy_src(4);
    let inputs = GraphTensors::vertex_only(&x);
    for reducer in ALL_REDUCERS {
        for target in [Target::Cpu, Target::Gpu] {
            let k = spmm(&g, &udf, reducer, target, &Fds::default()).unwrap();
            let mut out = Dense2::<f32>::from_fn(7, 4, |_, _| -77.25);
            k.run(&inputs, &mut out).unwrap();
            assert!(
                out.as_slice().iter().all(|&v| v == 0.0),
                "{reducer:?} {target:?}: sentinel or canary leaked: {:?}",
                out.as_slice()
            );
        }
    }
    sddmm_matches_reference_on(&g, "all-isolated");
}

#[test]
fn baselines_agree_on_degenerate_graphs() {
    // ligra / gunrock / mkl / cusparse on their supported shapes (SpMM ·
    // copy-src · Sum and SDDMM · dot), over the same degenerate topologies.
    let graphs = [
        ("self-loop", self_loop_graph()),
        ("duplicate-edge", Graph::from_edges(5, duplicate_edges())),
        ("all-isolated", edgeless_graph(6)),
    ];
    for (what, g) in &graphs {
        let (n, m, d) = (g.num_vertices(), g.num_edges(), 4);
        let x = lattice_features(n, d);
        let inputs = GraphTensors::vertex_only(&x);

        let udf = Udf::copy_src(d);
        let mut want = Dense2::<f32>::zeros(n, d);
        spmm_reference(g, &udf, Reducer::Sum, &inputs, &mut want).unwrap();
        let lopts = fg_ligra::EdgeMapOptions::default();
        let gopts = fg_gunrock::GunrockOptions::default();
        let copts = fg_sparselib::cusparse_like::CusparseOptions::default();

        let mut out = Dense2::<f32>::from_fn(n, d, |_, _| -77.25);
        fg_ligra::kernels::gcn_aggregation(g, &x, &mut out, &lopts);
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: ligra gcn"));

        out.fill(-77.25);
        fg_gunrock::gcn_aggregation(g, &x, &mut out, &gopts);
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: gunrock gcn"));

        out.fill(-77.25);
        fg_sparselib::mkl_like::csrmm(g, &x, &mut out, 2);
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: mkl csrmm"));

        out.fill(-77.25);
        fg_sparselib::cusparse_like::csrmm(g, &x, &mut out, &copts);
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: cusparse csrmm"));

        let dot = Udf::dot(d);
        let mut want_e = Dense2::<f32>::zeros(m, 1);
        sddmm_reference(g, &dot, &inputs, &mut want_e).unwrap();

        let mut out_e = Dense2::<f32>::from_fn(m, 1, |_, _| -77.25);
        fg_ligra::kernels::dot_attention(g, &x, &mut out_e, &lopts);
        assert_close(want_e.as_slice(), out_e.as_slice(), &format!("{what}: ligra dot"));

        out_e.fill(-77.25);
        fg_gunrock::dot_attention(g, &x, &mut out_e, &gopts);
        assert_close(want_e.as_slice(), out_e.as_slice(), &format!("{what}: gunrock dot"));
    }
}

#[test]
fn mlp_baselines_agree_on_degenerate_graphs() {
    // SpMM · mlp · Max is the other baseline-supported shape.
    let graphs = [
        ("self-loop", self_loop_graph()),
        ("duplicate-edge", Graph::from_edges(5, duplicate_edges())),
        ("all-isolated", edgeless_graph(6)),
    ];
    let (d1, d2) = (4, 3);
    for (what, g) in &graphs {
        let n = g.num_vertices();
        let x = lattice_features(n, d1);
        let w = lattice_features(d1, d2);
        let params = [&w];
        let inputs = GraphTensors::with_params(&x, &params);
        let udf = Udf::mlp(d1, d2);
        let mut want = Dense2::<f32>::zeros(n, d2);
        spmm_reference(g, &udf, Reducer::Max, &inputs, &mut want).unwrap();

        let mut out = Dense2::<f32>::from_fn(n, d2, |_, _| -77.25);
        fg_ligra::kernels::mlp_aggregation(g, &x, &w, &mut out, &fg_ligra::EdgeMapOptions::default());
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: ligra mlp"));

        out.fill(-77.25);
        fg_gunrock::mlp_aggregation(g, &x, &w, &mut out, &fg_gunrock::GunrockOptions::default());
        assert_close(want.as_slice(), out.as_slice(), &format!("{what}: gunrock mlp"));
    }
}

#[test]
fn autotune_on_edgeless_graph() {
    use featgraph::autotune::{tune_spmm_cpu, tune_spmm_cpu_adaptive};
    let g = edgeless_graph(3);
    let x = Dense2::<f32>::zeros(3, 4);
    let inputs = GraphTensors::vertex_only(&x);
    let udf = Udf::copy_src(4);
    let r = tune_spmm_cpu(&g, &udf, Reducer::Sum, &inputs, &[1, 2], &[1, 2], 1, 1).unwrap();
    assert_eq!(r.grid.len(), 4);
    let r = tune_spmm_cpu_adaptive(&g, &udf, Reducer::Sum, &inputs, 2, 2, 1, 1).unwrap();
    assert_eq!(r.best.graph_partitions, 1);
}

/// Compile copy-src (or `udf`) SpMM for the 16 KB-shared-memory `tiny` GPU.
fn compile_on_tiny(
    udf: &Udf,
    hybrid: Option<featgraph::gpu::spmm::HybridOptions>,
) -> Result<featgraph::SpmmKernel, KernelError> {
    let g = fg_graph::generators::two_tier(4, 30, 60, 3, 1);
    let opts = featgraph::gpu::spmm::GpuSpmmOptions {
        device: fg_gpusim::DeviceConfig::tiny(),
        rows_per_block: 8,
        hybrid,
    };
    let fds = Fds::gpu_thread_x(32);
    featgraph::spmm_with_options(&g, udf, Reducer::Max, &fds, Target::Gpu, None, Some(&opts))
}

#[test]
fn mlp_tile_past_the_sms_shared_memory_is_a_schedule_error() {
    // The staged `src + dst` row of 4097 floats is 16388 B > 16 KB: no block
    // could launch. It used to compile and panic in the first block.
    let err = compile_on_tiny(&Udf::mlp(4097, 4), None).err();
    assert!(matches!(err, Some(KernelError::BadSchedule(_))), "{err:?}");
    // 4096 floats fill the SM exactly and run.
    let k = compile_on_tiny(&Udf::mlp(4096, 4), None).unwrap();
    let (x, w) = (lattice_features(64, 4096), lattice_features(4096, 4));
    let params = [&w];
    let mut out = Dense2::zeros(64, 4);
    k.run(&GraphTensors::with_params(&x, &params), &mut out).unwrap();
}

#[test]
fn hybrid_budget_past_the_sms_shared_memory_is_a_schedule_error() {
    // A 32 KB staging budget on a 16 KB SM used to be priced at occupancy 1
    // and panic once a block staged enough rows.
    use featgraph::gpu::spmm::HybridOptions;
    let hybrid = |shared_budget_bytes| {
        Some(HybridOptions {
            degree_threshold: 2,
            shared_budget_bytes,
        })
    };
    let err = compile_on_tiny(&Udf::copy_src(4), hybrid(32 * 1024)).err();
    assert!(matches!(err, Some(KernelError::BadSchedule(_))), "{err:?}");
    let k = compile_on_tiny(&Udf::copy_src(4), hybrid(16 * 1024)).unwrap();
    let x = lattice_features(64, 4);
    let mut out = Dense2::zeros(64, 4);
    k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
}
