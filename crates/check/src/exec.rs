//! Run one case on every executor that claims to support it and compare
//! each against the naive reference oracle.
//!
//! The optimized CPU and GPU FeatGraph templates accept every case. The
//! baselines are narrower — exactly the capability matrix of the paper's
//! Table I — so they are gated on the (kernel, UDF, reducer) triple:
//!
//! | executor        | accepts                                  |
//! |-----------------|------------------------------------------|
//! | `cpu`, `gpu`    | everything                               |
//! | `ligra-gcn`, `gunrock-gcn`, `mkl`, `cusparse` | SpMM · copy-src · Sum |
//! | `ligra-mlp`, `gunrock-mlp` | SpMM · mlp · Max              |
//! | `ligra-dot`, `gunrock-dot` | SDDMM · dot                   |
//!
//! A panic inside an executor (or the reference) is caught and reported as
//! a failure rather than aborting the sweep — degenerate graphs must never
//! bring a kernel down.

use std::panic::{catch_unwind, AssertUnwindSafe};

use featgraph::{
    fused_reference, fused_with_options, sddmm_reference, sddmm_with_options, spmm_reference,
    spmm_with_options, CpuSddmmOptions, CpuSpmmOptions, FusedInputs, GpuFusedOptions,
    GpuSddmmOptions, GpuSpmmOptions, GraphTensors, HybridOptions, Reducer, Target, Udf,
};
use fg_gpusim::DeviceConfig;
use fg_graph::Graph;
use fg_tensor::Dense2;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use crate::case::{Case, KernelKind, UdfKind};
use crate::tolerance::{compare_slices, Tolerance};

/// One executor disagreeing with the reference (or erroring/panicking).
#[derive(Debug, Clone)]
pub struct ExecFailure {
    /// Executor name (stable; used in failure reports).
    pub exec: &'static str,
    /// Human-readable mismatch/error description.
    pub detail: String,
}

impl std::fmt::Display for ExecFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.exec, self.detail)
    }
}

/// Materialized input tensors for a case. All values live on an exact
/// quarter-integer lattice in `[-2, 2]` so sums, products, and small
/// matmuls are exact in f32 — reassociation then cannot hide a real bug
/// behind rounding noise (only `Mean`'s division rounds).
struct CaseData {
    graph: Graph,
    udf: Udf,
    x: Dense2<f32>,
    xd: Option<Dense2<f32>>,
    xe: Option<Dense2<f32>>,
    w: Option<Dense2<f32>>,
    /// Fused-score operands (src-side, dst-side projections).
    sa: Option<Dense2<f32>>,
    sb: Option<Dense2<f32>>,
}

fn lattice(rng: &mut Pcg64Mcg) -> f32 {
    rng.gen_range(-8i32..9) as f32 * 0.25
}

fn materialize(case: &Case) -> CaseData {
    let graph = case.build_graph();
    let udf = case.build_udf();
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let mut rng = Pcg64Mcg::seed_from_u64(case.seed);
    let x = Dense2::from_fn(n, udf.src_len.max(1), |_, _| lattice(&mut rng));
    // A distinct destination tensor exercises the dst-feature path where no
    // baseline constrains src and dst to alias (the baselines all compute
    // with a single vertex tensor).
    let xd = match case.udf {
        UdfKind::SrcAddDst { .. } | UdfKind::MultiHeadDot { .. } => Some(Dense2::from_fn(
            n,
            udf.dst_len,
            |_, _| lattice(&mut rng),
        )),
        _ => None,
    };
    let xe = (udf.edge_len > 0)
        .then(|| Dense2::from_fn(m, udf.edge_len, |_, _| lattice(&mut rng)));
    let w = match case.udf {
        UdfKind::Mlp { d1, d2 } => Some(Dense2::from_fn(d1, d2, |_, _| lattice(&mut rng))),
        _ => None,
    };
    // Drawn last so spmm/sddmm cases see the same tensor stream as before.
    let (sa, sb) = match case.fused {
        Some(spec) => {
            let (ds, dd) = spec.score_dims();
            (
                Some(Dense2::from_fn(n, ds, |_, _| lattice(&mut rng))),
                Some(Dense2::from_fn(n, dd, |_, _| lattice(&mut rng))),
            )
        }
        None => (None, None),
    };
    CaseData { graph, udf, x, xd, xe, w, sa, sb }
}

/// Output canary: if a kernel silently skips rows the comparison sees this
/// value, not a stale zero that happens to match the reference.
const CANARY: f32 = -77.25;

fn run_protected(
    name: &'static str,
    failures: &mut Vec<ExecFailure>,
    want: &[f32],
    tol: Tolerance,
    f: impl FnOnce(&mut Dense2<f32>) -> Result<(), String>,
    out: &mut Dense2<f32>,
) {
    out.fill(CANARY);
    let result = catch_unwind(AssertUnwindSafe(|| f(out)));
    let detail = match result {
        Ok(Ok(())) => match compare_slices(want, out.as_slice(), tol) {
            None => return,
            Some(m) => format!("mismatch vs reference: {m}"),
        },
        Ok(Err(e)) => format!("error: {e}"),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("panicked: {msg}")
        }
    };
    failures.push(ExecFailure { exec: name, detail });
}

/// Run `case` on the reference plus every applicable executor. An empty
/// result means the case passed everywhere.
pub fn run_case(case: &Case) -> Vec<ExecFailure> {
    let data = materialize(case);
    let CaseData { ref graph, ref udf, ref x, ref xd, ref xe, ref w, ref sa, ref sb } = data;
    let params: Vec<&Dense2<f32>> = w.iter().collect();
    let inputs = GraphTensors {
        vertex: x,
        vertex_dst: xd.as_ref(),
        edge: xe.as_ref(),
        params: &params,
    };
    let fused_op = case.fused.map(|spec| spec.build(&case.udf, case.reducer));
    let fused_inputs = fused_op.as_ref().map(|_| FusedInputs {
        score: GraphTensors::src_dst(
            sa.as_ref().expect("fused score src operand"),
            sb.as_ref().expect("fused score dst operand"),
        ),
        message: inputs,
    });
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let out_rows = match case.kernel {
        KernelKind::Spmm | KernelKind::Fused => n,
        KernelKind::Sddmm => m,
    };
    let mut failures = Vec::new();

    // Oracle first; a reference failure poisons the whole case. For fused
    // cases the oracle is the deliberately *unfused* composition
    // (materialized scores → segment softmax → aggregation), so every fused
    // executor is differentially checked against the unfused path.
    let mut want = Dense2::<f32>::zeros(out_rows, udf.out_len);
    let oracle = catch_unwind(AssertUnwindSafe(|| match case.kernel {
        KernelKind::Spmm => spmm_reference(graph, udf, case.reducer, &inputs, &mut want),
        KernelKind::Sddmm => sddmm_reference(graph, udf, &inputs, &mut want),
        KernelKind::Fused => fused_reference(
            graph,
            fused_op.as_ref().expect("fused op"),
            fused_inputs.as_ref().expect("fused inputs"),
            &mut want,
        ),
    }));
    match oracle {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            failures.push(ExecFailure { exec: "reference", detail: format!("error: {e}") });
            return failures;
        }
        Err(_) => {
            failures.push(ExecFailure { exec: "reference", detail: "panicked".into() });
            return failures;
        }
    }

    let tol = Tolerance::for_case(case);
    let plan = &case.plan;
    let fds = plan.fds();
    let mut out = Dense2::<f32>::zeros(out_rows, udf.out_len);

    // --- optimized FeatGraph templates -----------------------------------
    match case.kernel {
        KernelKind::Spmm => {
            let cpu_opts = CpuSpmmOptions::with_threads(plan.partitions, plan.threads);
            run_protected("cpu", &mut failures, want.as_slice(), tol, |out| {
                let k = spmm_with_options(
                    graph, udf, case.reducer, &fds, Target::Cpu, Some(&cpu_opts), None,
                )
                .map_err(|e| e.to_string())?;
                k.run(&inputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);

            let gpu_opts = GpuSpmmOptions {
                device: DeviceConfig::v100(),
                rows_per_block: plan.rows_per_block,
                hybrid: plan.hybrid.then(|| HybridOptions {
                    // Low threshold so small fuzz graphs actually stage rows.
                    degree_threshold: 2,
                    ..HybridOptions::default()
                }),
            };
            run_protected("gpu", &mut failures, want.as_slice(), tol, |out| {
                let k = spmm_with_options(
                    graph, udf, case.reducer, &fds, Target::Gpu, None, Some(&gpu_opts),
                )
                .map_err(|e| e.to_string())?;
                k.run(&inputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);
        }
        KernelKind::Sddmm => {
            let cpu_opts = CpuSddmmOptions {
                traversal: plan.traversal(),
                threads: plan.threads,
            };
            run_protected("cpu", &mut failures, want.as_slice(), tol, |out| {
                let k = sddmm_with_options(graph, udf, &fds, Target::Cpu, Some(&cpu_opts), None)
                    .map_err(|e| e.to_string())?;
                k.run(&inputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);

            let gpu_opts = GpuSddmmOptions {
                device: DeviceConfig::v100(),
                edges_per_block: plan.edges_per_block,
            };
            run_protected("gpu", &mut failures, want.as_slice(), tol, |out| {
                let k = sddmm_with_options(graph, udf, &fds, Target::Gpu, None, Some(&gpu_opts))
                    .map_err(|e| e.to_string())?;
                k.run(&inputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);
        }
        KernelKind::Fused => {
            let op = fused_op.as_ref().expect("fused op");
            let finputs = fused_inputs.as_ref().expect("fused inputs");
            let cpu_opts = CpuSpmmOptions::with_threads(plan.partitions, plan.threads);
            run_protected("cpu-fused", &mut failures, want.as_slice(), tol, |out| {
                let k = fused_with_options(graph, op, Target::Cpu, Some(&cpu_opts), None)
                    .map_err(|e| e.to_string())?;
                k.run(finputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);

            let gpu_opts = GpuFusedOptions {
                device: DeviceConfig::v100(),
                rows_per_block: plan.rows_per_block,
                threads_per_block: plan.threads_per_block,
            };
            run_protected("gpu-fused", &mut failures, want.as_slice(), tol, |out| {
                let k = fused_with_options(graph, op, Target::Gpu, None, Some(&gpu_opts))
                    .map_err(|e| e.to_string())?;
                k.run(finputs, out).map(|_| ()).map_err(|e| e.to_string())
            }, &mut out);
        }
    }

    // --- baselines, gated by the Table-I capability matrix ----------------
    let gcn_like = case.kernel == KernelKind::Spmm
        && matches!(case.udf, UdfKind::CopySrc { .. })
        && case.reducer == Reducer::Sum;
    let mlp_like = case.kernel == KernelKind::Spmm
        && matches!(case.udf, UdfKind::Mlp { .. })
        && case.reducer == Reducer::Max;
    let dot_like = case.kernel == KernelKind::Sddmm && matches!(case.udf, UdfKind::Dot { .. });

    if gcn_like {
        let opts = fg_ligra::EdgeMapOptions {
            threads: plan.threads,
            ..fg_ligra::EdgeMapOptions::default()
        };
        run_protected("ligra-gcn", &mut failures, want.as_slice(), tol, |out| {
            fg_ligra::gcn_aggregation(graph, x, out, &opts);
            Ok(())
        }, &mut out);

        let gopts = fg_gunrock::GunrockOptions {
            edges_per_block: plan.edges_per_block,
            ..fg_gunrock::GunrockOptions::default()
        };
        run_protected("gunrock-gcn", &mut failures, want.as_slice(), tol, |out| {
            fg_gunrock::gcn_aggregation(graph, x, out, &gopts);
            Ok(())
        }, &mut out);

        run_protected("mkl", &mut failures, want.as_slice(), tol, |out| {
            fg_sparselib::mkl_csrmm(graph, x, out, plan.threads);
            Ok(())
        }, &mut out);

        let copts = fg_sparselib::CusparseOptions {
            rows_per_block: plan.rows_per_block,
            threads_per_block: plan.threads_per_block,
            ..fg_sparselib::CusparseOptions::default()
        };
        run_protected("cusparse", &mut failures, want.as_slice(), tol, |out| {
            fg_sparselib::cusparse_csrmm(graph, x, out, &copts);
            Ok(())
        }, &mut out);
    }

    if mlp_like {
        let weights = w.as_ref().expect("mlp case has weights");
        let opts = fg_ligra::EdgeMapOptions {
            threads: plan.threads,
            ..fg_ligra::EdgeMapOptions::default()
        };
        run_protected("ligra-mlp", &mut failures, want.as_slice(), tol, |out| {
            fg_ligra::mlp_aggregation(graph, x, weights, out, &opts);
            Ok(())
        }, &mut out);

        let gopts = fg_gunrock::GunrockOptions {
            edges_per_block: plan.edges_per_block,
            ..fg_gunrock::GunrockOptions::default()
        };
        run_protected("gunrock-mlp", &mut failures, want.as_slice(), tol, |out| {
            fg_gunrock::mlp_aggregation(graph, x, weights, out, &gopts);
            Ok(())
        }, &mut out);
    }

    if dot_like {
        let opts = fg_ligra::EdgeMapOptions {
            threads: plan.threads,
            ..fg_ligra::EdgeMapOptions::default()
        };
        run_protected("ligra-dot", &mut failures, want.as_slice(), tol, |out| {
            fg_ligra::dot_attention(graph, x, out, &opts);
            Ok(())
        }, &mut out);

        let gopts = fg_gunrock::GunrockOptions {
            edges_per_block: plan.edges_per_block,
            ..fg_gunrock::GunrockOptions::default()
        };
        run_protected("gunrock-dot", &mut failures, want.as_slice(), tol, |out| {
            fg_gunrock::dot_attention(graph, x, out, &gopts);
            Ok(())
        }, &mut out);
    }

    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{ExecPlan, GraphSpec};

    fn base_case() -> Case {
        Case {
            kernel: KernelKind::Spmm,
            graph: GraphSpec::Uniform { n: 12, deg: 3, seed: 1 },
            udf: UdfKind::CopySrc { d: 4 },
            reducer: Reducer::Sum,
            fused: None,
            plan: ExecPlan::default(),
            seed: 7,
        }
    }

    #[test]
    fn healthy_case_passes_every_executor() {
        let fails = run_case(&base_case());
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn zero_in_degree_max_passes_all_paths() {
        // The satellite audit case: isolated destinations under Max must
        // normalize the -inf-like identity to zero exactly once, on every
        // partition/thread/tile combination.
        let mut case = base_case();
        case.graph = GraphSpec::Adversarial { n: 18, seed: 3 };
        case.reducer = Reducer::Max;
        case.plan.partitions = 3;
        case.plan.threads = 2;
        case.plan.feature_tiles = 2;
        let fails = run_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn fused_cases_pass_both_fused_executors() {
        use crate::case::{FusedScoreKind, FusedSpec};
        // GAT fast path, softmax on, across a schedule that splits bands
        let mut case = base_case();
        case.kernel = KernelKind::Fused;
        case.udf = UdfKind::CopySrc { d: 8 };
        case.fused = Some(FusedSpec { score: FusedScoreKind::Gat, softmax: true });
        case.plan.partitions = 3;
        case.plan.threads = 2;
        let fails = run_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
        // generic score + generic message, no softmax, Max aggregation
        case.udf = UdfKind::SrcMulEdgeScalar { d: 4 };
        case.fused = Some(FusedSpec { score: FusedScoreKind::Dot { d: 2 }, softmax: false });
        case.reducer = Reducer::Max;
        let fails = run_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
        // degenerate graphs must not bring the fused kernels down
        case.graph = GraphSpec::Edgeless { n: 5 };
        case.reducer = Reducer::Sum;
        case.fused = Some(FusedSpec { score: FusedScoreKind::Gat, softmax: true });
        case.udf = UdfKind::CopySrc { d: 2 };
        let fails = run_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
        case.graph = GraphSpec::Empty;
        let fails = run_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn a_seeded_mismatch_is_detected() {
        // Sanity-check the harness actually detects divergence: compare a
        // Max case against a deliberately wrong oracle by corrupting the
        // tolerance to zero width and the seed to a case known to produce
        // nonzero outputs, then flip one executor's reducer via a distinct
        // case. Simplest honest check: Sum vs Mean must differ on a graph
        // with in-degree > 1.
        let graph = GraphSpec::Explicit { n: 2, edges: vec![(0, 1), (1, 1)] }.build();
        let udf = Udf::copy_src(2);
        let x = Dense2::from_fn(2, 2, |r, c| (r + c) as f32 + 1.0);
        let inputs = GraphTensors::vertex_only(&x);
        let mut sum = Dense2::zeros(2, 2);
        let mut mean = Dense2::zeros(2, 2);
        spmm_reference(&graph, &udf, Reducer::Sum, &inputs, &mut sum).unwrap();
        spmm_reference(&graph, &udf, Reducer::Mean, &inputs, &mut mean).unwrap();
        assert!(
            compare_slices(sum.as_slice(), mean.as_slice(), Tolerance::strict()).is_some(),
            "harness failed to flag a genuine divergence"
        );
    }
}
