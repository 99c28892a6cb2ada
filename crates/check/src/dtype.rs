//! Property checks for half-precision (bf16) feature storage.
//!
//! The serving tier can hold vertex features in `bf16`
//! ([`fg_tensor::FeatureTensor`]), and the CPU kernels
//! ([`featgraph::CpuSpmm::run`],
//! [`featgraph::CpuSddmm::run`]) are generic over the vertex
//! storage type: they widen each row to `f32` as it is read and accumulate
//! in `f32`. One contract makes that safe, and this family sweeps it on
//! seeded random `(graph × kernel × udf)` cases:
//!
//! **Half tracks the dequantized run** — the kernel on quantized storage
//! must agree with the same kernel's `f32` instantiation run on the
//! *dequantized* values, under a widened tolerance (the only legitimate
//! divergence is f32 rounding in a different association order; the storage
//! rounding itself is identical on both sides by construction). For an
//! explicit `t=f32` case both sides are the same instantiation and the
//! tolerance is zero, so the case checks run-to-run determinism.
//!
//! The kernels have one entry point and one loop nest for every storage
//! type, so there is no separate "typed path equals untyped path" property
//! to check; the f32 bits themselves are pinned by
//! `crates/core/tests/golden_bits.rs`.
//!
//! Inputs are drawn *off* the bf16 grid on purpose (uniform in
//! `[-2, 2]`, not the exec fuzzer's quarter-integer lattice): quantization
//! must actually round for the property to mean anything.
//!
//! Cases round-trip through descriptors (`dtype;t=bf16;spmm;g=...`) that
//! embed the kernel fuzzer's grammar, so CI failures replay with
//! `fgcheck --case 'dtype;...'`.

use std::fmt;
use std::str::FromStr;

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use featgraph::{CpuSddmm, CpuSddmmOptions, CpuSpmm, CpuSpmmOptions, GraphTensors, Reducer};
use fg_tensor::{dequantize, quantize, Bf16, Dense2, FeatElem, FeatureDtype};

use crate::case::{Case, ExecPlan, GraphSpec, KernelKind, ParseCaseError, UdfKind};
use crate::tolerance::{compare_slices, Tolerance};

/// One half-precision storage case: a parameterless kernel case plus the
/// storage dtype under test.
#[derive(Debug, Clone, PartialEq)]
pub struct DtypeCase {
    /// Storage dtype the kernel reads its vertex rows from.
    pub dtype: FeatureDtype,
    /// Embedded kernel case (SpMM or SDDMM over the parameterless UDFs the
    /// generator draws; `materialize` builds no parameter matrices).
    pub case: Case,
}

impl fmt::Display for DtypeCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dtype;t={};{}", self.dtype.name(), self.case)
    }
}

impl FromStr for DtypeCase {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |m: &str| ParseCaseError(format!("bad dtype descriptor {s:?}: {m}"));
        let rest = s
            .strip_prefix("dtype;")
            .ok_or_else(|| bad("must start with 'dtype;'"))?;
        let (tseg, case_desc) = rest
            .split_once(';')
            .ok_or_else(|| bad("expected dtype;t=<dtype>;<case>"))?;
        let tval = tseg
            .strip_prefix("t=")
            .ok_or_else(|| bad("second segment must be t=<dtype>"))?;
        let dtype = tval
            .parse::<FeatureDtype>()
            .map_err(|e| bad(&e))?;
        let case: Case = case_desc.parse()?;
        if case.kernel == KernelKind::Fused {
            return Err(bad(
                "the dtype family covers the SpMM and SDDMM templates only",
            ));
        }
        if matches!(case.udf, UdfKind::Mlp { .. }) {
            return Err(bad(
                "mlp declares parameter matrices, which dtype cases do not materialize",
            ));
        }
        Ok(DtypeCase { dtype, case })
    }
}

/// Widened comparison bound for bf16 storage: each stored element carries
/// up to half a ULP of its 8-bit significand (~4e-3 relative), and sums of
/// such elements keep errors of that relative order.
/// The f32-ULP count is deliberately generous — what this family hunts is
/// structural breakage (wrong row, stale value, widened-in-the-wrong-place),
/// which shows up orders of magnitude above rounding noise.
pub fn half_tolerance(dtype: FeatureDtype) -> Tolerance {
    match dtype {
        FeatureDtype::F32 => Tolerance {
            max_ulps: 0,
            rel: 0.0,
            abs: 0.0,
        },
        FeatureDtype::Bf16 => Tolerance {
            max_ulps: 4096,
            rel: 8e-3,
            abs: 1e-3,
        },
    }
}

/// Parameterless SpMM UDFs the generator draws.
const SPMM_UDFS: usize = 5;

fn spmm_udf(k: usize, d: usize) -> UdfKind {
    match k % SPMM_UDFS {
        0 => UdfKind::CopySrc { d },
        1 => UdfKind::CopyEdge { d },
        2 => UdfKind::SrcMulEdge { d },
        3 => UdfKind::SrcMulEdgeScalar { d },
        _ => UdfKind::SrcAddDst { d },
    }
}

/// Draw one bf16 case: small graphs dominate; empty and edgeless graphs
/// appear at fixed rates.
pub fn gen_dtype_case(rng: &mut Pcg64Mcg) -> DtypeCase {
    let graph = match rng.gen_range(0..10u32) {
        0 => GraphSpec::Empty,
        1 => GraphSpec::Edgeless { n: rng.gen_range(1..6) },
        2..=5 => GraphSpec::Uniform {
            n: rng.gen_range(1..200),
            deg: rng.gen_range(1..8),
            seed: rng.gen(),
        },
        6 | 7 => GraphSpec::PowerLaw {
            n: rng.gen_range(2..150),
            deg: rng.gen_range(1..6),
            seed: rng.gen(),
        },
        _ => GraphSpec::Adversarial {
            n: rng.gen_range(1..64),
            seed: rng.gen(),
        },
    };
    let d = [1usize, 2, 3, 4, 8, 16, 32][rng.gen_range(0..7)];
    let (kernel, udf, reducer) = if rng.gen_bool(0.7) {
        let reducer = match rng.gen_range(0..4u32) {
            0 => Reducer::Max,
            1 => Reducer::Min,
            2 => Reducer::Mean,
            _ => Reducer::Sum,
        };
        (KernelKind::Spmm, spmm_udf(rng.gen_range(0..SPMM_UDFS), d), reducer)
    } else {
        let udf = if rng.gen_bool(0.5) {
            UdfKind::Dot { d }
        } else {
            UdfKind::MultiHeadDot {
                h: [1usize, 2, 4][rng.gen_range(0..3)],
                d: [1usize, 2, 4, 8][rng.gen_range(0..4)],
            }
        };
        (KernelKind::Sddmm, udf, Reducer::Sum)
    };
    let plan = ExecPlan {
        threads: rng.gen_range(1..4),
        partitions: rng.gen_range(1..4),
        feature_tiles: rng.gen_range(1..3),
        hilbert: rng.gen_bool(0.25),
        ..ExecPlan::default()
    };
    DtypeCase {
        dtype: FeatureDtype::Bf16,
        case: Case {
            kernel,
            graph,
            udf,
            reducer,
            fused: None,
            plan,
            seed: rng.gen(),
        },
    }
}

/// Off-lattice inputs: uniform in `[-2, 2]`, so quantization to bf16
/// actually rounds (unlike the exec fuzzer's exact quarter-integer grid).
fn off_lattice(rng: &mut Pcg64Mcg) -> f32 {
    (rng.gen::<f64>() * 4.0 - 2.0) as f32
}

struct DtypeData {
    graph: fg_graph::Graph,
    udf: featgraph::Udf,
    x: Dense2<f32>,
    xe: Option<Dense2<f32>>,
}

fn materialize(case: &Case) -> DtypeData {
    let graph = case.build_graph();
    let udf = case.build_udf();
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let mut rng = Pcg64Mcg::seed_from_u64(case.seed);
    let x = Dense2::from_fn(n, udf.src_len.max(1), |_, _| off_lattice(&mut rng));
    let xe =
        (udf.edge_len > 0).then(|| Dense2::from_fn(m, udf.edge_len, |_, _| off_lattice(&mut rng)));
    DtypeData { graph, udf, x, xe }
}

/// The operand bundle of a dtype case: `V`-stored vertex rows plus the
/// (always `f32`) edge tensor.
fn tensors<'a, V: FeatElem>(
    vertex: &'a Dense2<V>,
    edge: Option<&'a Dense2<f32>>,
) -> GraphTensors<'a, f32, V> {
    GraphTensors {
        vertex,
        vertex_dst: None,
        edge,
        params: &[],
    }
}

fn check_spmm<E: FeatElem>(case: &DtypeCase, data: &DtypeData, fails: &mut Vec<String>) {
    let opts = CpuSpmmOptions::with_threads(case.case.plan.partitions, case.case.plan.threads);
    let fds = case.case.plan.fds();
    let k = match CpuSpmm::compile(&data.graph, &data.udf, case.case.reducer, &fds, &opts) {
        Ok(k) => k,
        Err(e) => {
            fails.push(format!("compile failed: {e}"));
            return;
        }
    };
    let xq: Dense2<E> = quantize(&data.x);
    let wide = dequantize(&xq);
    let edge = data.xe.as_ref();
    let mut got = Dense2::zeros(data.graph.num_vertices(), data.udf.out_len);
    if let Err(e) = k.run(&tensors(&xq, edge), &mut got) {
        fails.push(format!("run on {} storage failed: {e}", E::DTYPE));
        return;
    }
    let inputs = tensors(&wide, edge);
    let mut want = Dense2::zeros(data.graph.num_vertices(), data.udf.out_len);
    if let Err(e) = k.run(&inputs, &mut want) {
        fails.push(format!("f32 reference on dequantized values failed: {e}"));
        return;
    }
    if let Some(m) = compare_slices(want.as_slice(), got.as_slice(), half_tolerance(case.dtype)) {
        fails.push(format!(
            "{} spmm diverged from dequantized reference: {m}",
            case.dtype.name()
        ));
    }
}

fn check_sddmm<E: FeatElem>(case: &DtypeCase, data: &DtypeData, fails: &mut Vec<String>) {
    let opts = CpuSddmmOptions {
        traversal: case.case.plan.traversal(),
        threads: case.case.plan.threads,
    };
    let fds = case.case.plan.fds();
    let k = match CpuSddmm::compile(&data.graph, &data.udf, &fds, &opts) {
        Ok(k) => k,
        Err(e) => {
            fails.push(format!("compile failed: {e}"));
            return;
        }
    };
    let xq: Dense2<E> = quantize(&data.x);
    let wide = dequantize(&xq);
    let edge = data.xe.as_ref();
    let mut got = Dense2::zeros(data.graph.num_edges(), data.udf.out_len);
    if let Err(e) = k.run(&tensors(&xq, edge), &mut got) {
        fails.push(format!("run on {} storage failed: {e}", E::DTYPE));
        return;
    }
    let inputs = tensors(&wide, edge);
    let mut want = Dense2::zeros(data.graph.num_edges(), data.udf.out_len);
    if let Err(e) = k.run(&inputs, &mut want) {
        fails.push(format!("f32 reference on dequantized values failed: {e}"));
        return;
    }
    if let Some(m) = compare_slices(want.as_slice(), got.as_slice(), half_tolerance(case.dtype)) {
        fails.push(format!(
            "{} sddmm diverged from dequantized reference: {m}",
            case.dtype.name()
        ));
    }
}

/// Run every property on one case; each returned string is one violated
/// property.
pub fn run_dtype_case(case: &DtypeCase) -> Vec<String> {
    let data = materialize(&case.case);
    let mut fails = Vec::new();
    match (case.case.kernel, case.dtype) {
        (KernelKind::Spmm, FeatureDtype::Bf16) => check_spmm::<Bf16>(case, &data, &mut fails),
        (KernelKind::Spmm, FeatureDtype::F32) => check_spmm::<f32>(case, &data, &mut fails),
        (KernelKind::Sddmm, FeatureDtype::Bf16) => check_sddmm::<Bf16>(case, &data, &mut fails),
        (KernelKind::Sddmm, FeatureDtype::F32) => check_sddmm::<f32>(case, &data, &mut fails),
        (KernelKind::Fused, _) => fails.push("dtype cases cover SpMM and SDDMM only".into()),
    }
    fails
}

/// One failed dtype case with its violated properties.
#[derive(Debug, Clone)]
pub struct DtypeFailure {
    /// The failing case as generated.
    pub case: DtypeCase,
    /// Violated properties, one line each.
    pub reports: Vec<String>,
}

/// Result of a dtype sweep.
#[derive(Debug, Clone, Default)]
pub struct DtypeSweep {
    /// Cases executed.
    pub total: usize,
    /// Failing cases.
    pub failures: Vec<DtypeFailure>,
}

/// Run `cases` generated dtype cases from `seed` on `dtype` storage.
/// Deterministic: the same `(seed, cases)` explores the same case list for
/// either dtype; `F32` runs each case's f32 instantiation twice, bitwise.
pub fn dtype_sweep(
    seed: u64,
    cases: usize,
    dtype: FeatureDtype,
    progress: impl Fn(usize, &DtypeSweep),
) -> DtypeSweep {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let mut report = DtypeSweep::default();
    for i in 0..cases {
        let case = DtypeCase {
            dtype,
            ..gen_dtype_case(&mut rng)
        };
        let reports = run_dtype_case(&case);
        report.total += 1;
        if !reports.is_empty() {
            report.failures.push(DtypeFailure { case, reports });
        }
        progress(i, &report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = Pcg64Mcg::seed_from_u64(3);
        let mut b = Pcg64Mcg::seed_from_u64(3);
        for _ in 0..64 {
            assert_eq!(gen_dtype_case(&mut a), gen_dtype_case(&mut b));
        }
    }

    #[test]
    fn descriptors_roundtrip() {
        let mut rng = Pcg64Mcg::seed_from_u64(11);
        for _ in 0..64 {
            let case = gen_dtype_case(&mut rng);
            let desc = case.to_string();
            let parsed: DtypeCase = desc.parse().expect(&desc);
            assert_eq!(parsed, case, "{desc}");
        }
    }

    #[test]
    fn bad_descriptors_are_rejected() {
        for bad in [
            "dtype",
            "dtype;bf16;spmm;g=empty;u=copy-src:1;r=sum;p=t1;s=0",
            "dtype;t=f64;spmm;g=empty;u=copy-src:1;r=sum;p=t1;s=0",
            // IEEE binary16 is not a storage type: an otherwise valid case
            // on it does not parse.
            "dtype;t=f16;spmm;g=empty;u=copy-src:1;r=sum;p=t1;s=0",
            "dtype;t=bf16;spmm;g=empty;u=mlp:4:2;r=sum;p=t1;s=0",
            "dtype;t=bf16;fused;g=empty;u=copy-src:1;r=sum;f=gat:1;p=t1;s=0",
        ] {
            assert!(bad.parse::<DtypeCase>().is_err(), "accepted: {bad}");
        }
        // The f16 case above differs from a valid one in its dtype only.
        assert!("dtype;t=bf16;spmm;g=empty;u=copy-src:1;r=sum;p=t1;s=0"
            .parse::<DtypeCase>()
            .is_ok());
    }

    #[test]
    fn a_healthy_sweep_passes() {
        let sweep = dtype_sweep(0, 40, FeatureDtype::Bf16, |_, _| {});
        assert_eq!(sweep.total, 40);
        assert!(
            sweep.failures.is_empty(),
            "{:#?}",
            sweep
                .failures
                .iter()
                .map(|f| (f.case.to_string(), f.reports.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn f32_cases_are_bitwise() {
        // An explicit f32 case runs the same instantiation twice under a
        // zero-width tolerance.
        let case: DtypeCase =
            "dtype;t=f32;spmm;g=uniform:50:4:9;u=copy-src:8;r=mean;p=t2.p3.ft2.rt1.tr0.hil0.rpb1.epb256.hyb0.tpb32.bindn;s=5"
                .parse()
                .unwrap();
        assert!(run_dtype_case(&case).is_empty());
    }
}
