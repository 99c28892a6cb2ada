//! Bit-stability of the CPU kernel templates.
//!
//! Every f32 output bit of the three CPU templates is pinned for a fixed
//! grid of UDFs × reducers × schedules. The digests were recorded on the
//! commit *before* the templates were collapsed onto one loop-nest skeleton
//! and must never change: a kernel refactor that reorders one floating-point
//! operation, drops an edge or changes an identity value fails here, in
//! debug and in `--release` (the benchmark measures release codegen).
//!
//! Everything goes through the `featgraph` facade, so the test is
//! independent of how the templates are written underneath.

use featgraph::{
    fused_with_options, sddmm_with_options, spmm_with_options, CpuSddmmOptions, CpuSpmmOptions,
    Fds, FusedInputs, FusedOp, GraphTensors, Reducer, Target, Traversal, Udf,
};
use fg_graph::Graph;
use fg_ir::{ReduceSpec, ScalarExpr};
use fg_tensor::Dense2;

const N: usize = 300;
const D: usize = 20; // three feature tiles of 7, 7 and 6 columns
const REDUCERS: [Reducer; 4] = [Reducer::Sum, Reducer::Mean, Reducer::Max, Reducer::Min];

/// FNV-1a over the little-endian bytes of every f32 bit pattern.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Quarter-lattice values offset off zero, so no operand is exactly `0.0`.
fn features(rows: usize, cols: usize, salt: usize) -> Dense2<f32> {
    Dense2::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7 + salt * 13) % 23) as f32 * 0.25 - 2.125
    })
}

struct Data {
    g: Graph,
    x: Dense2<f32>,
    y: Dense2<f32>,
    xe: Dense2<f32>,
    we: Dense2<f32>,
    w: Dense2<f32>,
    sl: Dense2<f32>,
    sr: Dense2<f32>,
}

fn data(seed: u64) -> Data {
    let g = fg_graph::uniform(N, 6, seed);
    let m = g.num_edges();
    Data {
        x: features(N, D, 0),
        y: features(N, D, 1),
        xe: features(m, D, 2),
        we: features(m, 1, 3),
        w: Dense2::from_fn(D, 12, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.125 - 0.5),
        sl: features(N, 1, 4),
        sr: features(N, 1, 5),
        g,
    }
}

fn elementwise(body: ScalarExpr, edge_len: usize) -> Udf {
    Udf {
        out_len: D,
        src_len: D,
        dst_len: D,
        edge_len,
        reduce: None,
        params: vec![],
        body,
        post_relu: false,
    }
}

/// `exp(src - dst) * 0.5`: no recognized pattern, runs the interpreter.
fn novel() -> Udf {
    elementwise(
        ScalarExpr::Exp(Box::new(ScalarExpr::src_i().sub(ScalarExpr::dst_i())))
            .mul(ScalarExpr::Const(0.5)),
        0,
    )
}

/// Every `KernelPattern` (fast paths and the two routes to the interpreter),
/// each with the operand bundle it reads.
fn udfs<'a>(
    t: &'a Data,
    params: &'a [&'a Dense2<f32>],
) -> Vec<(&'static str, Udf, GraphTensors<'a, f32>)> {
    let (s, d, e) = (ScalarExpr::src_i, ScalarExpr::dst_i, ScalarExpr::edge_i);
    let v = GraphTensors::vertex_only(&t.x);
    let vd = GraphTensors::src_dst(&t.x, &t.y);
    let ve = GraphTensors::with_edge(&t.x, &t.xe);
    vec![
        ("copy_src", Udf::copy_src(D), v),
        ("copy_edge", Udf::copy_edge(D), ve),
        ("src_mul_edge", Udf::src_mul_edge(D), ve),
        ("src_add_edge", elementwise(s().add(e()), D), ve),
        ("src_sub_edge", elementwise(s().sub(e()), D), ve),
        ("src_add_dst", Udf::src_add_dst(D), v),
        ("src_mul_dst", elementwise(s().mul(d()), 0), vd),
        ("src_sub_dst", elementwise(s().sub(d()), 0), vd),
        (
            "src_mul_edge_scalar",
            Udf::src_mul_edge_scalar(D),
            GraphTensors::with_edge(&t.x, &t.we),
        ),
        ("dot", Udf::dot(D), vd),
        ("multi_head_dot", Udf::multi_head_dot(4, 5), v),
        (
            "mlp",
            Udf::mlp(D, 12),
            GraphTensors::with_params(&t.x, params),
        ),
        ("novel", novel(), vd),
    ]
}

fn check(template: &str, got: &[(&'static str, u64)], want: &[(&str, u64)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),"))
        .collect();
    assert_eq!(
        got.iter().map(|&(n, h)| (n, h)).collect::<Vec<_>>(),
        want.to_vec(),
        "{template} output bits changed; this run produced\n{}",
        table.join("\n")
    );
}

#[test]
fn spmm_bits_are_stable() {
    let t = data(5);
    let params = [&t.w];
    let mut got = Vec::new();
    for (name, udf, inputs) in udfs(&t, &params) {
        let mut h = Fnv::new();
        for agg in REDUCERS {
            for tiles in [1, 3] {
                for parts in [1, 4] {
                    for threads in [1, 3] {
                        let k = spmm_with_options(
                            &t.g,
                            &udf,
                            agg,
                            &Fds::cpu_tiled2(tiles, 2),
                            Target::Cpu,
                            Some(&CpuSpmmOptions::with_threads(parts, threads)),
                            None,
                        )
                        .unwrap();
                        let mut out = Dense2::zeros(N, udf.out_len);
                        k.run(&inputs, &mut out).unwrap();
                        h.feed(out.as_slice());
                    }
                }
            }
        }
        got.push((name, h.0));
    }
    check("spmm", &got, SPMM_GOLDEN);
}

#[test]
fn sddmm_bits_are_stable() {
    let t = data(6);
    let params = [&t.w];
    let mut got = Vec::new();
    for (name, udf, inputs) in udfs(&t, &params) {
        let mut h = Fnv::new();
        for traversal in [Traversal::Canonical, Traversal::Hilbert] {
            for tiles in [1, 3] {
                for threads in [1, 3] {
                    let k = sddmm_with_options(
                        &t.g,
                        &udf,
                        &Fds::cpu_tiled(tiles),
                        Target::Cpu,
                        Some(&CpuSddmmOptions { traversal, threads }),
                        None,
                    )
                    .unwrap();
                    let mut out = Dense2::zeros(t.g.num_edges(), udf.out_len);
                    k.run(&inputs, &mut out).unwrap();
                    h.feed(out.as_slice());
                }
            }
        }
        got.push((name, h.0));
    }
    check("sddmm", &got, SDDMM_GOLDEN);
}

#[test]
fn fused_bits_are_stable() {
    let t = data(7);
    let gat_score = GraphTensors::src_dst(&t.sl, &t.sr);
    let dot_score = GraphTensors::src_dst(&t.x, &t.y);
    let copy_msg = GraphTensors::vertex_only(&t.x);
    let edge_msg = GraphTensors::with_edge(&t.x, &t.xe);
    // A scalar score with its ReLU outside: relu(src[0] * dst[0]).
    let relu_score = Udf {
        out_len: 1,
        src_len: 1,
        dst_len: 1,
        edge_len: 0,
        reduce: Some(ReduceSpec {
            len: 1,
            op: Reducer::Sum,
        }),
        params: vec![],
        body: ScalarExpr::src_k().mul(ScalarExpr::dst_k()),
        post_relu: true,
    };
    let plain = |score: Udf, message: Udf, agg| FusedOp {
        score,
        softmax: false,
        message,
        agg,
    };
    let mut cases: Vec<(&'static str, FusedOp, FusedInputs<'_, f32>)> = vec![
        (
            "gat",
            FusedOp::gat_attention(D, 0.2),
            FusedInputs {
                score: gat_score,
                message: copy_msg,
            },
        ),
        (
            "gat_no_activation",
            FusedOp::gat_attention(D, 1.0),
            FusedInputs {
                score: gat_score,
                message: copy_msg,
            },
        ),
        (
            "softmax_dot_score",
            FusedOp {
                score: Udf::dot(D),
                ..FusedOp::gat_attention(D, 0.2)
            },
            FusedInputs {
                score: dot_score,
                message: copy_msg,
            },
        ),
        (
            "softmax_edge_message",
            FusedOp {
                message: Udf::src_mul_edge(D),
                ..FusedOp::gat_attention(D, 0.2)
            },
            FusedInputs {
                score: gat_score,
                message: edge_msg,
            },
        ),
        (
            "softmax_relu_score",
            FusedOp {
                score: relu_score.clone(),
                ..FusedOp::gat_attention(D, 0.2)
            },
            FusedInputs {
                score: gat_score,
                message: copy_msg,
            },
        ),
    ];
    for (name, agg) in [
        ("plain_sum", Reducer::Sum),
        ("plain_mean", Reducer::Mean),
        ("plain_max", Reducer::Max),
        ("plain_min", Reducer::Min),
    ] {
        cases.push((
            name,
            plain(Udf::dot(D), Udf::copy_src(D), agg),
            FusedInputs {
                score: dot_score,
                message: copy_msg,
            },
        ));
    }
    cases.push((
        "plain_edge_message",
        plain(relu_score, Udf::src_mul_edge(D), Reducer::Max),
        FusedInputs {
            score: gat_score,
            message: edge_msg,
        },
    ));

    let mut got = Vec::new();
    for (name, op, inputs) in cases {
        let mut h = Fnv::new();
        for parts in [1, 4] {
            for threads in [1, 3] {
                let k = fused_with_options(
                    &t.g,
                    &op,
                    Target::Cpu,
                    Some(&CpuSpmmOptions::with_threads(parts, threads)),
                    None,
                )
                .unwrap();
                let mut out = Dense2::zeros(N, op.out_len());
                k.run(&inputs, &mut out).unwrap();
                h.feed(out.as_slice());
            }
        }
        got.push((name, h.0));
    }
    check("fused", &got, FUSED_GOLDEN);
}

const SPMM_GOLDEN: &[(&str, u64)] = &[
    ("copy_src", 0x834408e8ac849515),
    ("copy_edge", 0x15a46853b2fc7885),
    ("src_mul_edge", 0x685318f95c798785),
    ("src_add_edge", 0x5e6db9af31947db5),
    ("src_sub_edge", 0xd2a4b6211adb2e05),
    ("src_add_dst", 0x96cdef742ca81c75),
    ("src_mul_dst", 0xca1e42c3794a2995),
    ("src_sub_dst", 0x6373eb6e1a7b3285),
    ("src_mul_edge_scalar", 0x4d343b5eeb48d265),
    ("dot", 0x2d76f33296c1bda5),
    ("multi_head_dot", 0x6adda7dc87c08555),
    ("mlp", 0x29641d5009965f65),
    ("novel", 0x7cbc5991f59aa575),
];

const SDDMM_GOLDEN: &[(&str, u64)] = &[
    ("copy_src", 0x251a0c42d7433365),
    ("copy_edge", 0x4d92448d522bf4a5),
    ("src_mul_edge", 0x26dcff934307b055),
    ("src_add_edge", 0xbf7522387b0eca25),
    ("src_sub_edge", 0xb57c7734cd593565),
    ("src_add_dst", 0xea12cbde2db70965),
    ("src_mul_dst", 0xfe6c092fe73addf5),
    ("src_sub_dst", 0xf09a171fe0a3b4a5),
    ("src_mul_edge_scalar", 0x0c865a275ff9ad45),
    ("dot", 0x49faa6818e810e45),
    ("multi_head_dot", 0xf30b3146be825f35),
    ("mlp", 0x66c8ede392560795),
    ("novel", 0x7c7391161add2235),
];

// Each softmax entry is its 1-partition output hashed four times: every
// destination's exp-sum folds in ascending-source order across partitions,
// so no schedule in the grid moves a bit.
const FUSED_GOLDEN: &[(&str, u64)] = &[
    ("gat", 0x4e353f85d88c0f7d),
    ("gat_no_activation", 0xfca94f97386aecd5),
    ("softmax_dot_score", 0xc7c00835cda1e2a5),
    ("softmax_edge_message", 0x971a99e36dddde9d),
    ("softmax_relu_score", 0x7a9af223c51bfda5),
    ("plain_sum", 0x557d4b68bfdd1215),
    ("plain_mean", 0x26d37b36c72d5f5d),
    ("plain_max", 0x39f3fbad686ebe15),
    ("plain_min", 0x189363a93446e84d),
    ("plain_edge_message", 0xed3685da77b98fa5),
];
