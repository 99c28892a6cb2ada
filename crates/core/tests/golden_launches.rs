//! Cycle-exactness of the simulated-GPU kernel templates.
//!
//! Every field of every `LaunchReport` the three GPU templates produce is
//! pinned for a fixed grid of UDFs × reducers × schedules × devices: the
//! kernel name, the eight `CostTally` counters, the bit patterns of the five
//! timing floats, the occupancy and the grid size. The simulator is
//! deterministic and its times do not depend on operand values, so a
//! refactor of the templates must reproduce these digests exactly — one
//! charge moved between `alu` calls, one transaction split differently, one
//! changed footprint fails here, in debug and in `--release`.
//!
//! The digests were recorded on the commit *before* the GPU templates were
//! collapsed onto one skeleton. Everything goes through the `featgraph`
//! facade, so the test is independent of how the templates are written.

use featgraph::gpu::fused::GpuFusedOptions;
use featgraph::gpu::sddmm::GpuSddmmOptions;
use featgraph::gpu::spmm::{GpuSpmmOptions, HybridOptions};
use featgraph::{
    fused_with_options, sddmm_with_options, spmm_with_options, Fds, FusedInputs, FusedOp, GpuBind,
    GraphTensors, Reducer, RunStats, Target, Udf,
};
use fg_gpusim::DeviceConfig;
use fg_graph::{generators, Graph};
use fg_ir::ScalarExpr;
use fg_tensor::Dense2;

const D: usize = 20;
const REDUCERS: [Reducer; 4] = [Reducer::Sum, Reducer::Mean, Reducer::Max, Reducer::Min];
const DEVICES: [fn() -> DeviceConfig; 2] = [DeviceConfig::v100, DeviceConfig::tiny];

/// FNV-1a over the little-endian bytes of every launch field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn launches(&mut self, stats: &RunStats) {
        assert!(
            !stats.gpu_launches.is_empty(),
            "a GPU run reports its launches"
        );
        for r in &stats.gpu_launches {
            self.bytes(r.kernel.as_bytes());
            let t = &r.tally;
            for c in [
                t.alu_ops,
                t.issue_ops,
                t.global_transactions,
                t.global_bytes,
                t.shared_accesses,
                t.atomic_ops,
                t.atomic_conflicts,
                t.barriers,
            ] {
                self.u64(c);
            }
            for f in [
                r.cycles,
                r.time_ms,
                r.sm_cycles,
                r.mem_cycles,
                r.latency_factor,
            ] {
                self.u64(f.to_bits());
            }
            self.u64(r.occupancy_blocks as u64);
            self.u64(r.grid_dim as u64);
        }
    }
}

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

/// A two-tier graph: 20 hub sources of out-degree ≈ 40 over 180 sources of
/// out-degree ≈ 4, so hybrid staging at threshold 20 has rows to stage.
fn data() -> Data {
    let g = generators::two_tier(20, 40, 180, 4, 9);
    let (n, m) = (g.num_vertices(), g.num_edges());
    Data {
        x: features(n, 128, 0),
        y: features(n, 128, 1),
        xe: features(m, D, 2),
        we: features(m, 1, 3),
        w: Dense2::from_fn(D, 12, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.125 - 0.5),
        sl: features(n, 1, 4),
        sr: features(n, 1, 5),
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

/// Every `KernelPattern` (fast paths and the two routes to the interpreter),
/// each with the operand bundle it reads. Vertex tensors are 128 wide; a UDF
/// reads its leading columns.
fn udfs<'a>(
    t: &'a Data,
    params: &'a [&'a Dense2<f32>],
) -> Vec<(&'static str, Udf, GraphTensors<'a, f32>)> {
    let (s, d, e) = (ScalarExpr::src_i, ScalarExpr::dst_i, ScalarExpr::edge_i);
    let v = GraphTensors::vertex_only(&t.x);
    let vd = GraphTensors::src_dst(&t.x, &t.y);
    let ve = GraphTensors::with_edge(&t.x, &t.xe);
    let novel = elementwise(
        ScalarExpr::Exp(Box::new(s().sub(d()))).mul(ScalarExpr::Const(0.5)),
        0,
    );
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
        ("dot_8", Udf::dot(8), vd),
        ("dot_128", Udf::dot(128), vd),
        ("multi_head_dot", Udf::multi_head_dot(4, 5), v),
        (
            "mlp",
            Udf::mlp(D, 12),
            GraphTensors::with_params(&t.x, params),
        ),
        ("novel", novel, vd),
    ]
}

fn check(template: &str, got: &[(&'static str, u64)], want: &[(&str, u64)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),"))
        .collect();
    assert_eq!(
        got.to_vec(),
        want.to_vec(),
        "{template} launch reports changed; this run produced\n{}",
        table.join("\n")
    );
}

#[test]
fn spmm_launches_are_exact() {
    let t = data();
    let params = [&t.w];
    let n = t.g.num_vertices();
    let mut got = Vec::new();
    for (name, udf, inputs) in udfs(&t, &params) {
        let mut h = Fnv::new();
        for agg in REDUCERS {
            for fds in [Fds::gpu_thread_x(32), Fds::default()] {
                assert!(matches!(fds.gpu.bind_out, GpuBind::ThreadX | GpuBind::None));
                for rows_per_block in [1, 8, 64] {
                    for hybrid in [None, Some(1024)] {
                        for device in DEVICES {
                            let opts = GpuSpmmOptions {
                                device: device(),
                                rows_per_block,
                                hybrid: hybrid.map(|shared_budget_bytes| HybridOptions {
                                    degree_threshold: 20,
                                    shared_budget_bytes,
                                }),
                            };
                            let k = spmm_with_options(
                                &t.g,
                                &udf,
                                agg,
                                &fds,
                                Target::Gpu,
                                None,
                                Some(&opts),
                            )
                            .unwrap();
                            let mut out = Dense2::zeros(n, udf.out_len);
                            h.launches(&k.run(&inputs, &mut out).unwrap());
                        }
                    }
                }
            }
        }
        got.push((name, h.0));
    }
    check("spmm", &got, SPMM_GOLDEN);
}

#[test]
fn sddmm_launches_are_exact() {
    let t = data();
    let params = [&t.w];
    let m = t.g.num_edges();
    let mut got = Vec::new();
    for (name, udf, inputs) in udfs(&t, &params) {
        let mut h = Fnv::new();
        for tree in [true, false] {
            let mut fds = Fds::gpu_tree_reduce(64);
            fds.gpu.tree_reduce = tree;
            for edges_per_block in [1, 256] {
                for device in DEVICES {
                    let opts = GpuSddmmOptions {
                        device: device(),
                        edges_per_block,
                    };
                    let k = sddmm_with_options(&t.g, &udf, &fds, Target::Gpu, None, Some(&opts))
                        .unwrap();
                    let mut out = Dense2::zeros(m, udf.out_len);
                    h.launches(&k.run(&inputs, &mut out).unwrap());
                }
            }
        }
        got.push((name, h.0));
    }
    check("sddmm", &got, SDDMM_GOLDEN);
}

#[test]
fn fused_launches_are_exact() {
    let t = data();
    let n = t.g.num_vertices();
    let gat_score = GraphTensors::src_dst(&t.sl, &t.sr);
    let copy_msg = GraphTensors::vertex_only(&t.x);
    let kinds: [(&str, FusedOp, FusedInputs<'_, f32>); 3] = [
        (
            "gat",
            FusedOp::gat_attention(D, 0.2),
            FusedInputs {
                score: gat_score,
                message: copy_msg,
            },
        ),
        (
            "generic_score",
            FusedOp {
                score: Udf::dot(D),
                ..FusedOp::gat_attention(D, 0.2)
            },
            FusedInputs {
                score: GraphTensors::src_dst(&t.x, &t.y),
                message: copy_msg,
            },
        ),
        (
            "generic_message",
            FusedOp {
                message: Udf::src_mul_edge(D),
                ..FusedOp::gat_attention(D, 0.2)
            },
            FusedInputs {
                score: gat_score,
                message: GraphTensors::with_edge(&t.x, &t.xe),
            },
        ),
    ];
    let mut got = Vec::new();
    for (name, op, inputs) in kinds {
        for softmax in [true, false] {
            let reducers: &[Reducer] = if softmax { &[Reducer::Sum] } else { &REDUCERS };
            let mut h = Fnv::new();
            for &agg in reducers {
                let op = FusedOp {
                    softmax,
                    agg,
                    ..op.clone()
                };
                for rows_per_block in [1, 8, 64] {
                    for device in DEVICES {
                        let opts = GpuFusedOptions {
                            device: device(),
                            rows_per_block,
                            threads_per_block: 256,
                        };
                        let k =
                            fused_with_options(&t.g, &op, Target::Gpu, None, Some(&opts)).unwrap();
                        let mut out = Dense2::zeros(n, op.out_len());
                        h.launches(&k.run(&inputs, &mut out).unwrap());
                    }
                }
            }
            let name = match (name, softmax) {
                ("gat", true) => "gat_softmax",
                ("gat", false) => "gat_plain",
                ("generic_score", true) => "generic_score_softmax",
                ("generic_score", false) => "generic_score_plain",
                ("generic_message", true) => "generic_message_softmax",
                _ => "generic_message_plain",
            };
            got.push((name, h.0));
        }
    }
    check("fused", &got, FUSED_GOLDEN);
}

// The element-wise patterns share digests: their pricing does not depend on
// which of `+`, `*`, `-` combines the operands.
const SPMM_GOLDEN: &[(&str, u64)] = &[
    ("copy_src", 0x27c344c77e3ddbdd),
    ("copy_edge", 0xac80e65b4c334485),
    ("src_mul_edge", 0xffbc6164e34c243d),
    ("src_add_edge", 0xffbc6164e34c243d),
    ("src_sub_edge", 0xffbc6164e34c243d),
    ("src_add_dst", 0xa79a49e2de313d1d),
    ("src_mul_dst", 0xa79a49e2de313d1d),
    ("src_sub_dst", 0xa79a49e2de313d1d),
    ("src_mul_edge_scalar", 0x59a231cebc504ca5),
    ("dot", 0x2509e1bc86e82995),
    ("dot_8", 0x50ffc122b5074c25),
    ("dot_128", 0x6e737843eebe3c15),
    ("multi_head_dot", 0x33992c74c53e1a55),
    ("mlp", 0x1b855719b56b76c5),
    ("novel", 0x001b7d0b3dc98505),
];

const SDDMM_GOLDEN: &[(&str, u64)] = &[
    ("copy_src", 0xb7e68d261704ea65),
    ("copy_edge", 0xc7c89d5a62fbb7ad),
    ("src_mul_edge", 0x9d3c715f8dcd3535),
    ("src_add_edge", 0x9d3c715f8dcd3535),
    ("src_sub_edge", 0x9d3c715f8dcd3535),
    ("src_add_dst", 0xb7e68d261704ea65),
    ("src_mul_dst", 0xb7e68d261704ea65),
    ("src_sub_dst", 0xb7e68d261704ea65),
    ("src_mul_edge_scalar", 0xfcd5b78c3e898399),
    ("dot", 0xc28dac7effd8df1f),
    ("dot_8", 0xd6ffc4d0fca9756a),
    ("dot_128", 0x97f5a47a0512df58),
    ("multi_head_dot", 0x51c6f0e29cc42940),
    ("mlp", 0xb52c61c116b1f809),
    ("novel", 0x67c365727a591545),
];

const FUSED_GOLDEN: &[(&str, u64)] = &[
    ("gat_softmax", 0x74a50e03186890e2),
    ("gat_plain", 0xfc28d9d3c85b3e05),
    ("generic_score_softmax", 0xfbdea1106868faff),
    ("generic_score_plain", 0xad888e2fd9e566b5),
    ("generic_message_softmax", 0x5600847b0ccc5e06),
    ("generic_message_plain", 0x6cf2a6bd21341555),
];
