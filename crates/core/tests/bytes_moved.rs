//! Pins the `bytes_moved` counter of the CPU SpMM template.
//!
//! Bytes per edge are a property of the message op (what it reads) plus the
//! sink row it folds into — not of the loop nest that happens to run it. The
//! element-wise loop nest used to charge every op one vertex-width source
//! row, which undercounted `src ∘ edge` (the f32 edge row was missing) and
//! charged `copy-edge`, which reads no vertex row at all, at the vertex
//! storage width.
//!
//! This file is one test in its own process because the counter is global.

use featgraph::{CpuSpmm, CpuSpmmOptions, Fds, GraphTensors, Reducer, Udf};
use fg_telemetry::{counter_value, Counter};
use fg_tensor::{quantize, Bf16, Dense2, FeatElem};

const D: usize = 8;

fn moved<V: FeatElem>(k: &CpuSpmm, x: &Dense2<V>, xe: &Dense2<f32>) -> u64 {
    let mut out = Dense2::zeros(x.rows(), D);
    let before = counter_value(Counter::BytesMoved);
    k.run(&GraphTensors::with_edge(x, xe), &mut out).unwrap();
    counter_value(Counter::BytesMoved) - before
}

#[test]
fn bytes_per_edge_follow_the_message_op() {
    fg_telemetry::set_enabled(true);
    let g = fg_graph::uniform(40, 3, 1);
    let m = g.num_edges() as u64;
    let x = Dense2::from_fn(40, D, |v, i| (v + i) as f32 * 0.5);
    let xb: Dense2<Bf16> = quantize(&x);
    let xe = Dense2::from_fn(g.num_edges(), D, |e, i| (e * 3 + i) as f32 * 0.25);
    // Two partitions and three column tiles: the total must not depend on
    // how the traversal is cut up.
    let compile = |udf: &Udf| {
        let opts = CpuSpmmOptions::with_threads(2, 2);
        CpuSpmm::compile(&g, udf, Reducer::Sum, &Fds::cpu_tiled(3), &opts).unwrap()
    };
    let d = D as u64;

    // src * edge: a vertex row at its storage width, an f32 edge row, and
    // the f32 output row.
    let k = compile(&Udf::src_mul_edge(D));
    assert_eq!(moved(&k, &x, &xe), m * d * (4 + 4 + 4));
    assert_eq!(moved(&k, &xb, &xe), m * d * (2 + 4 + 4));

    // copy-edge: an f32 edge row and the output row, whatever the vertices
    // are stored as.
    let k = compile(&Udf::copy_edge(D));
    assert_eq!(moved(&k, &x, &xe), m * d * (4 + 4));
    assert_eq!(moved(&k, &xb, &xe), m * d * (4 + 4));
}
