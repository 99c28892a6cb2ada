//! Edge-wise computation: the paper's Fig. 4 — dot-product attention and
//! multi-head attention via the generalized SDDMM template, on CPU and on
//! the simulated GPU (with and without tree reduction).
//!
//! ```sh
//! cargo run --release --example attention
//! ```

use featgraph::{sddmm, Fds, GraphTensors, Target, Udf};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph;
use featgraph_suite::fg_tensor::Dense2;

fn main() {
    let n = 2_000;
    let d = 128;
    let graph = fg_graph::power_law(n, 12, 0.7, 7);
    let m = graph.num_edges();
    println!("graph: {n} vertices, {m} edges");

    let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v * 13 + i) % 11) as f32 * 0.1 - 0.5);

    // --- Fig. 4a: dot-product attention, CPU, Hilbert traversal ---
    let edgefunc = Udf::dot(d);
    let kernel = sddmm(&graph, &edgefunc, Target::Cpu, &Fds::cpu_tiled(2))
        .expect("cpu kernel");
    let mut att = Dense2::<f32>::zeros(m, 1);
    kernel
        .run(&GraphTensors::vertex_only(&x), &mut att)
        .expect("cpu run");
    println!("cpu attention[..4] = {:?}", &att.as_slice()[..4.min(m)]);

    // --- same kernel on the simulated V100, tree reduction on vs off ---
    for tree in [true, false] {
        let mut fds = Fds::gpu_tree_reduce(256);
        fds.gpu.tree_reduce = tree;
        let kernel = sddmm(&graph, &edgefunc, Target::Gpu, &fds).expect("gpu kernel");
        let mut out = Dense2::<f32>::zeros(m, 1);
        let stats = kernel
            .run(&GraphTensors::vertex_only(&x), &mut out)
            .expect("gpu run");
        assert!(out.approx_eq(&att, 1e-3), "GPU result must match CPU");
        println!(
            "gpu (tree_reduce={tree}): {:.3} simulated ms",
            stats.total_gpu_ms()
        );
    }

    // --- Fig. 4b: multi-head attention (4 heads of 32) ---
    let heads = 4;
    let hd = d / heads;
    let mh = Udf::multi_head_dot(heads, hd);
    let kernel = sddmm(&graph, &mh, Target::Cpu, &Fds::default()).expect("mh kernel");
    let mut att_mh = Dense2::<f32>::zeros(m, heads);
    kernel
        .run(&GraphTensors::vertex_only(&x), &mut att_mh)
        .expect("mh run");
    // the heads of multi-head dot sum to the full dot product
    for eid in 0..m.min(100) {
        let total: f32 = att_mh.row(eid).iter().sum();
        assert!((total - att.at(eid, 0)).abs() < 1e-2);
    }
    println!("multi-head attention verified: heads sum to the flat dot product");
}
