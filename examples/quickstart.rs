//! Quickstart: the paper's Fig. 3a, in Rust.
//!
//! Builds GCN aggregation by composing the coarse-grained SpMM template with
//! a fine-grained `copy_src` message UDF and a feature dimension schedule,
//! then runs it and verifies against the naive reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use featgraph::{spmm, Fds, GraphTensors, Reducer, Target, Udf};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph;
use featgraph_suite::fg_tensor::Dense2;

fn main() {
    // A small random graph standing in for `featgraph.spmat(...)`.
    let n = 1_000;
    let d = 64;
    let graph = fg_graph::uniform(n, 16, 42);
    println!(
        "graph: {} vertices, {} edges, avg degree {:.1}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.avg_degree()
    );

    // msgfunc: use the source vertex feature as the message (Fig. 3a l.6-8)
    let msgfunc = Udf::copy_src(d);

    // FDS: tile the feature dimension for cache optimization (Fig. 3a l.11-15)
    let fds = Fds::cpu_tiled(4);

    // aggregation = sum; trigger the SpMM template (Fig. 3a l.25-33)
    let kernel = spmm(&graph, &msgfunc, Reducer::Sum, Target::Cpu, &fds)
        .expect("kernel compiles");

    // vertex features X_V
    let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v + i) % 7) as f32 * 0.25);
    let mut h = Dense2::<f32>::zeros(n, d);
    kernel
        .run(&GraphTensors::vertex_only(&x), &mut h)
        .expect("kernel runs");

    println!("h[0][..6] = {:?}", &h.row(0)[..6]);

    // sanity: compare to the obviously-correct reference
    let mut want = Dense2::<f32>::zeros(n, d);
    featgraph::spmm_reference(
        &graph,
        &msgfunc,
        Reducer::Sum,
        &GraphTensors::vertex_only(&x),
        &mut want,
    )
    .expect("reference");
    assert!(h.approx_eq(&want, 1e-4));
    println!("fused kernel output matches the reference — quickstart OK");
}
