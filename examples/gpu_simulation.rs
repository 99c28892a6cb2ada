//! GPU execution on the V100 simulator: run GCN aggregation with
//! FeatGraph's vertex-parallel kernel and with the Gunrock-style
//! edge-parallel baseline, and inspect *why* the baseline loses (atomics,
//! scattered traffic) through the launch reports.
//!
//! ```sh
//! cargo run --release --example gpu_simulation
//! ```

use featgraph::{spmm, Fds, GraphTensors, Reducer, Target, Udf};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph;
use featgraph_suite::fg_gunrock::{gcn_aggregation, GunrockOptions};
use featgraph_suite::fg_tensor::Dense2;

fn main() {
    let n = 5_000;
    let d = 64;
    let graph = fg_graph::uniform(n, 32, 11);
    let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v + i) % 9) as f32 * 0.1);
    println!(
        "graph: {} vertices, {} edges; feature length {d}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // FeatGraph: blocks over destination rows, feature dim bound to thread.x
    let kernel = spmm(
        &graph,
        &Udf::copy_src(d),
        Reducer::Sum,
        Target::Gpu,
        &Fds::gpu_thread_x(256),
    )
    .expect("compile");
    let mut h_fg = Dense2::<f32>::zeros(n, d);
    let stats = kernel
        .run(&GraphTensors::vertex_only(&x), &mut h_fg)
        .expect("run");
    let fg = &stats.gpu_launches[0];
    println!(
        "\nFeatGraph  : {:8.3} ms  (memory-bound: {}, {:.0}% coalescing efficiency, {} atomics)",
        fg.time_ms,
        fg.memory_bound(),
        fg.tally.coalescing_efficiency(128).unwrap_or(0.0) * 100.0,
        fg.tally.atomic_ops
    );

    // Gunrock: one thread per edge, atomic accumulation
    let mut h_gr = Dense2::<f32>::zeros(n, d);
    let report = gcn_aggregation(&graph, &x, &mut h_gr, &GunrockOptions::default());
    println!(
        "Gunrock    : {:8.3} ms  (memory-bound: {}, {:.0}% coalescing efficiency, {} atomics, {} conflicted)",
        report.time_ms,
        report.memory_bound(),
        report.tally.coalescing_efficiency(128).unwrap_or(0.0) * 100.0,
        report.tally.atomic_ops,
        report.tally.atomic_conflicts
    );

    assert!(h_fg.approx_eq(&h_gr, 1e-3), "both must compute the same result");
    println!(
        "\nidentical results; Gunrock is {:.1}x slower — blackbox edge-parallel \
         execution pays in atomics and wasted sectors",
        report.time_ms / fg.time_ms
    );
}
