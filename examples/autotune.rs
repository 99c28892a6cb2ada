//! Grid-search autotuning of scheduling parameters (§IV-A, Figs. 14/15):
//! sweep (graph partitions × feature tiles) for the CPU SpMM template and
//! the block count for the GPU template, and report the winners.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use featgraph::{tune_spmm_cpu, tune_spmm_gpu_blocks, Fds, GraphTensors, Reducer, Udf};
use featgraph_suite::featgraph;
use featgraph_suite::fg_graph;
use featgraph_suite::fg_tensor::Dense2;

fn main() {
    let n = 4_000;
    let d = 128;
    let graph = fg_graph::power_law(n, 40, 0.6, 3);
    let x = Dense2::<f32>::from_fn(n, d, |v, i| ((v + i) % 13) as f32 * 0.05);
    let inputs = GraphTensors::vertex_only(&x);
    let udf = Udf::copy_src(d);

    println!("CPU grid search: graph partitions x feature tiles (seconds)");
    let result = tune_spmm_cpu(
        &graph,
        &udf,
        Reducer::Sum,
        &inputs,
        &[1, 4, 16, 64],
        &[1, 2, 4, 8],
        1,
        2,
    )
    .expect("tuning");
    for p in &result.grid {
        println!(
            "  gp={:<3} fp={:<2} {:>9.4}s{}",
            p.graph_partitions,
            p.feature_tiles,
            p.seconds,
            if (p.graph_partitions, p.feature_tiles)
                == (
                    result.best_point().graph_partitions,
                    result.best_point().feature_tiles
                )
            {
                "   <-- best"
            } else {
                ""
            }
        );
    }

    println!("\nGPU block-count sweep (simulated ms)");
    let points = tune_spmm_gpu_blocks(
        &graph,
        &udf,
        Reducer::Sum,
        &Fds::gpu_thread_x(256),
        &inputs,
        &[8, 32, 128, 512, 2048],
    )
    .expect("gpu sweep");
    for p in &points {
        println!("  blocks={:<6} {:>9.3} ms", p.num_blocks, p.time_ms);
    }
}
