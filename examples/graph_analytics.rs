//! The baseline engine on its home turf: classic scalar graph analytics
//! (BFS, PageRank, connected components) on the Ligra-style engine — the
//! workloads it was designed for, where frontier-based push/pull switching
//! shines. The FeatGraph paper's point is not that such engines are bad,
//! but that *feature-dimension* workloads need a different design.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use featgraph_suite::fg_graph;
use featgraph_suite::fg_ligra::{bfs, connected_components, pagerank, EdgeMapOptions};

fn main() {
    let g = fg_graph::power_law(20_000, 8, 0.7, 99);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    let opts = EdgeMapOptions::default();

    // BFS from the highest-weight vertex (id 0 in the Chung-Lu ordering)
    let t0 = std::time::Instant::now();
    let levels = bfs(&g, 0, &opts);
    let reached = levels.iter().filter(|&&l| l >= 0).count();
    let max_level = levels.iter().copied().max().unwrap_or(0);
    println!(
        "BFS: reached {reached} vertices, eccentricity {max_level}, {:.3}s",
        t0.elapsed().as_secs_f64()
    );

    // PageRank
    let t0 = std::time::Instant::now();
    let pr = pagerank(&g, 20, 0.85, &opts);
    let mut top: Vec<(usize, f64)> = pr.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "PageRank: sum {:.4}, top vertices {:?}, {:.3}s",
        pr.iter().sum::<f64>(),
        &top[..3].iter().map(|&(v, _)| v).collect::<Vec<_>>(),
        t0.elapsed().as_secs_f64()
    );

    // Connected components
    let t0 = std::time::Instant::now();
    let cc = connected_components(&g, &opts);
    let mut ids: Vec<u32> = cc.clone();
    ids.sort_unstable();
    ids.dedup();
    println!(
        "Connected components: {} components, {:.3}s",
        ids.len(),
        t0.elapsed().as_secs_f64()
    );
}
