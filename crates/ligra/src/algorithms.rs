//! Classic traversal algorithms, validating the engine on the workloads
//! Ligra was designed for.

use fg_graph::Graph;
use std::sync::atomic::{AtomicI64, Ordering};

use crate::engine::{edge_map, EdgeMapOptions};
use crate::subset::VertexSubset;

/// BFS levels from `root` (`-1` = unreachable), via frontier iteration with
/// Ligra's push/pull switching.
pub fn bfs(graph: &Graph, root: u32, opts: &EdgeMapOptions) -> Vec<i64> {
    let n = graph.num_vertices();
    let levels: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    levels[root as usize].store(0, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(n, root);
    let mut level = 0i64;
    while !frontier.is_empty() {
        level += 1;
        let lv = level;
        frontier = edge_map(
            graph,
            &frontier,
            &|_src, dst, _eid| {
                // claim unvisited destinations exactly once
                levels[dst as usize]
                    .compare_exchange(-1, lv, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            &|dst| levels[dst as usize].load(Ordering::Relaxed) == -1,
            opts,
        );
    }
    levels.into_iter().map(|a| a.into_inner()).collect()
}

/// PageRank with uniform damping, `iters` rounds over the full vertex set
/// (the traditional scalar-per-vertex workload).
pub fn pagerank(graph: &Graph, iters: usize, damping: f64, opts: &EdgeMapOptions) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    let all = VertexSubset::all(n);
    for _ in 0..iters {
        // dangling vertices redistribute their mass uniformly
        let dangling: f64 = rank
            .iter()
            .enumerate()
            .filter(|&(v, _)| graph.out_degree(v as u32) == 0)
            .map(|(_, &r)| r)
            .sum();
        let contrib: Vec<f64> = rank
            .iter()
            .enumerate()
            .map(|(v, &r)| {
                let deg = graph.out_degree(v as u32);
                if deg == 0 {
                    0.0
                } else {
                    r / deg as f64
                }
            })
            .collect();
        let next: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        // accumulate in fixed-point through the blackbox edge function
        const SCALE: f64 = 1e12;
        edge_map(
            graph,
            &all,
            &|src, dst, _eid| {
                let add = (contrib[src as usize] * SCALE) as i64;
                next[dst as usize].fetch_add(add, Ordering::Relaxed);
                false
            },
            &|_| true,
            opts,
        );
        for (v, r) in rank.iter_mut().enumerate() {
            let acc = next[v].load(Ordering::Relaxed) as f64 / SCALE;
            *r = (1.0 - damping) / n as f64 + damping * (acc + dangling / n as f64);
        }
    }
    rank
}

/// Connected components by label propagation over the *symmetrized* edge
/// relation (each vertex adopts the smallest label among its neighbors until
/// a fixed point), the third classic Ligra workload.
pub fn connected_components(graph: &Graph, opts: &EdgeMapOptions) -> Vec<u32> {
    use std::sync::atomic::AtomicBool;
    let n = graph.num_vertices();
    let labels: Vec<AtomicI64> = (0..n).map(|v| AtomicI64::new(v as i64)).collect();
    let all = VertexSubset::all(n);
    loop {
        let changed = AtomicBool::new(false);
        edge_map(
            graph,
            &all,
            &|src, dst, _eid| {
                // propagate the smaller label in both directions
                let ls = labels[src as usize].load(Ordering::Relaxed);
                let ld = labels[dst as usize].load(Ordering::Relaxed);
                if ls < ld {
                    if labels[dst as usize].fetch_min(ls, Ordering::Relaxed) > ls {
                        changed.store(true, Ordering::Relaxed);
                    }
                } else if ld < ls && labels[src as usize].fetch_min(ld, Ordering::Relaxed) > ld {
                    changed.store(true, Ordering::Relaxed);
                }
                false
            },
            &|_| true,
            opts,
        );
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    labels.into_iter().map(|a| a.into_inner() as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_levels_on_a_chain() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let levels = bfs(&g, 0, &EdgeMapOptions::default());
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_vertices_stay_minus_one() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let levels = bfs(&g, 0, &EdgeMapOptions::default());
        assert_eq!(levels, vec![0, 1, -1, -1]);
    }

    #[test]
    fn bfs_matches_reference_on_random_graph() {
        let g = fg_graph::uniform(300, 4, 17);
        let got = bfs(&g, 0, &EdgeMapOptions { threads: 2, ..Default::default() });
        // reference BFS
        let mut want = vec![-1i64; 300];
        want[0] = 0;
        let mut frontier = vec![0u32];
        let mut level = 0;
        while !frontier.is_empty() {
            level += 1;
            let mut next = vec![];
            for &u in &frontier {
                for &v in g.out_csr().row(u) {
                    if want[v as usize] == -1 {
                        want[v as usize] = level;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn connected_components_find_the_components() {
        // two disjoint cliques-ish chains plus an isolated vertex
        let edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)];
        let g = Graph::from_edges(7, &edges);
        let cc = connected_components(&g, &EdgeMapOptions::default());
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[1], cc[2]);
        assert_eq!(cc[3], cc[4]);
        assert_eq!(cc[4], cc[5]);
        assert_ne!(cc[0], cc[3]);
        assert_eq!(cc[6], 6); // isolated keeps its own label
    }

    #[test]
    fn connected_components_on_random_graph_match_union_find() {
        let g = fg_graph::uniform(200, 2, 29);
        let got = connected_components(&g, &EdgeMapOptions { threads: 2, ..Default::default() });
        // reference union-find over the undirected closure
        let mut parent: Vec<usize> = (0..200).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (s, d, _) in g.edges() {
            let (rs, rd) = (find(&mut parent, s as usize), find(&mut parent, d as usize));
            if rs != rd {
                parent[rs.max(rd)] = rs.min(rd);
            }
        }
        for v in 0..200 {
            for u in 0..200 {
                let same_ref = find(&mut parent, v) == find(&mut parent, u);
                let same_got = got[v] == got[u];
                assert_eq!(same_ref, same_got, "vertices {v},{u}");
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs_higher() {
        // star: everything points at vertex 0
        let edges: Vec<(u32, u32)> = (1..20u32).map(|v| (v, 0)).collect();
        let g = Graph::from_edges(20, &edges);
        let pr = pagerank(&g, 20, 0.85, &EdgeMapOptions::default());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
        assert!(pr[0] > 10.0 * pr[1]);
    }
}
