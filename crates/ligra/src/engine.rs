//! The edgeMap / vertexMap operators.

use fg_graph::Graph;
use rayon::prelude::*;

use crate::subset::VertexSubset;

/// Per-edge user function. Returns `true` if the destination should join the
/// next frontier. The engine treats this as a blackbox: it schedules edges,
/// nothing more.
///
/// `Sync` because the dense direction applies it from parallel workers; all
/// mutation must go through interior-mutable state owned by the caller
/// (atomics for push mode, per-destination exclusive state for pull mode).
pub type EdgeFn<'a> = dyn Fn(u32, u32, u32) -> bool + Sync + 'a;

/// Per-vertex condition: pull-mode destinations are skipped once it returns
/// `false` (Ligra's `cond` for early exit).
pub type CondFn<'a> = dyn Fn(u32) -> bool + Sync + 'a;

/// Options for `edge_map`.
#[derive(Clone, Copy)]
pub struct EdgeMapOptions {
    /// Dense/sparse switch threshold as a fraction of total edges: if the
    /// frontier's out-edge count exceeds `|E| / threshold_den`, use the
    /// dense (pull) direction. Ligra's default is 20.
    pub threshold_den: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Default for EdgeMapOptions {
    fn default() -> Self {
        Self {
            threshold_den: 20,
            threads: 1,
        }
    }
}

/// Ligra's edgeMap: apply `f` to every edge whose source is in `frontier`,
/// returning the subset of destinations for which `f` returned `true`.
///
/// Direction is chosen per invocation: *sparse/push* iterates the frontier's
/// out-edges; *dense/pull* iterates every destination's in-edges, skipping
/// sources outside the frontier and stopping early when `cond(dst)` turns
/// false.
pub fn edge_map(
    graph: &Graph,
    frontier: &VertexSubset,
    f: &EdgeFn<'_>,
    cond: &CondFn<'_>,
    opts: &EdgeMapOptions,
) -> VertexSubset {
    let n = graph.num_vertices();
    let m = graph.num_edges().max(1);
    let frontier_out_edges: usize = frontier
        .to_ids()
        .iter()
        .map(|&v| graph.out_degree(v))
        .sum::<usize>()
        + frontier.len();
    let dense = frontier_out_edges > m / opts.threshold_den.max(1);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads.max(1))
        .build()
        .expect("thread pool");

    if dense {
        // pull: each destination scans its in-neighbors
        let flags = frontier.to_flags();
        let next: Vec<bool> = pool.install(|| {
            (0..n as u32)
                .into_par_iter()
                .map(|dst| {
                    if !cond(dst) {
                        return false;
                    }
                    let mut added = false;
                    let base = graph.in_csr().row_start(dst);
                    for (i, &src) in graph.in_csr().row(dst).iter().enumerate() {
                        if flags[src as usize] {
                            let eid = (base + i) as u32;
                            if f(src, dst, eid) {
                                added = true;
                            }
                            if !cond(dst) {
                                break;
                            }
                        }
                    }
                    added
                })
                .collect()
        });
        VertexSubset::Dense { flags: next }
    } else {
        // push: scan the frontier's out-edges
        let ids = frontier.to_ids();
        let next: Vec<u32> = pool.install(|| {
            ids.par_iter()
                .flat_map_iter(|&src| {
                    let row = graph.out_csr().row(src);
                    let base = graph.out_csr().row_start(src);
                    let eids = graph.out_eids();
                    row.iter().enumerate().filter_map(move |(i, &dst)| {
                        if cond(dst) && f(src, dst, eids[base + i]) {
                            Some(dst)
                        } else {
                            None
                        }
                    })
                })
                .collect()
        });
        VertexSubset::from_ids(n, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn chain() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn edge_map_push_from_small_frontier() {
        let g = chain();
        let frontier = VertexSubset::single(5, 0);
        let visited = AtomicUsize::new(0);
        let next = edge_map(
            &g,
            &frontier,
            &|_, _, _| {
                visited.fetch_add(1, Ordering::Relaxed);
                true
            },
            &|_| true,
            &EdgeMapOptions::default(),
        );
        assert_eq!(visited.load(Ordering::Relaxed), 1);
        assert_eq!(next.to_ids(), vec![1]);
    }

    #[test]
    fn edge_map_dense_from_full_frontier() {
        let g = chain();
        let frontier = VertexSubset::all(5);
        let count = AtomicUsize::new(0);
        let next = edge_map(
            &g,
            &frontier,
            &|_, _, _| {
                count.fetch_add(1, Ordering::Relaxed);
                true
            },
            &|_| true,
            &EdgeMapOptions::default(),
        );
        // all 4 edges visited, destinations 1..4 activated
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(next.to_ids(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cond_prunes_destinations() {
        let g = chain();
        let frontier = VertexSubset::all(5);
        let next = edge_map(
            &g,
            &frontier,
            &|_, _, _| true,
            &|dst| dst != 2, // refuse vertex 2
            &EdgeMapOptions::default(),
        );
        let ids = next.to_ids();
        assert!(!ids.contains(&2));
        assert!(ids.contains(&1));
    }

    #[test]
    fn eids_are_canonical_in_both_directions() {
        let g = chain();
        let canonical = g.edge_list();
        for frontier in [VertexSubset::single(5, 1), VertexSubset::all(5)] {
            let ok = std::sync::atomic::AtomicBool::new(true);
            edge_map(
                &g,
                &frontier,
                &|src, dst, eid| {
                    if canonical[eid as usize] != (src, dst) {
                        ok.store(false, Ordering::Relaxed);
                    }
                    false
                },
                &|_| true,
                &EdgeMapOptions::default(),
            );
            assert!(ok.load(Ordering::Relaxed));
        }
    }
}
