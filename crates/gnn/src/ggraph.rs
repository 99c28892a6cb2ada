//! Graph wrapper with the reverse orientation and edge-ID mappings that
//! backpropagation through message passing needs.

use std::sync::OnceLock;

use fg_graph::{EId, Graph};
use fg_tensor::Dense2;

/// A graph prepared for GNN message passing: the forward graph, its reverse
/// (every edge flipped), and the mapping between their canonical edge IDs.
///
/// Backward passes aggregate along reversed edges (e.g. `∂L/∂x[u] = Σ_{u→v}
/// w_e · ∂L/∂h[v]`), which is exactly a forward aggregation on the reverse
/// graph with edge features permuted into its canonical order.
///
/// Only the backward pass reads the reverse orientation, so it is built on
/// the first [`rev`](Self::rev) or [`rev_eids`](Self::rev_eids) call, as one
/// transpose of the forward CSR: inference (full or sampled) never
/// pays for it, training pays once.
#[derive(Debug, Clone)]
pub struct GnnGraph {
    fwd: Graph,
    rev: OnceLock<(Graph, Vec<EId>)>,
    in_degrees: Vec<u32>,
}

impl GnnGraph {
    /// Wrap a graph for message passing.
    pub fn new(fwd: Graph) -> Self {
        let in_degrees = (0..fwd.num_vertices() as u32)
            .map(|v| fwd.in_degree(v) as u32)
            .collect();
        Self {
            fwd,
            rev: OnceLock::new(),
            in_degrees,
        }
    }

    /// The forward graph.
    pub fn fwd(&self) -> &Graph {
        &self.fwd
    }

    /// The reverse graph, built on first use (concurrent first callers
    /// block on one build and see the same graph).
    pub fn rev(&self) -> &Graph {
        &self.reversed().0
    }

    /// The reverse graph's canonical (dst-major) order sorts by (rev dst,
    /// rev src) = (fwd src, fwd dst): that is the forward CSR's transpose,
    /// row by row, and the transpose's positions are forward edge IDs.
    fn reversed(&self) -> &(Graph, Vec<EId>) {
        self.rev.get_or_init(|| {
            let (in_csr, rev_eids) = self.fwd.in_csr().transpose_with_positions();
            (Graph::from_csr(in_csr), rev_eids)
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.fwd.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.fwd.num_edges()
    }

    /// Forward in-degrees (used by mean aggregation).
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Map of reverse canonical edge IDs to forward edge IDs:
    /// `rev_eids()[k]` is the forward edge ID of the reverse graph's edge
    /// `k`. Built with the reverse graph.
    pub fn rev_eids(&self) -> &[EId] {
        &self.reversed().1
    }

    /// Heap footprint of the topology in bytes as of now: the forward
    /// graph, the degree array, and the reverse graph with its edge-ID map
    /// once [`rev`](Self::rev) or [`rev_eids`](Self::rev_eids) has built
    /// them.
    pub fn mem_bytes(&self) -> u64 {
        self.fwd.mem_bytes()
            + self.rev.get().map_or(0, |(rev, eids)| {
                rev.mem_bytes() + (eids.len() * std::mem::size_of::<EId>()) as u64
            })
            + (self.in_degrees.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Permute a forward-edge-ordered tensor into reverse canonical order.
    pub fn edge_rows_to_rev(&self, fwd_rows: &Dense2<f32>) -> Dense2<f32> {
        assert_eq!(fwd_rows.rows(), self.num_edges(), "edge tensor rows");
        let mut out = Dense2::zeros(fwd_rows.rows(), fwd_rows.cols());
        for (k, &fid) in self.rev_eids().iter().enumerate() {
            out.row_mut(k).copy_from_slice(fwd_rows.row(fid as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reverse_graph_is_built_on_first_use_and_counted_from_then_on() {
        let fwd = fg_graph::uniform(60, 4, 7);
        let forward_only = fwd.in_csr().mem_bytes() + 60 * 4;
        let g = GnnGraph::new(fwd);
        assert_eq!(g.mem_bytes(), forward_only, "new() builds no reverse graph");
        // The edge-ID map lives with the reverse graph: reading it builds
        // both, and the forward graph's own transpose is never built.
        let eid_bytes = (g.rev_eids().len() * 4) as u64;
        assert_eq!(eid_bytes, g.num_edges() as u64 * 4);
        let rev_bytes = g.rev().in_csr().mem_bytes();
        assert_eq!(
            g.rev().mem_bytes(),
            rev_bytes,
            "the reverse graph's transpose is unbuilt"
        );
        assert_eq!(g.mem_bytes(), forward_only + rev_bytes + eid_bytes);
        // A clone taken after the build carries the built graph.
        assert_eq!(g.clone().mem_bytes(), forward_only + rev_bytes + eid_bytes);
    }

    /// The reverse graph as it was first built: every edge flipped through
    /// an edge list and sorted, with each reverse edge's forward ID found by
    /// searching the forward CSR.
    fn reversed_oracle(fwd: &Graph) -> (Graph, Vec<EId>) {
        let rev_edges: Vec<(u32, u32)> = fwd.edges().map(|(s, d, _)| (d, s)).collect();
        let rev = Graph::from_edges(fwd.num_vertices(), &rev_edges);
        let eids = rev
            .edges()
            .map(|(rsrc, rdst, _)| {
                let row = fwd.in_csr().row(rsrc);
                let at = row
                    .binary_search(&rdst)
                    .expect("reverse edge is a forward edge");
                (fwd.in_csr().row_start(rsrc) + at) as EId
            })
            .collect();
        (rev, eids)
    }

    proptest! {
        #[test]
        fn reverse_graph_matches_the_edge_list_build(
            (n, edges) in (1usize..40).prop_flat_map(|n| {
                (Just(n), proptest::collection::vec((0..n as u32, 0..n as u32), 0..160))
            })
        ) {
            // Generated edges include self-loops, duplicates, isolated
            // vertices and (at length 0) the edgeless graph.
            let g = GnnGraph::new(Graph::from_edges(n, &edges));
            let (rev, eids) = reversed_oracle(g.fwd());
            prop_assert_eq!(g.rev().in_csr(), rev.in_csr());
            prop_assert_eq!(g.rev_eids(), &eids[..]);
        }
    }

    #[test]
    fn concurrent_first_calls_build_one_reverse_graph() {
        let g = GnnGraph::new(fg_graph::uniform(200, 6, 11));
        let start = std::sync::Barrier::new(2);
        let first_call = || {
            start.wait();
            g.rev() as *const Graph as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(first_call);
            let b = s.spawn(first_call);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both callers see the one graph the OnceLock holds");
        assert_eq!(a, g.rev() as *const Graph as usize);
        assert_eq!(g.rev().num_edges(), g.num_edges());
    }

    #[test]
    fn reverse_graph_flips_edges() {
        let g = GnnGraph::new(Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]));
        assert!(g.rev().in_csr().contains(0, 1)); // fwd 0->1 becomes rev 1->0
        assert_eq!(g.rev().num_edges(), 3);
    }

    #[test]
    fn rev_eids_map_to_same_underlying_edge() {
        let g = GnnGraph::new(fg_graph::uniform(80, 4, 3));
        let fwd_edges = g.fwd().edge_list();
        for (k, (rsrc, rdst, _)) in g.rev().edges().enumerate() {
            let fid = g.rev_eids()[k] as usize;
            assert_eq!(fwd_edges[fid], (rdst, rsrc), "rev edge {k}");
        }
    }

    #[test]
    fn edge_rows_to_rev_follows_rev_eids() {
        let g = GnnGraph::new(fg_graph::uniform(50, 3, 9));
        let m = g.num_edges();
        let e = Dense2::from_fn(m, 2, |r, c| (r * 2 + c) as f32);
        let rev = g.edge_rows_to_rev(&e);
        for (k, &fid) in g.rev_eids().iter().enumerate() {
            assert_eq!(rev.row(k), e.row(fid as usize), "rev row {k}");
        }
    }

    #[test]
    fn degrees_match_graph() {
        let g = GnnGraph::new(Graph::from_edges(3, &[(0, 2), (1, 2)]));
        assert_eq!(g.in_degrees(), &[0, 0, 2]);
    }
}
