//! Property-based tests for the graph substrate: format round-trips,
//! partitioning and ordering invariants.

use fg_graph::{Coo, EdgeOrder, Graph, PartitionedCsr};
use proptest::prelude::*;

fn edge_lists() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #[test]
    fn coo_csr_round_trip((n, edges) in edge_lists()) {
        let coo = Coo::from_edges(n, &edges);
        let g = Graph::from_coo(coo.clone());
        // the graph's canonical edge list equals the deduplicated input
        let mut want: Vec<(u32, u32)> = edges.clone();
        want.sort_unstable_by_key(|&(s, d)| (d, s));
        want.dedup();
        prop_assert_eq!(g.edge_list(), want);
        prop_assert_eq!(g.num_edges(), coo.num_edges());
    }

    #[test]
    fn lazy_transpose_equals_the_eager_one((n, edges) in edge_lists()) {
        let g = Graph::from_edges(n, &edges);
        let (out_csr, out_eids) = g.in_csr().transpose_with_positions();
        prop_assert_eq!(g.out_csr(), &out_csr);
        prop_assert_eq!(g.out_eids(), &out_eids[..]);
    }

    #[test]
    fn transpose_degree_conservation((n, edges) in edge_lists()) {
        let g = Graph::from_edges(n, &edges);
        let in_total: usize = (0..n as u32).map(|v| g.in_degree(v)).sum();
        let out_total: usize = (0..n as u32).map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(in_total, g.num_edges());
        prop_assert_eq!(out_total, g.num_edges());
        // double transpose is identity
        let tt = g.in_csr().transpose().transpose();
        prop_assert_eq!(&tt, g.in_csr());
    }

    #[test]
    fn partitioning_preserves_the_edge_multiset((n, edges) in edge_lists(), parts in 1usize..12) {
        let g = Graph::from_edges(n, &edges);
        let pc = PartitionedCsr::build(&g, parts);
        prop_assert_eq!(pc.nnz(), g.num_edges());
        // every edge id appears exactly once across segments
        let mut seen = vec![false; g.num_edges()];
        for (_, _, eids, _) in pc.iter() {
            for &e in eids {
                prop_assert!(!seen[e as usize], "edge {e} duplicated");
                seen[e as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hilbert_order_is_a_permutation((n, edges) in edge_lists()) {
        let g = Graph::from_edges(n, &edges);
        let order = EdgeOrder::hilbert(&g);
        let mut eids: Vec<u32> = order.visits.iter().map(|&(_, _, e)| e).collect();
        eids.sort_unstable();
        let expect: Vec<u32> = (0..g.num_edges() as u32).collect();
        prop_assert_eq!(eids, expect);
    }

    #[test]
    fn out_eids_are_consistent((n, edges) in edge_lists()) {
        let g = Graph::from_edges(n, &edges);
        let canonical = g.edge_list();
        let mut covered = vec![false; g.num_edges()];
        for src in 0..n as u32 {
            let base = g.out_csr().row_start(src);
            for (i, &dst) in g.out_csr().row(src).iter().enumerate() {
                let eid = g.out_eids()[base + i] as usize;
                prop_assert_eq!(canonical[eid], (src, dst));
                covered[eid] = true;
            }
        }
        prop_assert!(covered.iter().all(|&b| b));
    }
}
