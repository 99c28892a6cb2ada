//! # fg-graph
//!
//! Graph substrate for the FeatGraph reproduction.
//!
//! The paper's kernels consume a sparse adjacency matrix; everything those
//! kernels need from the graph side lives here:
//!
//! * [`Coo`] / [`Csr`] — edge-list and compressed-row formats with
//!   checked construction and conversions. By convention a [`Graph`] stores
//!   the adjacency in *destination-major* CSR (row `v` lists the sources
//!   `u ∈ N_in(v)`), which is the orientation generalized SpMM aggregates
//!   over; the transposed (source-major) view for push-style traversal is
//!   built on its first read.
//! * Generators ([`uniform`], [`power_law`], [`sbm`], [`two_tier`]) —
//!   deterministic synthetic graphs, including the paper's `rand-100K`
//!   two-tier-degree graph; [`Dataset`] builds scaled stand-ins for
//!   `ogbn-proteins` and `reddit` (Table II).
//! * [`PartitionedCsr`] — 1D source-vertex partitioning (§III-C1, Fig. 6)
//!   used by the CPU SpMM template for cache optimization.
//! * [`EdgeOrder`] — Hilbert-curve edge ordering (§III-C1) used by the CPU
//!   SDDMM template for locality over both source and destination features.
//! * [`Block`] — bipartite message-flow blocks: one layer's `|dst| × |src|`
//!   CSR over a sampled neighborhood.
//! * [`sample_subgraph`] — seeded fixed-fanout neighborhood sampling.
//! * [`table2_row`] — the dataset statistics row of Table II.

use std::sync::OnceLock;

mod block;
mod coo;
mod csr;
mod datasets;
mod generators;
mod hilbert;
mod partition;
mod sampling;
mod stats;

pub use block::Block;
pub use coo::Coo;
pub use csr::Csr;
pub use datasets::Dataset;
pub use generators::{power_law, rng, sbm, two_tier, uniform, uniform_with_sparsity};
pub use hilbert::{mean_jump, EdgeOrder};
pub use partition::{partitions_for_cache, PartitionedCsr};
pub use sampling::{
    sample_subgraph, sample_subgraph_with, SampleConfig, SampleError, SampleScratch,
    SampledSubgraph, FULL_FANOUT,
};
pub use stats::table2_row;

/// Vertex identifier. `u32` keeps the index arrays compact — the paper's
/// largest graph (reddit, 233 K vertices / 114.8 M edges) fits comfortably.
pub type VId = u32;

/// Edge identifier (position in the canonical destination-major CSR order).
pub type EId = u32;

/// A directed graph stored in its aggregation orientation, with the
/// transposed view built on first use.
///
/// * `in_csr`: destination-major — row `v` holds in-neighbors of `v`. This is
///   the adjacency-matrix orientation of Eq. (3); edge IDs are defined as
///   positions in this CSR.
/// * `out_csr`: source-major — row `u` holds out-neighbors of `u`, and the
///   parallel `out_eids` array maps each position to its canonical edge ID.
///   Only push-style readers (Ligra, out-degrees) need it, so the
///   first [`out_csr`](Self::out_csr), [`out_eids`](Self::out_eids) or
///   [`out_degree`](Self::out_degree) call builds both (concurrent first
///   callers block on one build and see the same arrays).
#[derive(Debug, Clone)]
pub struct Graph {
    in_csr: Csr,
    out: OnceLock<(Csr, Vec<EId>)>,
}

impl Graph {
    /// Build from an edge list. Edges are deduplicated and sorted into the
    /// canonical order; self-loops are allowed.
    pub fn from_coo(coo: Coo) -> Self {
        Self::from_csr(coo.to_csr_dst_major())
    }

    /// Build directly from edges `(src, dst)` over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(VId, VId)]) -> Self {
        Self::from_coo(Coo::from_edges(n, edges))
    }

    /// Build from an already-validated destination-major CSR (must be
    /// square). This is how the sampler turns an induced sub-CSR into a full
    /// [`Graph`] without a round trip through an edge list.
    pub fn from_csr(in_csr: Csr) -> Self {
        assert_eq!(
            in_csr.num_rows(),
            in_csr.num_cols(),
            "adjacency CSR must be square"
        );
        Self {
            in_csr,
            out: OnceLock::new(),
        }
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.in_csr.num_rows()
    }

    /// Number of (directed) edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.in_csr.nnz()
    }

    /// Destination-major CSR (aggregation orientation).
    #[inline(always)]
    pub fn in_csr(&self) -> &Csr {
        &self.in_csr
    }

    /// Source-major CSR (push orientation), built on first use.
    pub fn out_csr(&self) -> &Csr {
        &self.out().0
    }

    /// For each position in [`Graph::out_csr`], the canonical edge ID.
    pub fn out_eids(&self) -> &[EId] {
        &self.out().1
    }

    fn out(&self) -> &(Csr, Vec<EId>) {
        self.out
            .get_or_init(|| self.in_csr.transpose_with_positions())
    }

    /// In-degree of vertex `v`.
    #[inline(always)]
    pub fn in_degree(&self, v: VId) -> usize {
        self.in_csr.row(v).len()
    }

    /// Out-degree of vertex `u` (builds the source-major view on first use).
    pub fn out_degree(&self, u: VId) -> usize {
        self.out_csr().row(u).len()
    }

    /// Iterate all edges in canonical (dst-major) order as `(src, dst, eid)`.
    pub fn edges(&self) -> impl Iterator<Item = (VId, VId, EId)> + '_ {
        self.in_csr.iter_rows().flat_map(move |(dst, srcs, base)| {
            srcs.iter()
                .enumerate()
                .map(move |(i, &src)| (src, dst, (base + i) as EId))
        })
    }

    /// The edge list in canonical order (allocates).
    pub fn edge_list(&self) -> Vec<(VId, VId)> {
        self.edges().map(|(s, d, _)| (s, d)).collect()
    }

    /// Heap footprint of the topology in bytes as of now: the
    /// destination-major CSR, plus the source-major view and its edge-ID map
    /// once a reader has built them.
    pub fn mem_bytes(&self) -> u64 {
        self.in_csr.mem_bytes()
            + self.out.get().map_or(0, |(csr, eids)| {
                csr.mem_bytes() + (eids.len() * std::mem::size_of::<EId>()) as u64
            })
    }

    /// Average degree `|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert!((g.avg_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 1);
    }

    #[test]
    fn edge_iteration_is_dst_major_sorted() {
        let g = diamond();
        let edges: Vec<_> = g.edges().map(|(s, d, _)| (s, d)).collect();
        assert_eq!(edges, vec![(3, 0), (0, 1), (0, 2), (1, 3), (2, 3)]);
        let eids: Vec<_> = g.edges().map(|(_, _, e)| e).collect();
        assert_eq!(eids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn out_eids_map_back_to_canonical_positions() {
        let g = diamond();
        // For every out-csr position, the canonical edge (by eid) must be the
        // same (src, dst) pair.
        let canonical = g.edge_list();
        for src in 0..g.num_vertices() as VId {
            let row = g.out_csr().row(src);
            let base = g.out_csr().row_start(src);
            for (i, &dst) in row.iter().enumerate() {
                let eid = g.out_eids()[base + i] as usize;
                assert_eq!(canonical[eid], (src, dst));
            }
        }
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn constructors_build_no_transpose_until_it_is_read() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)];
        let built = [
            Graph::from_edges(4, &edges),
            Graph::from_coo(Coo::from_edges(4, &edges)),
            Graph::from_csr(diamond().in_csr().clone()),
        ];
        for g in built {
            let forward_only = g.in_csr().mem_bytes();
            assert_eq!(g.mem_bytes(), forward_only, "no transpose before a read");
            assert_eq!(g.in_degree(3), 2, "in-degrees read the forward CSR");
            assert_eq!(g.mem_bytes(), forward_only);
            let out_bytes = g.out_csr().mem_bytes() + 5 * 4;
            assert_eq!(
                g.mem_bytes(),
                forward_only + out_bytes,
                "counted once built"
            );
        }
    }

    #[test]
    fn concurrent_first_reads_build_one_transpose() {
        let g = generators::uniform(300, 6, 5);
        let start = std::sync::Barrier::new(2);
        let first_read = || {
            start.wait();
            g.out_csr() as *const Csr as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(first_read);
            let b = s.spawn(first_read);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both readers see the one view the OnceLock holds");
        assert_eq!(a, g.out_csr() as *const Csr as usize);
    }

    #[test]
    fn clone_after_the_build_carries_the_transpose() {
        let g = diamond();
        let unbuilt = g.clone();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(unbuilt.mem_bytes(), unbuilt.in_csr().mem_bytes());
        let built = g.clone();
        assert_eq!(built.mem_bytes(), g.mem_bytes());
        assert!(built.mem_bytes() > built.in_csr().mem_bytes());
        assert_eq!(built.out_eids(), g.out_eids());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
