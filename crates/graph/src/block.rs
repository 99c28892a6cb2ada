//! Bipartite message-flow blocks (DGL's "blocks").
//!
//! One GNN layer over a slice of a graph reads some rows and writes some of
//! them. A [`Block`] is that layer's graph: a `|dst| × |src|`
//! destination-major CSR whose row `r` lists the in-edges of the `r`-th row
//! the layer writes, by position among the rows it reads, plus the written
//! rows' positions among the read rows. Generalized SpMM over it writes
//! `|dst|` rows. A sampled neighborhood cuts into one block per layer
//! ([`crate::SampledSubgraph::block`]).

use crate::csr::Csr;

/// See the module docs of `block.rs`.
#[derive(Debug, Clone)]
pub struct Block {
    csr: Csr,
    dst: Vec<u32>,
}

impl Block {
    /// A block from its `|dst| × |src|` CSR and the written rows' positions
    /// among the `|src|` read rows (ascending).
    ///
    /// # Panics
    /// If `dst` does not hold one position per CSR row.
    pub fn new(csr: Csr, dst: Vec<u32>) -> Self {
        assert_eq!(dst.len(), csr.num_rows(), "one position per written row");
        Self { csr, dst }
    }

    /// The `|dst| × |src|` CSR.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Positions among the read rows of the rows the layer writes.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// `(written, read)` row counts.
    pub fn rows(&self) -> (usize, usize) {
        (self.csr.num_rows(), self.csr.num_cols())
    }

    /// Heap bytes of the CSR and the position list.
    pub fn mem_bytes(&self) -> u64 {
        self.csr.mem_bytes() + (self.dst.len() * std::mem::size_of::<u32>()) as u64
    }
}
