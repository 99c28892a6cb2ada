//! CPU kernel templates: one loop-nest skeleton per traversal (`skeleton`, and
//! the SDDMM template's edge-order nest) over storage × message-op ×
//! reduce-op slots (`ops`).
//!
//! Template-level optimizations (§III-C1):
//! * **1D graph partitioning** — source vertices are split into contiguous
//!   ranges whose feature tiles fit in LLC; partitions are processed one at
//!   a time with all threads cooperating on the same partition (the paper's
//!   LLC-contention-avoiding parallelization, §IV-A).
//! * **Feature dimension tiling** — the FDS splits the feature axis so a
//!   partition's working set shrinks further; the graph is traversed once
//!   per tile (the Fig. 6b trade-off).
//! * **Hilbert-curve edge traversal** for SDDMM locality over both endpoint
//!   feature sets.

pub mod fused;
mod ops;
pub mod sddmm;
mod skeleton;
pub mod spmm;
