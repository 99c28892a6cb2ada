//! # fg-gunrock
//!
//! A Gunrock-style GPU graph processing baseline (Wang et al., PPoPP'16) on
//! the [`fg_gpusim`] simulator.
//!
//! Gunrock's execution model is **edge-parallel advance**: the edges of the
//! frontier are flattened into a work list and assigned one per thread, with
//! sophisticated load balancing (thread/warp/block per vertex by degree).
//! The per-edge computation is a blackbox functor. For vertex-wise
//! reductions (generalized SpMM) every thread must combine its message into
//! the destination row with **atomic operations**; edges that share a
//! destination serialize. Since the flattened work list is
//! destination-grouped (it comes from the CSR), warp lanes very often hit
//! the same destination — the paper's "huge overhead of atomic operations"
//! (§V-B). And because the functor is opaque, the feature loop runs inside
//! one thread: no feature-dimension parallelism, no staging of shared
//! operands (each edge re-reads the weight matrix in MLP aggregation).
//!
//! Modeling notes (see DESIGN.md): full-row sequential reads by one thread
//! are bandwidth-efficient on real hardware (L1 keeps the row's sectors hot
//! across the k-loop), so they are charged as contiguous; the penalties
//! charged are exactly the mechanisms the paper names — atomics with
//! intra-warp conflict serialization, opaque-functor instruction overhead,
//! per-edge re-reads of shared operands, and scattered single-element
//! writes.

mod kernels;

pub use kernels::{dot_attention, gcn_aggregation, mlp_aggregation, GunrockOptions};
