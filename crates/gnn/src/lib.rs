//! # fg-gnn — "minidgl"
//!
//! A miniature GNN framework in the architectural position of DGL: message
//! passing API, reverse-mode autograd, NN modules, and — the point of the
//! exercise — **interchangeable message-passing backends**:
//!
//! * [`backend::NaiveBackend`] — what DGL does *without* FeatGraph: per-edge
//!   messages are **materialized** into an `|E| × d` tensor through dense
//!   operations, then segment-reduced. Correct, simple, memory-hungry.
//! * [`backend::FeatgraphBackend`] — fused generalized SpMM/SDDMM kernels
//!   from the `featgraph` crate; no message materialization.
//!
//! The end-to-end experiment of the paper (§V-E, Table VI) is precisely the
//! swap of these two backends under identical models, which [`train`] and
//! [`inference`] reproduce. Autograd ([`Tape`]) exploits the paper's §II-A
//! observation: the gradient of a generalized SpMM is a generalized SDDMM and
//! vice versa — see the `Op::Spmm` backward in `tape.rs`.
//!
//! Models ([`models`]): 2-layer GCN, GraphSage, and GAT, matching §V-E's
//! configurations (hidden sizes scaled by the harness).

pub mod backend;
mod block;
pub mod data;
mod ggraph;
pub mod loss;
pub mod models;
pub mod nn;
mod sampled;
mod tape;
mod trainer;

pub use backend::{FeatgraphBackend, GraphBackend, NaiveBackend};
pub use ggraph::GnnGraph;
pub use sampled::{
    gather_rows, infer_seeds, prepare_seeds, prepare_seeds_with, Layer0, SampledBlocks,
};
pub use tape::Tape;
pub use trainer::{infer_batch, inference, train, TrainResult};
