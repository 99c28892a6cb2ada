//! # fg-ligra
//!
//! A Ligra-style shared-memory graph processing engine (Shun & Blelloch,
//! PPoPP'13), reproduced as the paper's CPU baseline.
//!
//! Ligra's model: a `VertexSubset` frontier plus the `edge_map` operator
//! (`engine.rs`). `edge_map` switches between a *sparse* (push,
//! frontier-driven) and a *dense* (pull, all-destination) traversal based on
//! frontier size — the optimization that makes Ligra fast on traversal
//! algorithms like BFS.
//!
//! Crucially — and this is what the FeatGraph paper exploits — the per-edge
//! computation is a **blackbox** to the engine: a `dyn Fn` invoked per edge.
//! The engine cannot tile the feature dimension, cannot partition for cache,
//! and cannot vectorize across the UDF boundary. [`gcn_aggregation`],
//! [`mlp_aggregation`] and [`dot_attention`] are the three evaluation kernels
//! in exactly this style, and [`bfs`], [`pagerank`] and
//! [`connected_components`] demonstrate the engine is a *bona fide* graph
//! framework, not a strawman.

mod algorithms;
mod engine;
mod kernels;
mod subset;

pub use algorithms::{bfs, connected_components, pagerank};
pub use engine::EdgeMapOptions;
pub use kernels::{dot_attention, gcn_aggregation, mlp_aggregation};
