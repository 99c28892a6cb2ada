//! # fg-tensor
//!
//! Dense feature-tensor substrate for the FeatGraph reproduction.
//!
//! GNN workloads attach a dense feature tensor to every vertex/edge. This crate
//! provides the storage and reference operations those tensors need:
//!
//! * [`Dense2`] — row-major 2D tensors with cheap row slicing (`X[v]` is
//!   vertex `v`'s feature vector), stored in cache-line-aligned heap buffers
//!   (`aligned.rs`) so vectorized inner loops over feature rows never
//!   straddle alignment boundaries.
//! * [`ColTiles`] — feature-dimension tiling iterators used by the
//!   feature dimension schedule (FDS) machinery in `featgraph`.
//! * [`ops`] — scalar reference implementations (matmul, dot, relu, softmax…)
//!   used both by baselines and as ground truth in tests.
//!
//! Everything is generic over [`Scalar`] (`f32`/`f64`); kernels in downstream
//! crates default to `f32` as GNN frameworks do.

mod aligned;
mod dense;
mod error;
mod half;
pub mod ops;
mod scalar;
mod tile;

pub use aligned::StorageElem;
pub use dense::Dense2;
pub use error::ShapeError;
pub use half::{dequantize, quantize, Bf16, FeatElem, FeatureDtype, FeatureTensor};
pub use scalar::Scalar;
pub use tile::{split_ranges, ColTiles};
