//! # fg-tensor
//!
//! Dense feature-tensor substrate for the FeatGraph reproduction.
//!
//! GNN workloads attach a dense feature tensor to every vertex/edge. This crate
//! provides the storage and reference operations those tensors need:
//!
//! * [`AlignedVec`] — cache-line-aligned heap storage so that vectorized inner
//!   loops over feature rows never straddle alignment boundaries.
//! * [`Dense2`] / [`Dense3`] — row-major 2D/3D tensors with cheap row slicing
//!   (`X[v]` is vertex `v`'s feature vector, `X[v][h]` a head's vector).
//! * [`tile::ColTiles`] — feature-dimension tiling iterators used by the
//!   feature dimension schedule (FDS) machinery in `featgraph`.
//! * [`ops`] — scalar reference implementations (matmul, axpy, relu, softmax…)
//!   used both by baselines and as ground truth in tests.
//!
//! Everything is generic over [`Scalar`] (`f32`/`f64`); kernels in downstream
//! crates default to `f32` as GNN frameworks do.

pub mod aligned;
pub mod dense;
pub mod error;
pub mod half;
pub mod ops;
pub mod scalar;
pub mod tile;

pub use aligned::{AlignedVec, StorageElem};
pub use dense::{Dense2, Dense3};
pub use error::{ShapeError, TensorResult};
pub use half::{Bf16, FeatElem, FeatureDtype, FeatureTensor};
pub use scalar::Scalar;
