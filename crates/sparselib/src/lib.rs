//! # fg-sparselib
//!
//! Vendor-library baselines for the FeatGraph evaluation:
//!
//! * [`mkl_csrmm`] — an honestly optimized CPU CSR SpMM in the style of
//!   `mkl_sparse_s_mm`: row-parallel, vectorized dense inner loops, no graph
//!   partitioning or feature tiling, and — mirroring the flexibility limits
//!   the paper tabulates (Table I) — support for **only** the vanilla
//!   copy-sum SpMM. MLP aggregation and dot-product attention are simply
//!   not in the API, exactly as they are not in MKL.
//! * [`cusparse_csrmm`] — a fixed, well-tuned `cusparseScsrmm`-style kernel
//!   on the GPU simulator: vertex-parallel, feature-coalesced, no hybrid
//!   partitioning, no generalized UDFs.

mod cusparse_like;
mod mkl_like;

pub use cusparse_like::{cusparse_csrmm, CusparseOptions};
pub use mkl_like::mkl_csrmm;
