//! # fg-ir
//!
//! The tensor-expression IR of the FeatGraph reproduction.
//!
//! The paper expresses fine-grained per-vertex/per-edge feature computation
//! as TVM tensor expressions (Figs. 3/4) and optimizes them with a *feature
//! dimension schedule* (FDS). This crate is our TVM substitute:
//!
//! * [`ScalarExpr`] — a small expression language over the feature
//!   dimension: leaves are slices of the source/destination/edge feature
//!   rows, parameter matrices, and constants; operators are arithmetic,
//!   min/max, and activations.
//! * [`Udf`] — a user-defined function: an output axis, an optional
//!   reduction axis with a commutative reducer, a body expression, and
//!   parameter shape declarations. This corresponds to the `msgfunc` /
//!   `edgefunc` definitions in the paper's Figs. 3/4.
//! * [`Fds`] — the feature dimension schedule: tiling factors for the
//!   output and reduction axes (CPU, Figs. 3a/8) and thread-binding /
//!   tree-reduction choices (GPU, Figs. 3a/4a/9).
//! * [`KernelPattern`] — "lowering": recognizing a UDF as one of
//!   the hot patterns for which the kernel crates carry fused, monomorphized
//!   implementations (rustc/LLVM performs the code generation TVM would),
//!   with the interpreter ([`eval_udf`]) as the always-correct generic
//!   fallback.
//! * [`Reducer`] — the aggregation functions allowed by the SpMM
//!   template (any commutative reducer; the paper names sum and max).

mod display;
mod expr;
mod fds;
mod fused;
mod interp;
mod pattern;
mod reducer;
mod udf;

pub use expr::{IdxExpr, ScalarExpr};
pub use fds::{Fds, GpuBind, GpuFds};
pub use fused::{FusedError, FusedOp, FusedPattern};
pub use interp::{eval_expr, eval_udf, EdgeCtx};
pub use pattern::{ElemOp, KernelPattern};
pub use reducer::Reducer;
pub use udf::{ReduceSpec, Udf, UdfError};
