//! GPU kernel templates, executed on the [`fg_gpusim`] V100 model.
//!
//! The three templates are one skeleton (`skeleton`) over the same op slots
//! as the CPU templates (`crate::ops`): a UDF is lowered once, for both
//! targets, to a message op, and the values a GPU kernel produces are
//! folded by the very ops the CPU kernels fold with. What differs is the
//! template-level schedule (§III-C2/3), and that is all this module holds:
//!
//! * **Row blocks** — SpMM and the fused template are vertex-parallel: each
//!   block reduces a chunk of destination rows, reading its slice of the
//!   in-CSR index once and writing each finished row coalesced.
//!   * **SpMM** prices the message per pattern: the FDS binds the feature
//!     dimension to `thread.x` (Fig. 7a) for divergence-free, coalesced
//!     element-wise messages, optional **hybrid partitioning** stages
//!     high-out-degree source rows in shared memory (Fig. 13), MLP
//!     aggregation stages its `src + dst` row (Fig. 9).
//!   * **Fused** SDDMM → (softmax) → SpMM is two launches with softmax (an
//!     exp-free score-max pass, then the aggregate pass) and one without,
//!     and hoists the destination-side GAT score operand to one coalesced
//!     read per block.
//! * **Edge blocks** — SDDMM is edge-parallel: each block computes a chunk
//!   of edges; the FDS chooses between a cooperative **tree reduction**
//!   across `thread.x` (Fig. 7b) and a register-heavy serial dot per thread
//!   (the Fig. 12 ablation).
//!
//! Every schedule is checked once at compile time ([`KernelError`]): block
//! size, threads per block and the shared-memory footprint must fit the
//! simulated SM.
//!
//! [`KernelError`]: crate::KernelError

pub mod fused;
pub mod sddmm;
mod skeleton;
pub mod spmm;
