//! # fg-gpusim
//!
//! A functional-plus-cost-model GPU execution simulator, standing in for the
//! Tesla V100 the paper evaluates on (see DESIGN.md's substitution table).
//!
//! ## Why a simulator is a faithful substitute
//!
//! Every GPU-side claim in the paper is *relative* and rests on four
//! first-order mechanisms:
//!
//! 1. **Memory coalescing** — threads of a warp reading contiguous addresses
//!    produce one memory transaction; scattered reads produce one per lane.
//!    (FeatGraph's feature-dim parallelization is coalesced; Gunrock's
//!    per-thread feature loops are not.)
//! 2. **Atomic serialization** — edge-parallel vertex reduction needs atomic
//!    updates that serialize under conflicts. (Why Gunrock is slow on SpMM.)
//! 3. **Parallel reduction depth & register pressure** — a tree reduction
//!    across threads is `log₂ d` deep; a per-thread serial dot consumes
//!    registers and caps occupancy. (Fig. 12.)
//! 4. **Shared-memory reuse** — staging hot rows in shared memory converts
//!    repeated global reads into cheap shared reads, at a merge cost.
//!    (Hybrid partitioning, Fig. 13.)
//!
//! The simulator executes kernels *functionally* on the host (so results are
//! bit-checkable against CPU references) while a `CostTally`
//! accumulates ALU ops, memory transactions, shared-memory traffic, atomics,
//! and barriers. [`launch`] then converts tallies into simulated time
//! with a documented throughput/occupancy model.
//!
//! The model is deliberately first-order: it is not cycle-accurate, but each
//! mechanism above is monotonically represented, which is what the paper's
//! relative claims (who wins, by roughly what factor, where crossovers fall)
//! depend on.

mod coalesce;
mod ctx;
mod device;
mod exec;
mod kernel;
mod tally;

pub use ctx::BlockCtx;
pub use device::DeviceConfig;
pub use exec::{kernel_rollups, launch, reset_kernel_rollups, KernelRollup, LaunchReport};
pub use kernel::GpuKernel;
