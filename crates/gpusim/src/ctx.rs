//! Per-block execution context: cost accounting API used by kernels.
//!
//! Kernels perform their *functional* work with ordinary Rust code over the
//! host buffers; alongside, they report each memory/ALU event through this
//! context so the launch can be priced. The accounting calls mirror the
//! access shapes a CUDA kernel would produce, at warp granularity.

use crate::coalesce;
use crate::device::DeviceConfig;
use crate::tally::CostTally;

/// Accounting context for one block's execution. A block's shared memory is
/// its kernel's static [`crate::GpuKernel::shared_mem_bytes`]; the kernel
/// templates check it against the SM when they compile.
pub struct BlockCtx<'d> {
    device: &'d DeviceConfig,
    tally: CostTally,
}

impl<'d> BlockCtx<'d> {
    /// Create a context for a block of a kernel.
    pub fn new(device: &'d DeviceConfig) -> Self {
        Self {
            device,
            tally: CostTally::default(),
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceConfig {
        self.device
    }

    /// Final tally for the block.
    pub fn into_tally(self) -> CostTally {
        self.tally
    }

    /// Account a coalesced global read/write of `elems` consecutive elements
    /// of `elem_bytes`, starting at element offset `start_elem` within its
    /// buffer (alignment matters for segment counting).
    pub fn global_contiguous(&mut self, start_elem: usize, elems: usize, elem_bytes: usize) {
        let tx = coalesce::contiguous_transactions(
            start_elem,
            elems,
            elem_bytes,
            self.device.transaction_bytes,
        );
        self.tally.global_transactions += tx;
        self.tally.global_bytes += (elems * elem_bytes) as u64;
    }

    /// Account a fully scattered access: `elems` lanes each touching an
    /// unrelated address. Each lane fetches a whole sector, so bandwidth is
    /// amplified by `sector_bytes / elem_bytes` — the shape produced by
    /// blackbox per-thread feature loops (Gunrock-style kernels).
    pub fn global_scattered(&mut self, elems: usize, elem_bytes: usize) {
        let sectors = elems as u64 * self.device.sector_bytes.max(elem_bytes) as u64;
        self.tally.global_transactions += sectors.div_ceil(self.device.transaction_bytes as u64);
        self.tally.global_bytes += (elems * elem_bytes) as u64;
    }

    /// Account `n` FP32 lane-operations executed by *full* warps (the
    /// common vectorized case): issue slots are charged at one per 32 lanes.
    pub fn alu(&mut self, n: u64) {
        self.tally.alu_ops += n;
        self.tally.issue_ops += n.div_ceil(32);
    }

    /// Account a warp executing `instructions` lockstep instructions with
    /// only `active_lanes` lanes participating. A single-thread loop of `k`
    /// iterations is `warp_exec(1, k)`: it occupies `k` issue slots even
    /// though only `k` lane-ops of useful work happen — the serialization
    /// a feature-dimension-blind kernel suffers.
    pub fn warp_exec(&mut self, active_lanes: u64, instructions: u64) {
        self.tally.alu_ops += active_lanes * instructions;
        self.tally.issue_ops += instructions;
    }

    /// Account `n` shared-memory lane accesses (reads or writes).
    pub fn shared(&mut self, n: u64) {
        self.tally.shared_accesses += n;
    }

    /// Account `ops` global atomics of which `conflicts` serialized against
    /// another lane's update to the same address.
    pub fn atomic(&mut self, ops: u64, conflicts: u64) {
        debug_assert!(conflicts <= ops, "conflicts cannot exceed ops");
        self.tally.atomic_ops += ops;
        self.tally.atomic_conflicts += conflicts;
    }

    /// Account one block-wide barrier (`__syncthreads`).
    pub fn barrier(&mut self) {
        self.tally.barriers += 1;
    }

    /// Current tally (for tests).
    pub fn tally(&self) -> &CostTally {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_accounting() {
        let d = DeviceConfig::v100();
        let mut ctx = BlockCtx::new(&d);
        ctx.global_contiguous(0, 32, 4);
        assert_eq!(ctx.tally().global_transactions, 1);
        assert_eq!(ctx.tally().global_bytes, 128);
    }

    #[test]
    fn counters_accumulate() {
        let d = DeviceConfig::v100();
        let mut ctx = BlockCtx::new(&d);
        ctx.alu(100);
        ctx.shared(50);
        ctx.atomic(10, 3);
        ctx.barrier();
        ctx.warp_exec(1, 64);
        let t = ctx.into_tally();
        assert_eq!(t.alu_ops, 164);
        assert_eq!(t.issue_ops, 4 + 64);
        assert_eq!(t.shared_accesses, 50);
        assert_eq!(t.atomic_ops, 10);
        assert_eq!(t.atomic_conflicts, 3);
        assert_eq!(t.barriers, 1);
    }
}
