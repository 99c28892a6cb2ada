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

    /// Account a warp-width gather: each lane reads one element at the given
    /// element index. Call once per warp (chunk your index stream by
    /// `warp_size`); the helper [`BlockCtx::global_gather`] does the
    /// chunking for a full block-sized index set.
    pub fn global_gather_warp(&mut self, elem_indices: impl Iterator<Item = usize>, elem_bytes: usize) {
        let mut n = 0usize;
        let tx = coalesce::gather_transactions(
            elem_indices.inspect(|_| n += 1),
            elem_bytes,
            self.device.transaction_bytes,
        );
        self.tally.global_transactions += tx;
        self.tally.global_bytes += (n * elem_bytes) as u64;
    }

    /// Account a gather of arbitrarily many lanes, chunked into warps.
    pub fn global_gather(&mut self, elem_indices: &[usize], elem_bytes: usize) {
        for chunk in elem_indices.chunks(self.device.warp_size) {
            self.global_gather_warp(chunk.iter().copied(), elem_bytes);
        }
    }

    /// Account a strided access (each of `lanes` lanes reads `elem_bytes` at
    /// a stride of `stride_elems` elements) — the uncoalesced shape produced
    /// by thread-per-edge feature loops.
    pub fn global_strided(&mut self, lanes: usize, stride_elems: usize, elem_bytes: usize) {
        let tx = coalesce::strided_transactions(
            lanes,
            stride_elems,
            elem_bytes,
            self.device.transaction_bytes,
        );
        self.tally.global_transactions += tx;
        self.tally.global_bytes += (lanes * elem_bytes) as u64;
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
    fn gather_chunks_by_warp() {
        let d = DeviceConfig::v100();
        let mut ctx = BlockCtx::new(&d);
        // 64 lanes all hitting distinct segments: 2 warps * 32 tx
        let idxs: Vec<usize> = (0..64).map(|i| i * 64).collect();
        ctx.global_gather(&idxs, 4);
        assert_eq!(ctx.tally().global_transactions, 64);
        // same-segment gather: 2 warps * 1 tx
        let mut ctx = BlockCtx::new(&d);
        let idxs = vec![0usize; 64];
        ctx.global_gather(&idxs, 4);
        assert_eq!(ctx.tally().global_transactions, 2);
    }

    #[test]
    fn strided_is_worse_than_contiguous() {
        let d = DeviceConfig::v100();
        let mut a = BlockCtx::new(&d);
        a.global_contiguous(0, 32, 4);
        let mut b = BlockCtx::new(&d);
        b.global_strided(32, 256, 4);
        assert!(b.tally().global_transactions > 10 * a.tally().global_transactions);
        // both moved the same useful bytes
        assert_eq!(a.tally().global_bytes, b.tally().global_bytes);
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
