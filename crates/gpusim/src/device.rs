//! Device configuration.

/// Hardware parameters of the simulated GPU.
///
/// Defaults model the Tesla V100-SXM2 of the paper's `p3.2xlarge` instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Core clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
    /// Threads per warp.
    pub warp_size: usize,
    /// FP32 lanes per SM (ALU throughput per cycle).
    pub fp32_lanes_per_sm: usize,
    /// Shared-memory capacity per SM in bytes (96 KB configured, as the
    /// paper notes).
    pub shared_mem_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Register file per SM (32-bit registers).
    pub regs_per_sm: usize,
    /// Global-memory bandwidth in bytes per core cycle (device-wide).
    pub global_bytes_per_cycle: f64,
    /// Global-memory transaction size in bytes.
    pub transaction_bytes: usize,
    /// Minimum fetch granularity for scattered (uncoalesced) accesses in
    /// bytes (V100 L2 sector size).
    pub sector_bytes: usize,
    /// Shared-memory lanes per SM per cycle (bank throughput).
    pub shared_lanes_per_sm: usize,
    /// Cycles per conflict-free global atomic operation.
    pub atomic_cycles: f64,
    /// Extra serialization cycles per conflicting atomic.
    pub atomic_conflict_cycles: f64,
    /// Kernel launch overhead in cycles.
    pub launch_overhead_cycles: f64,
    /// Resident warps per SM needed to fully hide memory latency; below
    /// this, compute time is inflated proportionally.
    pub latency_hiding_warps: usize,
    /// Warp instructions the SM can issue per cycle (V100: 4 schedulers).
    pub issue_rate: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100()
    }
}

impl DeviceConfig {
    /// Tesla V100-SXM2 16 GB (the paper's GPU), first-order parameters.
    pub fn v100() -> Self {
        Self {
            num_sms: 80,
            clock_ghz: 1.38,
            warp_size: 32,
            fp32_lanes_per_sm: 64,
            shared_mem_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            regs_per_sm: 65_536,
            // 900 GB/s HBM2 at 1.38 GHz core clock
            global_bytes_per_cycle: 900.0e9 / 1.38e9,
            transaction_bytes: 128,
            sector_bytes: 32,
            shared_lanes_per_sm: 64,
            atomic_cycles: 4.0,
            atomic_conflict_cycles: 24.0,
            launch_overhead_cycles: 6_900.0, // ~5 µs
            latency_hiding_warps: 32,
            issue_rate: 4.0,
        }
    }

    /// NVIDIA A100-SXM4 40 GB, first-order parameters — a "newer hardware"
    /// preset for the paper's future-work direction. More SMs, much more
    /// HBM bandwidth, larger shared memory.
    pub fn a100() -> Self {
        Self {
            num_sms: 108,
            clock_ghz: 1.41,
            fp32_lanes_per_sm: 64,
            shared_mem_per_sm: 164 * 1024,
            // 1555 GB/s HBM2e at 1.41 GHz
            global_bytes_per_cycle: 1555.0e9 / 1.41e9,
            ..Self::v100()
        }
    }

    /// A small GPU (for tests that want low occupancy ceilings).
    pub fn tiny() -> Self {
        Self {
            num_sms: 2,
            shared_mem_per_sm: 16 * 1024,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 4,
            regs_per_sm: 8_192,
            ..Self::v100()
        }
    }

    /// Convert core cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9) * 1e3
    }

    /// Peak FP32 throughput in GFLOP/s under this model's accounting (one
    /// ALU op per lane per cycle — the same unit `CostTally::alu_ops`
    /// counts in, so attained/peak ratios are internally consistent).
    pub fn peak_gflops(&self) -> f64 {
        self.num_sms as f64 * self.fp32_lanes_per_sm as f64 * self.clock_ghz
    }

    /// Peak global-memory bandwidth in GB/s.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.global_bytes_per_cycle * self.clock_ghz
    }

    /// Blocks resident per SM for a kernel with the given resource usage.
    pub fn occupancy_blocks(
        &self,
        threads_per_block: usize,
        shared_bytes_per_block: usize,
        regs_per_thread: usize,
    ) -> usize {
        let by_threads = self.max_threads_per_sm / threads_per_block.max(1);
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let regs_per_block = regs_per_thread * threads_per_block;
        let by_regs = self
            .regs_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        by_threads.min(by_shared).min(by_regs).min(self.max_blocks_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_bandwidth_is_plausible() {
        let d = DeviceConfig::v100();
        // ~652 bytes/cycle
        assert!((d.global_bytes_per_cycle - 652.0).abs() < 2.0);
    }

    #[test]
    fn cycles_to_ms() {
        let d = DeviceConfig::v100();
        // 1.38e9 cycles = 1 s = 1000 ms
        assert!((d.cycles_to_ms(1.38e9) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn peak_figures_match_the_model_parameters() {
        let d = DeviceConfig::v100();
        // 80 SMs * 64 lanes * 1.38 GHz
        assert!((d.peak_gflops() - 7065.6).abs() < 1e-6);
        // bytes/cycle * GHz = GB/s; V100 models 900 GB/s HBM2
        assert!((d.peak_bandwidth_gbs() - 900.0).abs() < 1.0);
    }

    #[test]
    fn a100_outranks_v100() {
        let a = DeviceConfig::a100();
        let v = DeviceConfig::v100();
        assert!(a.num_sms > v.num_sms);
        assert!(a.global_bytes_per_cycle > v.global_bytes_per_cycle);
        assert!(a.shared_mem_per_sm > v.shared_mem_per_sm);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let d = DeviceConfig::v100();
        assert_eq!(d.occupancy_blocks(1024, 0, 0), 2);
        assert_eq!(d.occupancy_blocks(256, 0, 0), 8);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let d = DeviceConfig::v100();
        // 48 KB blocks: only 2 fit in 96 KB
        assert_eq!(d.occupancy_blocks(64, 48 * 1024, 0), 2);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let d = DeviceConfig::v100();
        // 256 threads * 128 regs = 32768 regs per block; 65536/32768 = 2
        assert_eq!(d.occupancy_blocks(256, 0, 128), 2);
        // light register use falls back to other limits
        assert_eq!(d.occupancy_blocks(256, 0, 16), 8);
    }

    #[test]
    fn occupancy_never_exceeds_block_cap() {
        let d = DeviceConfig::v100();
        assert_eq!(d.occupancy_blocks(1, 0, 0), d.max_blocks_per_sm);
    }
}
