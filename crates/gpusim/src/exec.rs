//! Launch execution and the timing model.
//!
//! ## Timing model
//!
//! For each block `b` the simulator computes an *intra-block cycle cost*:
//!
//! ```text
//! compute_b = max(alu_ops_b / fp32_lanes_per_sm, issue_ops_b / issue_rate)
//! shared_b  = shared_accesses_b / shared_lanes_per_sm
//! atomic_b  = atomic_ops_b · atomic_cycles
//!           + atomic_conflicts_b · atomic_conflict_cycles
//! sync_b    = barriers_b · 20
//! block_b   = (max(compute_b, shared_b) + atomic_b + sync_b) · L
//! ```
//!
//! where `L ≥ 1` is a latency-exposure factor: with fewer resident warps
//! than `latency_hiding_warps`, throughput costs cannot be overlapped, so
//! `L = latency_hiding_warps / resident_warps` (clamped at 1 from below).
//! Resident warps come from the occupancy calculation
//! ([`DeviceConfig::occupancy_blocks`]), which is where shared-memory
//! footprint and register pressure bite.
//!
//! Blocks are assigned to SMs round-robin; each SM executes its blocks
//! back-to-back. The launch is additionally bounded by device-wide memory
//! bandwidth, *derated by how much load the grid can keep in flight*: HBM
//! only saturates when enough SMs are active and enough warps are resident
//! to cover the memory latency (this is the mechanism behind the paper's
//! Fig. 12 register-pressure effect and Fig. 15 block-count sensitivity):
//!
//! ```text
//! util   = min(1, (active_sms / num_sms) · (resident_warps / latency_hiding_warps))
//! mem    = global_transactions · transaction_bytes / (global_bytes_per_cycle · util)
//! total  = max(max_sm_cycles, mem) + launch_overhead
//! ```
//!
//! Every term is a throughput bound a real GPU obeys to first order, which
//! is the fidelity level the paper's relative comparisons require.

use crate::ctx::BlockCtx;
use crate::device::DeviceConfig;
use crate::kernel::GpuKernel;
use crate::tally::CostTally;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cycles charged per block-wide barrier.
const BARRIER_CYCLES: f64 = 20.0;

/// Aggregated launch statistics for one kernel name, accumulated across
/// every [`launch`] while telemetry is runtime-enabled. This is what the
/// roofline attribution in `fgbench --metrics` reads: per-kernel FLOPs,
/// DRAM traffic, simulated time, and the peak figures of the device the
/// kernel ran on.
#[derive(Debug, Clone)]
pub struct KernelRollup {
    /// Kernel name (as reported by [`GpuKernel::name`]).
    pub kernel: &'static str,
    /// Number of launches folded into this rollup.
    pub launches: u64,
    /// Total simulated milliseconds.
    pub time_ms: f64,
    /// Summed event counts.
    pub tally: CostTally,
    /// Global-memory transaction size of the device (bytes).
    pub transaction_bytes: usize,
    /// Peak FP32 throughput of the device, GFLOP/s (last launch wins if the
    /// same kernel ran on several device models).
    pub peak_gflops: f64,
    /// Peak global-memory bandwidth of the device, GB/s.
    pub peak_gbs: f64,
}

impl KernelRollup {
    /// FP32 operations executed (the model counts one op per lane).
    pub fn flops(&self) -> u64 {
        self.tally.alu_ops
    }

    /// Bytes actually moved over the DRAM bus (transactions × segment size;
    /// larger than `global_bytes` when accesses are uncoalesced).
    pub fn dram_bytes(&self) -> u64 {
        self.tally.global_transactions * self.transaction_bytes as u64
    }

    /// Arithmetic intensity in FLOPs per DRAM byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.dram_bytes();
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.flops() as f64 / bytes as f64
        }
    }

    /// Attained compute throughput, GFLOP/s.
    pub fn attained_gflops(&self) -> f64 {
        if self.time_ms <= 0.0 {
            0.0
        } else {
            self.flops() as f64 / (self.time_ms * 1e6)
        }
    }

    /// Attained DRAM bandwidth, GB/s.
    pub fn attained_gbs(&self) -> f64 {
        if self.time_ms <= 0.0 {
            0.0
        } else {
            self.dram_bytes() as f64 / (self.time_ms * 1e6)
        }
    }

    /// The roofline ceiling at this kernel's arithmetic intensity:
    /// `min(peak_gflops, AI × peak_bandwidth)` (Williams et al., CACM 2009).
    pub fn roofline_gflops(&self) -> f64 {
        let ai = self.arithmetic_intensity();
        if ai.is_infinite() {
            self.peak_gflops
        } else {
            self.peak_gflops.min(ai * self.peak_gbs)
        }
    }

    /// Attained compute throughput as a fraction of the roofline ceiling
    /// (1.0 = the kernel runs as fast as the model's hardware allows).
    pub fn attained_fraction(&self) -> f64 {
        let roof = self.roofline_gflops();
        if roof <= 0.0 {
            0.0
        } else {
            (self.attained_gflops() / roof).min(1.0)
        }
    }

    /// True when the kernel sits on the bandwidth-limited side of the
    /// roofline ridge point.
    pub fn memory_bound(&self) -> bool {
        self.arithmetic_intensity() < self.peak_gflops / self.peak_gbs
    }
}

static ROLLUPS: Mutex<BTreeMap<&'static str, KernelRollup>> = Mutex::new(BTreeMap::new());

fn rollup_record(device: &DeviceConfig, kernel: &'static str, time_ms: f64, tally: &CostTally) {
    let mut rollups = ROLLUPS.lock().unwrap();
    let entry = rollups.entry(kernel).or_insert_with(|| KernelRollup {
        kernel,
        launches: 0,
        time_ms: 0.0,
        tally: CostTally::default(),
        transaction_bytes: device.transaction_bytes,
        peak_gflops: device.peak_gflops(),
        peak_gbs: device.peak_bandwidth_gbs(),
    });
    entry.launches += 1;
    entry.time_ms += time_ms;
    entry.tally.add(tally);
    entry.transaction_bytes = device.transaction_bytes;
    entry.peak_gflops = device.peak_gflops();
    entry.peak_gbs = device.peak_bandwidth_gbs();
}

/// Per-kernel-name launch rollups accumulated since the last
/// [`reset_kernel_rollups`], sorted by kernel name. Empty unless telemetry
/// was runtime-enabled during the launches.
pub fn kernel_rollups() -> Vec<KernelRollup> {
    ROLLUPS.lock().unwrap().values().cloned().collect()
}

/// Clear the per-kernel rollup registry (e.g. between benchmark commands).
pub fn reset_kernel_rollups() {
    ROLLUPS.lock().unwrap().clear();
}

/// Result of simulating one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: &'static str,
    /// Total event counts across all blocks.
    pub tally: CostTally,
    /// Simulated execution time in core cycles.
    pub cycles: f64,
    /// Simulated execution time in milliseconds.
    pub time_ms: f64,
    /// Cycle cost of the busiest SM (compute-side bound).
    pub sm_cycles: f64,
    /// Device-wide memory-bandwidth cycle bound.
    pub mem_cycles: f64,
    /// Blocks resident per SM under the occupancy limits.
    pub occupancy_blocks: usize,
    /// Latency-exposure multiplier applied to block costs.
    pub latency_factor: f64,
    /// Number of blocks launched.
    pub grid_dim: usize,
}

impl LaunchReport {
    /// True when the launch was bound by memory bandwidth rather than SM
    /// throughput.
    pub fn memory_bound(&self) -> bool {
        self.mem_cycles > self.sm_cycles
    }
}

impl std::fmt::Display for LaunchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {:.3} ms over {} blocks ({} bound)",
            self.kernel,
            self.time_ms,
            self.grid_dim,
            if self.memory_bound() { "memory" } else { "compute" }
        )?;
        writeln!(
            f,
            "  sm {:.0} / mem {:.0} cycles, occupancy {} blocks/SM, latency x{:.2}",
            self.sm_cycles, self.mem_cycles, self.occupancy_blocks, self.latency_factor
        )?;
        let t = &self.tally;
        write!(
            f,
            "  {} tx ({} B useful), {} alu, {} shared, {} atomics ({} conflicted), {} barriers",
            t.global_transactions,
            t.global_bytes,
            t.alu_ops,
            t.shared_accesses,
            t.atomic_ops,
            t.atomic_conflicts,
            t.barriers
        )
    }
}

/// Bridge the launch's cost tally into the fg-telemetry counter registry,
/// so GPU memory/compute totals show up next to CPU-side span counters.
fn record_launch(device: &DeviceConfig, tally: &CostTally) {
    use fg_telemetry::{counter_add, gauge_set, Counter, Gauge};
    if !fg_telemetry::enabled() {
        return;
    }
    counter_add(Counter::GpuAluOps, tally.alu_ops);
    counter_add(Counter::GpuIssueOps, tally.issue_ops);
    counter_add(Counter::GpuGlobalTransactions, tally.global_transactions);
    counter_add(Counter::GpuGlobalBytes, tally.global_bytes);
    counter_add(Counter::GpuSharedAccesses, tally.shared_accesses);
    counter_add(Counter::GpuAtomicOps, tally.atomic_ops);
    counter_add(Counter::GpuAtomicConflicts, tally.atomic_conflicts);
    counter_add(Counter::GpuBarriers, tally.barriers);
    counter_add(Counter::BytesMoved, tally.global_bytes);
    if tally.global_transactions > 0 {
        // useful bytes over bytes actually transacted: 1.0 = fully coalesced
        let eff = tally.global_bytes as f64
            / (tally.global_transactions as f64 * device.transaction_bytes as f64);
        gauge_set(Gauge::GpuCoalescingEfficiency, eff.min(1.0));
    }
}

/// Execute a kernel functionally and price it with the timing model.
pub fn launch<K: GpuKernel + ?Sized>(device: &DeviceConfig, kernel: &mut K) -> LaunchReport {
    let _launch_span = fg_telemetry::span!(
        "gpu/launch",
        "kernel={} grid={}",
        kernel.name(),
        kernel.grid_dim()
    );
    let grid = kernel.grid_dim();
    let block_dim = kernel.block_dim();
    assert!(block_dim > 0, "block_dim must be positive");
    assert!(
        block_dim <= device.max_threads_per_sm,
        "block_dim {} exceeds device limit {}",
        block_dim,
        device.max_threads_per_sm
    );

    let occ = device
        .occupancy_blocks(
            block_dim,
            kernel.shared_mem_bytes(),
            kernel.regs_per_thread(),
        )
        .max(1);
    let resident_warps = (occ * block_dim).div_ceil(device.warp_size).max(1);
    let latency_factor = (device.latency_hiding_warps as f64 / resident_warps as f64).max(1.0);

    let mut total = CostTally::default();
    let mut sm_cycles = vec![0.0f64; device.num_sms];
    for b in 0..grid {
        let mut ctx = BlockCtx::new(device);
        kernel.run_block(b, &mut ctx);
        let t = ctx.into_tally();

        let compute = (t.alu_ops as f64 / device.fp32_lanes_per_sm as f64)
            .max(t.issue_ops as f64 / device.issue_rate);
        let shared = t.shared_accesses as f64 / device.shared_lanes_per_sm as f64;
        let atomics = t.atomic_ops as f64 * device.atomic_cycles
            + t.atomic_conflicts as f64 * device.atomic_conflict_cycles;
        let sync = t.barriers as f64 * BARRIER_CYCLES;
        let block_cost = (compute.max(shared) + atomics + sync) * latency_factor;

        sm_cycles[b % device.num_sms] += block_cost;
        total.add(&t);
    }

    let max_sm = sm_cycles.iter().copied().fold(0.0, f64::max);
    let active_sms = grid.min(device.num_sms).max(1);
    let bw_util = ((active_sms as f64 / device.num_sms as f64)
        * (resident_warps as f64 / device.latency_hiding_warps as f64))
        .min(1.0);
    let mem_cycles = total.global_transactions as f64 * device.transaction_bytes as f64
        / (device.global_bytes_per_cycle * bw_util);
    let cycles = max_sm.max(mem_cycles) + device.launch_overhead_cycles;

    record_launch(device, &total);
    if fg_telemetry::enabled() {
        rollup_record(device, kernel.name(), device.cycles_to_ms(cycles), &total);
    }

    LaunchReport {
        kernel: kernel.name(),
        tally: total,
        cycles,
        time_ms: device.cycles_to_ms(cycles),
        sm_cycles: max_sm,
        mem_cycles,
        occupancy_blocks: occ,
        latency_factor,
        grid_dim: grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic kernel whose per-block cost profile is directly settable.
    struct Synthetic {
        grid: usize,
        block_dim: usize,
        shared_bytes: usize,
        regs: usize,
        alu_per_block: u64,
        tx_per_block: u64,
        atomics_per_block: (u64, u64),
    }

    impl GpuKernel for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }
        fn grid_dim(&self) -> usize {
            self.grid
        }
        fn block_dim(&self) -> usize {
            self.block_dim
        }
        fn shared_mem_bytes(&self) -> usize {
            self.shared_bytes
        }
        fn regs_per_thread(&self) -> usize {
            self.regs
        }
        fn run_block(&mut self, _b: usize, ctx: &mut BlockCtx<'_>) {
            ctx.alu(self.alu_per_block);
            for _ in 0..self.tx_per_block {
                ctx.global_contiguous(0, 32, 4);
            }
            ctx.atomic(self.atomics_per_block.0, self.atomics_per_block.1);
        }
    }

    fn base() -> Synthetic {
        Synthetic {
            grid: 160,
            block_dim: 256,
            shared_bytes: 0,
            regs: 32,
            alu_per_block: 10_000,
            tx_per_block: 10,
            atomics_per_block: (0, 0),
        }
    }

    #[test]
    fn more_blocks_spread_over_sms_until_saturation() {
        let d = DeviceConfig::v100();
        // same total work split into more blocks -> lower max-SM time
        let mut few = Synthetic {
            grid: 8,
            alu_per_block: 200_000,
            ..base()
        };
        let mut many = Synthetic {
            grid: 160,
            alu_per_block: 10_000,
            ..base()
        };
        let rf = launch(&d, &mut few);
        let rm = launch(&d, &mut many);
        assert!(
            rf.sm_cycles > 2.0 * rm.sm_cycles,
            "few={} many={}",
            rf.sm_cycles,
            rm.sm_cycles
        );
    }

    #[test]
    fn atomics_and_conflicts_cost_cycles() {
        let d = DeviceConfig::v100();
        let mut clean = base();
        let mut contested = Synthetic {
            atomics_per_block: (1000, 500),
            ..base()
        };
        let rc = launch(&d, &mut clean);
        let rx = launch(&d, &mut contested);
        assert!(rx.cycles > rc.cycles);
        assert_eq!(rx.tally.atomic_conflicts, 160 * 500);
    }

    #[test]
    fn memory_bound_kernels_are_flagged() {
        let d = DeviceConfig::v100();
        let mut membound = Synthetic {
            tx_per_block: 100_000,
            alu_per_block: 1,
            ..base()
        };
        let r = launch(&d, &mut membound);
        assert!(r.memory_bound());
        let mut compbound = Synthetic {
            tx_per_block: 1,
            alu_per_block: 50_000_000,
            ..base()
        };
        let r = launch(&d, &mut compbound);
        assert!(!r.memory_bound());
    }

    #[test]
    fn register_pressure_reduces_occupancy_and_slows_kernels() {
        let d = DeviceConfig::v100();
        let mut light = base();
        let mut heavy = Synthetic { regs: 255, ..base() };
        let rl = launch(&d, &mut light);
        let rh = launch(&d, &mut heavy);
        assert!(rh.occupancy_blocks < rl.occupancy_blocks);
        assert!(rh.latency_factor > rl.latency_factor);
        assert!(rh.cycles > rl.cycles);
    }

    #[test]
    fn shared_memory_footprint_reduces_occupancy() {
        let d = DeviceConfig::v100();
        let mut light = base();
        let mut heavy = Synthetic {
            shared_bytes: 48 * 1024,
            ..base()
        };
        let rl = launch(&d, &mut light);
        let rh = launch(&d, &mut heavy);
        assert!(rh.occupancy_blocks < rl.occupancy_blocks);
    }

    #[test]
    fn report_display_summarizes_the_launch() {
        let d = DeviceConfig::v100();
        let mut k = base();
        let r = launch(&d, &mut k);
        let s = r.to_string();
        assert!(s.contains("synthetic"));
        assert!(s.contains("blocks"));
        assert!(s.contains("atomics"));
    }

    #[test]
    fn a100_is_faster_than_v100_on_memory_bound_kernels() {
        let mut k1 = Synthetic {
            tx_per_block: 50_000,
            alu_per_block: 1,
            ..base()
        };
        let mut k2 = Synthetic {
            tx_per_block: 50_000,
            alu_per_block: 1,
            ..base()
        };
        let rv = launch(&DeviceConfig::v100(), &mut k1);
        let ra = launch(&DeviceConfig::a100(), &mut k2);
        assert!(ra.time_ms < rv.time_ms, "a100 {} vs v100 {}", ra.time_ms, rv.time_ms);
    }

    #[test]
    fn launch_overhead_is_a_floor() {
        let d = DeviceConfig::v100();
        let mut empty = Synthetic {
            grid: 1,
            alu_per_block: 0,
            tx_per_block: 0,
            ..base()
        };
        let r = launch(&d, &mut empty);
        assert!(r.cycles >= d.launch_overhead_cycles);
        assert!(r.time_ms > 0.0);
    }

    #[test]
    fn rollup_roofline_math_is_consistent() {
        let d = DeviceConfig::v100();
        // Hand-built rollup: 1e9 FLOPs, 1e8 bytes in 1 ms.
        let r = KernelRollup {
            kernel: "hand",
            launches: 1,
            time_ms: 1.0,
            tally: CostTally {
                alu_ops: 1_000_000_000,
                global_transactions: 781_250, // * 128 B = 1e8 bytes
                global_bytes: 100_000_000,
                ..Default::default()
            },
            transaction_bytes: d.transaction_bytes,
            peak_gflops: d.peak_gflops(),
            peak_gbs: d.peak_bandwidth_gbs(),
        };
        assert_eq!(r.dram_bytes(), 100_000_000);
        assert!((r.arithmetic_intensity() - 10.0).abs() < 1e-9);
        // 1e9 FLOPs in 1 ms = 1000 GFLOP/s
        assert!((r.attained_gflops() - 1000.0).abs() < 1e-9);
        assert!((r.attained_gbs() - 100.0).abs() < 1e-9);
        // AI 10 < ridge (7065.6/900 ≈ 7.85)? No: 10 > 7.85 → compute side.
        assert!(!r.memory_bound());
        assert!(r.roofline_gflops() <= r.peak_gflops);
        assert!(r.attained_fraction() > 0.0 && r.attained_fraction() <= 1.0);
    }

    #[test]
    fn launches_accumulate_into_kernel_rollups_when_enabled() {
        // The registry is keyed by kernel name; tests run in parallel, so
        // this one uses a name no other test launches and only asserts on
        // that key.
        struct Named(Synthetic);
        impl GpuKernel for Named {
            fn name(&self) -> &'static str {
                "rollup_test_kernel"
            }
            fn grid_dim(&self) -> usize {
                self.0.grid_dim()
            }
            fn block_dim(&self) -> usize {
                self.0.block_dim()
            }
            fn shared_mem_bytes(&self) -> usize {
                self.0.shared_mem_bytes()
            }
            fn regs_per_thread(&self) -> usize {
                self.0.regs_per_thread()
            }
            fn run_block(&mut self, b: usize, ctx: &mut BlockCtx<'_>) {
                self.0.run_block(b, ctx)
            }
        }

        fg_telemetry::set_enabled(true);
        let d = DeviceConfig::v100();
        let mut k = Named(base());
        let r1 = launch(&d, &mut k);
        let mut k = Named(base());
        let r2 = launch(&d, &mut k);
        let rollups = kernel_rollups();
        fg_telemetry::set_enabled(false);
        let syn = rollups
            .iter()
            .find(|r| r.kernel == "rollup_test_kernel")
            .unwrap();
        assert_eq!(syn.launches, 2);
        assert!((syn.time_ms - (r1.time_ms + r2.time_ms)).abs() < 1e-9);
        assert_eq!(syn.tally.alu_ops, r1.tally.alu_ops + r2.tally.alu_ops);
        assert!((syn.peak_gbs - d.peak_bandwidth_gbs()).abs() < 1e-9);
        reset_kernel_rollups();
        assert!(kernel_rollups()
            .iter()
            .all(|r| r.kernel != "rollup_test_kernel"));
    }

    #[test]
    #[should_panic(expected = "block_dim")]
    fn oversized_blocks_rejected() {
        let d = DeviceConfig::v100();
        let mut k = Synthetic {
            block_dim: 4096,
            ..base()
        };
        let _ = launch(&d, &mut k);
    }
}
