//! # fg-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! FeatGraph paper. Shared measurement code lives here; the `fgbench` binary
//! drives full sweeps and prints paper-style rows.
//!
//! Graphs are the Table II stand-ins scaled down by `--scale` (vertex count
//! divided, average degree preserved — see `fg_graph::Dataset`); absolute
//! times therefore differ from the paper's full-size numbers, but the
//! *relative* behaviour (who wins, by what factor, where crossovers fall) is
//! what each experiment reproduces. EXPERIMENTS.md records paper-vs-measured
//! for every row.

mod cpu_kernels;
mod gpu_kernels;
mod perf;
mod report;
mod runner;

pub use cpu_kernels::{
    cpu_kernel_samples, cpu_kernel_secs, featgraph_cpu_samples, featgraph_cpu_secs, CpuSystem,
    FeatgraphCpuConfig,
};
pub use gpu_kernels::{featgraph_gpu_ms, gpu_kernel_ms, FeatgraphGpuConfig, GpuSystem};
pub use perf::{compare, Entry, GraphInfo, HistRow, Report, RooflineRow, SampleStats};
pub use report::{fmt_ms, fmt_secs, header, speedup};
pub use runner::{features, load, time_samples, BenchConfig, KernelKind, Samples};

/// Default vertex-count divisor for CLI sweeps (keeps the full Table III/IV
/// sweep under ~half an hour on one core).
const DEFAULT_SCALE: usize = 96;

/// Default feature lengths, matching the paper's sweep.
const DEFAULT_LENGTHS: [usize; 5] = [32, 64, 128, 256, 512];
