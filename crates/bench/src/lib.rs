//! # fg-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! FeatGraph paper. Shared measurement code lives here; the `fgbench` binary
//! drives full sweeps and prints paper-style rows.
//!
//! Graphs are the Table II stand-ins scaled down by `--scale` (vertex count
//! divided, average degree preserved — see `fg_graph::datasets`); absolute
//! times therefore differ from the paper's full-size numbers, but the
//! *relative* behaviour (who wins, by what factor, where crossovers fall) is
//! what each experiment reproduces. EXPERIMENTS.md records paper-vs-measured
//! for every row.

pub mod cpu_kernels;
pub mod gpu_kernels;
pub mod perf;
pub mod report;
pub mod runner;

pub use runner::{BenchConfig, KernelKind};

/// Default vertex-count divisor for CLI sweeps (keeps the full Table III/IV
/// sweep under ~half an hour on one core).
pub const DEFAULT_SCALE: usize = 96;

/// Default feature lengths, matching the paper's sweep.
pub const DEFAULT_LENGTHS: [usize; 5] = [32, 64, 128, 256, 512];
