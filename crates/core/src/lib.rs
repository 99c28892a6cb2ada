//! # featgraph
//!
//! The core of the FeatGraph reproduction: **generalized SpMM and SDDMM
//! kernel templates** that compose coarse-grained graph traversal with
//! fine-grained user-defined feature-dimension computations (UDFs), exactly
//! as the paper's two-granularity programming interface does (§III-B).
//!
//! ## The paper's API, in Rust
//!
//! The paper's Fig. 3a builds GCN aggregation as
//! `featgraph.spmm(A, msgfunc, aggregation, target, fds)`; here:
//!
//! ```
//! use featgraph::{spmm, GraphTensors, Reducer, Target, Fds, Udf};
//! use fg_tensor::Dense2;
//!
//! let graph = fg_graph::uniform(100, 8, 42);
//! let d = 32;
//! // message function: copy the source vertex feature (GCN aggregation)
//! let msgfunc = Udf::copy_src(d);
//! // feature dimension schedule: tile the feature dimension for cache reuse
//! let fds = Fds::cpu_tiled(4);
//! let kernel = spmm(&graph, &msgfunc, Reducer::Sum, Target::Cpu, &fds).unwrap();
//!
//! let x = Dense2::<f32>::from_fn(100, d, |v, i| (v + i) as f32);
//! let mut h = Dense2::<f32>::zeros(100, d);
//! kernel.run(&GraphTensors::vertex_only(&x), &mut h).unwrap();
//! ```
//!
//! ## Two decoupled optimization levels
//!
//! * **Template level** (this crate): 1D graph partitioning + LLC-aware
//!   cooperative threading for CPU SpMM (§III-C1, Fig. 6), Hilbert-curve
//!   edge traversal for CPU SDDMM, vertex/edge parallelization with
//!   feature-dimension thread binding for the GPU templates (§III-C2,
//!   Fig. 7), and hybrid degree-split shared-memory partitioning on GPU
//!   (§III-C3).
//! * **UDF level** (the [`Fds`] the caller passes): feature/reduce-axis
//!   tiling on CPU, thread binding and tree reduction on GPU.
//!
//! "GPU" executions run on [`fg_gpusim`]'s functional V100 cost model — see
//! DESIGN.md's substitution table.

mod autotune;
mod cpu;
mod error;
mod gpu;
mod inputs;
mod ops;
mod reference;
mod util;

pub use autotune::{tune_spmm_cpu, tune_spmm_cpu_adaptive, tune_spmm_gpu_blocks};
pub use cpu::fused::CpuFused;
pub use cpu::sddmm::{CpuSddmm, CpuSddmmOptions, Traversal};
pub use cpu::spmm::{CpuSpmm, CpuSpmmOptions};
pub use error::KernelError;
pub use gpu::fused::GpuFusedOptions;
pub use gpu::sddmm::GpuSddmmOptions;
pub use gpu::spmm::{GpuSpmm, GpuSpmmOptions, HybridOptions};
pub use inputs::{FusedInputs, Gathered, GraphTensors, Row, VertexRows};
pub use reference::{fused_reference, sddmm_reference, spmm_reference};

// Re-export the IR types a user needs to drive the API, so `featgraph` is a
// one-stop dependency like the Python package in the paper.
pub use fg_ir::{
    Fds, FusedError, FusedOp, FusedPattern, GpuBind, GpuFds, KernelPattern, Reducer, Udf,
};

use fg_graph::Graph;
use fg_tensor::Dense2;

/// Compilation/execution target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Host CPU (rayon-parallel kernels; thread count set via options).
    Cpu,
    /// The simulated V100 GPU.
    Gpu,
}

/// A compiled generalized-SpMM kernel (vertex-wise computation, Eq. (1)).
pub enum SpmmKernel {
    /// CPU plan.
    Cpu(cpu::spmm::CpuSpmm<'static>),
    /// GPU-simulator plan.
    Gpu(gpu::spmm::GpuSpmm),
}

impl SpmmKernel {
    /// Execute: aggregate per-edge messages into `out` (`|V| × udf.out_len`).
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        match self {
            SpmmKernel::Cpu(k) => k.run(inputs, out),
            SpmmKernel::Gpu(k) => k.run(inputs, out),
        }
    }

    /// Heap bytes held by the compiled plan.
    pub fn mem_bytes(&self) -> u64 {
        match self {
            SpmmKernel::Cpu(k) => k.mem_bytes(),
            SpmmKernel::Gpu(k) => k.mem_bytes(),
        }
    }
}

/// A compiled generalized-SDDMM kernel (edge-wise computation, Eq. (2)).
pub enum SddmmKernel {
    /// CPU plan.
    Cpu(cpu::sddmm::CpuSddmm),
    /// GPU-simulator plan.
    Gpu(gpu::sddmm::GpuSddmm),
}

impl SddmmKernel {
    /// Execute: compute per-edge outputs into `out` (`|E| × udf.out_len`).
    pub fn run(
        &self,
        inputs: &GraphTensors<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        match self {
            SddmmKernel::Cpu(k) => k.run(inputs, out),
            SddmmKernel::Gpu(k) => k.run(inputs, out),
        }
    }

    /// Heap bytes held by the compiled plan.
    pub fn mem_bytes(&self) -> u64 {
        match self {
            SddmmKernel::Cpu(k) => k.mem_bytes(),
            SddmmKernel::Gpu(k) => k.mem_bytes(),
        }
    }
}

/// A compiled fused SDDMM → (softmax) → SpMM kernel (attention layers
/// without the `|E| × d` intermediate).
pub enum FusedKernel {
    /// CPU plan.
    Cpu(cpu::fused::CpuFused<'static>),
    /// GPU-simulator plan.
    Gpu(gpu::fused::GpuFused),
}

impl FusedKernel {
    /// Execute: aggregate score-weighted messages into `out`
    /// (`|V| × op.out_len()`).
    pub fn run(
        &self,
        inputs: &FusedInputs<'_, f32>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        match self {
            FusedKernel::Cpu(k) => k.run(inputs, out),
            FusedKernel::Gpu(k) => k.run(inputs, out),
        }
    }

    /// Backward of a GAT attention run; see
    /// [`CpuFused::attention_backward`]. The simulated-GPU plan
    /// has no backward kernel and reports [`KernelError::Unsupported`].
    pub fn attention_backward(
        &self,
        inputs: &FusedInputs<'_, f32>,
        out: &Dense2<f32>,
        stats: &SoftmaxStats,
        grad: &Dense2<f32>,
    ) -> Result<AttentionBackward, KernelError> {
        match self {
            FusedKernel::Cpu(k) => k.attention_backward(inputs, out, stats, grad),
            FusedKernel::Gpu(_) => Err(KernelError::Unsupported(
                "the simulated-GPU fused kernel has no backward",
            )),
        }
    }

    /// The recognized fused pattern.
    pub fn pattern(&self) -> FusedPattern {
        match self {
            FusedKernel::Cpu(k) => k.pattern(),
            FusedKernel::Gpu(k) => k.pattern(),
        }
    }

    /// Heap bytes held by the compiled plan.
    pub fn mem_bytes(&self) -> u64 {
        match self {
            FusedKernel::Cpu(k) => k.mem_bytes(),
            FusedKernel::Gpu(k) => k.mem_bytes(),
        }
    }
}

/// Execution statistics returned by a kernel run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Simulated GPU time in milliseconds (`None` for CPU runs — time those
    /// with a wall clock).
    pub gpu_time_ms: Option<f64>,
    /// The GPU launch reports, one per simulated kernel launch.
    pub gpu_launches: Vec<fg_gpusim::LaunchReport>,
    /// What a CPU fused softmax run saved for a backward pass (`None` for
    /// every other kernel).
    pub softmax: Option<SoftmaxStats>,
}

/// The `O(|V|)` state of a fused softmax run: per destination, the largest
/// in-edge score and `Σ exp(score − max)` over its in-edges (0 where there
/// are none). Every edge's normalized weight can be recomputed from its
/// score and these two numbers, so a backward pass needs no `|E|`-sized
/// tensor from the forward.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoftmaxStats {
    /// Per-destination maximum score.
    pub max: Vec<f32>,
    /// Per-destination exp-sum.
    pub sum: Vec<f32>,
}

/// The destination-major half of the GAT attention backward (one sweep of
/// the fused plan). Edge tensors are indexed by edge id, like every edge
/// tensor of the templates; the caller closes the gradient with two
/// reductions over the reverse graph:
/// `∂L/∂hw[u] = Σ_{u→v} alpha_e · grad[v]` and `∂L/∂sl[u] = Σ_{u→v} gz_e`.
#[derive(Debug, Clone)]
pub struct AttentionBackward {
    /// The recomputed attention weights `α_e`, `|E| × 1`.
    pub alpha: Dense2<f32>,
    /// `∂L/∂z_e` for the raw score `z_e = sl[u] + sr[v]`, `|E| × 1`.
    pub gz: Dense2<f32>,
    /// `∂L/∂sr[v] = Σ_{u→v} gz_e`, `|V| × 1`.
    pub g_dst: Dense2<f32>,
}

impl RunStats {
    /// Total simulated GPU milliseconds across launches.
    pub fn total_gpu_ms(&self) -> f64 {
        self.gpu_time_ms.unwrap_or(0.0)
    }
}

/// Build a generalized SpMM kernel (the paper's `featgraph.spmm`).
///
/// * `graph` — adjacency (destination-major aggregation).
/// * `msgfunc` — the per-edge message UDF.
/// * `aggregation` — commutative reducer combining messages per vertex.
/// * `target` / `fds` — where to run and how to schedule the UDF.
///
/// Template-level choices (graph partitions, thread counts, block sizes,
/// hybrid partitioning) use tuned defaults; override them with
/// [`spmm_with_options`].
pub fn spmm(
    graph: &Graph,
    msgfunc: &Udf,
    aggregation: Reducer,
    target: Target,
    fds: &Fds,
) -> Result<SpmmKernel, KernelError> {
    spmm_with_options(graph, msgfunc, aggregation, fds, target, None, None)
}

/// [`spmm`] with explicit template-level options.
pub fn spmm_with_options(
    graph: &Graph,
    msgfunc: &Udf,
    aggregation: Reducer,
    fds: &Fds,
    target: Target,
    cpu_opts: Option<&cpu::spmm::CpuSpmmOptions>,
    gpu_opts: Option<&gpu::spmm::GpuSpmmOptions>,
) -> Result<SpmmKernel, KernelError> {
    match target {
        Target::Cpu => {
            let auto;
            let opts = match cpu_opts {
                Some(o) => o,
                None => {
                    auto = cpu::spmm::CpuSpmmOptions::auto(graph, msgfunc, fds);
                    &auto
                }
            };
            Ok(SpmmKernel::Cpu(cpu::spmm::CpuSpmm::compile(
                graph,
                msgfunc,
                aggregation,
                fds,
                opts,
            )?))
        }
        Target::Gpu => {
            let default;
            let opts = match gpu_opts {
                Some(o) => o,
                None => {
                    default = gpu::spmm::GpuSpmmOptions::default();
                    &default
                }
            };
            Ok(SpmmKernel::Gpu(gpu::spmm::GpuSpmm::compile(
                graph,
                msgfunc,
                aggregation,
                fds,
                opts,
            )?))
        }
    }
}

/// Build a fused SDDMM → (softmax) → SpMM kernel.
///
/// The unfused composition runs three kernels and materializes an `|E| × d`
/// edge tensor between them; the fused kernel evaluates the score inside the
/// aggregation loop, with streaming `O(|V|)` softmax accumulators.
pub fn fused(graph: &Graph, op: &FusedOp, target: Target) -> Result<FusedKernel, KernelError> {
    fused_with_options(graph, op, target, None, None)
}

/// [`fused`] with explicit template-level options. The CPU kernel reuses the
/// SpMM template's options (same traversal, different per-edge work).
pub fn fused_with_options(
    graph: &Graph,
    op: &FusedOp,
    target: Target,
    cpu_opts: Option<&cpu::spmm::CpuSpmmOptions>,
    gpu_opts: Option<&gpu::fused::GpuFusedOptions>,
) -> Result<FusedKernel, KernelError> {
    match target {
        Target::Cpu => {
            let auto;
            let opts = match cpu_opts {
                Some(o) => o,
                None => {
                    auto = cpu::spmm::CpuSpmmOptions::auto(graph, &op.message, &Fds::default());
                    &auto
                }
            };
            Ok(FusedKernel::Cpu(cpu::fused::CpuFused::compile(graph, op, opts)?))
        }
        Target::Gpu => {
            let default;
            let opts = match gpu_opts {
                Some(o) => o,
                None => {
                    default = gpu::fused::GpuFusedOptions::default();
                    &default
                }
            };
            Ok(FusedKernel::Gpu(gpu::fused::GpuFused::compile(graph, op, opts)?))
        }
    }
}

/// Build a generalized SDDMM kernel (the paper's `featgraph.sddmm`).
pub fn sddmm(
    graph: &Graph,
    edgefunc: &Udf,
    target: Target,
    fds: &Fds,
) -> Result<SddmmKernel, KernelError> {
    sddmm_with_options(graph, edgefunc, fds, target, None, None)
}

/// [`sddmm`] with explicit template-level options.
pub fn sddmm_with_options(
    graph: &Graph,
    edgefunc: &Udf,
    fds: &Fds,
    target: Target,
    cpu_opts: Option<&cpu::sddmm::CpuSddmmOptions>,
    gpu_opts: Option<&gpu::sddmm::GpuSddmmOptions>,
) -> Result<SddmmKernel, KernelError> {
    match target {
        Target::Cpu => {
            let auto;
            let opts = match cpu_opts {
                Some(o) => o,
                None => {
                    auto = cpu::sddmm::CpuSddmmOptions::auto(graph, edgefunc, fds);
                    &auto
                }
            };
            Ok(SddmmKernel::Cpu(cpu::sddmm::CpuSddmm::compile(
                graph, edgefunc, fds, opts,
            )?))
        }
        Target::Gpu => {
            let default;
            let opts = match gpu_opts {
                Some(o) => o,
                None => {
                    default = gpu::sddmm::GpuSddmmOptions::default();
                    &default
                }
            };
            Ok(SddmmKernel::Gpu(gpu::sddmm::GpuSddmm::compile(
                graph, edgefunc, fds, opts,
            )?))
        }
    }
}
