//! The simulated-GPU kernel skeleton shared by the three GPU templates.
//!
//! A GPU template is a 1-D [`Grid`] of blocks over destination rows (SpMM and
//! fused, [`RowBlocks`]) or over edges (SDDMM), launched as the one generic
//! [`Kernel`]. The arithmetic is `crate::ops`' — the message, reduce and
//! score ops the CPU templates fold with — so what a template keeps here is
//! only what the GPU prices: how its blocks map to threads, what they stage
//! in shared memory, and the transactions and instructions each access
//! costs. Charges are reported through [`BlockCtx`]; the simulator sums them
//! per block, so the order in which a block reports them does not matter,
//! but how an access is split into calls does (a call is one warp-level
//! access shape).

use std::mem::size_of;
use std::ops::Range;

use fg_gpusim::{launch, BlockCtx, DeviceConfig, GpuKernel, LaunchReport};
use fg_graph::{Csr, Graph, VId};
use fg_ir::{Reducer, Udf};
use fg_telemetry::{counter_add, Counter};
use fg_tensor::Dense2;

use crate::error::KernelError;
use crate::ops::{Edge, Sink};
use crate::RunStats;

pub(crate) const F32: usize = size_of::<f32>();

/// A launch: its name and occupancy inputs as data, and the block body.
struct Kernel<F> {
    name: &'static str,
    grid: usize,
    threads: usize,
    shared_mem_bytes: usize,
    regs_per_thread: usize,
    block: F,
}

impl<F: FnMut(usize, &mut BlockCtx<'_>)> GpuKernel for Kernel<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn grid_dim(&self) -> usize {
        self.grid
    }

    fn block_dim(&self) -> usize {
        self.threads
    }

    fn shared_mem_bytes(&self) -> usize {
        self.shared_mem_bytes
    }

    fn regs_per_thread(&self) -> usize {
        self.regs_per_thread
    }

    fn run_block(&mut self, block: usize, ctx: &mut BlockCtx<'_>) {
        (self.block)(block, ctx)
    }
}

/// A 1-D grid over `items` (destination rows or edges), `per_block` to a
/// block of `threads` threads.
pub(crate) struct Grid {
    pub device: DeviceConfig,
    pub threads: usize,
    pub per_block: usize,
    pub items: usize,
    /// Static shared memory per block (an occupancy input).
    pub shared_mem_bytes: usize,
}

impl Grid {
    /// The one compile-time check of a GPU schedule: a non-empty block
    /// (`per_block`, named `what` in the error), a thread count an SM can
    /// hold, and a shared footprint that fits an SM. A kernel past either
    /// SM limit could not launch, so it is a [`KernelError::BadSchedule`]
    /// here rather than a mispriced or panicking launch.
    pub(crate) fn validate(self, what: &str) -> Result<Self, KernelError> {
        let sm = &self.device;
        if self.per_block == 0 {
            return Err(KernelError::BadSchedule(format!("{what} must be >= 1")));
        }
        if self.threads == 0 || self.threads > sm.max_threads_per_sm {
            let msg = format!("threads_per_block {} out of range", self.threads);
            return Err(KernelError::BadSchedule(msg));
        }
        if self.shared_mem_bytes > sm.shared_mem_per_sm {
            return Err(KernelError::BadSchedule(format!(
                "{} B of shared memory per block exceed the SM's {} B",
                self.shared_mem_bytes, sm.shared_mem_per_sm
            )));
        }
        counter_add(Counter::KernelCompiles, 1);
        Ok(self)
    }

    pub(crate) fn grid_dim(&self) -> usize {
        self.items.div_ceil(self.per_block).max(1)
    }

    /// The items of block `b`.
    fn block(&self, b: usize) -> Range<usize> {
        let lo = b * self.per_block;
        lo..(lo + self.per_block).min(self.items)
    }

    /// Simulate one launch of `block` over every block's items.
    pub(crate) fn launch(
        &self,
        name: &'static str,
        regs_per_thread: usize,
        mut block: impl FnMut(Range<usize>, &mut BlockCtx<'_>),
    ) -> LaunchReport {
        let mut kernel = Kernel {
            name,
            grid: self.grid_dim(),
            threads: self.threads,
            shared_mem_bytes: self.shared_mem_bytes,
            regs_per_thread,
            block: |b: usize, ctx: &mut BlockCtx<'_>| block(self.block(b), ctx),
        };
        launch(&self.device, &mut kernel)
    }
}

/// The row-block traversal of the SpMM and fused templates: each block walks
/// a chunk of destination rows of the in-CSR (vertex parallelization,
/// §III-C2) and reduces each row's in-edges in its registers.
pub(crate) struct RowBlocks {
    pub grid: Grid,
    /// The in-CSR: a row's length is the in-degree the finalize divides by.
    pub csr: Csr,
}

impl RowBlocks {
    /// Validate the schedule and copy the in-CSR.
    pub(crate) fn build(graph: &Graph, grid: Grid) -> Result<Self, KernelError> {
        Ok(Self {
            grid: grid.validate("rows_per_block")?,
            csr: graph.in_csr().clone(),
        })
    }

    pub(crate) fn degree(&self, dst: usize) -> usize {
        self.csr.degree(dst as VId)
    }

    /// The in-edges of `dst`; an edge's id is its in-CSR position.
    pub(crate) fn in_edges(&self, dst: usize) -> impl Iterator<Item = Edge> + '_ {
        let (srcs, base) = (self.csr.row(dst as VId), self.csr.row_start(dst as VId));
        let dst = dst as u32;
        let eids = base as u32..;
        srcs.iter()
            .zip(eids)
            .map(move |(&src, eid)| Edge { src, dst, eid })
    }

    /// Launch `block` over the row blocks. Every block first reads its slice
    /// of the CSR index (indptr entries and column indices), coalesced.
    pub(crate) fn launch(
        &self,
        name: &'static str,
        mut block: impl FnMut(Range<usize>, &mut BlockCtx<'_>),
    ) -> LaunchReport {
        self.grid.launch(name, 32, |rows, ctx| {
            let start = self.csr.row_start(rows.start as VId);
            let end = self.csr.row_start(rows.end as VId);
            ctx.global_contiguous(rows.start, rows.len() + 1, size_of::<usize>());
            ctx.global_contiguous(start, end - start, size_of::<VId>());
            block(rows, ctx)
        })
    }

    /// The reducer half of destination row `dst`: the accumulator `to.out`
    /// starts at `agg`'s identity, `fold` folds each in-edge into it and
    /// charges the edge, and the finalized row is written to `out`, one
    /// coalesced row write.
    pub(crate) fn reduce_row(
        &self,
        ctx: &mut BlockCtx<'_>,
        agg: Reducer,
        dst: usize,
        to: &mut Sink<'_>,
        out: &mut Dense2<f32>,
        mut fold: impl FnMut(Edge, &mut Sink<'_>, &mut BlockCtx<'_>),
    ) {
        to.out.fill(agg.identity());
        for e in self.in_edges(dst) {
            fold(e, to, ctx);
        }
        let deg = self.degree(dst);
        for (o, &a) in out.row_mut(dst).iter_mut().zip(&*to.out) {
            *o = agg.finalize(a, deg);
        }
        ctx.global_contiguous(dst * to.out.len(), to.out.len(), F32);
    }
}

/// What an interpreted UDF costs per edge: each operand row it reads is a
/// scattered access, and one thread walks the whole body serially — the
/// price a blackbox UDF pays.
pub(crate) fn charge_interp(ctx: &mut BlockCtx<'_>, udf: &Udf) {
    for len in [udf.src_len, udf.dst_len, udf.edge_len] {
        if len > 0 {
            ctx.global_scattered(len, F32);
        }
    }
    ctx.warp_exec(1, udf.flops_per_edge() as u64);
}

/// The run statistics of a sequence of launches.
pub(crate) fn gpu_stats(launches: Vec<LaunchReport>) -> RunStats {
    RunStats {
        gpu_time_ms: Some(launches.iter().map(|r| r.time_ms).sum()),
        gpu_launches: launches,
        softmax: None,
    }
}
