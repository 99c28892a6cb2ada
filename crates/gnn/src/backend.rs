//! Message-passing backends: naive (materializing) vs FeatGraph (fused).

use std::collections::HashMap;
use std::sync::Mutex;

use featgraph::{
    CpuSddmmOptions, CpuSpmmOptions, Fds, FusedInputs, FusedKernel, FusedOp, GraphTensors,
    KernelError, Reducer, RunStats, SddmmKernel, SoftmaxStats, SpmmKernel, Target, Udf,
};
use fg_gpusim::DeviceConfig;
use fg_tensor::Dense2;

use crate::block::cpu_plan;
use crate::ggraph::GnnGraph;

/// Aggregation direction relative to the *forward* graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Aggregate into destinations (forward message passing).
    Fwd,
    /// Aggregate into sources (gradient flow).
    Rev,
}

/// One GAT attention forward, as its backward sees it: the three inputs of
/// [`GraphBackend::attention_forward`], the output it produced, and the
/// softmax state it saved (`None` from backends whose forward keeps none).
pub struct AttentionForward<'a> {
    /// Transformed features `hw`, `|V| × d`.
    pub x: &'a Dense2<f32>,
    /// Source-side scores, `|V| × 1`.
    pub sl: &'a Dense2<f32>,
    /// Destination-side scores, `|V| × 1`.
    pub sr: &'a Dense2<f32>,
    /// Leaky-ReLU negative slope.
    pub slope: f32,
    /// The forward's output, `|V| × d`.
    pub out: &'a Dense2<f32>,
    /// Per-destination score max and exp-sum, if the forward saved them.
    pub stats: Option<&'a SoftmaxStats>,
}

/// Gradients of GAT attention with respect to its three inputs.
pub struct AttentionGrads {
    /// `∂L/∂x`, `|V| × d`.
    pub x: Dense2<f32>,
    /// `∂L/∂sl`, `|V| × 1`.
    pub sl: Dense2<f32>,
    /// `∂L/∂sr`, `|V| × 1`.
    pub sr: Dense2<f32>,
}

/// The message-passing operations a GNN layer (and its gradients) needs.
///
/// Edge tensors are always indexed by **forward** canonical edge IDs; the
/// backend performs any reordering a reverse-direction aggregation needs.
/// One backend instance serves one graph (kernel plans are cached per
/// feature length).
pub trait GraphBackend: Send + Sync {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// `out[v] = Σ_{u→v (dir)} w[e] · x[u]` (`w = None` ⇒ weight 1).
    fn weighted_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        x: &Dense2<f32>,
        w: Option<&Dense2<f32>>,
    ) -> Dense2<f32>;

    /// `out[v] = mean_{u→v} x[u]` (forward only; GraphSage).
    fn mean_spmm(&self, g: &GnnGraph, x: &Dense2<f32>) -> Dense2<f32>;

    /// `out[e] = a[src_e] · b[dst_e]` over forward edges.
    fn sddmm_dot(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32>;

    /// `out[e] = a[src_e] + b[dst_e]` over forward edges (element-wise).
    fn sddmm_add(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32>;

    /// Sum edge rows into vertices: `Fwd` sums into destinations, `Rev`
    /// into sources.
    fn edge_sum(&self, g: &GnnGraph, dir: Dir, e: &Dense2<f32>) -> Dense2<f32>;

    /// The unfused three-kernel GAT attention composition (SDDMM score,
    /// edge softmax, weighted SpMM), materializing two `|E|` edge tensors.
    /// Kept callable on every backend so benchmarks can compare it against
    /// the fused path on equal inputs.
    fn unfused_attention(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> Dense2<f32> {
        let m = g.fwd().num_edges() as u64;
        let mut e = self.sddmm_add(g, sl, sr);
        for v in e.as_mut_slice() {
            if *v < 0.0 {
                *v *= slope;
            }
        }
        // leaky-relu: read + write the |E| score tensor
        self.charge_edgewise(m, 2 * m * 4);
        let alpha = crate::tape::edge_softmax_forward(g, &e);
        // edge softmax: max / exp-sum / normalize sweeps over the |E| tensor
        self.charge_edgewise(3 * m, 5 * m * 4);
        self.weighted_spmm(g, Dir::Fwd, x, Some(&alpha))
    }

    /// Charge the backend's device cost model for an edge-wise pass that the
    /// trait-level code runs on the host (leaky-relu, edge softmax). A real
    /// GPU backend would launch these as kernels; charging them keeps the
    /// fused-vs-unfused comparison honest. No-op on CPU backends.
    fn charge_edgewise(&self, _flops: u64, _bytes: u64) {}

    /// The whole GAT attention chain in one call:
    /// `out[v] = Σ_{u→v} softmax_v(LeakyReLU(sl[u] + sr[v])) · x[u]`
    /// with the softmax normalized per destination. This is
    /// [`Self::attention_forward`] without the saved state.
    fn fused_attention(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> Dense2<f32> {
        self.attention_forward(g, x, sl, sr, slope).0
    }

    /// GAT attention plus whatever the backend's
    /// [`Self::attention_backward`] wants kept from it — the one attention
    /// node of every tape, training or inference.
    ///
    /// Defaults to [`Self::unfused_attention`], saving nothing. Backends may
    /// override it with a fused kernel that keeps only `O(|V|)`
    /// accumulators live and hands them back.
    fn attention_forward(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> (Dense2<f32>, Option<SoftmaxStats>) {
        (self.unfused_attention(g, x, sl, sr, slope), None)
    }

    /// Gradients of [`Self::attention_forward`] given `grad = ∂L/∂out`.
    ///
    /// Defaults to `unfused_attention_backward`, which recomputes the
    /// unfused chain through this backend's own ops and differentiates it
    /// stage by stage — the oracle a fused override is tested against.
    fn attention_backward(
        &self,
        g: &GnnGraph,
        fwd: &AttentionForward<'_>,
        grad: &Dense2<f32>,
    ) -> AttentionGrads {
        unfused_attention_backward(self, g, fwd, grad)
    }

    /// Simulated GPU milliseconds accumulated since the last call (0 for
    /// CPU backends).
    fn take_gpu_ms(&self) -> f64 {
        0.0
    }
}

/// The attention backward as the chain rule over the unfused composition:
/// recompute the `|E|` score and weight tensors with `b`'s own SDDMM, then
/// weighted-SpMM backward (reverse aggregation + SDDMM dot, the §II-A
/// duality), edge-softmax Jacobian, leaky-ReLU mask, and the two edge sums
/// of the additive score. Seven edge passes and four `|E|` tensors; reads
/// nothing of `fwd.out` / `fwd.stats`.
fn unfused_attention_backward<B: GraphBackend + ?Sized>(
    b: &B,
    g: &GnnGraph,
    fwd: &AttentionForward<'_>,
    grad: &Dense2<f32>,
) -> AttentionGrads {
    let m = g.fwd().num_edges() as u64;
    let z = b.sddmm_add(g, fwd.sl, fwd.sr);
    let mut e = z.clone();
    for v in e.as_mut_slice() {
        if *v < 0.0 {
            *v *= fwd.slope;
        }
    }
    let alpha = crate::tape::edge_softmax_forward(g, &e);
    // the forward's leaky-relu and edge-softmax sweeps, run again
    b.charge_edgewise(4 * m, 7 * m * 4);
    let x = b.weighted_spmm(g, Dir::Rev, grad, Some(&alpha));
    let g_alpha = b.sddmm_dot(g, fwd.x, grad);
    let mut gz = crate::tape::edge_softmax_backward(g, &alpha, &g_alpha);
    for (gv, &zv) in gz.as_mut_slice().iter_mut().zip(z.as_slice()) {
        if zv <= 0.0 {
            *gv *= fwd.slope;
        }
    }
    // softmax Jacobian (dot + scale sweeps) and the leaky-relu mask
    b.charge_edgewise(5 * m, 7 * m * 4);
    AttentionGrads {
        x,
        sl: b.edge_sum(g, Dir::Rev, &gz),
        sr: b.edge_sum(g, Dir::Fwd, &gz),
    }
}

// ---------------------------------------------------------------------------
// Naive backend: materialize per-edge messages through dense ops
// ---------------------------------------------------------------------------

/// What DGL does without FeatGraph: every graph operation materializes an
/// `|E| × d` intermediate through dense gather/elementwise ops, then
/// segment-reduces (canonical edge order is destination-major, so segments
/// are contiguous). On the simulated GPU the materialization traffic is
/// charged with a roofline model.
pub struct NaiveBackend {
    /// When set, charge GPU time for every op via the roofline model.
    gpu: Option<GpuCostModel>,
}

impl NaiveBackend {
    /// CPU backend.
    pub fn cpu() -> Self {
        Self { gpu: None }
    }

    /// GPU-simulated backend.
    pub fn gpu(device: DeviceConfig) -> Self {
        Self {
            gpu: Some(GpuCostModel::new(device)),
        }
    }

    fn charge(&self, flops: u64, bytes: u64) {
        if let Some(g) = &self.gpu {
            g.charge(flops, bytes);
        }
    }

    /// Gather rows of `x` by edge endpoint into an `|E| × d` tensor.
    fn gather(&self, g: &GnnGraph, x: &Dense2<f32>, take_src: bool) -> Dense2<f32> {
        let d = x.cols();
        let m = g.num_edges();
        let mut out = Dense2::zeros(m, d);
        for (src, dst, eid) in g.fwd().edges() {
            let v = if take_src { src } else { dst };
            out.row_mut(eid as usize).copy_from_slice(x.row(v as usize));
        }
        self.charge(0, (2 * m * d * 4) as u64);
        out
    }

    fn segment_sum_by_dst(&self, g: &GnnGraph, e: &Dense2<f32>) -> Dense2<f32> {
        self.segment_sum_by_graph(g.fwd(), e)
    }

    fn segment_sum_by_graph(&self, graph: &fg_graph::Graph, e: &Dense2<f32>) -> Dense2<f32> {
        let d = e.cols();
        let n = graph.num_vertices();
        let mut out = Dense2::zeros(n, d);
        let indptr = graph.in_csr().indptr();
        for v in 0..n {
            let orow = out.row_mut(v);
            for eid in indptr[v]..indptr[v + 1] {
                for (o, &m) in orow.iter_mut().zip(e.row(eid)) {
                    *o += m;
                }
            }
        }
        self.charge((e.rows() * d) as u64, ((e.rows() + n) * d * 4) as u64);
        out
    }
}

impl GraphBackend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive-materialize"
    }

    fn weighted_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        x: &Dense2<f32>,
        w: Option<&Dense2<f32>>,
    ) -> Dense2<f32> {
        // Materialize messages in *forward* edge order, then segment-sum on
        // the direction's grouping. For Rev we permute messages to reverse
        // canonical order first (another materialized pass, as a dense
        // backend would do with an index_select).
        let mut msgs = self.gather(g, x, true); // copy u = src rows
        if dir == Dir::Rev {
            // reverse edges point v->u; message carries x[dst of reverse] —
            // i.e. gather forward dst rows instead
            msgs = self.gather(g, x, false);
        }
        if let Some(w) = w {
            assert_eq!(w.rows(), g.num_edges(), "weight rows");
            for eid in 0..msgs.rows() {
                let s = w.at(eid, 0);
                for v in msgs.row_mut(eid) {
                    *v *= s;
                }
            }
            self.charge((msgs.rows() * msgs.cols()) as u64, (2 * msgs.rows() * msgs.cols() * 4) as u64);
        }
        match dir {
            Dir::Fwd => self.segment_sum_by_dst(g, &msgs),
            Dir::Rev => {
                let rev_msgs = g.edge_rows_to_rev(&msgs);
                self.charge(0, (2 * rev_msgs.rows() * rev_msgs.cols() * 4) as u64);
                self.segment_sum_by_graph(g.rev(), &rev_msgs)
            }
        }
    }

    fn mean_spmm(&self, g: &GnnGraph, x: &Dense2<f32>) -> Dense2<f32> {
        let mut out = self.weighted_spmm(g, Dir::Fwd, x, None);
        for v in 0..out.rows() {
            let deg = g.in_degrees()[v].max(1) as f32;
            for o in out.row_mut(v) {
                *o /= deg;
            }
        }
        out
    }

    fn sddmm_dot(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let asrc = self.gather(g, a, true);
        let bdst = self.gather(g, b, false);
        let m = g.num_edges();
        let mut out = Dense2::zeros(m, 1);
        for eid in 0..m {
            let dot: f32 = asrc
                .row(eid)
                .iter()
                .zip(bdst.row(eid))
                .map(|(&p, &q)| p * q)
                .sum();
            out.set(eid, 0, dot);
        }
        self.charge((2 * m * a.cols()) as u64, ((2 * m * a.cols() + m) * 4) as u64);
        out
    }

    fn sddmm_add(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let asrc = self.gather(g, a, true);
        let bdst = self.gather(g, b, false);
        let m = g.num_edges();
        let d = a.cols();
        let mut out = Dense2::zeros(m, d);
        for eid in 0..m {
            for ((o, &p), &q) in out.row_mut(eid).iter_mut().zip(asrc.row(eid)).zip(bdst.row(eid)) {
                *o = p + q;
            }
        }
        self.charge((m * d) as u64, (3 * m * d * 4) as u64);
        out
    }

    fn edge_sum(&self, g: &GnnGraph, dir: Dir, e: &Dense2<f32>) -> Dense2<f32> {
        match dir {
            Dir::Fwd => self.segment_sum_by_dst(g, e),
            Dir::Rev => {
                let rev = g.edge_rows_to_rev(e);
                self.charge(0, (2 * e.rows() * e.cols() * 4) as u64);
                self.segment_sum_by_graph(g.rev(), &rev)
            }
        }
    }

    fn charge_edgewise(&self, flops: u64, bytes: u64) {
        self.charge(flops, bytes);
    }

    fn take_gpu_ms(&self) -> f64 {
        self.gpu.as_ref().map_or(0.0, GpuCostModel::take)
    }
}

// ---------------------------------------------------------------------------
// FeatGraph backend: fused kernels
// ---------------------------------------------------------------------------

/// Cached SpMM plans, by operation, direction and feature length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SpmmKey {
    CopySum { dir: Dir, d: usize },
    WeightedSum { dir: Dir, d: usize },
    Mean { d: usize },
    CopyEdgeSum { dir: Dir, d: usize },
}

/// Cached SDDMM plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SddmmKey {
    Dot { d: usize },
    AddEdge { d: usize },
}

/// Cached fused-attention plans; the slope is stored as bits so the key
/// stays `Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FusedKey {
    d: usize,
    slope_bits: u32,
}

/// The compiled plans, one map per template: a key can only ever name a
/// kernel of its own kind. Keys carry no graph identity — a compiled plan
/// *holds* the partitioned CSR it was built on — so `bound` remembers the
/// `(vertices, edges)` of the graph the first plan was compiled for.
#[derive(Default)]
struct Plans {
    bound: Option<(usize, usize)>,
    spmm: HashMap<SpmmKey, SpmmKernel>,
    sddmm: HashMap<SddmmKey, SddmmKernel>,
    fused: HashMap<FusedKey, FusedKernel>,
}

/// The fused backend: every op is one generalized SpMM or SDDMM kernel from
/// the `featgraph` crate, no `|E| × d` intermediates. Kernel plans (graph
/// partitioning, Hilbert orders, thread pools) are compiled once per
/// (operation, feature-length) and cached, amortized over epochs (§IV-B).
///
/// A backend is **bound to the first graph it runs on**: its plans are keyed
/// by operation and feature length only and hold that graph's partitioned
/// CSR, so a second graph with the same feature width would silently run
/// the first graph's plan. Calling it with a graph of another shape panics.
/// Blocks (sampled requests) do not run through a backend: their
/// plans are compiled per op on the block's own CSR ([`crate::Tape::on_block`]).
pub struct FeatgraphBackend {
    target: Target,
    threads: usize,
    /// When set, skip the per-plan `CpuSpmmOptions::auto` probe and
    /// partition every SpMM/fused plan this many ways — for a caller that
    /// already knows the schedule (e.g. one [`Self::auto_partitions`]
    /// answer reused across same-shaped graphs).
    partitions_hint: Option<usize>,
    plans: Mutex<Plans>,
    gpu_ms: Mutex<f64>,
}

impl FeatgraphBackend {
    /// CPU backend with the given worker-thread count.
    pub fn cpu(threads: usize) -> Self {
        Self {
            target: Target::Cpu,
            threads: threads.max(1),
            partitions_hint: None,
            plans: Mutex::default(),
            gpu_ms: Mutex::new(0.0),
        }
    }

    /// CPU backend that partitions every plan `partitions` ways instead of
    /// auto-tuning per plan. Partition count does not change results —
    /// the CPU SpMM accumulates each destination row in ascending-source
    /// order across partitions — only locality.
    pub fn cpu_with_partitions(threads: usize, partitions: usize) -> Self {
        Self {
            partitions_hint: Some(partitions.max(1)),
            ..Self::cpu(threads)
        }
    }

    /// GPU-simulated backend.
    pub fn gpu() -> Self {
        Self {
            target: Target::Gpu,
            threads: 1,
            partitions_hint: None,
            plans: Mutex::default(),
            gpu_ms: Mutex::new(0.0),
        }
    }

    /// Total heap bytes held by this backend's compiled kernel plans
    /// (partitioned CSRs, edge orders, degree arrays). The serve engine
    /// charges it to the `plan_cache` memory component while a
    /// registration's full-graph pass holds the backend.
    pub fn plan_mem_bytes(&self) -> u64 {
        let plans = self.plans.lock().expect("plan cache");
        let spmm = plans.spmm.values().map(SpmmKernel::mem_bytes);
        let sddmm = plans.sddmm.values().map(SddmmKernel::mem_bytes);
        let fused = plans.fused.values().map(FusedKernel::mem_bytes);
        spmm.chain(sddmm).chain(fused).sum()
    }

    /// The feature schedule and CPU options of a plan on `graph` reading
    /// `udf`'s operands in `d`-wide rows.
    fn schedule(&self, graph: &fg_graph::Graph, udf: &Udf, d: usize) -> (Fds, CpuSpmmOptions) {
        let n = graph.num_vertices();
        let (fds, opts) = cpu_plan(n, udf, d, self.threads, self.partitions_hint);
        match self.target {
            Target::Cpu => (fds, opts),
            Target::Gpu => (Fds::gpu_thread_x(d.clamp(32, 1024)), opts),
        }
    }

    fn graph_for(g: &GnnGraph, dir: Dir) -> &fg_graph::Graph {
        match dir {
            Dir::Fwd => g.fwd(),
            Dir::Rev => g.rev(),
        }
    }

    /// The partition count `CpuSpmmOptions::auto` would pick for a copy-src
    /// SpMM of feature length `d` on `graph` — the schedule decision worth
    /// caching across same-shaped subgraphs (the tuning probe walks the
    /// cost model; the answer depends only on topology and `d`).
    pub fn auto_partitions(graph: &fg_graph::Graph, d: usize) -> usize {
        cpu_plan(graph.num_vertices(), &Udf::copy_src(d), d, 1, None).1.graph_partitions
    }

    /// Run the plan cached under `key` in the map `select` picks, compiling
    /// it for `graph` on first use, and book its simulated GPU time. The
    /// cache lock is held across the run, as it always was.
    ///
    /// # Panics
    /// If `graph` is not the shape this backend's plans were compiled for
    /// (a graph and its reverse share a shape).
    fn with_plan<K: Eq + std::hash::Hash, P>(
        &self,
        graph: &fg_graph::Graph,
        select: impl FnOnce(&mut Plans) -> &mut HashMap<K, P>,
        key: K,
        compile: impl FnOnce() -> Result<P, KernelError>,
        run: impl FnOnce(&P) -> Result<RunStats, KernelError>,
    ) {
        let mut plans = self.plans.lock().expect("plan cache");
        let shape = (graph.num_vertices(), graph.num_edges());
        let bound = *plans.bound.get_or_insert(shape);
        assert!(
            bound == shape,
            "FeatgraphBackend is bound to the graph it first ran on ({} vertices, {} edges) \
             but was called with a graph of {} vertices, {} edges; build one backend per graph",
            bound.0,
            bound.1,
            shape.0,
            shape.1
        );
        let plan = select(&mut plans)
            .entry(key)
            .or_insert_with(|| compile().expect("kernel compile"));
        if let Some(ms) = run(plan).expect("kernel run").gpu_time_ms {
            *self.gpu_ms.lock().expect("gpu ms") += ms;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        key: SpmmKey,
        udf: &Udf,
        agg: Reducer,
        inputs: &GraphTensors<'_, f32>,
        out_cols: usize,
    ) -> Dense2<f32> {
        let graph = Self::graph_for(g, dir);
        let compile = || {
            let (fds, opts) = self.schedule(graph, udf, out_cols);
            featgraph::spmm_with_options(graph, udf, agg, &fds, self.target, Some(&opts), None)
        };
        let mut out = Dense2::zeros(graph.num_vertices(), out_cols);
        self.with_plan(
            graph,
            |p| &mut p.spmm,
            key,
            compile,
            |k| k.run(inputs, &mut out),
        );
        out
    }

    fn run_sddmm(
        &self,
        g: &GnnGraph,
        key: SddmmKey,
        udf: &Udf,
        inputs: &GraphTensors<'_, f32>,
        out_cols: usize,
    ) -> Dense2<f32> {
        let graph = g.fwd();
        let compile = || {
            let fds = match self.target {
                Target::Cpu => Fds::cpu_tiled(1),
                Target::Gpu => Fds::gpu_tree_reduce(256),
            };
            let cpu_opts = CpuSddmmOptions {
                traversal: featgraph::Traversal::Hilbert,
                threads: self.threads,
            };
            featgraph::sddmm_with_options(graph, udf, &fds, self.target, Some(&cpu_opts), None)
        };
        let mut out = Dense2::zeros(graph.num_edges(), out_cols);
        self.with_plan(
            graph,
            |p| &mut p.sddmm,
            key,
            compile,
            |k| k.run(inputs, &mut out),
        );
        out
    }

    /// Run `f` on the fused GAT attention plan for `(x.cols(), slope)` and
    /// its operand bundle.
    fn run_fused(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
        f: impl FnOnce(&FusedKernel, &FusedInputs<'_, f32>) -> Result<RunStats, KernelError>,
    ) {
        let d = x.cols();
        let graph = g.fwd();
        let key = FusedKey {
            d,
            slope_bits: slope.to_bits(),
        };
        let compile = || {
            let op = FusedOp::gat_attention(d, slope as f64);
            let (_, opts) = self.schedule(graph, &op.message, d);
            featgraph::fused_with_options(graph, &op, self.target, Some(&opts), None)
        };
        let inputs = FusedInputs {
            score: GraphTensors::src_dst(sl, sr),
            message: GraphTensors::vertex_only(x),
        };
        self.with_plan(graph, |p| &mut p.fused, key, compile, |k| f(k, &inputs));
    }
}

impl GraphBackend for FeatgraphBackend {
    fn name(&self) -> &'static str {
        match self.target {
            Target::Cpu => "featgraph-cpu",
            Target::Gpu => "featgraph-gpu",
        }
    }

    fn weighted_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        x: &Dense2<f32>,
        w: Option<&Dense2<f32>>,
    ) -> Dense2<f32> {
        let d = x.cols();
        match w {
            None => {
                let udf = Udf::copy_src(d);
                self.run_spmm(
                    g,
                    dir,
                    SpmmKey::CopySum { dir, d },
                    &udf,
                    Reducer::Sum,
                    &GraphTensors::vertex_only(x),
                    d,
                )
            }
            Some(w) => {
                assert_eq!(w.cols(), 1, "scalar edge weights expected");
                let udf = Udf::src_mul_edge_scalar(d);
                let w_ordered;
                let w_ref = match dir {
                    Dir::Fwd => w,
                    Dir::Rev => {
                        w_ordered = g.edge_rows_to_rev(w);
                        &w_ordered
                    }
                };
                self.run_spmm(
                    g,
                    dir,
                    SpmmKey::WeightedSum { dir, d },
                    &udf,
                    Reducer::Sum,
                    &GraphTensors::with_edge(x, w_ref),
                    d,
                )
            }
        }
    }

    fn mean_spmm(&self, g: &GnnGraph, x: &Dense2<f32>) -> Dense2<f32> {
        let d = x.cols();
        let udf = Udf::copy_src(d);
        self.run_spmm(
            g,
            Dir::Fwd,
            SpmmKey::Mean { d },
            &udf,
            Reducer::Mean,
            &GraphTensors::vertex_only(x),
            d,
        )
    }

    fn sddmm_dot(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let d = a.cols();
        assert_eq!(b.cols(), d, "dot operand widths");
        let udf = Udf::dot(d);
        self.run_sddmm(g, SddmmKey::Dot { d }, &udf, &GraphTensors::src_dst(a, b), 1)
    }

    fn sddmm_add(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let d = a.cols();
        assert_eq!(b.cols(), d, "add operand widths");
        let udf = Udf::src_add_dst(d);
        self.run_sddmm(g, SddmmKey::AddEdge { d }, &udf, &GraphTensors::src_dst(a, b), d)
    }

    fn edge_sum(&self, g: &GnnGraph, dir: Dir, e: &Dense2<f32>) -> Dense2<f32> {
        let d = e.cols();
        let udf = Udf::copy_edge(d);
        let e_ordered;
        let e_ref = match dir {
            Dir::Fwd => e,
            Dir::Rev => {
                e_ordered = g.edge_rows_to_rev(e);
                &e_ordered
            }
        };
        // `vertex` is unused by copy-edge; reuse a zero-width dummy is not
        // possible, so pass the edge tensor itself (never read).
        let inputs = GraphTensors {
            vertex: e_ref,
            vertex_dst: None,
            edge: Some(e_ref),
            params: &[],
        };
        self.run_spmm(g, dir, SpmmKey::CopyEdgeSum { dir, d }, &udf, Reducer::Sum, &inputs, d)
    }

    fn attention_forward(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> (Dense2<f32>, Option<SoftmaxStats>) {
        let mut out = Dense2::zeros(g.num_vertices(), x.cols());
        let mut stats = None;
        self.run_fused(g, x, sl, sr, slope, |k, inputs| {
            let mut run = k.run(inputs, &mut out)?;
            stats = run.softmax.take();
            Ok(run)
        });
        (out, stats)
    }

    /// One destination-major sweep of the fused plan recomputes every edge's
    /// weight from the saved softmax state; the two source-side sums are the
    /// reverse-graph kernels the other gradients already use. Three edge
    /// passes, two `|E| × 1` tensors. Without saved state (the simulated GPU
    /// plan keeps none) this is the trait's unfused recompute.
    fn attention_backward(
        &self,
        g: &GnnGraph,
        fwd: &AttentionForward<'_>,
        grad: &Dense2<f32>,
    ) -> AttentionGrads {
        let Some(stats) = fwd.stats else {
            return unfused_attention_backward(self, g, fwd, grad);
        };
        let mut edges = None;
        self.run_fused(g, fwd.x, fwd.sl, fwd.sr, fwd.slope, |k, inputs| {
            edges = Some(k.attention_backward(inputs, fwd.out, stats, grad)?);
            Ok(RunStats::default())
        });
        let edges = edges.expect("kernel run");
        AttentionGrads {
            x: self.weighted_spmm(g, Dir::Rev, grad, Some(&edges.alpha)),
            sl: self.edge_sum(g, Dir::Rev, &edges.gz),
            sr: edges.g_dst,
        }
    }

    fn charge_edgewise(&self, flops: u64, bytes: u64) {
        if self.target == Target::Gpu {
            let model = GpuCostModel::new(DeviceConfig::v100());
            model.charge(flops, bytes);
            *self.gpu_ms.lock().expect("gpu ms") += model.take();
        }
    }

    fn take_gpu_ms(&self) -> f64 {
        let mut ms = self.gpu_ms.lock().expect("gpu ms");
        let v = *ms;
        *ms = 0.0;
        v
    }
}

// ---------------------------------------------------------------------------
// Dense-op GPU roofline
// ---------------------------------------------------------------------------

/// First-order GPU cost for *dense* operations (matmul, elementwise): the
/// larger of the FLOP bound and the bandwidth bound, plus launch overhead.
/// Used to price the dense portion of end-to-end GPU training (Table VI).
pub struct GpuCostModel {
    device: DeviceConfig,
    accum_ms: Mutex<f64>,
}

impl GpuCostModel {
    /// New model for a device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            accum_ms: Mutex::new(0.0),
        }
    }

    /// Charge one dense op.
    pub fn charge(&self, flops: u64, bytes: u64) {
        let d = &self.device;
        let peak_flops_per_cycle = (d.num_sms * d.fp32_lanes_per_sm * 2) as f64; // FMA
        let compute = flops as f64 / peak_flops_per_cycle;
        let mem = bytes as f64 / d.global_bytes_per_cycle;
        let cycles = compute.max(mem) + d.launch_overhead_cycles;
        *self.accum_ms.lock().expect("accum") += d.cycles_to_ms(cycles);
    }

    /// Read and reset the accumulated milliseconds.
    pub fn take(&self) -> f64 {
        let mut a = self.accum_ms.lock().expect("accum");
        let v = *a;
        *a = 0.0;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> GnnGraph {
        GnnGraph::new(fg_graph::uniform(80, 5, 21))
    }

    fn feats(n: usize, d: usize, salt: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 7 + i * 3 + salt) % 13) as f32 * 0.2 - 1.2)
    }

    fn backends() -> Vec<Box<dyn GraphBackend>> {
        vec![
            Box::new(NaiveBackend::cpu()),
            Box::new(FeatgraphBackend::cpu(2)),
            Box::new(NaiveBackend::gpu(DeviceConfig::v100())),
            Box::new(FeatgraphBackend::gpu()),
        ]
    }

    #[test]
    fn all_backends_agree_on_weighted_spmm() {
        let g = graph();
        let x = feats(80, 12, 0);
        let w = feats(g.num_edges(), 1, 5);
        for dir in [Dir::Fwd, Dir::Rev] {
            let reference = NaiveBackend::cpu().weighted_spmm(&g, dir, &x, Some(&w));
            for b in backends() {
                let got = b.weighted_spmm(&g, dir, &x, Some(&w));
                assert!(
                    got.approx_eq(&reference, 1e-3),
                    "{} dir {dir:?}: diff {}",
                    b.name(),
                    got.max_abs_diff(&reference)
                );
            }
        }
    }

    #[test]
    fn all_backends_agree_on_unweighted_and_mean() {
        let g = graph();
        let x = feats(80, 8, 1);
        let ref_sum = NaiveBackend::cpu().weighted_spmm(&g, Dir::Fwd, &x, None);
        let ref_mean = NaiveBackend::cpu().mean_spmm(&g, &x);
        for b in backends() {
            assert!(b.weighted_spmm(&g, Dir::Fwd, &x, None).approx_eq(&ref_sum, 1e-3), "{}", b.name());
            assert!(b.mean_spmm(&g, &x).approx_eq(&ref_mean, 1e-3), "{}", b.name());
        }
    }

    #[test]
    fn all_backends_agree_on_sddmm_ops() {
        let g = graph();
        let a = feats(80, 10, 2);
        let b2 = feats(80, 10, 3);
        let ref_dot = NaiveBackend::cpu().sddmm_dot(&g, &a, &b2);
        let a1 = feats(80, 1, 4);
        let b1 = feats(80, 1, 6);
        let ref_add = NaiveBackend::cpu().sddmm_add(&g, &a1, &b1);
        for b in backends() {
            assert!(b.sddmm_dot(&g, &a, &b2).approx_eq(&ref_dot, 1e-3), "{}", b.name());
            assert!(b.sddmm_add(&g, &a1, &b1).approx_eq(&ref_add, 1e-3), "{}", b.name());
        }
    }

    #[test]
    fn all_backends_agree_on_edge_sum() {
        let g = graph();
        let e = feats(g.num_edges(), 4, 7);
        for dir in [Dir::Fwd, Dir::Rev] {
            let reference = NaiveBackend::cpu().edge_sum(&g, dir, &e);
            for b in backends() {
                assert!(
                    b.edge_sum(&g, dir, &e).approx_eq(&reference, 1e-3),
                    "{} {dir:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn all_backends_agree_on_fused_attention() {
        let g = graph();
        let x = feats(80, 12, 0);
        let sl = feats(80, 1, 4);
        let sr = feats(80, 1, 6);
        // NaiveBackend keeps the trait's default (unfused) composition, so
        // this pits the fused kernel against the three-kernel reference.
        let reference = NaiveBackend::cpu().fused_attention(&g, &x, &sl, &sr, 0.2);
        for b in backends() {
            let got = b.fused_attention(&g, &x, &sl, &sr, 0.2);
            assert!(
                got.approx_eq(&reference, 1e-3),
                "{}: diff {}",
                b.name(),
                got.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn fused_attention_plan_is_cached_and_charges_gpu_time() {
        let g = graph();
        let x = feats(80, 8, 1);
        let sl = feats(80, 1, 2);
        let sr = feats(80, 1, 3);
        let b = FeatgraphBackend::gpu();
        let first = b.fused_attention(&g, &x, &sl, &sr, 0.2);
        assert!(b.take_gpu_ms() > 0.0);
        let second = b.fused_attention(&g, &x, &sl, &sr, 0.2);
        assert!(first.approx_eq(&second, 0.0));
        // a different slope is a different plan, not a stale cache hit
        let other = b.fused_attention(&g, &x, &sl, &sr, 0.5);
        assert!(other.max_abs_diff(&first) > 0.0);
    }

    #[test]
    fn fused_attention_backward_matches_the_unfused_recompute() {
        // vertices 0..4 have no in-edges, 5..9 exactly one, vertex 10 is a
        // hub (every vertex points at it and it points at 11..40), and the
        // rest get a few pseudo-random in-edges
        let n = 60u32;
        let mut edges: Vec<(u32, u32)> = (5..10).map(|v| (v - 5, v)).collect();
        edges.extend((0..n).filter(|&u| u != 10).map(|u| (u, 10)));
        edges.extend((11..40).map(|v| (10, v)));
        edges.extend((11..n).flat_map(|v| (1..4).map(move |k| ((v * 7 + k * 13) % n, v))));
        let g = GnnGraph::new(fg_graph::Graph::from_edges(n as usize, &edges));
        assert_eq!(g.in_degrees()[0], 0);
        assert_eq!(g.in_degrees()[5], 1);
        assert!(g.in_degrees()[10] >= n - 1);

        let n = n as usize;
        let (x, sl, sr) = (feats(n, 12, 0), feats(n, 1, 4), feats(n, 1, 6));
        let grad = feats(n, 12, 9);
        let run = |b: &dyn GraphBackend| {
            let (out, stats) = b.attention_forward(&g, &x, &sl, &sr, 0.2);
            let fwd = AttentionForward {
                x: &x,
                sl: &sl,
                sr: &sr,
                slope: 0.2,
                out: &out,
                stats: stats.as_ref(),
            };
            let grads = b.attention_backward(&g, &fwd, &grad);
            (stats.is_some(), [out, grads.x, grads.sl, grads.sr])
        };
        // the naive backend keeps the trait defaults: the oracle
        let (saved, want) = run(&NaiveBackend::cpu());
        assert!(!saved);
        let fused: [FeatgraphBackend; 3] = [
            FeatgraphBackend::cpu_with_partitions(1, 4),
            FeatgraphBackend::cpu(3),
            FeatgraphBackend::cpu_with_partitions(3, 7),
        ];
        for b in &fused {
            let (saved, got) = run(b);
            assert!(saved, "the CPU fused forward hands its softmax state back");
            for (what, (a, w)) in ["out", "g_x", "g_sl", "g_sr"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert!(a.approx_eq(w, 1e-4), "{what}: diff {}", a.max_abs_diff(w));
            }
            // no in-edges: no attention output, no destination-side gradient
            assert_eq!(got[3].at(0, 0), 0.0);
            // a single-edge segment has weight exactly 1, whose score
            // gradient vanishes: out[v] = hw[u] whatever the scores are
            assert_eq!(got[0].row(5), x.row(0));
            assert_eq!(got[3].at(5, 0), 0.0);
        }
        // the simulated GPU plan saves nothing and takes the default backward
        let (saved, got) = run(&FeatgraphBackend::gpu());
        assert!(!saved);
        for (a, w) in got.iter().zip(&want) {
            assert!(a.approx_eq(w, 1e-4), "gpu: diff {}", a.max_abs_diff(w));
        }
    }

    #[test]
    fn sddmm_dot_is_the_gradient_of_weighted_spmm_wrt_weights() {
        // finite-difference check of the SpMM/SDDMM duality the autograd uses
        let g = GnnGraph::new(fg_graph::Graph::from_edges(3, &[(0, 2), (1, 2)]));
        let x = feats(3, 4, 8);
        let gout = feats(3, 4, 9);
        let be = FeatgraphBackend::cpu(1);
        let grad_w = be.sddmm_dot(&g, &x, &gout);
        // d/dw_e of sum(gout .* spmm(x, w)) = dot(x[src_e], gout[dst_e])
        let mut w = Dense2::full(2, 1, 1.0f32);
        let eps = 1e-2f32;
        for e in 0..2 {
            let obj = |w: &Dense2<f32>| -> f32 {
                let out = be.weighted_spmm(&g, Dir::Fwd, &x, Some(w));
                out.as_slice().iter().zip(gout.as_slice()).map(|(&a, &b)| a * b).sum()
            };
            let base = w.at(e, 0);
            w.set(e, 0, base + eps);
            let hi = obj(&w);
            w.set(e, 0, base - eps);
            let lo = obj(&w);
            w.set(e, 0, base);
            let fd = (hi - lo) / (2.0 * eps);
            assert!(
                (fd - grad_w.at(e, 0)).abs() < 1e-2,
                "edge {e}: fd {fd} vs sddmm {}",
                grad_w.at(e, 0)
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "bound to the graph it first ran on (4 vertices, 3 edges) but was called \
                    with a graph of 3 vertices, 2 edges"
    )]
    fn a_backend_reused_on_a_second_graph_fails_loudly() {
        // Same feature width, so the plan key matches: without the guard the
        // second graph would run the first graph's compiled plan.
        let b = FeatgraphBackend::cpu(1);
        let first = GnnGraph::new(fg_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let _ = b.weighted_spmm(&first, Dir::Fwd, &feats(4, 8, 0), None);
        // The reverse orientation is the same shape and stays allowed.
        let _ = b.weighted_spmm(&first, Dir::Rev, &feats(4, 8, 0), None);
        let second = GnnGraph::new(fg_graph::Graph::from_edges(3, &[(0, 1), (1, 2)]));
        let _ = b.weighted_spmm(&second, Dir::Fwd, &feats(3, 8, 0), None);
    }

    #[test]
    fn gpu_backends_accumulate_time() {
        let g = graph();
        let x = feats(80, 16, 11);
        let b = FeatgraphBackend::gpu();
        let _ = b.weighted_spmm(&g, Dir::Fwd, &x, None);
        assert!(b.take_gpu_ms() > 0.0);
        assert_eq!(b.take_gpu_ms(), 0.0);

        let nb = NaiveBackend::gpu(DeviceConfig::v100());
        let _ = nb.weighted_spmm(&g, Dir::Fwd, &x, None);
        assert!(nb.take_gpu_ms() > 0.0);
    }

    #[test]
    fn roofline_is_monotone() {
        let m = GpuCostModel::new(DeviceConfig::v100());
        m.charge(1_000_000, 1_000_000);
        let small = m.take();
        m.charge(1_000_000_000, 1_000_000_000);
        let big = m.take();
        assert!(big > small);
    }
}
