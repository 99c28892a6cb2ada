//! The serving engine: one request pipeline from admission to reply.
//!
//! ```text
//! submit* ─▶ admit ─▶ Job{model, rows, view} ─▶ Batcher ─▶ execute ─▶ complete ─▶ reply
//! ```
//!
//! **Admission.** Every entry point ([`Engine::submit`],
//! [`Engine::submit_seeds`], their `_traced` and blocking variants) funnels
//! into one `admit`: count the request, apply the memory-budget gate,
//! resolve the model, range-check the requested vertices, stamp the
//! deadline, and push one job into the bounded [`Batcher`] — a full queue
//! **sheds** with [`ServeError::Overloaded`] instead of blocking the caller.
//!
//! **One job shape.** A job is `(model, rows, view)`: the vertices whose
//! logits rows are wanted, and the view of the graph that computes them.
//! `INFER n` is `rows = [n]` over the `Full` view. `INFER_SEEDS` is
//! `rows = seeds` over the `Sampled` view (a fanout-bounded neighborhood
//! of the seeds, optionally with client-supplied seed features), whatever
//! its fanouts: its reply header names the sampled subgraph's size.
//!
//! **Waiting.** No job waits for company: the [`Batcher`] is a FIFO of
//! single jobs, and a worker takes the oldest as soon as it is free. Jobs
//! share no work — a `Full` job reads rows of a matrix that already exists,
//! a `Sampled` job's subgraph, gathered rows and backend are its own — so
//! two requests run on two workers concurrently.
//!
//! **Execution.** A worker pulls one job, expires it if its deadline passed
//! in the queue ([`ServeError::Timeout`]), and answers it from its view.
//! A `Full` view is a **row read**: graph, features and weights are frozen
//! at registration, so the full-graph logits are a constant of the
//! [`ModelEntry`]. The registration's first `Full` job computes them once
//! (`fill_logits`: one [`fg_gnn::infer_batch`] over every vertex, on a
//! backend built for the fill and dropped after it) into a |V| × classes
//! matrix the entry keeps; concurrent first jobs wait on that one fill, and
//! every job copies its rows out of the matrix. The fill is lazy — a
//! registration that only ever answers sampled requests never pays for it —
//! and never evicted: the matrix is no larger than the feature matrix
//! whenever classes ≤ in_dim.
//! A `Sampled` job runs `run_sampled`: sample, cut the subgraph into one
//! bipartite message-flow block per model layer ([`SampledBlocks`]), and
//! run the model over the blocks — each layer writes only the rows a later
//! layer or a seed reads, and layer 0 reads the registration's rows in
//! place through the block's input map, with the request's own seed rows
//! as a small overlay. The replies are bitwise what `infer_batch` gives on
//! the whole subgraph. A model whose layer 0 starts with row-wise GEMMs
//! (GAT: `hw`, `sl`, `sr` per head) reads those rows from a table the
//! registration computes over every vertex on its first sampled job
//! ([`Model::layer0_table`]) and keeps beside its logits; a request
//! recomputes only its overridden rows. A job keeps nothing of its own:
//! every request samples different blocks, and each block kernel compiles
//! a plan that borrows the block's CSR and picks its own schedule from the
//! block's size. What outlives a job is its
//! worker's sampler scratch (`fg_graph::SampleScratch`, an epoch-stamped
//! array over the `|V|` of the largest graph it has sampled, plus flat
//! buffers), charged to the `sampling` component for the worker's lifetime.
//!
//! **Completion.** Every job — answered, failed or timed out — ends in one
//! `complete`: phase samples (the rule for which is stated there), latency
//! and outcome counters, the slow log, and the reply.
//!
//! Shutdown is graceful: [`Engine::shutdown`] closes the batcher (new
//! submits fail with [`ServeError::ShuttingDown`]), lets workers drain the
//! queue, and joins them. Dropping the engine does the same.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fg_gnn::models::Model;
use fg_gnn::{infer_batch, prepare_seeds_with, FeatgraphBackend, GnnGraph, Layer0, SampledBlocks};
use fg_graph::{SampleConfig, SampleScratch, FULL_FANOUT};
use fg_telemetry::{
    emit_span, span, timestamp_ns, MemCharge, MemComponent, MemScope, TraceContext, TraceSampler,
    TraceScope,
};
use fg_tensor::{Dense2, FeatureDtype, FeatureTensor};

use crate::batcher::{Batcher, PushError};
use crate::oneshot::Oneshot;
use crate::stats::{ConnSnapshot, ConnStats, Phase, ServeStats, SlowEntry, SlowLog, StatsSnapshot};

/// Slow-request log retention (newest entries win).
const SLOW_LOG_CAPACITY: usize = 128;

/// Hops sampled when a seeded request names no fanouts: every built-in
/// model is 2-layer, so a 2-hop neighborhood feeds every aggregation.
pub const DEFAULT_SAMPLE_HOPS: usize = 2;

/// Engine configuration. Defaults suit an interactive low-latency setup.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue bound; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Kernel threads per compiled backend.
    pub kernel_threads: usize,
    /// Default per-request deadline when the request carries none;
    /// `None` disables timeouts.
    pub default_deadline: Option<Duration>,
    /// Artificial extra latency per job, slept by the worker before the
    /// job's deadline check — overload/timeout testing knob, zero in
    /// production.
    pub exec_delay: Duration,
    /// Head-sample 1 in N requests for end-to-end tracing (`0` disables
    /// sampling; `1` traces everything). Sampled requests carry their trace
    /// id through every `fg-telemetry` span they touch.
    pub trace_sample: u64,
    /// Slow-request threshold: completed requests whose serve-side latency
    /// meets or exceeds this many milliseconds get a phase breakdown in the
    /// slow log. `None` disables the log.
    pub slow_ms: Option<f64>,
    /// Whole-process accounted-memory budget: while the accountant's
    /// tracked total exceeds this, new requests are shed with
    /// [`ServeError::OverMemoryBudget`] instead of allocating. `0` =
    /// unlimited.
    pub mem_budget: u64,
    /// Storage precision for registered feature matrices: `F32` keeps the
    /// rows verbatim (results stay bitwise identical to an engine without
    /// this knob); `Bf16` quantizes at registration, halving feature
    /// bytes — kernels still accumulate in f32, widening on load.
    pub feature_dtype: FeatureDtype,
    /// Concurrent-connection admission bound for the TCP front-end: accepts
    /// beyond this are shed immediately (counted in
    /// `fgserve_conn_admission_shed_total`). Every admitted connection is
    /// served by its own blocking thread, so this bounds the front-end's
    /// threads as well as its sockets — and with them the requests in
    /// flight. `0` = unlimited.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            workers: 2,
            kernel_threads: 1,
            default_deadline: Some(Duration::from_millis(500)),
            exec_delay: Duration::ZERO,
            trace_sample: 0,
            slow_ms: None,
            mem_budget: 0,
            feature_dtype: FeatureDtype::F32,
            max_conns: 256,
        }
    }
}

/// Typed serving failure, surfaced on the wire as `ERR <id> <code>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission queue full; request shed without queueing.
    Overloaded,
    /// Accounted memory exceeds [`ServeConfig::mem_budget`]; request shed
    /// before allocating anything.
    OverMemoryBudget,
    /// Deadline expired before the request executed.
    Timeout,
    /// No model registered under that name.
    UnknownModel(String),
    /// Request invalid for the target model (e.g. node out of range).
    BadRequest(String),
    /// Engine is draining; no new work accepted.
    ShuttingDown,
    /// Inference itself failed.
    Infer(String),
}

impl ServeError {
    /// Stable machine-readable code used in the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::OverMemoryBudget => "over-memory-budget",
            ServeError::Timeout => "timeout",
            ServeError::UnknownModel(_) => "unknown-model",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Infer(_) => "infer-failed",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "queue full, request shed"),
            ServeError::OverMemoryBudget => {
                write!(f, "accounted memory over budget, request shed")
            }
            ServeError::Timeout => write!(f, "deadline expired before execution"),
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::ShuttingDown => write!(f, "engine shutting down"),
            ServeError::Infer(msg) => write!(f, "inference failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A single-node inference request.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// Registered model name.
    pub model: String,
    /// Node whose logits are wanted.
    pub node: usize,
    /// Per-request deadline; falls back to
    /// [`ServeConfig::default_deadline`] when `None`.
    pub deadline: Option<Duration>,
}

/// A successful reply.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Predicted class (argmax over logits).
    pub class: usize,
    /// Raw logits row for the requested node.
    pub logits: Vec<f32>,
}

/// A seeded (sampled-subgraph) inference request: answer `seeds` by running
/// the model on a fanout-bounded neighborhood instead of the full graph.
#[derive(Debug, Clone)]
pub struct InferSeedsRequest {
    /// Registered model name.
    pub model: String,
    /// Seed vertices whose logits are wanted (duplicates allowed; each seed
    /// gets its own reply row, in input order).
    pub seeds: Vec<usize>,
    /// Per-hop in-neighbor caps, seed-side first; a list with fewer hops
    /// than the model has layers is rejected. `None` = full fanout over
    /// `DEFAULT_SAMPLE_HOPS` hops, which reproduces full-graph logits for
    /// the seeds bit-for-bit.
    pub fanouts: Option<Vec<usize>>,
    /// RNG seed for the neighbor sampler (same value + same seeds = same
    /// subgraph).
    pub sample_seed: u64,
    /// Client-supplied feature rows overriding the registered features for
    /// the seed vertices only — one row per seed, in seed order, with the
    /// model's registered feature width. The request runs the `Sampled`
    /// view (neighbor rows still come from the registered matrix), with the
    /// seeds' gathered rows replaced by these before the forward pass.
    pub feats: Option<Dense2<f32>>,
    /// Per-request deadline; falls back to
    /// [`ServeConfig::default_deadline`] when `None`.
    pub deadline: Option<Duration>,
}

/// A successful seeded reply: one [`InferResponse`] per requested seed, in
/// request order, plus the size of the subgraph that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedsResponse {
    /// Per-seed results, in request order.
    pub results: Vec<InferResponse>,
    /// Vertices in the sampled subgraph.
    pub sub_vertices: usize,
    /// Edges in the sampled subgraph.
    pub sub_edges: usize,
}

/// How a job's rows are computed.
enum View {
    /// Rows of the full-graph logits the registration computes once.
    Full,
    /// Rows of the model run on a fanout-bounded neighborhood sampled
    /// around the job's rows, with `feats` (one row per job row) replacing
    /// the registered features of those rows.
    Sampled {
        cfg: SampleConfig,
        feats: Option<Dense2<f32>>,
    },
}

/// The reply channel every job carries: one result per requested row.
type Reply = Arc<Oneshot<Result<SeedsResponse, ServeError>>>;

struct Job {
    /// The registration the request was validated against at admission; it
    /// executes on this entry even if the name is re-registered meanwhile.
    entry: Arc<ModelEntry>,
    /// Vertices whose logits rows are wanted, in reply order.
    rows: Vec<usize>,
    view: View,
    reply: Reply,
    accepted: Instant,
    /// Wall-clock accept timestamp on the telemetry clock (0 when telemetry
    /// is disabled) — lets the worker emit the cross-thread queue-wait span.
    accept_ns: u64,
    deadline: Option<Instant>,
    trace: TraceContext,
}

/// Handle to one in-flight request; [`wait`](Self::wait) blocks for the
/// reply in the shape `R` the submitting call asked for. Every admitted
/// request is guaranteed a reply — workers answer dequeued jobs
/// unconditionally and shutdown drains the queue first.
pub struct Pending<R> {
    reply: Reply,
    shape: PhantomData<fn() -> R>,
}

impl<R: From<SeedsResponse>> Pending<R> {
    /// Block until the worker pool answers.
    pub fn wait(self) -> Result<R, ServeError> {
        self.reply.recv().map(R::from)
    }
}

/// Handle to an in-flight [`InferRequest`].
pub type Ticket = Pending<InferResponse>;

/// Handle to an in-flight [`InferSeedsRequest`].
pub type SeedsTicket = Pending<SeedsResponse>;

impl From<SeedsResponse> for InferResponse {
    /// An `INFER` job asks for one row and is answered with one result.
    fn from(resp: SeedsResponse) -> Self {
        let mut results = resp.results.into_iter();
        results.next().expect("INFER job answered with its row")
    }
}

/// A graph and its input features, shared by every registration made
/// against the same pair: stored (features quantized to the configured
/// dtype) and charged once, and freed with the last registration holding it.
struct Dataset {
    graph: Arc<GnnGraph>,
    features: FeatureTensor,
    /// The caller's `f32` matrix, the identity a later registration shares
    /// on. Weak, so bf16 storage does not keep the `f32` matrix alive; and
    /// while it exists the allocation it points at cannot be reused.
    source: Weak<Dense2<f32>>,
    /// Accounting guard for the `Vec`-backed graph topology (the tensor
    /// accountant only sees aligned buffers).
    _graph_charge: MemCharge,
}

impl Dataset {
    fn new(graph: Arc<GnnGraph>, features: Arc<Dense2<f32>>, dtype: FeatureDtype) -> Self {
        let source = Arc::downgrade(&features);
        let _graph_charge = MemCharge::new(MemComponent::GraphTopology, graph.mem_bytes());
        // F32 shares the caller's matrix (no copy, no rounding); bf16's
        // quantized copy is a features allocation.
        let features = {
            let _mem = MemScope::enter(MemComponent::Features);
            FeatureTensor::from_f32(dtype, features)
        };
        Self {
            graph,
            features,
            source,
            _graph_charge,
        }
    }

    fn holds(&self, graph: &Arc<GnnGraph>, features: &Arc<Dense2<f32>>) -> bool {
        Arc::ptr_eq(&self.graph, graph) && self.source.as_ptr() == Arc::as_ptr(features)
    }
}

/// One servable model: the dataset it runs on, the trained (or initialized)
/// parameters, and what they determine once the first job that needs it
/// has run: the full-graph logits and the layer-0 table.
pub struct ModelEntry {
    name: String,
    graph_id: u64,
    data: Arc<Dataset>,
    model: Box<dyn Model>,
    /// The |V| × classes logits of the whole graph, filled by the first
    /// `Full` job (`fill_logits`). Allocated under the `activations`
    /// memory component, so the accountant counts it until the entry drops.
    logits: OnceLock<Dense2<f32>>,
    /// Layer 0's row-wise tensors over every vertex
    /// ([`Model::layer0_table`]; `None` inside for a model without one),
    /// filled by the first `Sampled` job (`fill_table`) under the
    /// `activations` memory component.
    table: OnceLock<Option<Vec<Dense2<f32>>>>,
}

struct Shared {
    cfg: ServeConfig,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    batcher: Batcher<Job>,
    stats: Arc<ServeStats>,
    conn: Arc<ConnStats>,
    sampler: TraceSampler,
    slow_log: SlowLog,
    next_graph_id: AtomicU64,
}

/// See the module docs of `engine.rs`.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Start an engine with `cfg.workers` job-execution threads.
    pub fn new(cfg: ServeConfig) -> Self {
        let workers = cfg.workers.max(1);
        let stats = Arc::new(ServeStats::default());
        let shared = Arc::new(Shared {
            batcher: Batcher::new(cfg.queue_capacity, Arc::clone(&stats) as _),
            sampler: TraceSampler::new(cfg.trace_sample),
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            cfg,
            models: RwLock::new(HashMap::new()),
            stats,
            conn: Arc::new(ConnStats::default()),
            next_graph_id: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fgserve-worker-{i}"))
                    .spawn(move || {
                        let mut scratch = WorkerScratch::new();
                        while let Some(job) = shared.batcher.pop() {
                            execute(&shared, job, &mut scratch);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Register `model` under `name` on `graph` and `features`, replacing
    /// any previous registration of `name`. Returns the graph ID assigned to
    /// this registration.
    ///
    /// Registrations passed the same `Arc`s (or clones of them) share one
    /// dataset: the graph and the stored features exist once, their
    /// `graph_topology` and `features` bytes are charged once, and both are
    /// freed — credited — when the last registration holding them drops.
    /// Passing owned values makes a dataset of its own. A replaced
    /// registration's full-graph logits and layer-0 table are freed with it
    /// (once in-flight jobs holding it finish).
    ///
    /// # Panics
    ///
    /// If `features` does not have exactly one row per vertex of `graph`.
    pub fn register_model(
        &self,
        name: &str,
        model: Box<dyn Model>,
        graph: impl Into<Arc<GnnGraph>>,
        features: impl Into<Arc<Dense2<f32>>>,
    ) -> u64 {
        let (graph, features) = (graph.into(), features.into());
        // Every view gathers feature rows by vertex id, and the full-graph
        // fill relies on the check to be infallible.
        assert_eq!(
            features.rows(),
            graph.num_vertices(),
            "model {name:?}: feature matrix has {} rows, graph has {} vertices",
            features.rows(),
            graph.num_vertices()
        );
        let graph_id = self.shared.next_graph_id.fetch_add(1, Ordering::Relaxed);
        let shared = {
            let registered = self.shared.models.read().unwrap();
            let mut datasets = registered.values().map(|e| &e.data);
            datasets.find(|d| d.holds(&graph, &features)).cloned()
        };
        let dtype = self.shared.cfg.feature_dtype;
        let data = shared.unwrap_or_else(|| Arc::new(Dataset::new(graph, features, dtype)));
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            graph_id,
            data,
            model,
            logits: OnceLock::new(),
            table: OnceLock::new(),
        });
        let replaced = self
            .shared
            .models
            .write()
            .unwrap()
            .insert(name.to_string(), entry);
        if let Some(old) = replaced {
            // Surface what used to be a silent drop: the old entry's
            // parameters and logits are released (once in-flight jobs
            // holding its Arc finish), and its dataset with them unless
            // another registration shares it.
            self.shared
                .stats
                .models_replaced
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "fgserve: model {name:?} replaced (old graph id {}, new graph id {graph_id}); \
                 previous entry released",
                old.graph_id
            );
        }
        graph_id
    }

    /// Mint a [`TraceContext`] for one incoming request, honoring the
    /// configured 1-in-N sampling rate. Front-ends that want their own
    /// accept-side span to share the request's trace id call this before
    /// [`submit_traced`](Self::submit_traced); [`submit`](Self::submit)
    /// mints internally.
    pub fn mint_trace(&self) -> TraceContext {
        self.shared.sampler.mint()
    }

    /// Admit a request. Fails fast (without queueing) on unknown model,
    /// out-of-range node, full queue, or shutdown.
    pub fn submit(&self, req: InferRequest) -> Result<Ticket, ServeError> {
        self.submit_traced(req, self.mint_trace())
    }

    /// [`submit`](Self::submit) with a caller-minted [`TraceContext`]
    /// (from [`mint_trace`](Self::mint_trace)) so front-end spans and
    /// worker-side spans land in the same trace tree.
    pub fn submit_traced(
        &self,
        req: InferRequest,
        trace: TraceContext,
    ) -> Result<Ticket, ServeError> {
        self.admit(
            req.model,
            vec![req.node],
            "node",
            req.deadline,
            trace,
            |_| Ok(View::Full),
        )
    }

    /// Admit a seeded request. Same admission gates as
    /// [`submit`](Self::submit); additionally rejects empty seed sets,
    /// fanout lists shorter than the model is deep, and malformed `feats`
    /// before queueing.
    pub fn submit_seeds(&self, req: InferSeedsRequest) -> Result<SeedsTicket, ServeError> {
        self.submit_seeds_traced(req, self.mint_trace())
    }

    /// [`submit_seeds`](Self::submit_seeds) with a caller-minted
    /// [`TraceContext`].
    pub fn submit_seeds_traced(
        &self,
        req: InferSeedsRequest,
        trace: TraceContext,
    ) -> Result<SeedsTicket, ServeError> {
        let InferSeedsRequest {
            model,
            seeds,
            fanouts,
            sample_seed,
            feats,
            deadline,
        } = req;
        let rows = seeds.len();
        self.admit(model, seeds, "seed", deadline, trace, move |entry| {
            seeds_view(entry, rows, fanouts, sample_seed, feats)
        })
    }

    /// The one admission path: gate, validate, build the job, queue it.
    /// `noun` names a row in range errors; `view` validates the
    /// request-kind-specific half against the resolved model and picks the
    /// job's view.
    fn admit<R>(
        &self,
        model: String,
        rows: Vec<usize>,
        noun: &str,
        deadline: Option<Duration>,
        trace: TraceContext,
        view: impl FnOnce(&ModelEntry) -> Result<View, ServeError>,
    ) -> Result<Pending<R>, ServeError> {
        let shared = &self.shared;
        // Memory-budget admission gate: shed before this request allocates
        // anything (no job, no oneshot, no queue slot) while the accounted
        // footprint is over budget.
        let budget = shared.cfg.mem_budget;
        if budget > 0 && fg_telemetry::mem_total_current() > budget {
            shared.stats.mem_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::OverMemoryBudget);
        }
        let entry = shared.models.read().unwrap().get(&model).cloned();
        let Some(entry) = entry else {
            return Err(ServeError::UnknownModel(model));
        };
        if rows.is_empty() {
            return Err(ServeError::BadRequest("no seed vertices".into()));
        }
        let vertices = entry.data.graph.num_vertices();
        if let Some(&v) = rows.iter().find(|&&v| v >= vertices) {
            return Err(ServeError::BadRequest(format!(
                "{noun} {v} out of range (graph has {vertices} vertices)"
            )));
        }
        let view = view(&entry)?;
        let now = Instant::now();
        let reply = Arc::new(Oneshot::new());
        let job = Job {
            entry,
            rows,
            view,
            reply: Arc::clone(&reply),
            accepted: now,
            accept_ns: if trace.sampled { timestamp_ns() } else { 0 },
            deadline: deadline.or(shared.cfg.default_deadline).map(|d| now + d),
            trace,
        };
        match shared.batcher.push(job) {
            Ok(()) => {
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(Pending {
                    reply,
                    shape: PhantomData,
                })
            }
            Err(PushError::Overloaded(_)) => {
                shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Convenience: [`submit`](Self::submit) then block for the reply.
    pub fn infer(&self, req: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Convenience: [`submit_seeds`](Self::submit_seeds) then block.
    pub fn infer_seeds(&self, req: InferSeedsRequest) -> Result<SeedsResponse, ServeError> {
        self.submit_seeds(req)?.wait()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Record one serialize-phase sample. The engine never sees reply
    /// serialization (it happens on the front-end's connection thread), so
    /// the front-end feeds the phase recorder through this.
    pub fn record_serialize(&self, dur: Duration) {
        self.shared.stats.record_phase(Phase::Serialize, dur);
    }

    /// Retained slow-request entries, oldest first, capped at `limit`
    /// newest when given. Empty unless [`ServeConfig::slow_ms`] is set.
    pub fn slow_requests(&self, limit: Option<usize>) -> Vec<SlowEntry> {
        self.shared.slow_log.entries(limit)
    }

    /// Slow requests ever logged (including entries since evicted).
    pub fn slow_total(&self) -> u64 {
        self.shared.slow_log.total()
    }

    /// Full Prometheus-style text exposition: the engine's always-on serve
    /// series, the memory-accounting series, plus (while enabled at
    /// runtime) the process-wide `fg-telemetry` registry, terminated by
    /// `# EOF`.
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(
            &self.stats(),
            &self.memory_report(),
            &self.conn_stats().snapshot(),
        )
    }

    /// Connection counters for the TCP front-end. The engine owns the
    /// struct (so `METRICS` can render it from any front-end, including
    /// none); the acceptor and connection threads increment it.
    pub fn conn_stats(&self) -> Arc<ConnStats> {
        Arc::clone(&self.shared.conn)
    }

    /// Storage dtype the engine quantizes registered features to.
    pub fn feature_dtype(&self) -> FeatureDtype {
        self.shared.cfg.feature_dtype
    }

    /// The configuration this engine was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Point-in-time connection-counter snapshot (all zeros when no TCP
    /// front-end is attached).
    pub fn conn_snapshot(&self) -> ConnSnapshot {
        self.shared.conn.snapshot()
    }

    /// Point-in-time memory breakdown backing the `fgserve_mem_*` metric
    /// series.
    pub fn memory_report(&self) -> MemoryReport {
        let models = self.shared.models.read().unwrap();
        MemoryReport {
            components: fg_telemetry::mem_snapshot(),
            total_current: fg_telemetry::mem_total_current(),
            total_peak: fg_telemetry::mem_total_peak(),
            mem_budget: self.shared.cfg.mem_budget,
            models_registered: models.len() as u64,
            rss: fg_telemetry::read_rss(),
        }
    }

    /// Stop accepting work, drain the queue, and join the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.batcher.close();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whole-process memory breakdown: per-component accounted watermarks,
/// the admission-gate budget, and the OS resident-set cross-check. Produced
/// by [`Engine::memory_report`], rendered as the `fgserve_mem_*` metric
/// series.
#[derive(Debug, Clone)]
pub struct MemoryReport {
    /// Current/peak accounted bytes per component, in
    /// [`MemComponent::ALL`] order.
    pub components: Vec<fg_telemetry::MemComponentSnapshot>,
    /// Accounted bytes currently live across every component.
    pub total_current: u64,
    /// High-water mark of `total_current`.
    pub total_peak: u64,
    /// Admission-gate budget in bytes (`0` = unlimited).
    pub mem_budget: u64,
    /// Models currently registered.
    pub models_registered: u64,
    /// OS resident-set reading (`None` off Linux).
    pub rss: Option<fg_telemetry::RssReading>,
}

/// Validate the sampling half of a seeds request against its model and
/// build the `Sampled` view that answers it.
fn seeds_view(
    entry: &ModelEntry,
    seeds: usize,
    fanouts: Option<Vec<usize>>,
    sample_seed: u64,
    feats: Option<Dense2<f32>>,
) -> Result<View, ServeError> {
    // Fewer hops than layers would starve the deeper aggregations: the
    // reply would be computed, silently, from a truncated neighborhood.
    let layers = entry.model.num_layers().max(1);
    let fanouts = match fanouts {
        Some(f) if f.len() < layers => {
            return Err(ServeError::BadRequest(format!(
                "fanout list covers {} hops, model has {layers} layers",
                f.len()
            )));
        }
        Some(f) => f,
        None => vec![FULL_FANOUT; DEFAULT_SAMPLE_HOPS.max(layers)],
    };
    if let Some(feats) = &feats {
        if feats.rows() != seeds {
            return Err(ServeError::BadRequest(format!(
                "feats has {} rows for {seeds} seeds",
                feats.rows()
            )));
        }
        if feats.cols() != entry.data.features.cols() {
            return Err(ServeError::BadRequest(format!(
                "feats width {} does not match model feature width {}",
                feats.cols(),
                entry.data.features.cols()
            )));
        }
        if let Some(bad) = feats.as_slice().iter().find(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "non-finite feature value {bad}"
            )));
        }
    }
    let cfg = SampleConfig::new(fanouts, sample_seed);
    Ok(View::Sampled { cfg, feats })
}

/// Engine-side durations of one job. `sample` is `Some` exactly when that
/// step ran — the phase rule in [`complete`] keys on it.
#[derive(Clone, Copy)]
struct Timings {
    sample: Option<Duration>,
    execute: Duration,
}

/// What a view hands [`complete`] for one job: its logits rows, the job's
/// timings, and the `(vertices, edges)` of the graph slice behind them.
type Answer = (Vec<Vec<f32>>, Timings, (usize, usize));

/// An [`Answer`], or why there is none.
type Outcome = Result<Answer, ServeError>;

/// Run one job: expire it if its deadline passed while it queued, else
/// answer it from its view.
fn execute(shared: &Shared, job: Job, scratch: &mut WorkerScratch) {
    let pulled = Instant::now();
    let _scope = TraceScope::enter(job.trace);
    let _span = span!("serve/batch", "rows={}", job.rows.len());
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    // Queue wait elapsed on another thread; emit it as an externally-timed
    // span so the trace tree covers accept → pull.
    if job.trace.sampled && job.accept_ns != 0 {
        let pulled_ns = timestamp_ns();
        if pulled_ns > job.accept_ns {
            emit_span(
                "serve/queue_wait",
                Some(format!("rows={}", job.rows.len())),
                job.accept_ns,
                pulled_ns - job.accept_ns,
                job.trace.trace_id,
            );
        }
    }
    if !shared.cfg.exec_delay.is_zero() {
        std::thread::sleep(shared.cfg.exec_delay);
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        let timeout = Err(ServeError::Timeout);
        complete(shared, job, pulled, Duration::ZERO, timeout);
        return;
    }
    // batch_form covers pull → start: the exec delay and the deadline check.
    let batch_form = pulled.elapsed();
    let entry = &*job.entry;
    let outcome = match &job.view {
        View::Full => Ok(read_rows(shared, entry, &job.rows)),
        View::Sampled { cfg, feats } => {
            run_sampled(shared, scratch, entry, &job.rows, cfg, feats.as_ref())
        }
    };
    complete(shared, job, pulled, batch_form, outcome);
}

/// One `Full` view: copy `rows`, in order, out of the registration's
/// full-graph logits — computing them first when this is the
/// registration's first `Full` job; concurrent first jobs wait on that one
/// fill. Only the filling job's `execute` holds the pass; a job that waited
/// on another's fill counts the wait as `execute`. The reply's graph slice
/// is the whole graph.
fn read_rows(shared: &Shared, entry: &ModelEntry, rows: &[usize]) -> Answer {
    let start = Instant::now();
    let logits = entry
        .logits
        .get_or_init(|| fill_logits(entry, shared.cfg.kernel_threads));
    let out = rows.iter().map(|&v| logits.row(v).to_vec()).collect();
    let timings = Timings {
        sample: None,
        execute: start.elapsed(),
    };
    let dims = (
        entry.data.graph.num_vertices(),
        entry.data.graph.num_edges(),
    );
    (out, timings, dims)
}

/// The registration's full-graph logits: one [`infer_batch`] over every
/// vertex, on a backend built for the pass and dropped after it; its plans
/// are charged to the `plan_cache` component until then, so its peak still
/// shows them. The kept matrix is allocated under the `activations`
/// component.
fn fill_logits(entry: &ModelEntry, kernel_threads: usize) -> Dense2<f32> {
    let backend = FeatgraphBackend::cpu(kernel_threads);
    let nodes: Vec<usize> = (0..entry.data.graph.num_vertices()).collect();
    let rows = {
        let _infer_span = span!("serve/infer", "model={} rows={}", entry.name, nodes.len());
        // Attribute the pass's tape/scratch allocations to the serve path.
        let _mem = MemScope::enter(MemComponent::ServeBatch);
        // F32 storage borrows the registered buffer directly; bf16 storage
        // widens once (the copy is scratch, charged to the serve batch).
        let features = entry.data.features.widened();
        infer_batch(
            entry.model.as_ref(),
            &entry.data.graph,
            &features,
            &backend,
            &nodes,
        )
        .expect("registration checked one feature row per vertex")
    };
    let _plans = MemCharge::new(MemComponent::PlanCache, backend.plan_mem_bytes());
    let _mem = MemScope::enter(MemComponent::Activations);
    let mut logits = Dense2::zeros(rows.len(), rows.first().map_or(0, Vec::len));
    for (v, row) in rows.iter().enumerate() {
        logits.row_mut(v).copy_from_slice(row);
    }
    logits
}

/// The registration's layer-0 table ([`Model::layer0_table`] over every
/// vertex, from the widened registered features), kept under the
/// `activations` component; `None` for a model without one.
fn fill_table(entry: &ModelEntry) -> Option<Vec<Dense2<f32>>> {
    let _span = span!("serve/fill_table", "model={}", entry.name);
    let _scratch = MemScope::enter(MemComponent::ServeBatch);
    let features = entry.data.features.widened();
    let _mem = MemScope::enter(MemComponent::Activations);
    entry.model.layer0_table(&features)
}

/// What a worker keeps across jobs: its sampler scratch, which grows to the
/// `|V|` of the largest graph it has sampled, charged to the `sampling`
/// memory component for the worker's lifetime.
struct WorkerScratch {
    sample: SampleScratch,
    charge: MemCharge,
}

impl WorkerScratch {
    fn new() -> Self {
        Self {
            sample: SampleScratch::new(),
            charge: MemCharge::new(MemComponent::Sampling, 0),
        }
    }
}

/// One `Sampled` view: sample the neighborhood of `seeds` through the
/// worker's scratch and cut it into per-layer blocks, run the model over
/// the blocks — layer 0 reading the registration's feature (or table) rows
/// in place, with `feats` replacing the seeds' own — and return the seed
/// rows. Everything the request builds is proportional to its subgraph and
/// dropped with it; no row of the registration's matrices is copied but
/// the overridden ones. Besides the scratch, nothing is kept but the
/// registration's layer-0 table, which the first sampled job fills (inside
/// its `sample` phase). Each block kernel compiles a plan over the block's
/// CSR (a block that fits in cache gets one partition, which borrows the
/// CSR) with no thread probe (plan building is part of `execute`).
fn run_sampled(
    shared: &Shared,
    scratch: &mut WorkerScratch,
    entry: &ModelEntry,
    seeds: &[usize],
    cfg: &SampleConfig,
    feats: Option<&Dense2<f32>>,
) -> Outcome {
    let model = entry.model.as_ref();
    let model_name = entry.name.as_str();
    // Sample phase: neighborhood expansion + reindex + blocks.
    let sample_start = Instant::now();
    let (sub, blocks) = {
        let _sample_span = span!("serve/sample", "model={model_name} seeds={}", seeds.len());
        let sub = prepare_seeds_with(&mut scratch.sample, &entry.data.graph, seeds, cfg)
            .map_err(|e| ServeError::Infer(e.to_string()))?;
        scratch.charge.set_bytes(scratch.sample.mem_bytes());
        let blocks = SampledBlocks::new(&sub, model.num_layers());
        (sub, blocks)
    };
    // The subgraph, its blocks and index maps live until the rows are
    // returned; account them so the `sampling` memory series shows
    // per-request sampling footprint.
    let _sampling_charge =
        MemCharge::new(MemComponent::Sampling, sub.mem_bytes() + blocks.mem_bytes());
    // Layer 0 reads rows of the registration's table when its model has
    // one, else feature rows — half-precision storage widens as the kernel
    // reads it.
    let layer0 = match (
        entry.table.get_or_init(|| fill_table(entry)),
        &entry.data.features,
    ) {
        (Some(table), _) => Layer0::Table(table),
        (None, FeatureTensor::F32(m)) => Layer0::F32(m),
        (None, FeatureTensor::Bf16(m)) => Layer0::Bf16(m),
    };
    let sample = sample_start.elapsed();

    let dims = (sub.num_vertices(), sub.num_edges());
    let exec_start = Instant::now();
    let out = {
        let _infer_span = span!(
            "serve/infer",
            "model={model_name} seeds={} sub_v={} sub_e={} layers={}",
            seeds.len(),
            dims.0,
            dims.1,
            layer_rows(&blocks)
        );
        let _mem = MemScope::enter(MemComponent::ServeBatch);
        // Client-supplied rows replace the registered rows for the seeds
        // only; sampled neighbors keep the stored rows.
        blocks.forward(model, layer0, feats, shared.cfg.kernel_threads)
    };
    let timings = Timings {
        sample: Some(sample),
        execute: exec_start.elapsed(),
    };
    Ok((out, timings, dims))
}

/// Per-layer `written/read` row counts, layer 0 first, for a span.
fn layer_rows(blocks: &SampledBlocks) -> String {
    let rows = blocks.rows();
    let rows: Vec<String> = rows.iter().map(|(w, r)| format!("{w}/{r}")).collect();
    rows.join(",")
}

/// The one place a job ends: phase samples, latency and outcome counters,
/// the slow log, and the reply.
///
/// Phase rule — a completed request records `queue_wait`, `batch_form` and
/// `execute` always; `sample` iff it ran a `Sampled` view (so the `sample`
/// series of an engine that only answers `INFER` stays empty rather than
/// filling with zeros). A timed-out request records its terminal
/// `queue_wait` only — everything it did was wait — so the timeout counter and the phase series move together. A failed
/// request records no phases. `serialize` belongs to the front-end
/// ([`Engine::record_serialize`]).
fn complete(shared: &Shared, job: Job, pulled: Instant, batch_form: Duration, outcome: Outcome) {
    let stats = &shared.stats;
    let (out, t, (sub_vertices, sub_edges)) = match outcome {
        Ok(done) => done,
        Err(err) => {
            if err == ServeError::Timeout {
                stats.timed_out.fetch_add(1, Ordering::Relaxed);
                stats.record_phase(Phase::QueueWait, job.accepted.elapsed());
            } else {
                stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            send(job, Err(err));
            return;
        }
    };
    let total = job.accepted.elapsed();
    let queue_wait = pulled.duration_since(job.accepted);
    let phases = [
        (Phase::QueueWait, Some(queue_wait)),
        (Phase::BatchForm, Some(batch_form)),
        (Phase::Sample, t.sample),
        (Phase::Execute, Some(t.execute)),
    ];
    for (phase, dur) in phases {
        if let Some(dur) = dur {
            stats.record_phase(phase, dur);
        }
    }
    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats.latency.record(total);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    if shared.cfg.slow_ms.is_some_and(|slow| ms(total) >= slow) {
        shared.slow_log.push(SlowEntry {
            seq: 0,
            trace_id: job.trace.trace_id,
            sampled: job.trace.sampled,
            model: job.entry.name.clone(),
            node: job.rows[0],
            total_ms: ms(total),
            queue_ms: ms(queue_wait),
            batch_ms: ms(batch_form),
            sample_ms: ms(t.sample.unwrap_or_default()),
            execute_ms: ms(t.execute),
        });
    }
    let results = out
        .into_iter()
        .map(|logits| InferResponse {
            class: argmax(&logits),
            logits,
        })
        .collect();
    send(
        job,
        Ok(SeedsResponse {
            results,
            sub_vertices,
            sub_edges,
        }),
    );
}

/// Answer `job` after it has let go of its registration: a client holding
/// its reply may rely on a model it then replaces being released.
fn send(job: Job, result: Result<SeedsResponse, ServeError>) {
    let reply = Arc::clone(&job.reply);
    drop(job);
    reply.send(result);
}

/// Index of the largest logit (ties break low, matching training's argmax).
fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_gnn::data::SbmTask;
    use fg_gnn::models::build_model;

    /// What a serve process holds for a registered graph is what it charged
    /// at registration — the forward orientation only: no view ever builds
    /// the reverse graph.
    #[test]
    fn graph_charge_is_the_forward_graph_and_serving_never_grows_it() {
        let engine = Engine::new(ServeConfig::default());
        let task = SbmTask::generate(300, 3, 8, 2, 7);
        let forward_only = task.graph.fwd().mem_bytes() + 300 * 4;
        let model = build_model("gat", task.in_dim(), 8, task.num_classes, 3);
        engine.register_model("gat", model, task.graph, task.features);

        let infer = InferRequest {
            model: "gat".into(),
            node: 5,
            deadline: None,
        };
        engine.infer(infer).expect("full view");
        for fanouts in [Some(vec![3, 3]), None] {
            let seeds = InferSeedsRequest {
                model: "gat".into(),
                seeds: vec![5, 200],
                fanouts,
                sample_seed: 1,
                feats: None,
                deadline: None,
            };
            engine.infer_seeds(seeds).expect("seeds");
        }

        let entry = Arc::clone(&engine.shared.models.read().unwrap()["gat"]);
        assert_eq!(entry.data._graph_charge.bytes(), forward_only);
        assert_eq!(entry.data.graph.mem_bytes(), forward_only);
    }
}
