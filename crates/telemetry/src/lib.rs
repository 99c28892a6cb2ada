//! # fg-telemetry — instrumentation for the FeatGraph stack
//!
//! Hierarchical wall-clock spans, a typed counter/gauge registry, and
//! pluggable sinks (in-memory aggregation, JSON lines, Chrome
//! `trace_event`). Kernels, the autotuner, and the trainer call the same
//! three primitives everywhere:
//!
//! ```
//! use fg_telemetry::{span, counter_add, Counter};
//!
//! fg_telemetry::set_enabled(true);
//! {
//!     let _s = span!("spmm/partition", "part={}", 3);
//!     counter_add(Counter::EdgesProcessed, 1024);
//! }
//! fg_telemetry::flush();
//! ```
//!
//! ## Cost model of the disabled path
//!
//! Instrumentation is always compiled in and off at startup; [`set_enabled`]
//! is the one switch. While [`enabled()`] is false, `span!` performs one
//! relaxed atomic load and returns an inert guard: **no clock is read, no
//! format string is evaluated, no lock is taken**. `counter_add`,
//! `gauge_set` and `histogram_record` are the same single relaxed load.
//! This keeps `fgbench` numbers honest while letting `fgbench --trace` flip
//! instrumentation on without a rebuild. Memory accounting ([`mem_charge`]
//! and friends) is the exception: it ignores the flag, see `mem.rs`.
//!
//! Span args (`span!("name", "fmt {}", x)`) are formatted only after the
//! enabled check passes, so argument construction is also free when off.
//!
//! ## Sinks
//!
//! Sinks receive completed [`SpanRecord`]s and gauge updates, and a final
//! [`flush()`]:
//!
//! - [`MemorySink`] aggregates per-span-name count/total/min/max for
//!   in-process assertions and the `fgbench --metrics` summary table.
//! - [`ChromeTraceSink`] buffers everything and writes a Chrome
//!   `trace_event` JSON file on flush — open it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>. Spans become complete `"X"` events (one
//!   lane per OS thread); the counter registry is emitted as `"C"` events.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Typed counter / gauge registry.
// ---------------------------------------------------------------------------

/// Monotonic `u64` counters, one slot per variant, summed across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Estimated bytes read + written by kernel inner loops.
    BytesMoved,
    /// Edge visits, counting each feature-tile pass over an edge once.
    EdgesProcessed,
    /// Graph partitions processed (per kernel run).
    Partitions,
    /// Feature-dimension tiles processed (per kernel run).
    FeatureTiles,
    /// Tree-reduction depth summed over GPU SDDMM launches.
    TreeReductionDepth,
    /// Autotuner configurations measured.
    AutotuneTrials,
    /// GPU simulator: ALU operations (bridged from `CostTally`).
    GpuAluOps,
    /// GPU simulator: issued instructions.
    GpuIssueOps,
    /// GPU simulator: global-memory transactions.
    GpuGlobalTransactions,
    /// GPU simulator: global-memory bytes.
    GpuGlobalBytes,
    /// GPU simulator: shared-memory accesses.
    GpuSharedAccesses,
    /// GPU simulator: atomic operations.
    GpuAtomicOps,
    /// GPU simulator: serialized atomic conflicts.
    GpuAtomicConflicts,
    /// GPU simulator: block-wide barriers.
    GpuBarriers,
    /// Kernel plans compiled (CPU/GPU SpMM + SDDMM). Plan reuse keeps this
    /// flat while request/run counters climb.
    KernelCompiles,
    /// `available_parallelism` probes that errored and fell back to one
    /// thread (recorded at most once per process; see
    /// `featgraph::CpuSpmmOptions::auto` and its SDDMM twin).
    ParallelismFallbacks,
}

impl Counter {
    pub const ALL: [Counter; 16] = [
        Counter::BytesMoved,
        Counter::EdgesProcessed,
        Counter::Partitions,
        Counter::FeatureTiles,
        Counter::TreeReductionDepth,
        Counter::AutotuneTrials,
        Counter::GpuAluOps,
        Counter::GpuIssueOps,
        Counter::GpuGlobalTransactions,
        Counter::GpuGlobalBytes,
        Counter::GpuSharedAccesses,
        Counter::GpuAtomicOps,
        Counter::GpuAtomicConflicts,
        Counter::GpuBarriers,
        Counter::KernelCompiles,
        Counter::ParallelismFallbacks,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::BytesMoved => "bytes_moved",
            Counter::EdgesProcessed => "edges_processed",
            Counter::Partitions => "partitions",
            Counter::FeatureTiles => "feature_tiles",
            Counter::TreeReductionDepth => "tree_reduction_depth",
            Counter::AutotuneTrials => "autotune_trials",
            Counter::GpuAluOps => "gpu_alu_ops",
            Counter::GpuIssueOps => "gpu_issue_ops",
            Counter::GpuGlobalTransactions => "gpu_global_transactions",
            Counter::GpuGlobalBytes => "gpu_global_bytes",
            Counter::GpuSharedAccesses => "gpu_shared_accesses",
            Counter::GpuAtomicOps => "gpu_atomic_ops",
            Counter::GpuAtomicConflicts => "gpu_atomic_conflicts",
            Counter::GpuBarriers => "gpu_barriers",
            Counter::KernelCompiles => "kernel_compiles",
            Counter::ParallelismFallbacks => "parallelism_fallbacks",
        }
    }
}

/// Last-write-wins `f64` gauges; each update is also forwarded to sinks so
/// exporters can plot the value over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Training loss, set once per epoch by the trainer.
    Loss,
    /// Validation accuracy, set once per epoch by the trainer.
    ValAccuracy,
    /// Best seconds seen so far by the CPU autotuner.
    AutotuneBestSeconds,
    /// Global-memory coalescing efficiency of the last GPU launch.
    GpuCoalescingEfficiency,
}

impl Gauge {
    pub const ALL: [Gauge; 4] = [
        Gauge::Loss,
        Gauge::ValAccuracy,
        Gauge::AutotuneBestSeconds,
        Gauge::GpuCoalescingEfficiency,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::Loss => "loss",
            Gauge::ValAccuracy => "val_accuracy",
            Gauge::AutotuneBestSeconds => "autotune_best_seconds",
            Gauge::GpuCoalescingEfficiency => "gpu_coalescing_efficiency",
        }
    }
}

/// Log-bucketed `u64` distributions, one slot per variant, merged across
/// threads. Recording is lock-free: one bucket increment plus count/sum/
/// min/max atomics per sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Histogram {
    /// Edges per graph partition processed by the CPU SpMM template (one
    /// sample per partition per tile pass) — the load-imbalance signal.
    SpmmPartitionEdges,
    /// Edges per parallel chunk processed by the CPU SDDMM template.
    SddmmChunkEdges,
}

impl Histogram {
    pub const ALL: [Histogram; 2] = [Histogram::SpmmPartitionEdges, Histogram::SddmmChunkEdges];

    pub fn name(self) -> &'static str {
        match self {
            Histogram::SpmmPartitionEdges => "spmm_partition_edges",
            Histogram::SddmmChunkEdges => "sddmm_chunk_edges",
        }
    }
}

/// Number of power-of-two buckets per histogram: bucket 0 holds zeros,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Aggregated view of one histogram, taken by [`histogram_snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values (exact).
    pub sum: u64,
    /// Smallest recorded value (exact).
    pub min: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) from the log buckets: the
    /// midpoint of the bucket holding the q-th sample, clamped to the exact
    /// min/max so single-bucket distributions stay tight.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let estimate = if i == 0 {
                    0
                } else {
                    // midpoint of [2^(i-1), 2^i)
                    (1u64 << (i - 1)) + (1u64 << (i - 1)) / 2
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Max-over-mean load-imbalance factor (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean <= 0.0 {
            1.0
        } else {
            self.max as f64 / mean
        }
    }
}

#[inline]
fn histogram_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

// ---------------------------------------------------------------------------
// Request-scoped trace context (plain data, so callers can mint and carry
// trace ids while span recording is off, e.g. for slow-request logs).
// ---------------------------------------------------------------------------

/// Identity and sampling decision for one traced request.
///
/// Minted at a system edge (e.g. the `fgserve` TCP front-end) by a
/// [`TraceSampler`] and carried alongside the request through queues and
/// worker pools. Entering a [`TraceScope`] on a thread makes every span
/// opened on that thread (while the scope is live) carry `trace_id`, so one
/// request yields one coherent trace tree across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Nonzero process-unique trace identifier.
    pub trace_id: u64,
    /// Whether spans should be attributed to this trace. Unsampled requests
    /// keep their id (useful for logs) but never tag spans.
    pub sampled: bool,
}

/// Deterministic head sampler: every `1/every`-th minted context is
/// sampled (`every == 0` disables sampling entirely). Ids are unique per
/// sampler and scrambled so they look random in trace viewers while staying
/// reproducible run-to-run.
pub struct TraceSampler {
    every: u64,
    count: AtomicU64,
}

impl TraceSampler {
    /// Sample one in `every` requests (0 = never).
    pub fn new(every: u64) -> Self {
        TraceSampler {
            every,
            count: AtomicU64::new(0),
        }
    }

    /// Mint the next context. The first mint is sampled (when `every > 0`)
    /// so short smoke runs always produce at least one trace.
    pub fn mint(&self) -> TraceContext {
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id: splitmix64(n).max(1),
            sampled: self.every > 0 && n.is_multiple_of(self.every),
        }
    }
}

/// SplitMix64 finalizer: bijective scramble of the sequence counter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Trace id attributed to spans opened on the current thread (0 = none).
#[inline]
pub fn current_trace_id() -> u64 {
    live::current_trace()
}

/// Timestamp on the process telemetry clock, for [`emit_span`]. Zero when
/// telemetry is disabled.
#[inline]
pub fn timestamp_ns() -> u64 {
    if enabled() {
        live::now_ns()
    } else {
        0
    }
}

/// Record an externally-timed span (one whose start and end were observed
/// on different threads, e.g. queue wait between a producer and a worker).
/// The span is attributed to the calling thread's lane and to `trace_id`.
/// No-op when telemetry is disabled.
pub fn emit_span(
    name: &'static str,
    args: Option<String>,
    start_ns: u64,
    dur_ns: u64,
    trace_id: u64,
) {
    if enabled() {
        live::dispatch_span(&live::SpanRecord {
            name,
            args,
            tid: live::thread_id(),
            start_ns,
            dur_ns,
            depth: 0,
            trace_id,
        });
    }
}

// ---------------------------------------------------------------------------
// Runtime enable flag.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on or off at runtime. Off by default.
#[inline]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Registry storage, clock, trace scopes, sinks and span guards.
// ---------------------------------------------------------------------------

mod live {
    use super::{enabled, Counter, Gauge};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    // -- registry ----------------------------------------------------------

    pub(super) static COUNTERS: [AtomicU64; Counter::ALL.len()] =
        [const { AtomicU64::new(0) }; Counter::ALL.len()];

    // Gauges store f64 bits; the companion flag records whether the gauge
    // was ever set so snapshots can skip untouched ones.
    pub(super) static GAUGES: [AtomicU64; Gauge::ALL.len()] =
        [const { AtomicU64::new(0) }; Gauge::ALL.len()];
    pub(super) static GAUGES_SET: [AtomicU64; Gauge::ALL.len()] =
        [const { AtomicU64::new(0) }; Gauge::ALL.len()];

    // Histograms: per-variant log buckets plus exact count/sum/min/max.
    // All plain atomics, so concurrent recorders never contend on a lock.
    pub(super) struct HistSlot {
        pub(super) buckets: [AtomicU64; crate::HISTOGRAM_BUCKETS],
        pub(super) count: AtomicU64,
        pub(super) sum: AtomicU64,
        pub(super) min: AtomicU64,
        pub(super) max: AtomicU64,
    }

    impl HistSlot {
        const fn new() -> Self {
            Self {
                buckets: [const { AtomicU64::new(0) }; crate::HISTOGRAM_BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }
        }

        pub(super) fn reset(&self) {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.count.store(0, Ordering::Relaxed);
            self.sum.store(0, Ordering::Relaxed);
            self.min.store(u64::MAX, Ordering::Relaxed);
            self.max.store(0, Ordering::Relaxed);
        }
    }

    pub(super) static HISTOGRAMS: [HistSlot; super::Histogram::ALL.len()] =
        [const { HistSlot::new() }; super::Histogram::ALL.len()];

    // -- clock & thread ids ------------------------------------------------

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    pub(super) fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    static NEXT_TID: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
        static DEPTH: Cell<u32> = const { Cell::new(0) };
        static TRACE: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn current_trace() -> u64 {
        TRACE.with(|t| t.get())
    }

    /// RAII guard making spans opened on this thread carry a trace id.
    /// Inert unless telemetry is enabled *and* the context is sampled.
    /// Scopes nest: dropping restores the previous thread trace id.
    pub struct TraceScope {
        prev: Option<u64>,
    }

    impl TraceScope {
        /// Enter `ctx` on the current thread.
        pub fn enter(ctx: super::TraceContext) -> Self {
            if !enabled() || !ctx.sampled {
                return TraceScope { prev: None };
            }
            let prev = TRACE.with(|t| {
                let p = t.get();
                t.set(ctx.trace_id);
                p
            });
            TraceScope { prev: Some(prev) }
        }
    }

    impl Drop for TraceScope {
        fn drop(&mut self) {
            if let Some(prev) = self.prev {
                TRACE.with(|t| t.set(prev));
            }
        }
    }

    pub(super) fn thread_id() -> u64 {
        TID.with(|t| {
            let v = t.get();
            if v != 0 {
                v
            } else {
                let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                t.set(v);
                v
            }
        })
    }

    // -- sinks -------------------------------------------------------------

    /// One completed span, delivered to sinks when its guard drops.
    #[derive(Clone, Debug)]
    pub struct SpanRecord {
        /// Static span name, slash-separated by convention (`"spmm/run"`).
        pub name: &'static str,
        /// Optional formatted arguments.
        pub args: Option<String>,
        /// Sequential id of the OS thread the span ran on (1-based).
        pub tid: u64,
        /// Start time in nanoseconds since the process telemetry epoch.
        pub start_ns: u64,
        /// Wall-clock duration in nanoseconds.
        pub dur_ns: u64,
        /// Nesting depth on its thread at entry (0 = top level).
        pub depth: u32,
        /// Trace id from the [`TraceScope`] live at span entry (0 =
        /// untraced).
        pub trace_id: u64,
    }

    /// Receiver for telemetry events. Implementations must be `Send + Sync`;
    /// callbacks may arrive from any instrumented thread.
    pub trait Sink: Send + Sync {
        fn on_span(&self, record: &SpanRecord);
        /// A gauge was updated (timestamped for over-time plotting).
        fn on_gauge(&self, gauge: Gauge, value: f64, ts_ns: u64) {
            let _ = (gauge, value, ts_ns);
        }
        /// Final flush: write buffered output now.
        fn on_flush(&self) {}
    }

    static SINKS: Mutex<Vec<Arc<dyn Sink>>> = Mutex::new(Vec::new());
    // Fast-path guard so span drops skip the mutex when nobody listens.
    pub(super) static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn dispatch_span(record: &SpanRecord) {
        if SINK_COUNT.load(Ordering::Relaxed) == 0 {
            return;
        }
        for sink in SINKS.lock().unwrap().iter() {
            sink.on_span(record);
        }
    }

    pub(super) fn dispatch_gauge(gauge: Gauge, value: f64, ts_ns: u64) {
        if SINK_COUNT.load(Ordering::Relaxed) == 0 {
            return;
        }
        for sink in SINKS.lock().unwrap().iter() {
            sink.on_gauge(gauge, value, ts_ns);
        }
    }

    /// Register a sink. Keep your own `Arc` clone to query it later.
    pub fn add_sink(sink: Arc<dyn Sink>) {
        let mut sinks = SINKS.lock().unwrap();
        sinks.push(sink);
        SINK_COUNT.store(sinks.len(), Ordering::Relaxed);
    }

    /// Drop all registered sinks (flushing none).
    pub fn clear_sinks() {
        let mut sinks = SINKS.lock().unwrap();
        sinks.clear();
        SINK_COUNT.store(0, Ordering::Relaxed);
    }

    /// Ask every sink to write out buffered data.
    pub fn flush() {
        for sink in SINKS.lock().unwrap().iter() {
            sink.on_flush();
        }
    }

    // -- spans -------------------------------------------------------------

    /// RAII guard created by [`span!`](crate::span); records a span from
    /// construction to drop. Inert (a `None`) when telemetry is disabled.
    pub struct SpanGuard(Option<ActiveSpan>);

    struct ActiveSpan {
        name: &'static str,
        args: Option<String>,
        start_ns: u64,
        depth: u32,
        trace_id: u64,
    }

    impl SpanGuard {
        #[doc(hidden)]
        pub fn begin(name: &'static str, args: Option<String>) -> Self {
            if !enabled() {
                return SpanGuard(None);
            }
            let depth = DEPTH.with(|d| {
                let v = d.get();
                d.set(v + 1);
                v
            });
            SpanGuard(Some(ActiveSpan {
                name,
                args,
                start_ns: now_ns(),
                depth,
                trace_id: current_trace(),
            }))
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(span) = self.0.take() else { return };
            let end_ns = now_ns();
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            dispatch_span(&SpanRecord {
                name: span.name,
                args: span.args,
                tid: thread_id(),
                start_ns: span.start_ns,
                dur_ns: end_ns.saturating_sub(span.start_ns),
                depth: span.depth,
                trace_id: span.trace_id,
            });
        }
    }
}

pub use live::{add_sink, clear_sinks, flush, Sink, SpanGuard, SpanRecord, TraceScope};

/// Add `delta` to a counter. One relaxed atomic load when disabled.
#[inline]
pub fn counter_add(counter: Counter, delta: u64) {
    if enabled() {
        live::COUNTERS[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Set a gauge (last write wins) and notify sinks with a timestamp.
#[inline]
pub fn gauge_set(gauge: Gauge, value: f64) {
    if enabled() {
        live::GAUGES[gauge as usize].store(value.to_bits(), Ordering::Relaxed);
        live::GAUGES_SET[gauge as usize].store(1, Ordering::Relaxed);
        live::dispatch_gauge(gauge, value, live::now_ns());
    }
}

/// Record one sample into a histogram. Lock-free; one relaxed atomic load
/// when disabled.
#[inline]
pub fn histogram_record(histogram: Histogram, value: u64) {
    if enabled() {
        let slot = &live::HISTOGRAMS[histogram as usize];
        slot.buckets[histogram_bucket(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.min.fetch_min(value, Ordering::Relaxed);
        slot.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Aggregated view of one histogram; `None` until it records a sample.
pub fn histogram_snapshot(histogram: Histogram) -> Option<HistogramSummary> {
    let slot = &live::HISTOGRAMS[histogram as usize];
    let count = slot.count.load(Ordering::Relaxed);
    if count == 0 {
        return None;
    }
    Some(HistogramSummary {
        count,
        sum: slot.sum.load(Ordering::Relaxed),
        min: slot.min.load(Ordering::Relaxed),
        max: slot.max.load(Ordering::Relaxed),
        buckets: slot
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    })
}

/// Snapshot of every histogram that recorded at least one sample, sorted by
/// name.
pub fn histograms_snapshot() -> Vec<(&'static str, HistogramSummary)> {
    let mut out: Vec<_> = Histogram::ALL
        .iter()
        .filter_map(|&h| histogram_snapshot(h).map(|s| (h.name(), s)))
        .collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Current value of a counter.
#[inline]
pub fn counter_value(counter: Counter) -> u64 {
    live::COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Snapshot of all counters with a non-zero value, sorted by name so metric
/// tables and JSON reports are byte-stable across runs and thread schedules.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<_> = Counter::ALL
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .filter(|&(_, v)| v != 0)
        .collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Snapshot of all gauges that have been set at least once, sorted by name.
pub fn gauges_snapshot() -> Vec<(&'static str, f64)> {
    let mut out: Vec<_> = Gauge::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| live::GAUGES_SET[i].load(Ordering::Relaxed) != 0)
        .map(|(i, &g)| {
            (
                g.name(),
                f64::from_bits(live::GAUGES[i].load(Ordering::Relaxed)),
            )
        })
        .collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Zero every counter, mark every gauge unset, and clear every histogram
/// (sinks are untouched).
pub fn reset_metrics() {
    for slot in &live::COUNTERS {
        slot.store(0, Ordering::Relaxed);
    }
    for (value, set) in live::GAUGES.iter().zip(&live::GAUGES_SET) {
        value.store(0, Ordering::Relaxed);
        set.store(0, Ordering::Relaxed);
    }
    for slot in &live::HISTOGRAMS {
        slot.reset();
    }
}

/// Open a timed span that ends when the returned guard drops.
///
/// `span!("name")` or `span!("name", "fmt {}", args...)`. The format
/// arguments are evaluated only when telemetry is enabled at runtime.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::begin($name, ::core::option::Option::None)
    };
    ($name:expr, $($fmt:tt)+) => {
        $crate::SpanGuard::begin(
            $name,
            if $crate::enabled() {
                ::core::option::Option::Some(::std::format!($($fmt)+))
            } else {
                ::core::option::Option::None
            },
        )
    };
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

mod sinks;

pub use sinks::{ChromeTraceSink, MemorySink};

mod export;

pub use export::prometheus_write;

mod mem;

pub use mem::{
    current_component, mem_charge, mem_credit, mem_current, mem_peak, mem_snapshot,
    mem_total_current, mem_total_peak, read_rss, MemCharge, MemComponent, MemComponentSnapshot,
    MemScope, RssReading,
};

// Serialize tests (across modules) that touch the global registry/flag.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::TEST_LOCK as LOCK;

    #[test]
    fn disabled_spans_and_counters_do_nothing() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(false);
        reset_metrics();
        {
            let _s = span!("noop", "never formatted {}", 1);
            counter_add(Counter::EdgesProcessed, 7);
            gauge_set(Gauge::Loss, 1.0);
        }
        assert_eq!(counter_value(Counter::EdgesProcessed), 0);
        assert!(gauges_snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_snapshot_when_enabled() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        counter_add(Counter::Partitions, 4);
        counter_add(Counter::Partitions, 2);
        gauge_set(Gauge::Loss, 0.25);
        assert_eq!(counter_value(Counter::Partitions), 6);
        assert_eq!(counters_snapshot(), vec![("partitions", 6)]);
        assert_eq!(gauges_snapshot(), vec![("loss", 0.25)]);
        set_enabled(false);
        reset_metrics();
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        // enum order differs from name order for these pairs
        counter_add(Counter::Partitions, 1);
        counter_add(Counter::EdgesProcessed, 1);
        counter_add(Counter::BytesMoved, 1);
        gauge_set(Gauge::Loss, 1.0);
        gauge_set(Gauge::AutotuneBestSeconds, 2.0);
        let counters = counters_snapshot();
        let names: Vec<_> = counters.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let gauges = gauges_snapshot();
        assert_eq!(gauges[0].0, "autotune_best_seconds");
        assert_eq!(gauges[1].0, "loss");
        set_enabled(false);
        reset_metrics();
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        assert!(histogram_snapshot(Histogram::SpmmPartitionEdges).is_none());
        for v in [0u64, 1, 7, 8, 1000] {
            histogram_record(Histogram::SpmmPartitionEdges, v);
        }
        let s = histogram_snapshot(Histogram::SpmmPartitionEdges).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1016);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 203.2).abs() < 1e-9);
        assert!(s.quantile(1.0) <= 1000);
        assert!(s.imbalance() > 1.0);
        let all = histograms_snapshot();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "spmm_partition_edges");
        set_enabled(false);
        reset_metrics();
        assert!(histogram_snapshot(Histogram::SpmmPartitionEdges).is_none());
    }

    #[test]
    fn histogram_disabled_is_a_noop() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(false);
        reset_metrics();
        histogram_record(Histogram::SddmmChunkEdges, 42);
        assert!(histogram_snapshot(Histogram::SddmmChunkEdges).is_none());
        assert!(histograms_snapshot().is_empty());
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        // 90 small values, 10 large ones
        for _ in 0..90 {
            histogram_record(Histogram::SddmmChunkEdges, 10);
        }
        for _ in 0..10 {
            histogram_record(Histogram::SddmmChunkEdges, 10_000);
        }
        let s = histogram_snapshot(Histogram::SddmmChunkEdges).unwrap();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!(p50 < 100, "p50 {p50}");
        assert!(p99 > 1000, "p99 {p99}");
        set_enabled(false);
        reset_metrics();
    }
}
