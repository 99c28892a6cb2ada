//! Engine-local serving statistics: lock-free event counters, an exact
//! (ring-buffered) latency recorder with p50/p95/p99 quantiles, always-on
//! **per-phase** latency accounting (queue-wait / batch-form / sample /
//! execute / serialize), a queue-depth gauge, and a bounded slow-request
//! log.
//!
//! These are always on and engine-scoped, and they are the one place each
//! serving event is counted: the `METRICS` / `SLOWLOG` wire commands and
//! the `fgserve bench` report read from here.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::batcher::QueueObserver;

/// Latest-window latency samples (milliseconds). Exact quantiles over up to
/// [`LatencyRecorder::WINDOW`] most recent samples; older samples are
/// overwritten ring-buffer style so memory stays bounded.
pub struct LatencyRecorder {
    ring: Mutex<Ring>,
}

struct Ring {
    samples: Vec<f64>,
    next: usize,
    total: u64,
}

/// Point-in-time quantile summary from a [`LatencyRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Samples ever recorded (not just the retained window).
    pub count: u64,
    /// Median, milliseconds. `NaN` when no samples were recorded.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Mean over the retained window, milliseconds.
    pub mean_ms: f64,
    /// Maximum over the retained window, milliseconds.
    pub max_ms: f64,
}

impl LatencySnapshot {
    const EMPTY: LatencySnapshot = LatencySnapshot {
        count: 0,
        p50_ms: f64::NAN,
        p95_ms: f64::NAN,
        p99_ms: f64::NAN,
        mean_ms: f64::NAN,
        max_ms: f64::NAN,
    };
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Retained sample window.
    pub const WINDOW: usize = 1 << 16;

    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            ring: Mutex::new(Ring {
                samples: Vec::new(),
                next: 0,
                total: 0,
            }),
        }
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        self.record_value(latency.as_secs_f64() * 1e3);
    }

    /// Record one raw sample, in milliseconds.
    pub fn record_value(&self, value: f64) {
        let mut ring = self.ring.lock().unwrap();
        if ring.samples.len() < Self::WINDOW {
            ring.samples.push(value);
        } else {
            let slot = ring.next;
            ring.samples[slot] = value;
            ring.next = (slot + 1) % Self::WINDOW;
        }
        ring.total += 1;
    }

    /// Exact nearest-rank quantiles over the retained window. The window
    /// is copied under the lock and sorted after it is released, so a
    /// scrape never holds up [`LatencyRecorder::record`] for a sort.
    pub fn snapshot(&self) -> LatencySnapshot {
        let (mut sorted, total) = {
            let ring = self.ring.lock().unwrap();
            (ring.samples.clone(), ring.total)
        };
        if sorted.is_empty() {
            return LatencySnapshot::EMPTY;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        LatencySnapshot {
            count: total,
            p50_ms: q(0.50),
            p95_ms: q(0.95),
            p99_ms: q(0.99),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ms: *sorted.last().unwrap(),
        }
    }
}

/// One serve-side phase of a request's life. Which phases a request
/// records is the engine's phase rule (`complete` in `engine.rs`):
/// queue-wait, batch-form and execute always, sample only when that step
/// ran; serialize is recorded by the TCP
/// front-end for inference replies (embedded callers leave it empty).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Accepted into the queue → a worker pulled the job.
    QueueWait,
    /// Job pulled → its view started executing (the deadline check, plus
    /// any configured exec delay). Kept under its historical name; it reads
    /// ≈ 0 now that no job waits for a batch to form.
    BatchForm,
    /// Neighbor sampling + feature gather of a `Sampled`-view request (no
    /// sample for `Full`-view requests).
    Sample,
    /// The job's rows: a row read for a `Full`-view request (plus the
    /// registration's one full-graph pass, for the request that fills it),
    /// or the sampled subgraph's forward pass.
    Execute,
    /// Formatting and writing the reply line (front-end only).
    Serialize,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::QueueWait,
        Phase::BatchForm,
        Phase::Sample,
        Phase::Execute,
        Phase::Serialize,
    ];

    /// Stable snake_case name used in wire lines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::BatchForm => "batch_form",
            Phase::Sample => "sample",
            Phase::Execute => "execute",
            Phase::Serialize => "serialize",
        }
    }
}

/// One entry in the slow-request log: the full phase breakdown of a request
/// whose serve-side latency crossed the configured threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// Monotonic sequence number (1-based) of this slow request.
    pub seq: u64,
    /// Trace id minted for the request (nonzero even when unsampled).
    pub trace_id: u64,
    /// Whether the request was trace-sampled (its spans carry the id).
    pub sampled: bool,
    /// Target model.
    pub model: String,
    /// Requested node.
    pub node: usize,
    /// End-to-end serve-side latency (accept → reply ready), milliseconds.
    pub total_ms: f64,
    /// Queue-wait phase, milliseconds.
    pub queue_ms: f64,
    /// Batch-formation phase, milliseconds.
    pub batch_ms: f64,
    /// Sample phase, milliseconds (zero for full-graph requests).
    pub sample_ms: f64,
    /// Execute phase, milliseconds.
    pub execute_ms: f64,
}

impl SlowEntry {
    /// Render as one `SLOW key=value ...` wire line.
    pub fn to_wire_line(&self) -> String {
        format!(
            "SLOW seq={} trace={:#x} sampled={} model={} node={} total_ms={:.3} \
             queue_ms={:.3} batch_ms={:.3} sample_ms={:.3} execute_ms={:.3}",
            self.seq,
            self.trace_id,
            self.sampled,
            self.model,
            self.node,
            self.total_ms,
            self.queue_ms,
            self.batch_ms,
            self.sample_ms,
            self.execute_ms,
        )
    }
}

/// Bounded ring of [`SlowEntry`]s, newest last. Capacity-bounded so a
/// pathological workload cannot grow the log without limit.
pub struct SlowLog {
    cap: usize,
    next_seq: AtomicU64,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A log retaining at most `cap` most recent entries.
    pub fn new(cap: usize) -> Self {
        SlowLog {
            cap: cap.max(1),
            next_seq: AtomicU64::new(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Append `entry` (its `seq` is assigned here), evicting the oldest
    /// entry when full. Returns the assigned sequence number.
    pub fn push(&self, mut entry: SlowEntry) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        entry.seq = seq;
        let mut entries = self.entries.lock().unwrap();
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(entry);
        seq
    }

    /// Slow requests ever seen (including evicted ones).
    pub fn total(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Retained entries, oldest first, capped at `limit` newest when given.
    pub fn entries(&self, limit: Option<usize>) -> Vec<SlowEntry> {
        let entries = self.entries.lock().unwrap();
        let n = limit.unwrap_or(entries.len()).min(entries.len());
        entries.iter().skip(entries.len() - n).cloned().collect()
    }
}

/// Monotonic event counters plus latency/phase recorders for one
/// engine instance.
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests rejected at admission because the queue was full.
    pub shed: AtomicU64,
    /// Requests rejected at admission by the memory-budget gate.
    pub mem_shed: AtomicU64,
    /// Requests that expired before execution.
    pub timed_out: AtomicU64,
    /// Requests that failed inside inference.
    pub failed: AtomicU64,
    /// Jobs executed (a batch is one job).
    pub batches: AtomicU64,
    /// End-to-end latency of completed requests.
    pub latency: LatencyRecorder,
    /// Per-phase latency recorders, indexed by [`Phase`] discriminant.
    pub phases: [LatencyRecorder; Phase::COUNT],
    /// Items queued right now (fed by the batcher).
    pub queue_depth: AtomicU64,
    /// High-water mark of the queue depth.
    pub queue_depth_max: AtomicU64,
    /// Model registrations that replaced (and released) a previous entry.
    pub models_replaced: AtomicU64,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            mem_shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            latency: LatencyRecorder::new(),
            phases: std::array::from_fn(|_| LatencyRecorder::new()),
            queue_depth: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            models_replaced: AtomicU64::new(0),
        }
    }
}

impl ServeStats {
    /// Record one sample for `phase`.
    pub fn record_phase(&self, phase: Phase, latency: Duration) {
        self.phases[phase as usize].record(latency);
    }

    /// Consistent-enough point-in-time copy (individual loads are relaxed;
    /// totals may be mid-update by at most one in-flight request).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            mem_shed: self.mem_shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            phases: std::array::from_fn(|i| self.phases[i].snapshot()),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            models_replaced: self.models_replaced.load(Ordering::Relaxed),
        }
    }
}

impl QueueObserver for ServeStats {
    fn on_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
        self.queue_depth_max
            .fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// Plain-value copy of [`ServeStats`].
#[derive(Debug, Clone, Copy)]
pub struct StatsSnapshot {
    /// See [`ServeStats::accepted`].
    pub accepted: u64,
    /// See [`ServeStats::completed`].
    pub completed: u64,
    /// See [`ServeStats::shed`].
    pub shed: u64,
    /// See [`ServeStats::mem_shed`].
    pub mem_shed: u64,
    /// See [`ServeStats::timed_out`].
    pub timed_out: u64,
    /// See [`ServeStats::failed`].
    pub failed: u64,
    /// See [`ServeStats::batches`].
    pub batches: u64,
    /// Completed-request latency quantiles.
    pub latency: LatencySnapshot,
    /// Per-phase latency quantiles, indexed by [`Phase`] discriminant.
    pub phases: [LatencySnapshot; Phase::COUNT],
    /// Current batching-queue depth.
    pub queue_depth: u64,
    /// High-water mark of the batching-queue depth.
    pub queue_depth_max: u64,
    /// See [`ServeStats::models_replaced`].
    pub models_replaced: u64,
}

impl StatsSnapshot {
    /// The snapshot for `phase`.
    pub fn phase(&self, phase: Phase) -> &LatencySnapshot {
        &self.phases[phase as usize]
    }
}

/// Connection-level counters for the TCP front-end: admission, protocol
/// mix, read timeouts and per-frame rejects. Owned by the engine (so
/// `METRICS` can render them from any front-end), written by the server's
/// acceptor and connection threads.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Connections accepted (post admission gate).
    pub accepted: AtomicU64,
    /// Connections open right now.
    pub active: AtomicU64,
    /// Connections closed (by either side).
    pub closed: AtomicU64,
    /// Connections refused at accept because `max_conns` were already
    /// open.
    pub admission_shed: AtomicU64,
    /// Connections closed because an incomplete message sat in their
    /// buffer past the partial-message deadline.
    pub read_timeouts: AtomicU64,
    /// Connections negotiated onto the binary frame protocol.
    pub binary_conns: AtomicU64,
    /// Connections negotiated onto the text protocol.
    pub text_conns: AtomicU64,
    /// Malformed binary frames answered with a typed error (connection
    /// kept).
    pub bad_frames: AtomicU64,
    /// Malformed text lines answered with `ERR - bad-request` (connection
    /// kept).
    pub bad_lines: AtomicU64,
}

impl ConnStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            admission_shed: self.admission_shed.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            binary_conns: self.binary_conns.load(Ordering::Relaxed),
            text_conns: self.text_conns.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            bad_lines: self.bad_lines.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ConnStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// See [`ConnStats::accepted`].
    pub accepted: u64,
    /// See [`ConnStats::active`].
    pub active: u64,
    /// See [`ConnStats::closed`].
    pub closed: u64,
    /// See [`ConnStats::admission_shed`].
    pub admission_shed: u64,
    /// See [`ConnStats::read_timeouts`].
    pub read_timeouts: u64,
    /// See [`ConnStats::binary_conns`].
    pub binary_conns: u64,
    /// See [`ConnStats::text_conns`].
    pub text_conns: u64,
    /// See [`ConnStats::bad_frames`].
    pub bad_frames: u64,
    /// See [`ConnStats::bad_lines`].
    pub bad_lines: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_reports_nan() {
        let snap = LatencyRecorder::new().snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.p50_ms.is_nan());
        assert!(snap.max_ms.is_nan());
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let rec = LatencyRecorder::new();
        // 1..=100 ms
        for i in 1..=100u64 {
            rec.record(Duration::from_millis(i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.count, 100);
        assert!((snap.p50_ms - 50.0).abs() < 1e-9);
        assert!((snap.p95_ms - 95.0).abs() < 1e-9);
        assert!((snap.p99_ms - 99.0).abs() < 1e-9);
        assert!((snap.max_ms - 100.0).abs() < 1e-9);
        assert!((snap.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn slow_log_bounds_and_orders_entries() {
        let log = SlowLog::new(3);
        for node in 0..5usize {
            log.push(SlowEntry {
                seq: 0,
                trace_id: 0xabc,
                sampled: false,
                model: "gcn".into(),
                node,
                total_ms: 12.5,
                queue_ms: 9.0,
                batch_ms: 0.5,
                sample_ms: 0.0,
                execute_ms: 3.0,
            });
        }
        assert_eq!(log.total(), 5);
        let entries = log.entries(None);
        assert_eq!(entries.len(), 3, "bounded at capacity");
        assert_eq!(entries[0].seq, 3, "oldest retained entry");
        assert_eq!(entries[2].seq, 5, "newest last");
        let last_two = log.entries(Some(2));
        assert_eq!(last_two[0].seq, 4);
        let line = entries[2].to_wire_line();
        assert!(line.starts_with("SLOW seq=5 trace=0xabc"), "{line}");
        assert!(line.contains("queue_ms=9.000"), "{line}");
    }

    #[test]
    fn queue_observer_tracks_depth() {
        let stats = ServeStats::default();
        stats.on_depth(3);
        stats.on_depth(9);
        stats.on_depth(1);
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_max, 9);
    }
}
