//! Bounded multi-producer batching queue, built on `Mutex` + `Condvar` (no
//! async runtime). Every item says at [`Batcher::push`] whether it
//! **coalesces** — whether executing it together with its queue neighbours
//! shares work — and that one bit decides whether it waits.
//!
//! Coalescing items linger so a batch can form. Consumers blocked in
//! [`Batcher::next_batch`] get them when either
//!
//! * **size trigger** — at least `max_batch` coalescing items are queued
//!   (fires immediately, preempting any pending deadline), or
//! * **deadline trigger** — the *oldest* coalescing item has waited
//!   `max_delay` (a partial batch is dispatched rather than stalling the head
//!   request; with `max_delay` zero a backlog still leaves as one batch).
//!
//! A non-coalescing item has nothing to wait for: it is ripe the moment it is
//! pushed and goes to the next free consumer as a batch of one. It never
//! rides in a coalescing batch and does not count towards (or cut short) the
//! lingering items' triggers. When both kinds are ripe the one whose head has
//! waited longest goes first, so neither starves the other.
//!
//! The queue is bounded: once `capacity` items of either kind are waiting,
//! `push` fails fast with [`PushError::Overloaded`] instead of blocking the
//! producer — that is the overload-shedding contract the engine surfaces as a
//! typed error. [`Batcher::close`] initiates a graceful drain: queued items
//! of both kinds are still handed out, and `next_batch` returns `None` only
//! once the queue is empty.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fg_telemetry::{gauge_set, histogram_record, Gauge, Histogram};

/// Observer of queue dynamics, called by the batcher with its lock held —
/// implementations must be cheap and must not call back into the batcher.
/// This is how always-on engine stats see depth/batch-size without the
/// batcher depending on the stats types (or on telemetry being compiled
/// in).
pub trait QueueObserver: Send + Sync {
    /// Queue depth changed (after a push or a batch take).
    fn on_depth(&self, _depth: usize) {}
    /// A batch of `size` items was dispatched.
    fn on_batch(&self, _size: usize) {}
}

/// Dispatch and capacity knobs for a [`Batcher`].
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum queued (not yet dispatched) items before `push` sheds.
    pub capacity: usize,
    /// Size trigger: dispatch as soon as this many coalescing items are
    /// queued.
    pub max_batch: usize,
    /// Deadline trigger: dispatch a partial batch once the oldest coalescing
    /// item has waited this long.
    pub max_delay: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            capacity: 1024,
            max_batch: 32,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Why a [`Batcher::push`] was rejected. The item is handed back so the
/// caller can reply to it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the item was shed.
    Overloaded(T),
    /// The batcher was closed; no new work is accepted.
    Closed(T),
}

struct Entry<T> {
    enqueued: Instant,
    item: T,
}

struct State<T> {
    /// Coalescing items, waiting out the size/deadline trigger together.
    lingering: VecDeque<Entry<T>>,
    /// Non-coalescing items, each ripe since it was pushed.
    solo: VecDeque<Entry<T>>,
    closed: bool,
}

impl<T> State<T> {
    fn depth(&self) -> usize {
        self.lingering.len() + self.solo.len()
    }
}

/// See the [module docs](self).
pub struct Batcher<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    cfg: BatcherConfig,
    observer: Option<Arc<dyn QueueObserver>>,
}

impl<T> Batcher<T> {
    /// Create an empty batcher. `max_batch` and `capacity` are clamped to
    /// at least 1.
    pub fn new(cfg: BatcherConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Like [`new`](Self::new), with a [`QueueObserver`] notified on every
    /// depth change and batch dispatch.
    pub fn with_observer(cfg: BatcherConfig, observer: Arc<dyn QueueObserver>) -> Self {
        Self::build(cfg, Some(observer))
    }

    fn build(cfg: BatcherConfig, observer: Option<Arc<dyn QueueObserver>>) -> Self {
        let cfg = BatcherConfig {
            capacity: cfg.capacity.max(1),
            max_batch: cfg.max_batch.max(1),
            max_delay: cfg.max_delay,
        };
        Batcher {
            state: Mutex::new(State {
                lingering: VecDeque::new(),
                solo: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cfg,
            observer,
        }
    }

    /// Enqueue one item, failing fast when full or closed. `coalesces` says
    /// whether the item shares work with other coalescing items when they
    /// are dispatched together (it then lingers for the size/deadline
    /// trigger) or not (it is dispatched alone, as soon as a consumer is
    /// free).
    pub fn push(&self, item: T, coalesces: bool) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.depth() >= self.cfg.capacity {
            return Err(PushError::Overloaded(item));
        }
        let entry = Entry {
            enqueued: Instant::now(),
            item,
        };
        if coalesces {
            st.lingering.push_back(entry);
        } else {
            st.solo.push_back(entry);
        }
        self.note_depth(&st);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a batch is ready — a non-coalescing item on its own, or
    /// the lingering items at their size or deadline trigger — or the
    /// batcher is closed *and* drained, in which case `None` is returned.
    /// Batches never exceed `max_batch` items and preserve arrival order.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut st = self.state.lock().unwrap();
        loop {
            // When the lingering items' trigger fires (now, if it has).
            let linger_head = st.lingering.front().map(|head| head.enqueued);
            let linger_due = linger_head.map(|enqueued| {
                if st.lingering.len() >= self.cfg.max_batch || st.closed {
                    enqueued
                } else {
                    enqueued + self.cfg.max_delay
                }
            });
            let linger_ripe = linger_due.is_some_and(|due| Instant::now() >= due);
            let solo_head = st.solo.front().map(|head| head.enqueued);
            // Among ripe work the head that has waited longest goes first.
            let take_solo = match (solo_head, linger_head) {
                (Some(solo), Some(linger)) if linger_ripe => solo < linger,
                (Some(_), _) => true,
                (None, _) => false,
            };
            if take_solo {
                let solo = st.solo.pop_front().expect("solo head seen above");
                return Some(self.dispatch(&st, vec![solo.item]));
            }
            if linger_ripe {
                let n = st.lingering.len().min(self.cfg.max_batch);
                let batch = st.lingering.drain(..n).map(|e| e.item).collect();
                return Some(self.dispatch(&st, batch));
            }
            if st.closed {
                return None;
            }
            // Sleep until the lingering deadline, a push, or close —
            // wakeups re-evaluate every condition above.
            st = match linger_due {
                Some(due) => {
                    let timeout = due.saturating_duration_since(Instant::now());
                    self.ready.wait_timeout(st, timeout).unwrap().0
                }
                None => self.ready.wait(st).unwrap(),
            };
        }
    }

    /// Account for a batch just taken out of `st` and hand it on.
    fn dispatch(&self, st: &State<T>, batch: Vec<T>) -> Vec<T> {
        self.note_depth(st);
        histogram_record(Histogram::ServeBatchSize, batch.len() as u64);
        if let Some(obs) = &self.observer {
            obs.on_batch(batch.len());
        }
        if st.depth() > 0 {
            // Leftover items may already be ripe; hand them to another
            // waiting worker instead of letting them ride out a fresh
            // timeout.
            self.ready.notify_one();
        }
        batch
    }

    fn note_depth(&self, st: &State<T>) {
        gauge_set(Gauge::ServeQueueDepth, st.depth() as f64);
        if let Some(obs) = &self.observer {
            obs.on_depth(st.depth());
        }
    }

    /// Stop accepting new items and wake every waiter. Already-queued items
    /// are still dispatched (graceful drain).
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (excludes dispatched batches).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().depth()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn cfg(capacity: usize, max_batch: usize, max_delay_ms: u64) -> BatcherConfig {
        BatcherConfig {
            capacity,
            max_batch,
            max_delay: Duration::from_millis(max_delay_ms),
        }
    }

    #[test]
    fn deadline_trigger_fires_with_partial_batch() {
        let b = Batcher::new(cfg(64, 16, 20));
        b.push(1u32, true).unwrap();
        b.push(2, true).unwrap();
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch, vec![1, 2], "partial batch dispatched in order");
        assert!(
            waited >= Duration::from_millis(10),
            "returned after {waited:?}, before the deadline could fire"
        );
    }

    #[test]
    fn size_trigger_preempts_deadline() {
        // With an hour-long deadline only the size trigger can fire.
        let b = Arc::new(Batcher::new(cfg(64, 4, 3_600_000)));
        let consumer = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.next_batch())
        };
        for i in 0..4u32 {
            b.push(i, true).unwrap();
        }
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batches_never_exceed_max_batch() {
        let b = Batcher::new(cfg(64, 3, 0));
        for i in 0..8u32 {
            b.push(i, true).unwrap();
        }
        let mut seen = Vec::new();
        while seen.len() < 8 {
            let batch = b.next_batch().unwrap();
            assert!(batch.len() <= 3);
            seen.extend(batch);
        }
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shedding_kicks_in_at_capacity() {
        let b = Batcher::new(cfg(3, 8, 1_000));
        for i in 0..3u32 {
            b.push(i, true).unwrap();
        }
        match b.push(99, true) {
            Err(PushError::Overloaded(item)) => assert_eq!(item, 99),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Draining makes room again.
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 3);
        b.push(99, true).unwrap();
    }

    #[test]
    fn close_drains_then_returns_none() {
        let b = Batcher::new(cfg(64, 2, 3_600_000));
        for i in 0..5u32 {
            b.push(i, true).unwrap();
        }
        b.close();
        assert!(matches!(b.push(6, true), Err(PushError::Closed(6))));
        let mut seen = Vec::new();
        while let Some(batch) = b.next_batch() {
            seen.extend(batch);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "queued items drain after close");
        assert!(b.next_batch().is_none(), "stays closed");
    }

    #[test]
    fn solo_item_overtakes_lingering_items_without_disturbing_them() {
        // Hour-long deadline: the two lingering items can only leave by the
        // size trigger, so whatever returns first returned because it is solo.
        let b = Batcher::new(cfg(64, 3, 3_600_000));
        b.push("a", true).unwrap();
        b.push("b", true).unwrap();
        b.push("solo", false).unwrap();
        assert_eq!(b.next_batch().unwrap(), vec!["solo"], "alone, and at once");
        assert_eq!(b.len(), 2, "the lingering items are still lingering");
        // Solo items do not count towards the size trigger either.
        b.push("solo2", false).unwrap();
        assert_eq!(b.next_batch().unwrap(), vec!["solo2"]);
        b.push("c", true).unwrap();
        assert_eq!(
            b.next_batch().unwrap(),
            vec!["a", "b", "c"],
            "own size trigger"
        );
    }

    #[test]
    fn lingering_items_keep_their_own_deadline_behind_a_solo_item() {
        let b = Batcher::new(cfg(64, 16, 20));
        let t0 = Instant::now();
        b.push(1u32, true).unwrap();
        b.push(2, true).unwrap();
        b.push(3, false).unwrap();
        assert_eq!(b.next_batch().unwrap(), vec![3]);
        assert_eq!(b.next_batch().unwrap(), vec![1, 2]);
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "the solo item must not cut the lingering items' wait short"
        );
    }

    #[test]
    fn oldest_ripe_head_goes_first() {
        // Zero delay: lingering items are ripe on arrival, like solo ones.
        let b = Batcher::new(cfg(64, 2, 0));
        b.push(1u32, true).unwrap();
        b.push(2, false).unwrap();
        b.push(3, true).unwrap();
        b.push(4, true).unwrap();
        b.push(5, false).unwrap();
        let order: Vec<Vec<u32>> = (0..4).map(|_| b.next_batch().unwrap()).collect();
        assert_eq!(order, vec![vec![1, 3], vec![2], vec![4], vec![5]]);
    }

    #[test]
    fn capacity_and_close_cover_both_kinds() {
        let b = Batcher::new(cfg(3, 8, 3_600_000));
        b.push(0u32, true).unwrap();
        b.push(1, false).unwrap();
        b.push(2, true).unwrap();
        assert!(matches!(b.push(3, false), Err(PushError::Overloaded(3))));
        assert!(matches!(b.push(3, true), Err(PushError::Overloaded(3))));
        b.close();
        assert!(matches!(b.push(4, false), Err(PushError::Closed(4))));
        let mut seen = Vec::new();
        while let Some(batch) = b.next_batch() {
            seen.push(batch);
        }
        assert_eq!(
            seen,
            vec![vec![0, 2], vec![1]],
            "both kinds drain after close"
        );
        assert!(b.next_batch().is_none(), "stays closed");
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let b = Arc::new(Batcher::<u32>::new(cfg(64, 8, 3_600_000)));
        let consumer = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.next_batch())
        };
        thread::sleep(Duration::from_millis(20));
        b.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn observer_sees_depth_and_batch_sizes() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Probe {
            max_depth: AtomicU64,
            batches: Mutex<Vec<usize>>,
        }
        impl QueueObserver for Probe {
            fn on_depth(&self, depth: usize) {
                self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
            }
            fn on_batch(&self, size: usize) {
                self.batches.lock().unwrap().push(size);
            }
        }

        let probe = Arc::new(Probe::default());
        let b = Batcher::with_observer(cfg(64, 3, 0), Arc::clone(&probe) as _);
        for i in 0..5u32 {
            b.push(i, true).unwrap();
        }
        assert_eq!(probe.max_depth.load(Ordering::Relaxed), 5);
        let mut seen = 0;
        while seen < 5 {
            seen += b.next_batch().unwrap().len();
        }
        assert_eq!(*probe.batches.lock().unwrap(), vec![3, 2]);
        b.push(9, false).unwrap();
        assert_eq!(probe.max_depth.load(Ordering::Relaxed), 5);
        assert_eq!(b.next_batch().unwrap(), vec![9]);
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 2, 1],
            "a solo item is a batch of 1"
        );
    }

    #[test]
    fn multi_producer_multi_consumer_loses_nothing() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 250;
        let b = Arc::new(Batcher::new(cfg(usize::MAX, 16, 1)));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = b.next_batch() {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        b.push((p, i), i % 3 != 0).unwrap();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        b.close();
        let mut all: Vec<(usize, usize)> = Vec::new();
        for h in consumers {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "no item lost or duplicated");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "no duplicates");
    }
}
