//! Bounded multi-producer FIFO of single jobs, built on `Mutex` + `Condvar`
//! (no async runtime). A `Full` view is a row read and a `Sampled` view runs
//! on a subgraph of its own, so jobs share no work and none waits for
//! company. [`Batcher::pop`] hands the oldest queued item to
//! the next free consumer — a "batch" of one, which is what the `batches`
//! counter records.
//!
//! The queue is bounded: once `capacity` items are waiting, `push` fails fast
//! with [`PushError::Overloaded`] instead of blocking the producer — that is
//! the overload-shedding contract the engine surfaces as a typed error.
//! [`Batcher::close`] initiates a graceful drain: queued items are still
//! handed out, and `pop` returns `None` only once the queue is empty.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Observer of queue dynamics, called by the batcher with its lock held —
/// implementations must be cheap and must not call back into the batcher.
/// This is how always-on engine stats see the queue depth without the
/// batcher depending on the stats types (or on telemetry being enabled).
pub trait QueueObserver: Send + Sync {
    /// Queue depth changed (after a push or a pop).
    fn on_depth(&self, _depth: usize) {}
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

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// See the [module docs](self).
pub struct Batcher<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    observer: Arc<dyn QueueObserver>,
}

impl<T> Batcher<T> {
    /// Create an empty batcher holding at most `capacity` (clamped to at
    /// least 1) queued items; `observer` is notified on every depth change.
    pub fn new(capacity: usize, observer: Arc<dyn QueueObserver>) -> Self {
        Batcher {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            observer,
        }
    }

    /// Enqueue one item, failing fast when full or closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.queue.len() >= self.capacity {
            return Err(PushError::Overloaded(item));
        }
        st.queue.push_back(item);
        self.note_depth(&st);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is queued and take the oldest, or return `None`
    /// once the batcher is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.note_depth(&st);
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    fn note_depth(&self, st: &State<T>) {
        self.observer.on_depth(st.queue.len());
    }

    /// Stop accepting new items and wake every waiter. Already-queued items
    /// are still dispatched (graceful drain).
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (excludes dispatched ones; tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    /// Observes nothing.
    struct Quiet;
    impl QueueObserver for Quiet {}

    #[test]
    fn items_leave_one_at_a_time_in_arrival_order() {
        let b = Batcher::new(64, Arc::new(Quiet));
        for i in 0..5u32 {
            b.push(i).unwrap();
        }
        let order: Vec<u32> = (0..5).map(|_| b.pop().unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn shedding_kicks_in_at_capacity() {
        let b = Batcher::new(3, Arc::new(Quiet));
        for i in 0..3u32 {
            b.push(i).unwrap();
        }
        match b.push(99) {
            Err(PushError::Overloaded(item)) => assert_eq!(item, 99),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Draining makes room again.
        assert_eq!(b.pop(), Some(0));
        b.push(99).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let b = Batcher::new(64, Arc::new(Quiet));
        for i in 0..5u32 {
            b.push(i).unwrap();
        }
        b.close();
        assert!(matches!(b.push(6), Err(PushError::Closed(6))));
        let mut seen = Vec::new();
        while let Some(item) = b.pop() {
            seen.push(item);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "queued items drain after close");
        assert!(b.pop().is_none(), "stays closed");
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let b = Arc::new(Batcher::<u32>::new(64, Arc::new(Quiet)));
        let consumer = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.pop())
        };
        thread::sleep(Duration::from_millis(20));
        b.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn observer_sees_every_depth_change() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Probe {
            max_depth: AtomicU64,
            last_depth: AtomicU64,
        }
        impl QueueObserver for Probe {
            fn on_depth(&self, depth: usize) {
                self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
                self.last_depth.store(depth as u64, Ordering::Relaxed);
            }
        }

        let probe = Arc::new(Probe::default());
        let b = Batcher::new(64, Arc::clone(&probe) as _);
        for i in 0..5u32 {
            b.push(i).unwrap();
        }
        assert_eq!(probe.max_depth.load(Ordering::Relaxed), 5);
        for _ in 0..5 {
            b.pop().unwrap();
        }
        assert_eq!(probe.last_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn multi_producer_multi_consumer_loses_nothing() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 250;
        let b = Arc::new(Batcher::new(usize::MAX, Arc::new(Quiet)));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = b.pop() {
                        got.push(item);
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
                        b.push((p, i)).unwrap();
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
        assert_eq!(
            all.len(),
            PRODUCERS * PER_PRODUCER,
            "no item lost or duplicated"
        );
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "no duplicates");
    }
}
