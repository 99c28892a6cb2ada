//! Internal utilities: disjoint-row parallel writes and thread pools.

use fg_tensor::Scalar;
use std::cell::UnsafeCell;

/// A shareable view of a mutable 2D buffer that lets parallel workers write
/// *disjoint* rows without locking.
///
/// # Safety contract
///
/// `row_mut` hands out `&mut` slices derived from a shared reference; the
/// caller must guarantee that no two concurrent calls use the same row index.
/// The call sites in this crate satisfy that by construction:
///
/// * CPU SDDMM writes row `eid`, and the edge visit order is a permutation
///   of edge IDs partitioned into disjoint chunks;
/// * the fused attention backward writes row `eid` from the destination-
///   major sweep, where an edge belongs to one (partition, destination)
///   segment and a destination to one band.
pub struct SharedRows<'a, S> {
    data: &'a UnsafeCell<[S]>,
    cols: usize,
}

// SAFETY: access discipline (disjoint rows) is enforced by callers per the
// contract above; the underlying data is plain `S: Send` POD.
unsafe impl<S: Send> Send for SharedRows<'_, S> {}
// SAFETY: shared use hands out `&mut` rows only through `row_mut`, whose
// callers guarantee no two threads use the same row index at once.
unsafe impl<S: Send> Sync for SharedRows<'_, S> {}

impl<'a, S: Scalar> SharedRows<'a, S> {
    /// Wrap a flat row-major buffer of `cols`-wide rows.
    pub fn new(data: &'a mut [S], cols: usize) -> Self {
        assert!(cols > 0, "cols must be positive");
        assert_eq!(data.len() % cols, 0, "buffer not a whole number of rows");
        // UnsafeCell via pointer cast: &mut [S] -> &UnsafeCell<[S]>
        let ptr = data as *mut [S] as *const UnsafeCell<[S]>;
        // Safety: UnsafeCell<[S]> has the same layout as [S]; we hold the
        // unique borrow for 'a.
        let data = unsafe { &*ptr };
        Self { data, cols }
    }

    /// Mutable access to row `r`.
    ///
    /// # Safety
    /// Caller must ensure no concurrent access (read or write) to row `r`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, r: usize) -> &mut [S] {
        let all = &mut *self.data.get();
        debug_assert!((r + 1) * self.cols <= all.len(), "row out of bounds");
        &mut all[r * self.cols..(r + 1) * self.cols]
    }
}

/// Worker-thread count detected from the OS, probed once per process.
///
/// `std::thread::available_parallelism` reads the affinity mask and the
/// cgroup quota files on every call, which costs microseconds; every
/// `auto` option constructor asks, once per kernel compile, and a sampled
/// request compiles a plan per block. The answer is therefore cached on
/// the first call, so a later affinity or quota change is not seen.
///
/// When the probe errors (sandboxes, unusual cgroup configurations, exotic
/// platforms), the count falls back to **one** thread. That used to happen
/// silently — a mis-configured container would quietly run every kernel
/// serially. The fallback now emits a one-line warning on stderr and
/// increments the `parallelism_fallbacks` telemetry counter, once per
/// process, so the degradation is visible in metric snapshots.
pub fn detected_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(err) => {
            eprintln!(
                "featgraph: available_parallelism failed ({err}); \
                 falling back to 1 worker thread"
            );
            fg_telemetry::counter_add(fg_telemetry::Counter::ParallelismFallbacks, 1);
            1
        }
    })
}

/// Build a rayon thread pool with `threads` workers (1 = effectively serial).
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build thread pool")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut buf = vec![0.0f32; 100 * 8];
        {
            let shared = SharedRows::new(&mut buf, 8);
            (0..100usize).into_par_iter().for_each(|r| {
                // Safety: each r visited exactly once.
                let row = unsafe { shared.row_mut(r) };
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r * 8 + c) as f32;
                }
            });
        }
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_rejected() {
        let mut buf = vec![0.0f32; 10];
        let _ = SharedRows::new(&mut buf, 3);
    }

    #[test]
    fn pool_respects_thread_count() {
        let p = pool(3);
        assert_eq!(p.current_num_threads(), 3);
        let p = pool(0);
        assert_eq!(p.current_num_threads(), 1);
    }
}
