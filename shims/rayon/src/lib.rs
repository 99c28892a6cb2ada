//! Offline stand-in for the `rayon` crate.
//!
//! Implements the subset of rayon's API that this workspace uses — thread
//! pools with [`ThreadPool::install`], `into_par_iter()` on integer ranges,
//! and `par_iter`/`par_chunks`/`par_chunks_mut` on slices, with the
//! `map`/`flat_map_iter`/`enumerate`/`for_each`/`collect` adapters — backed
//! by `std::thread::scope`. Work is split into contiguous bands, one per
//! worker; a pool of one thread (or one work item) runs inline with no
//! spawn overhead, which keeps the single-threaded benchmark paths honest.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    // 0 = no pool installed on this thread; fall back to the host parallelism.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// Effective worker count for parallel operations started on this thread.
pub fn current_num_threads() -> usize {
    let t = INSTALLED.with(|c| c.get());
    if t == 0 {
        default_threads()
    } else {
        t
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never constructed —
/// building a pool cannot fail here — but kept for signature parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self { num_threads: 0 }
    }

    /// `0` means "use the host parallelism", as in rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A logical pool: a worker count that parallel adapters started under
/// [`ThreadPool::install`] will honor. Threads are scoped per operation
/// rather than persistent.
pub struct ThreadPool {
    threads: usize,
}

struct InstallGuard(usize);

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|c| c.set(self.0));
    }
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Run `op` with this pool's worker count installed for the duration.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = INSTALLED.with(|c| c.replace(self.threads));
        let _guard = InstallGuard(prev);
        op()
    }
}

/// Split `0..n_items` into contiguous bands (one per worker) and run `f` on
/// each band, returning the per-band results in order. Band 0 runs on the
/// calling thread; a single band short-circuits to an inline call.
fn run_bands<R, F>(n_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n_items == 0 {
        return Vec::new();
    }
    let threads = current_num_threads().min(n_items).max(1);
    if threads == 1 {
        return vec![f(0..n_items)];
    }
    let per = n_items.div_ceil(threads);
    let mut ranges = (0..threads)
        .map(|t| (t * per)..((t + 1) * per).min(n_items))
        .filter(|r| r.start < r.end);
    let first = ranges.next();
    let rest: Vec<Range<usize>> = ranges.collect();
    std::thread::scope(|s| {
        let fref = &f;
        let handles: Vec<_> = rest
            .into_iter()
            .map(|r| s.spawn(move || fref(r)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        if let Some(r) = first {
            out.push(f(r));
        }
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Ordered collection from per-band chunks (rayon's `FromParallelIterator`).
pub trait FromParIter<T> {
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Self {
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            out.extend(c);
        }
        out
    }
}

/// Integer types usable as parallel range indices.
pub trait RangeIndex: Copy + Send + Sync {
    fn to_usize(self) -> usize;
    fn from_usize(u: usize) -> Self;
}

macro_rules! range_index {
    ($($t:ty),*) => {$(
        impl RangeIndex for $t {
            #[inline]
            fn to_usize(self) -> usize {
                self as usize
            }
            #[inline]
            fn from_usize(u: usize) -> Self {
                u as $t
            }
        }
    )*};
}

range_index!(u32, u64, usize);

/// Entry point mirroring `rayon::iter::IntoParallelIterator` for ranges.
pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: RangeIndex> IntoParallelIterator for Range<T> {
    type Iter = ParRange<T>;
    fn into_par_iter(self) -> ParRange<T> {
        ParRange { range: self }
    }
}

/// Parallel iterator over an integer range.
pub struct ParRange<T> {
    range: Range<T>,
}

impl<T: RangeIndex> ParRange<T> {
    fn base_len(&self) -> (usize, usize) {
        let base = self.range.start.to_usize();
        let len = self.range.end.to_usize().saturating_sub(base);
        (base, len)
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let (base, len) = self.base_len();
        run_bands(len, |band| {
            for i in band {
                f(T::from_usize(base + i));
            }
        });
    }

    pub fn map<U, F>(self, f: F) -> ParRangeMap<T, F>
    where
        F: Fn(T) -> U + Sync,
        U: Send,
    {
        ParRangeMap { range: self, f }
    }
}

/// `map` adapter over a [`ParRange`].
pub struct ParRangeMap<T, F> {
    range: ParRange<T>,
    f: F,
}

impl<T: RangeIndex, U: Send, F: Fn(T) -> U + Sync> ParRangeMap<T, F> {
    pub fn collect<C: FromParIter<U>>(self) -> C {
        let (base, len) = self.range.base_len();
        let f = &self.f;
        let chunks = run_bands(len, |band| {
            band.map(|i| f(T::from_usize(base + i))).collect::<Vec<U>>()
        });
        C::from_ordered_chunks(chunks)
    }

    pub fn for_each_result(self) {}
}

/// Shared-slice entry points (`par_iter`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParSliceIter<'_, T>;
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }

    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunks { slice: self, size }
    }
}

/// Parallel iterator over `&T` items of a slice.
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let s = self.slice;
        run_bands(s.len(), |band| {
            for i in band {
                f(&s[i]);
            }
        });
    }

    /// rayon's `flat_map_iter`: map each item to a serial iterator and
    /// concatenate in order.
    pub fn flat_map_iter<U, I, F>(self, f: F) -> ParFlatMapIter<'a, T, F>
    where
        F: Fn(&'a T) -> I + Sync,
        I: IntoIterator<Item = U>,
        U: Send,
    {
        ParFlatMapIter {
            slice: self.slice,
            f,
            _marker: PhantomData,
        }
    }
}

/// `flat_map_iter` adapter over a [`ParSliceIter`].
pub struct ParFlatMapIter<'a, T, F> {
    slice: &'a [T],
    f: F,
    _marker: PhantomData<&'a T>,
}

impl<'a, T, U, I, F> ParFlatMapIter<'a, T, F>
where
    T: Sync,
    F: Fn(&'a T) -> I + Sync,
    I: IntoIterator<Item = U>,
    U: Send,
{
    pub fn collect<C: FromParIter<U>>(self) -> C {
        let s = self.slice;
        let f = &self.f;
        let chunks = run_bands(s.len(), |band| {
            let mut out = Vec::new();
            for i in band {
                out.extend(f(&s[i]));
            }
            out
        });
        C::from_ordered_chunks(chunks)
    }
}

/// Parallel iterator over shared sub-slices of fixed size.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a [T]) + Sync,
    {
        let s = self.slice;
        let size = self.size;
        let n_chunks = s.len().div_ceil(size);
        run_bands(n_chunks, |band| {
            for ci in band {
                let start = ci * size;
                let end = (start + size).min(s.len());
                f(&s[start..end]);
            }
        });
    }
}

/// Mutable-slice entry point (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { slice: self, size }
    }
}

struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer is only dereferenced for disjoint chunk ranges, one
// chunk per band item, so no two threads touch the same elements.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: every thread holding a shared copy dereferences it
// only for its own chunk ranges, which no other thread touches.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parallel iterator over mutable sub-slices of fixed size.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    fn run<F>(self, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = self.slice.len();
        let size = self.size;
        let n_chunks = len.div_ceil(size);
        let ptr = SendPtr(self.slice.as_mut_ptr());
        run_bands(n_chunks, |band| {
            let p = ptr;
            for ci in band {
                let start = ci * size;
                let end = (start + size).min(len);
                // Safety: chunks are disjoint (one index per band item) and
                // the parent `&mut [T]` borrow outlives the scoped threads.
                let chunk = unsafe { std::slice::from_raw_parts_mut(p.0.add(start), end - start) };
                f(ci, chunk);
            }
        });
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.run(|_, c| f(c));
    }

    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// rayon's indexed `zip`: pair this iterator's chunks with another
    /// mutable-chunk iterator's, truncating to the shorter one. Chunk `i`
    /// of both slices lands in the same closure call (and band), so two
    /// arrays banded by the same key can be updated together.
    pub fn zip<U: Send>(self, other: ParChunksMut<'a, U>) -> ParChunksMutZip<'a, T, U> {
        ParChunksMutZip { a: self, b: other }
    }
}

/// `enumerate` adapter over [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        self.inner.run(|i, c| f((i, c)));
    }
}

/// `zip` of two [`ParChunksMut`] iterators (rayon's indexed zip).
pub struct ParChunksMutZip<'a, T, U> {
    a: ParChunksMut<'a, T>,
    b: ParChunksMut<'a, U>,
}

impl<'a, T: Send, U: Send> ParChunksMutZip<'a, T, U> {
    fn run<F>(self, f: F)
    where
        F: Fn(usize, &mut [T], &mut [U]) + Sync,
    {
        let (alen, asize) = (self.a.slice.len(), self.a.size);
        let (blen, bsize) = (self.b.slice.len(), self.b.size);
        let n_chunks = alen.div_ceil(asize).min(blen.div_ceil(bsize));
        let pa = SendPtr(self.a.slice.as_mut_ptr());
        let pb = SendPtr(self.b.slice.as_mut_ptr());
        run_bands(n_chunks, |band| {
            let (pa, pb) = (pa, pb);
            for ci in band {
                let (astart, bstart) = (ci * asize, ci * bsize);
                let aend = (astart + asize).min(alen);
                let bend = (bstart + bsize).min(blen);
                // SAFETY: as in `ParChunksMut::run` — each chunk index is
                // visited exactly once, so the ranges are disjoint per slice,
                // and `aend <= alen` keeps this one inside `a`.
                let ca = unsafe { std::slice::from_raw_parts_mut(pa.0.add(astart), aend - astart) };
                // SAFETY: the same chunk index gives `b` a disjoint range, and
                // `bend <= blen` keeps it inside `b`.
                let cb = unsafe { std::slice::from_raw_parts_mut(pb.0.add(bstart), bend - bstart) };
                f(ci, ca, cb);
            }
        });
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&mut [T], &mut [U])) + Sync,
    {
        self.run(|_, a, b| f((a, b)));
    }

    pub fn enumerate(self) -> ParChunksMutZipEnumerate<'a, T, U> {
        ParChunksMutZipEnumerate { inner: self }
    }
}

/// `enumerate` adapter over [`ParChunksMutZip`].
pub struct ParChunksMutZipEnumerate<'a, T, U> {
    inner: ParChunksMutZip<'a, T, U>,
}

impl<T: Send, U: Send> ParChunksMutZipEnumerate<'_, T, U> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, (&mut [T], &mut [U]))) + Sync,
    {
        self.inner.run(|i, a, b| f((i, (a, b))));
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let got: Vec<u64> = pool.install(|| (0u64..1000).into_par_iter().map(|i| i * 2).collect());
        let want: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn chunks_mut_enumerate_touches_every_chunk_once() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let mut data = vec![0usize; 103];
        pool.install(|| {
            data.as_mut_slice()
                .par_chunks_mut(10)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    for v in chunk {
                        *v = ci + 1;
                    }
                });
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 10 + 1);
        }
    }

    #[test]
    fn flat_map_iter_concatenates_in_order() {
        let items = [1usize, 2, 3];
        let got: Vec<usize> = items.par_iter().flat_map_iter(|&n| 0..n).collect();
        assert_eq!(got, vec![0, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn par_chunks_visits_whole_slice() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let data: Vec<usize> = (0..57).collect();
        let total = AtomicUsize::new(0);
        data.par_chunks(8).for_each(|c| {
            total.fetch_add(c.iter().sum::<usize>(), Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), (0..57).sum::<usize>());
    }

    #[test]
    fn zipped_chunks_pair_same_index_and_cover_ragged_tails() {
        // 23 rows of width 4 zipped with a 23-long scalar array: chunk i of
        // the wide slice must land with chunk i of the narrow one, including
        // the short tail chunk.
        let mut wide = vec![0usize; 23 * 4];
        let mut narrow = [0usize; 23];
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| {
            wide.par_chunks_mut(5 * 4)
                .zip(narrow.par_chunks_mut(5))
                .enumerate()
                .for_each(|(ci, (w, n))| {
                    assert_eq!(w.len(), n.len() * 4);
                    for v in w.iter_mut() {
                        *v = ci + 1;
                    }
                    for v in n.iter_mut() {
                        *v = ci + 1;
                    }
                });
        });
        for (i, &v) in narrow.iter().enumerate() {
            assert_eq!(v, i / 5 + 1);
        }
        for (i, &v) in wide.iter().enumerate() {
            assert_eq!(v, i / (5 * 4) + 1);
        }
    }

    #[test]
    fn install_restores_previous_worker_count() {
        let outer = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 5);
            inner.install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 5);
        });
    }

    #[test]
    fn zero_num_threads_means_host_default() {
        let p = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(p.current_num_threads() >= 1);
    }
}
