//! Cache-line-aligned heap storage.
//!
//! Feature matrices are traversed with vectorized inner loops; 64-byte
//! alignment guarantees rows of common lengths (multiples of 16 `f32`s) start
//! on a cache-line boundary, avoiding split loads and simplifying the cache
//! cost reasoning done by the partitioning heuristics.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use fg_telemetry::{mem_charge, mem_credit, MemComponent};

/// Alignment (bytes) used for all tensor storage: one x86 cache line.
pub const CACHE_LINE: usize = 64;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for crate::half::Bf16 {}
}

/// An element type tensor storage ([`AlignedVec`], and through it
/// [`Dense2`](crate::Dense2)) may hold.
///
/// Invariant: every implementor's all-zero bit pattern is a valid value of
/// the type, and its size is non-zero. [`AlignedVec::zeroed`] relies on both:
/// it hands out `alloc_zeroed` memory as initialized `T`, and `alloc_zeroed`
/// must not be called with a zero-size layout. The trait is sealed, so the
/// implementors are exactly `f32`, `f64` and [`Bf16`](crate::Bf16), all of
/// which meet it.
///
/// A reference (all-zero bits are null) is not storable:
///
/// ```compile_fail
/// let _ = fg_tensor::Dense2::<&'static str>::zeros(1, 1);
/// ```
///
/// Nor is a zero-size type:
///
/// ```compile_fail
/// let _ = fg_tensor::AlignedVec::<()>::zeroed(3);
/// ```
pub trait StorageElem: sealed::Sealed + Copy + Default + Send + Sync + 'static {}

impl<T: sealed::Sealed + Copy + Default + Send + Sync + 'static> StorageElem for T {}

/// A fixed-capacity, 64-byte-aligned, zero-initialized buffer of `T`.
///
/// Unlike `Vec<T>`, the length is fixed at construction — feature tensors
/// never grow — which keeps the invariants trivial: `len` elements, all
/// initialized, aligned to [`CACHE_LINE`].
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
    // Memory-accounting attribution captured at allocation time (the
    // thread's ambient `MemScope`); the matching credit in `Drop` must go
    // to the same component regardless of where the buffer ends up.
    component: MemComponent,
    _marker: PhantomData<T>,
}

// Safety: AlignedVec owns its allocation exclusively; `T: Send/Sync` carries over.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T: StorageElem> AlignedVec<T> {
    /// Allocate `len` zero-initialized elements.
    ///
    /// For every [`StorageElem`] the all-zero bit pattern is a valid value
    /// (`0.0` for the float types), so zero-init is also initialization.
    pub fn zeroed(len: usize) -> Self {
        let component = fg_telemetry::current_component();
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
                component,
                _marker: PhantomData,
            };
        }
        let layout = Self::layout(len);
        // Safety: layout has non-zero size (len > 0, and `StorageElem` types
        // are not zero-sized).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        mem_charge(component, layout.size() as u64);
        Self {
            ptr,
            len,
            component,
            _marker: PhantomData,
        }
    }

    /// Allocate and fill from a slice.
    pub fn from_slice(src: &[T]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<T>()
            .checked_mul(len)
            .expect("allocation size overflow");
        let align = CACHE_LINE.max(std::mem::align_of::<T>());
        Layout::from_size_align(size, align).expect("invalid layout")
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by this buffer (the figure charged to the memory
    /// accountant at allocation).
    #[inline(always)]
    pub fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<T>() * self.len) as u64
    }

    /// Immutable view of the whole buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // Safety: ptr valid for len initialized elements (zeroed or copied).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // Safety: exclusive access via &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Reset every element to `T::default()`.
    pub fn fill_default(&mut self) {
        self.as_mut_slice().fill(T::default());
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let layout = Layout::from_size_align(
            std::mem::size_of::<T>() * self.len,
            CACHE_LINE.max(std::mem::align_of::<T>()),
        )
        .expect("invalid layout");
        mem_credit(self.component, layout.size() as u64);
        // Safety: allocated with the identical layout in `zeroed`.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) }
    }
}

impl<T: StorageElem> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: StorageElem> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: StorageElem> DerefMut for AlignedVec<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: StorageElem + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero_and_aligned() {
        let v: AlignedVec<f32> = AlignedVec::zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn empty_buffer_is_usable() {
        let v: AlignedVec<f64> = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
    }

    #[test]
    fn from_slice_round_trips() {
        let data = [1.0f32, -2.5, 3.75, 0.0];
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), &data);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_slice(&[1.0f32, 2.0]);
        let b = a.clone();
        a.as_mut_slice()[0] = 99.0;
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn fill_default_resets() {
        let mut v = AlignedVec::from_slice(&[5.0f64; 17]);
        v.fill_default();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut v: AlignedVec<f32> = AlignedVec::zeroed(4);
        v[2] = 7.0;
        assert_eq!(v.as_slice(), &[0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn allocation_accounting_charges_and_credits() {
        use fg_telemetry::{mem_current, MemComponent, MemScope};
        // No other test in this crate charges Sampling, and the scope is
        // thread-local, so this is race-free under the parallel test
        // runner.
        let scope = MemComponent::Sampling;
        let before = mem_current(scope);
        {
            let _attrib = MemScope::enter(scope);
            let v: AlignedVec<f32> = AlignedVec::zeroed(256);
            assert_eq!(v.mem_bytes(), 1024);
            assert_eq!(mem_current(scope), before + 1024, "charge");
        }
        assert_eq!(mem_current(scope), before, "credit balances charge");
    }

    #[test]
    fn large_alignment_holds_for_odd_lengths() {
        for len in [1usize, 3, 17, 63, 65, 255] {
            let v: AlignedVec<f32> = AlignedVec::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE, 0, "len={len}");
        }
    }
}
