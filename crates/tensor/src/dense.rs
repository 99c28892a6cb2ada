//! Row-major dense tensors.
//!
//! [`Dense2`] is the vertex/edge feature matrix of the paper (`|V| × d` or
//! `|E| × d`); [`Dense3`] models multi-head feature tensors (`|V| × h × d`,
//! Fig. 4b of the paper).

use crate::aligned::{AlignedVec, StorageElem};
use crate::error::{ShapeError, TensorResult};
use crate::scalar::Scalar;

/// A row-major 2D tensor with cache-line-aligned storage.
pub struct Dense2<S> {
    rows: usize,
    cols: usize,
    data: AlignedVec<S>,
}

impl<S: StorageElem> Clone for Dense2<S> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
}

impl<S> std::fmt::Debug for Dense2<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense2")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl<S: StorageElem + PartialEq> PartialEq for Dense2<S> {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

// Structural methods need only `StorageElem` (what `AlignedVec` requires), so
// `Bf16`, which defines no arithmetic, stores here like `f32` and `f64` do.
impl<S: StorageElem> Dense2<S> {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: AlignedVec::zeroed(rows.checked_mul(cols).expect("shape overflow")),
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: S) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.as_mut_slice().fill(value);
        m
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, flat: Vec<S>) -> TensorResult<Self> {
        let expected = rows * cols;
        if flat.len() != expected {
            return Err(ShapeError::LengthMismatch {
                got: flat.len(),
                expected,
            });
        }
        Ok(Self {
            rows,
            cols,
            data: AlignedVec::from_slice(&flat),
        })
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            let row = m.row_mut(r);
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature length `d`).
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view.
    #[inline(always)]
    pub fn as_slice(&self) -> &[S] {
        self.data.as_slice()
    }

    /// Flat row-major mutable view.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        self.data.as_mut_slice()
    }

    /// Heap bytes held by the backing storage.
    #[inline(always)]
    pub fn mem_bytes(&self) -> u64 {
        self.data.mem_bytes()
    }

    /// Row `r` as a slice (a vertex/edge feature vector).
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[S] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        let start = r * self.cols;
        &self.data.as_slice()[start..start + self.cols]
    }

    /// Mutable row `r`.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        let start = r * self.cols;
        &mut self.data.as_mut_slice()[start..start + self.cols]
    }

    /// Checked element access.
    pub fn get(&self, r: usize, c: usize) -> TensorResult<S> {
        if r >= self.rows {
            return Err(ShapeError::OutOfBounds {
                index: r,
                bound: self.rows,
                axis: "row",
            });
        }
        if c >= self.cols {
            return Err(ShapeError::OutOfBounds {
                index: c,
                bound: self.cols,
                axis: "col",
            });
        }
        Ok(self.data.as_slice()[r * self.cols + c])
    }

    /// Unchecked-by-construction element access (debug-asserted).
    #[inline(always)]
    pub fn at(&self, r: usize, c: usize) -> S {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.as_slice()[r * self.cols + c]
    }

    /// Set one element (debug-asserted bounds).
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.as_mut_slice()[r * self.cols + c] = v;
    }

    /// Zero all elements in place.
    pub fn fill_zero(&mut self) {
        self.data.fill_default();
    }

    /// Fill with a constant in place.
    pub fn fill(&mut self, v: S) {
        self.data.as_mut_slice().fill(v);
    }

    /// Two disjoint mutable rows at once (needed by merge kernels).
    ///
    /// # Panics
    /// Panics if `a == b` or either is out of bounds.
    pub fn rows_mut2(&mut self, a: usize, b: usize) -> (&mut [S], &mut [S]) {
        assert!(a != b, "rows_mut2 requires distinct rows");
        assert!(a < self.rows && b < self.rows);
        let cols = self.cols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.as_mut_slice().split_at_mut(hi * cols);
        let lo_row = &mut head[lo * cols..lo * cols + cols];
        let hi_row = &mut tail[..cols];
        if a < b {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// Split the matrix into consecutive row bands of at most `band_rows`
    /// rows each, as disjoint mutable slices. Used to hand one band to each
    /// worker thread.
    pub fn row_bands_mut(&mut self, band_rows: usize) -> Vec<&mut [S]> {
        assert!(band_rows > 0, "band_rows must be positive");
        let cols = self.cols;
        self.data
            .as_mut_slice()
            .chunks_mut(band_rows * cols)
            .collect()
    }

}

// Numeric comparisons widen through `f64`, so they stay `Scalar`-bound.
impl<S: Scalar> Dense2<S> {
    /// Maximum absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// True if every element differs from `other` by at most `tol`
    /// (absolute) or `tol` relative to the larger magnitude.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.as_slice().iter().zip(other.as_slice()).all(|(&a, &b)| {
            let (a, b) = (a.to_f64(), b.to_f64());
            let diff = (a - b).abs();
            diff <= tol || diff <= tol * a.abs().max(b.abs())
        })
    }
}

/// A row-major 3D tensor: `d0 × d1 × d2` (e.g. vertices × heads × features).
pub struct Dense3<S> {
    d0: usize,
    d1: usize,
    d2: usize,
    data: AlignedVec<S>,
}

impl<S: Scalar> Clone for Dense3<S> {
    fn clone(&self) -> Self {
        Self {
            d0: self.d0,
            d1: self.d1,
            d2: self.d2,
            data: self.data.clone(),
        }
    }
}

impl<S: Scalar> std::fmt::Debug for Dense3<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense3")
            .field("d0", &self.d0)
            .field("d1", &self.d1)
            .field("d2", &self.d2)
            .finish_non_exhaustive()
    }
}

impl<S: Scalar> Dense3<S> {
    /// All-zeros tensor of the given shape.
    pub fn zeros(d0: usize, d1: usize, d2: usize) -> Self {
        let len = d0
            .checked_mul(d1)
            .and_then(|x| x.checked_mul(d2))
            .expect("shape overflow");
        Self {
            d0,
            d1,
            d2,
            data: AlignedVec::zeroed(len),
        }
    }

    /// Build by evaluating `f(i, j, k)` at every position.
    pub fn from_fn(d0: usize, d1: usize, d2: usize, mut f: impl FnMut(usize, usize, usize) -> S) -> Self {
        let mut t = Self::zeros(d0, d1, d2);
        for i in 0..d0 {
            for j in 0..d1 {
                let row = t.lane_mut(i, j);
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = f(i, j, k);
                }
            }
        }
        t
    }

    /// `(d0, d1, d2)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    /// Extent of the leading axis.
    #[inline(always)]
    pub fn d0(&self) -> usize {
        self.d0
    }

    /// Extent of the middle axis (e.g. heads).
    #[inline(always)]
    pub fn d1(&self) -> usize {
        self.d1
    }

    /// Extent of the innermost axis (feature length per head).
    #[inline(always)]
    pub fn d2(&self) -> usize {
        self.d2
    }

    /// The `(i, j)` lane: a contiguous `d2`-length vector.
    #[inline(always)]
    pub fn lane(&self, i: usize, j: usize) -> &[S] {
        debug_assert!(i < self.d0 && j < self.d1);
        let start = (i * self.d1 + j) * self.d2;
        &self.data.as_slice()[start..start + self.d2]
    }

    /// Mutable `(i, j)` lane.
    #[inline(always)]
    pub fn lane_mut(&mut self, i: usize, j: usize) -> &mut [S] {
        debug_assert!(i < self.d0 && j < self.d1);
        let start = (i * self.d1 + j) * self.d2;
        &mut self.data.as_mut_slice()[start..start + self.d2]
    }

    /// The whole `i` plane (`d1 × d2` row-major).
    #[inline(always)]
    pub fn plane(&self, i: usize) -> &[S] {
        debug_assert!(i < self.d0);
        let start = i * self.d1 * self.d2;
        &self.data.as_slice()[start..start + self.d1 * self.d2]
    }

    /// Flat view.
    #[inline(always)]
    pub fn as_slice(&self) -> &[S] {
        self.data.as_slice()
    }

    /// Flat mutable view.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        self.data.as_mut_slice()
    }

    /// Heap bytes held by the backing storage.
    #[inline(always)]
    pub fn mem_bytes(&self) -> u64 {
        self.data.mem_bytes()
    }

    /// Reinterpret as a `(d0, d1*d2)` matrix (copying).
    pub fn to_dense2(&self) -> Dense2<S> {
        Dense2::from_vec(self.d0, self.d1 * self.d2, self.data.as_slice().to_vec())
            .expect("volume preserved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m: Dense2<f32> = Dense2::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Dense2::<f32>::from_vec(2, 3, vec![0.0; 6]).is_ok());
        let err = Dense2::<f32>::from_vec(2, 3, vec![0.0; 5]).unwrap_err();
        assert_eq!(err, ShapeError::LengthMismatch { got: 5, expected: 6 });
    }

    #[test]
    fn row_indexing_is_row_major() {
        let m = Dense2::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(0), &[0.0, 1.0]);
        assert_eq!(m.row(2), &[20.0, 21.0]);
        assert_eq!(m.at(1, 1), 11.0);
    }

    #[test]
    fn get_reports_axis() {
        let m: Dense2<f64> = Dense2::zeros(2, 2);
        match m.get(5, 0) {
            Err(ShapeError::OutOfBounds { axis: "row", .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        match m.get(0, 9) {
            Err(ShapeError::OutOfBounds { axis: "col", .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rows_mut2_returns_disjoint_rows_in_order() {
        let mut m = Dense2::from_fn(4, 2, |r, _| r as f32);
        let (a, b) = m.rows_mut2(3, 1);
        assert_eq!(a, &[3.0, 3.0]);
        assert_eq!(b, &[1.0, 1.0]);
        a[0] = -1.0;
        b[1] = -2.0;
        assert_eq!(m.at(3, 0), -1.0);
        assert_eq!(m.at(1, 1), -2.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rows_mut2_rejects_same_row() {
        let mut m: Dense2<f32> = Dense2::zeros(2, 2);
        let _ = m.rows_mut2(1, 1);
    }

    #[test]
    fn row_bands_cover_all_rows() {
        let mut m = Dense2::from_fn(10, 3, |r, c| (r * 3 + c) as f32);
        let bands = m.row_bands_mut(4);
        assert_eq!(bands.len(), 3); // 4 + 4 + 2 rows
        assert_eq!(bands[0].len(), 12);
        assert_eq!(bands[2].len(), 6);
    }

    #[test]
    fn approx_eq_tolerates_small_error() {
        let a = Dense2::from_fn(2, 2, |r, c| (r + c) as f64);
        let mut b = a.clone();
        b.set(0, 0, 1e-13);
        assert!(a.approx_eq(&b, 1e-9));
        b.set(1, 1, 3.0);
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn approx_eq_rejects_shape_mismatch() {
        let a: Dense2<f32> = Dense2::zeros(2, 2);
        let b: Dense2<f32> = Dense2::zeros(2, 3);
        assert!(!a.approx_eq(&b, 1.0));
    }

    #[test]
    fn dense3_lane_layout() {
        let t = Dense3::from_fn(2, 3, 4, |i, j, k| (i * 100 + j * 10 + k) as f32);
        assert_eq!(t.lane(1, 2), &[120.0, 121.0, 122.0, 123.0]);
        assert_eq!(t.plane(0).len(), 12);
        assert_eq!(t.plane(1)[0], 100.0);
    }

    #[test]
    fn dense3_flattens_to_dense2() {
        let t = Dense3::from_fn(2, 2, 2, |i, j, k| (i * 4 + j * 2 + k) as f64);
        let m = t.to_dense2();
        assert_eq!(m.shape(), (2, 4));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn max_abs_diff_finds_worst_element() {
        let a = Dense2::from_fn(2, 2, |_, _| 1.0f32);
        let mut b = a.clone();
        b.set(1, 0, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }
}
