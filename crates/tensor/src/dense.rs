//! Row-major dense tensors.
//!
//! [`Dense2`] is the vertex/edge feature matrix of the paper (`|V| × d` or
//! `|E| × d`).

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
    fn max_abs_diff_finds_worst_element() {
        let a = Dense2::from_fn(2, 2, |_, _| 1.0f32);
        let mut b = a.clone();
        b.set(1, 0, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }
}
