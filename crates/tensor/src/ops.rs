//! Dense operations: the GEMMs and element-wise ops of the model layers.
//!
//! These run on the training and serving paths (the tape's `matmul` and its
//! two transposed gradients, bias, activations), in the naive GNN backend
//! (which materializes messages through dense ops, like DGL without
//! FeatGraph), and in tests as ground truth for the optimized kernels.
//!
//! The three GEMMs share one register-tiled panel. It cuts the output into
//! tiles of 4 or 1 rows by 16, 8 or 1 columns, and each tile sums its whole
//! `k` range in a `[[S; C]; R]` array that LLVM keeps in vector registers,
//! writing the output once. The tile loops are plain slice arithmetic, so
//! the build's target CPU sets the vector width. Every output element adds
//! `a[i][k] * b[k][j]` (a multiply, then an add: Rust never fuses them) to
//! a zero in ascending `k`, which is the naive i-k-j loop's arithmetic: the
//! bits do not depend on the tile shape, on the ISA, or on a row's position
//! or the call's height. `matmul_at` also blocks `k`, storing and
//! reloading its accumulators between blocks, which is exact. There is no
//! parallelism: the operands are `|V| × d` by `d × d`.

use std::ops::Range;

use crate::dense::Dense2;
use crate::error::{ShapeError, TensorResult};
use crate::scalar::Scalar;

/// `out = a × b` (row-major GEMM, no transposes).
pub fn matmul<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    if a.cols() != b.rows() {
        return Err(ShapeError::DimMismatch {
            op: "matmul",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let mut out = Dense2::zeros(a.rows(), b.cols());
    let lhs = Lhs {
        data: a.as_slice(),
        row_stride: a.cols(),
        k_stride: 1,
    };
    panel(&lhs, b.as_slice(), &mut out, 0..a.cols());
    Ok(out)
}

/// `out = a × bᵀ`, for a tall `a` and a small `b` (the input gradient
/// `g × Wᵀ` of a dense layer).
pub fn matmul_bt<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    if a.cols() != b.cols() {
        return Err(ShapeError::DimMismatch {
            op: "matmul_bt",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    // `b` is the small (weight-sized) operand: transposing it once turns the
    // per-element row dots, whose sequential sums cannot vectorize, into
    // `matmul`'s panel. Each output element still accumulates its products
    // in ascending-k order, so only the sign of an all-zero dot can differ
    // from the row-dot form.
    matmul(a, &transpose(b))
}

/// Rows of the shared dimension `matmul_at` sums per panel pass: a block of
/// a `|V| × 64` `a` and a `|V| × 32` `b` is 24 KiB, which stays in L1 while
/// every tile of the output passes over it.
const AT_K_BLOCK: usize = 64;

/// `out = aᵀ × b`.
pub fn matmul_at<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    if a.rows() != b.rows() {
        return Err(ShapeError::DimMismatch {
            op: "matmul_at",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    // `aᵀ` is read in place: its row `i` is `a`'s column `i`.
    let lhs = Lhs {
        data: a.as_slice(),
        row_stride: 1,
        k_stride: a.cols(),
    };
    let mut out = Dense2::zeros(a.cols(), b.cols());
    let k = a.rows();
    for k0 in (0..k).step_by(AT_K_BLOCK) {
        panel(&lhs, b.as_slice(), &mut out, k0..k.min(k0 + AT_K_BLOCK));
    }
    Ok(out)
}

/// The left operand of a GEMM panel, `m × k`, as a strided view: element
/// `(i, kk)` is `data[i * row_stride + kk * k_stride]`.
struct Lhs<'a, S> {
    data: &'a [S],
    row_stride: usize,
    k_stride: usize,
}

/// `out += lhs[.., ks] × b[ks, ..]` for a row-major `b` as wide as `out`.
/// Every element of `out` gets its products added in ascending `k`, whatever
/// tile holds it.
fn panel<S: Scalar>(lhs: &Lhs<'_, S>, b: &[S], out: &mut Dense2<S>, ks: Range<usize>) {
    let (m, n) = out.shape();
    let out = out.as_mut_slice();
    let m4 = m / 4 * 4;
    for i0 in (0..m4).step_by(4) {
        row_tiles::<S, 4>(lhs, b, out, n, i0, ks.clone());
    }
    for i0 in m4..m {
        row_tiles::<S, 1>(lhs, b, out, n, i0, ks.clone());
    }
}

/// One band of `R` output rows: 16-wide tiles, at most one 8-wide tile,
/// then one tile per leftover column.
#[inline(always)]
fn row_tiles<S: Scalar, const R: usize>(
    lhs: &Lhs<'_, S>,
    b: &[S],
    out: &mut [S],
    n: usize,
    i0: usize,
    ks: Range<usize>,
) {
    let (n16, n8) = (n / 16 * 16, n / 8 * 8);
    for j0 in (0..n16).step_by(16) {
        tile::<S, R, 16>(lhs, b, out, n, i0, j0, ks.clone());
    }
    if n8 > n16 {
        tile::<S, R, 8>(lhs, b, out, n, i0, n16, ks.clone());
    }
    for j in n8..n {
        tile::<S, R, 1>(lhs, b, out, n, i0, j, ks.clone());
    }
}

/// The `R × C` output tile at `(i0, j0)`: its accumulators start at the
/// output's value (zero, or a previous `k` block's sums, which a store and a
/// reload keep exact) and stay in registers across `ks`.
#[inline(always)]
fn tile<S: Scalar, const R: usize, const C: usize>(
    lhs: &Lhs<'_, S>,
    b: &[S],
    out: &mut [S],
    n: usize,
    i0: usize,
    j0: usize,
    ks: Range<usize>,
) {
    let mut acc = [[S::ZERO; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + r) * n + j0..][..C]);
    }
    for kk in ks {
        let brow = &b[kk * n + j0..][..C];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = lhs.data[(i0 + r) * lhs.row_stride + kk * lhs.k_stride];
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..C].copy_from_slice(row);
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `y += alpha * x` over slices.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Element-wise `out = a + b`.
pub fn add<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    zip_elementwise("add", a, b, |x, y| x + y)
}

/// Element-wise `out = a - b`.
pub fn sub<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    zip_elementwise("sub", a, b, |x, y| x - y)
}

/// Element-wise `out = a * b` (Hadamard).
pub fn mul<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> TensorResult<Dense2<S>> {
    zip_elementwise("mul", a, b, |x, y| x * y)
}

fn zip_elementwise<S: Scalar>(
    op: &'static str,
    a: &Dense2<S>,
    b: &Dense2<S>,
    f: impl Fn(S, S) -> S,
) -> TensorResult<Dense2<S>> {
    if a.shape() != b.shape() {
        return Err(ShapeError::DimMismatch {
            op,
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let mut out = Dense2::zeros(a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
    Ok(out)
}

/// Broadcast-add a row vector (`bias`) to every row of `a`.
pub fn add_bias<S: Scalar>(a: &Dense2<S>, bias: &[S]) -> TensorResult<Dense2<S>> {
    if bias.len() != a.cols() {
        return Err(ShapeError::DimMismatch {
            op: "add_bias",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![1, bias.len()],
        });
    }
    let mut out = a.clone();
    for r in 0..out.rows() {
        for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
            *o += b;
        }
    }
    Ok(out)
}

/// Element-wise ReLU.
pub fn relu<S: Scalar>(a: &Dense2<S>) -> Dense2<S> {
    map(a, |x| x.maximum(S::ZERO))
}

/// Element-wise leaky ReLU with slope `alpha` on the negative side.
pub fn leaky_relu<S: Scalar>(a: &Dense2<S>, alpha: S) -> Dense2<S> {
    map(a, |x| if x > S::ZERO { x } else { alpha * x })
}

/// Apply `f` to every element, producing a new matrix.
pub fn map<S: Scalar>(a: &Dense2<S>, f: impl Fn(S) -> S) -> Dense2<S> {
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o = f(*o);
    }
    out
}

/// Scale every element by `alpha`.
pub fn scale<S: Scalar>(a: &Dense2<S>, alpha: S) -> Dense2<S> {
    map(a, |x| alpha * x)
}

/// Row-wise softmax (numerically stabilized by the row max).
pub fn softmax_rows<S: Scalar>(a: &Dense2<S>) -> Dense2<S> {
    let mut out = a.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let mx = row.iter().copied().fold(S::MIN_FINITE, S::maximum);
        let mut sum = S::ZERO;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            sum += *v;
        }
        if sum > S::ZERO {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Frobenius norm.
pub fn frobenius<S: Scalar>(a: &Dense2<S>) -> f64 {
    a.as_slice()
        .iter()
        .map(|&x| {
            let v = x.to_f64();
            v * v
        })
        .sum::<f64>()
        .sqrt()
}

/// Transpose (copying).
pub fn transpose<S: Scalar>(a: &Dense2<S>) -> Dense2<S> {
    let (m, n) = a.shape();
    Dense2::from_fn(n, m, |r, c| a.at(c, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Dense2<f64> {
        Dense2::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_check() {
        let a = m(2, 3, &[0.; 6]);
        let b = m(2, 2, &[0.; 4]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_bt_equals_matmul_with_explicit_transpose() {
        let a = m(2, 3, &[1., 0., 2., -1., 3., 1.]);
        let b = m(4, 3, &[1., 2., 3., 0., 1., 0., 2., 2., 2., 1., 1., 1.]);
        let via_bt = matmul_bt(&a, &b).unwrap();
        let via_t = matmul(&a, &transpose(&b)).unwrap();
        assert!(via_bt.approx_eq(&via_t, 1e-12));
    }

    #[test]
    fn matmul_at_equals_matmul_with_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &[1., 0., 0., 1., 2., 1., 0., 0., 1., 1., 1., 1.]);
        let via_at = matmul_at(&a, &b).unwrap();
        let via_t = matmul(&transpose(&a), &b).unwrap();
        assert!(via_at.approx_eq(&via_t, 1e-12));
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0f32, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = [1.0f32, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[4., 5., 6.]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).unwrap().as_slice(), &[3., 3., 3.]);
        assert_eq!(mul(&a, &b).unwrap().as_slice(), &[4., 10., 18.]);
        let c = m(2, 2, &[0.; 4]);
        assert!(add(&a, &c).is_err());
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let out = add_bias(&a, &[10., 20.]).unwrap();
        assert_eq!(out.as_slice(), &[11., 22., 13., 24.]);
        assert!(add_bias(&a, &[1., 2., 3.]).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = m(1, 4, &[-1., 0., 2., -3.]);
        assert_eq!(relu(&a).as_slice(), &[0., 0., 2., 0.]);
        assert_eq!(leaky_relu(&a, 0.1).as_slice(), &[-0.1, 0., 2., -0.30000000000000004]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = m(2, 3, &[1., 2., 3., -1., -1., -1.]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(s.at(0, 2) > s.at(0, 1) && s.at(0, 1) > s.at(0, 0));
        // uniform row -> uniform distribution
        assert!((s.at(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = m(1, 2, &[1000., 1001.]);
        let s = softmax_rows(&a);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        assert!((s.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let t = transpose(&transpose(&a));
        assert!(a.approx_eq(&t, 0.0));
    }

    #[test]
    fn frobenius_known_value() {
        let a = m(1, 2, &[3., 4.]);
        assert!((frobenius(&a) - 5.0).abs() < 1e-12);
    }
}
