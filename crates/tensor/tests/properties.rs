//! Property-based tests for the tensor substrate.

use fg_tensor::{ops, split_ranges, ColTiles, Dense2, Scalar};
use proptest::prelude::*;

fn matrices(max_dim: usize) -> impl Strategy<Value = Dense2<f64>> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |v| Dense2::from_vec(r, c, v).unwrap())
    })
}

/// The i-k-j axpy loop `ops::matmul` ran before its register-tiled panel.
/// Every GEMM must keep its bits: each output element is zero plus
/// `a[i][k] * b[k][j]` in ascending `k`, a multiply then an add.
fn ikj_oracle<S: Scalar>(a: &Dense2<S>, b: &Dense2<S>) -> Dense2<S> {
    let mut out = Dense2::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let orow = out.row_mut(i);
        for (kk, &aval) in a.row(i).iter().enumerate() {
            for (o, &bv) in orow.iter_mut().zip(b.row(kk)) {
                *o += aval * bv;
            }
        }
    }
    out
}

/// A scalar's bit pattern, and a subnormal of its type.
trait Bits: Scalar {
    const SUBNORMAL: Self;
    fn bits(self) -> u64;
    fn nan(self) -> bool;
}

impl Bits for f32 {
    const SUBNORMAL: Self = f32::MIN_POSITIVE / 8.0;
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn nan(self) -> bool {
        self.is_nan()
    }
}

impl Bits for f64 {
    const SUBNORMAL: Self = f64::MIN_POSITIVE / 8.0;
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn nan(self) -> bool {
        self.is_nan()
    }
}

/// A GEMM operand drawn from `seed`. `mode` 0 is finite values in [-1, 1];
/// 1 mixes in -0.0 and subnormals; 2 mixes in ±∞ and NaN; 3 scales half the
/// values to at most 8× the smallest normal, so their products with the
/// rest are subnormal and products of two of them underflow to signed
/// zeros.
fn operand<S: Bits>(rows: usize, cols: usize, seed: u64, mode: u64) -> Dense2<S> {
    Dense2::from_fn(rows, cols, |i, j| {
        let mut h = seed ^ ((i * 1031 + j) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 29;
        let finite = S::from_f64((h % 2001) as f64 / 1000.0 - 1.0);
        let pick = (h >> 40) % 8;
        match (mode, pick) {
            (1, 0) => S::from_f64(-0.0),
            (1, 1) => S::SUBNORMAL,
            (1, 2) => -S::SUBNORMAL * S::from_f64(3.0),
            (2, 0) => S::from_f64(f64::INFINITY),
            (2, 1) => S::from_f64(f64::NEG_INFINITY),
            (2, 2) => S::from_f64(f64::NAN),
            (3, 0..=3) => finite * S::SUBNORMAL * S::from_f64(64.0),
            _ => finite,
        }
    })
}

/// Equal bits, where a NaN equals any NaN: Rust leaves the sign and payload
/// of a NaN that an add or multiply returns unspecified, and LLVM may swap an
/// add's operands, which decides whose NaN an x86 add returns.
fn same_bits<S: Bits>(got: &Dense2<S>, want: &Dense2<S>, op: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", op);
    for (at, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let (bg, bw) = (g.bits(), w.bits());
        prop_assert!(
            bg == bw || (g.nan() && w.nan()),
            "{} at flat {}: {} vs {} ({:#x} vs {:#x})",
            op,
            at,
            g,
            w,
            bg,
            bw
        );
    }
    Ok(())
}

/// `matmul`, `matmul_bt` and `matmul_at` on `S` equal the oracle bit for bit.
fn gemms_match_the_oracle<S: Bits>(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    mode: u64,
) -> Result<(), TestCaseError> {
    let a: Dense2<S> = operand(m, k, seed, mode);
    let b: Dense2<S> = operand(k, n, seed ^ 1, mode);
    same_bits(&ops::matmul(&a, &b).unwrap(), &ikj_oracle(&a, &b), "matmul")?;
    let bt: Dense2<S> = operand(n, k, seed ^ 2, mode);
    same_bits(
        &ops::matmul_bt(&a, &bt).unwrap(),
        &ikj_oracle(&a, &ops::transpose(&bt)),
        "matmul_bt",
    )?;
    let at: Dense2<S> = operand(k, m, seed ^ 3, mode);
    same_bits(
        &ops::matmul_at(&at, &b).unwrap(),
        &ikj_oracle(&ops::transpose(&at), &b),
        "matmul_at",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gemms_keep_the_ikj_loops_bits(
        m in 0usize..41, k in 0usize..71, n in 0usize..41, seed in 0u64..1 << 40, mode in 0u64..4,
    ) {
        // Up to 40 columns mix 16-wide, 8-wide and one-column tiles, up to
        // 40 rows mix 4-row and one-row tiles, and k > 64 gives `matmul_at`
        // two `k` blocks.
        gemms_match_the_oracle::<f32>(m, k, n, seed, mode)?;
        gemms_match_the_oracle::<f64>(m, k, n, seed, mode)?;
    }
}

proptest! {
    #[test]
    fn tiles_partition_the_axis(cols in 0usize..500, parts in 1usize..40) {
        let tiles: Vec<_> = ColTiles::new(cols, parts).collect();
        // coverage
        let total: usize = tiles.iter().map(|t| t.len()).sum();
        prop_assert_eq!(total, cols);
        // contiguity + balance (widths differ by at most 1)
        let mut cursor = 0;
        let mut widths = vec![];
        for t in &tiles {
            prop_assert_eq!(t.start, cursor);
            cursor = t.end;
            widths.push(t.len());
        }
        if cols > 0 {
            let mn = *widths.iter().min().unwrap();
            let mx = *widths.iter().max().unwrap();
            prop_assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn split_ranges_cover(n in 0usize..300, parts in 1usize..20) {
        let rs = split_ranges(n, parts);
        let total: usize = rs.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, n);
        let mut cursor = 0;
        for r in &rs {
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
        }
    }

    #[test]
    fn matmul_bt_keeps_the_row_dot_bits(
        m in 0usize..9, k in 0usize..70, n in 1usize..9, seed in 0u64..500,
    ) {
        // The row-dot form `matmul_bt` had before it ran `matmul`'s axpy
        // loop: the same products, summed in the same ascending-k order.
        let f = |salt: u64, r: usize, c: usize| {
            Dense2::<f32>::from_fn(r, c, |i, j| {
                let h = ((i * 31 + j * 17) as u64 ^ (seed + salt)).wrapping_mul(2654435761) % 2001;
                h as f32 / 1000.0 - 1.0
            })
        };
        let (a, b) = (f(0, m, k), f(1, n, k));
        let got = ops::matmul_bt(&a, &b).unwrap();
        prop_assert_eq!(got.shape(), (m, n));
        for i in 0..m {
            for j in 0..n {
                let want = ops::dot(a.row(i), b.row(j));
                // equal bits, except that an all-zero dot may differ in sign
                prop_assert!(
                    got.at(i, j).to_bits() == want.to_bits() || (got.at(i, j) == 0.0 && want == 0.0),
                    "({}, {}): {} vs {}", i, j, got.at(i, j), want
                );
            }
        }
    }

    #[test]
    fn matmul_rows_do_not_depend_on_the_other_rows(
        m in 1usize..24, k in 0usize..70, n in 1usize..41, seed in 0u64..500,
    ) {
        // Row i of a GEMM is the one-row GEMM of row i, bit for bit. Sampled
        // blocks, layer-0 tables and kept full-graph answers compute a row
        // in calls of different heights and rely on this.
        let f = |salt: u64, r: usize, c: usize| {
            Dense2::<f32>::from_fn(r, c, |i, j| {
                let h = ((i * 31 + j * 17) as u64 ^ (seed + salt)).wrapping_mul(2654435761) % 2001;
                h as f32 / 1000.0 - 1.0
            })
        };
        let (a, b) = (f(0, m, k), f(1, k, n));
        let all = ops::matmul(&a, &b).unwrap();
        for i in 0..m {
            let one = Dense2::from_fn(1, k, |_, j| a.at(i, j));
            let row = ops::matmul(&one, &b).unwrap();
            let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(all.row(i)), bits(row.row(0)), "row {}", i);
        }
    }

    #[test]
    fn transpose_is_an_involution(a in matrices(12)) {
        let tt = ops::transpose(&ops::transpose(&a));
        prop_assert!(a.approx_eq(&tt, 0.0));
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500,
    ) {
        let f = |salt: u64, r: usize, c: usize| {
            Dense2::from_fn(r, c, |i, j| ((i * 31 + j * 17 + (seed + salt) as usize) % 13) as f64 - 6.0)
        };
        let a = f(0, m, k);
        let b = f(1, k, n);
        let c = f(2, k, n);
        let lhs = ops::matmul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(
            &ops::matmul(&a, &b).unwrap(),
            &ops::matmul(&a, &c).unwrap(),
        ).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn matmul_transpose_identities(a in matrices(8), seed in 0u64..100) {
        // (A x B)^T == B^T x A^T
        let k = a.cols();
        let n = 1 + (seed as usize % 5);
        let b = Dense2::from_fn(k, n, |i, j| ((i + 2 * j + seed as usize) % 9) as f64 - 4.0);
        let ab_t = ops::transpose(&ops::matmul(&a, &b).unwrap());
        let bt_at = ops::matmul(&ops::transpose(&b), &ops::transpose(&a)).unwrap();
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
    }

    #[test]
    fn relu_is_idempotent_and_non_negative(a in matrices(10)) {
        let r1 = ops::relu(&a);
        let r2 = ops::relu(&r1);
        prop_assert!(r1.approx_eq(&r2, 0.0));
        prop_assert!(r1.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rows_mut2_preserves_other_rows(rows in 2usize..8, cols in 1usize..6, a in 0usize..8, b in 0usize..8) {
        let a = a % rows;
        let b = b % rows;
        prop_assume!(a != b);
        let mut m = Dense2::from_fn(rows, cols, |r, c| (r * cols + c) as f64);
        let orig = m.clone();
        {
            let (ra, rb) = m.rows_mut2(a, b);
            for v in ra.iter_mut() { *v += 100.0; }
            for v in rb.iter_mut() { *v -= 100.0; }
        }
        for r in 0..rows {
            for c in 0..cols {
                let expect = if r == a {
                    orig.at(r, c) + 100.0
                } else if r == b {
                    orig.at(r, c) - 100.0
                } else {
                    orig.at(r, c)
                };
                prop_assert_eq!(m.at(r, c), expect);
            }
        }
    }
}
