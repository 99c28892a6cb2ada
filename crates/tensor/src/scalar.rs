//! Scalar element trait for feature tensors.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::aligned::StorageElem;

/// Floating-point element type usable in feature tensors and kernels.
///
/// The bound set is deliberately small: just what generalized SpMM/SDDMM
/// kernels, reducers, and the reference dense ops need. Implemented for
/// `f32` and `f64`.
pub trait Scalar:
    StorageElem
    + Debug
    + Display
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The most negative finite value (identity for `max` reduction).
    const MIN_FINITE: Self;
    /// The most positive finite value (identity for `min` reduction).
    const MAX_FINITE: Self;

    /// Lossy conversion from `f64` (used by generators and optimizers).
    fn from_f64(x: f64) -> Self;
    /// Lossless widening to `f64` (used by loss/metric accumulation).
    fn to_f64(self) -> f64;
    /// Lossy conversion from `usize` (used for degree normalization).
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural log.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE max (propagating the larger of two values).
    fn maximum(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }
    /// IEEE min.
    fn minimum(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }
    /// Fused (semantically; the compiler may fuse) multiply-add `self * a + b`.
    #[inline(always)]
    fn mul_add_s(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    /// True if the value is finite (not NaN/inf).
    fn is_finite_s(self) -> bool;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const MIN_FINITE: Self = <$t>::MIN;
            const MAX_FINITE: Self = <$t>::MAX;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn is_finite_s(self) -> bool {
                self.is_finite()
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
    }

    #[test]
    fn max_reduction_identity_is_absorbed() {
        let vals = [-3.0f32, -7.5, -1.25];
        let mut acc = f32::MIN_FINITE;
        for &v in &vals {
            acc = Scalar::maximum(acc, v);
        }
        assert_eq!(acc, -1.25);
    }

    #[test]
    fn min_reduction_identity_is_absorbed() {
        let vals = [3.0f64, 7.5, 1.25];
        let mut acc = f64::MAX_FINITE;
        for &v in &vals {
            acc = Scalar::minimum(acc, v);
        }
        assert_eq!(acc, 1.25);
    }

    #[test]
    fn conversions_round_trip_small_ints() {
        for i in 0..100usize {
            assert_eq!(f32::from_usize(i).to_f64() as usize, i);
            assert_eq!(f64::from_usize(i).to_f64() as usize, i);
        }
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let x = 1.5f32;
        assert_eq!(x.mul_add_s(2.0, 0.25), 3.25);
    }

    #[test]
    fn finiteness() {
        assert!(1.0f32.is_finite_s());
        assert!(!(f32::MAX_FINITE * 2.0).is_finite_s());
        assert!(!f64::NAN.is_finite_s());
    }
}
