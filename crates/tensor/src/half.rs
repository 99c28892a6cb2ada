//! Half-precision feature storage: bfloat16.
//!
//! FeatGraph's SpMM/SDDMM kernels are memory-bound (see the roofline
//! attribution in EXPERIMENTS.md), so halving the bytes of the dominant
//! operand — the vertex feature matrix — is a direct lever on kernel
//! throughput and on resident serving memory. This module provides the
//! storage side of that trade:
//!
//! * [`Bf16`] — a 16-bit storage scalar with round-to-nearest-even `f32`
//!   encode and exact `f32` decode. It is *storage only*: no arithmetic is
//!   defined on it, because kernels must accumulate in `f32` (the
//!   [`FeatElem`] contract).
//! * [`FeatElem`] — the load/store conversion trait kernels are generic
//!   over. Implemented for `f32` (identity) and `Bf16`.
//! * [`FeatureDtype`] — runtime dtype tag (CLI flags, wire protocol).
//! * [`FeatureTensor`] — a dtype-erased feature matrix the serving tier
//!   stores per dataset, with f32 gather/widen paths.
//!
//! bfloat16 is the one half type: it keeps `f32`'s exponent range, decodes
//! with one shift (so kernel loops over it still vectorize), and holds every
//! model's test accuracy (EXPERIMENTS.md). Hand-rolled on purpose: the
//! workspace takes no external dependencies, and the conversions are a few
//! lines each.

use std::borrow::Cow;
use std::sync::Arc;

use crate::aligned::StorageElem;
use crate::dense::Dense2;

/// bfloat16 storage scalar: the top 16 bits of an `f32` (1 sign, 8 exponent,
/// 7 mantissa bits) — same dynamic range as `f32`, less precision.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Bf16(u16);

/// Encode an `f32` as bfloat16 with round-to-nearest-even.
#[inline]
pub fn bf16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Preserve sign, force a quiet NaN (truncation could yield inf).
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = ((bits >> 16) & 1) + 0x7fff;
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// Decode a bfloat16 bit pattern to `f32` (always exact).
#[inline(always)]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits(u32::from(b) << 16)
}

impl Bf16 {
    /// Quantize an `f32` (round-to-nearest-even).
    #[inline(always)]
    pub fn from_f32(x: f32) -> Self {
        Bf16(bf16_from_f32(x))
    }

    /// Exact widening back to `f32`.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        bf16_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[inline(always)]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// From a raw bit pattern.
    #[inline(always)]
    pub fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }
}

impl std::fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}bf16", self.to_f32())
    }
}

/// Runtime tag for the storage dtype of a feature tensor. Used by CLI
/// flags (`--feature-dtype`), wire-protocol feature payloads, and the
/// fgcheck `--dtype` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureDtype {
    /// Full-precision storage (the default; bitwise-identical baseline).
    #[default]
    F32,
    /// bfloat16 storage, f32 accumulate.
    Bf16,
}

impl FeatureDtype {
    /// Bytes per element.
    pub fn size_bytes(self) -> usize {
        match self {
            FeatureDtype::F32 => 4,
            FeatureDtype::Bf16 => 2,
        }
    }

    /// Stable lowercase name (`f32`/`bf16`) used in CLI flags and wire
    /// payloads.
    pub fn name(self) -> &'static str {
        match self {
            FeatureDtype::F32 => "f32",
            FeatureDtype::Bf16 => "bf16",
        }
    }

    /// One-byte wire code (1 or 3). Code 0 is reserved for "absent"; code 2
    /// is unassigned (it named IEEE binary16, which is no longer stored).
    pub fn wire_code(self) -> u8 {
        match self {
            FeatureDtype::F32 => 1,
            FeatureDtype::Bf16 => 3,
        }
    }

    /// Inverse of [`wire_code`](Self::wire_code).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FeatureDtype::F32),
            3 => Some(FeatureDtype::Bf16),
            _ => None,
        }
    }
}

impl std::fmt::Display for FeatureDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FeatureDtype {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(FeatureDtype::F32),
            "bf16" => Ok(FeatureDtype::Bf16),
            other => Err(format!("unknown feature dtype {other:?} (expected f32|bf16)")),
        }
    }
}

/// Storage element of a feature tensor: loads widen to `f32`, stores narrow
/// from `f32`. Kernels generic over `FeatElem` therefore always accumulate
/// in `f32`; for `E = f32` both conversions are the identity and the
/// monomorphized code is the pre-existing full-precision path, bit for bit.
pub trait FeatElem: StorageElem + std::fmt::Debug {
    /// The runtime tag for this element type.
    const DTYPE: FeatureDtype;

    /// Widen to `f32` (exact for both storage types).
    fn load(self) -> f32;

    /// Narrow from `f32` (round-to-nearest-even for bf16).
    fn store(x: f32) -> Self;
}

impl FeatElem for f32 {
    const DTYPE: FeatureDtype = FeatureDtype::F32;

    #[inline(always)]
    fn load(self) -> f32 {
        self
    }

    #[inline(always)]
    fn store(x: f32) -> Self {
        x
    }
}

impl FeatElem for Bf16 {
    const DTYPE: FeatureDtype = FeatureDtype::Bf16;

    #[inline(always)]
    fn load(self) -> f32 {
        self.to_f32()
    }

    #[inline(always)]
    fn store(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

/// Quantize an `f32` matrix into `E` storage.
pub fn quantize<E: FeatElem>(src: &Dense2<f32>) -> Dense2<E> {
    let mut out = Dense2::<E>::zeros(src.rows(), src.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *o = E::store(v);
    }
    out
}

/// Widen an `E` matrix back to `f32`.
pub fn dequantize<E: FeatElem>(src: &Dense2<E>) -> Dense2<f32> {
    let mut out = Dense2::<f32>::zeros(src.rows(), src.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *o = v.load();
    }
    out
}

/// A dtype-erased feature matrix: what the serving tier stores per dataset.
///
/// The `F32` variant is the bitwise-identical baseline, shared with whoever
/// else holds the matrix; the `Bf16` variant halves resident bytes and
/// widens to `f32` at gather/widen time.
#[derive(Debug, Clone)]
pub enum FeatureTensor {
    /// Full-precision storage.
    F32(Arc<Dense2<f32>>),
    /// bfloat16 storage.
    Bf16(Dense2<Bf16>),
}

impl FeatureTensor {
    /// Quantize `src` into the requested storage dtype. `F32` shares the
    /// matrix without copying.
    pub fn from_f32(dtype: FeatureDtype, src: impl Into<Arc<Dense2<f32>>>) -> Self {
        let src = src.into();
        match dtype {
            FeatureDtype::F32 => FeatureTensor::F32(src),
            FeatureDtype::Bf16 => FeatureTensor::Bf16(quantize(&src)),
        }
    }

    /// The storage dtype tag.
    pub fn dtype(&self) -> FeatureDtype {
        match self {
            FeatureTensor::F32(_) => FeatureDtype::F32,
            FeatureTensor::Bf16(_) => FeatureDtype::Bf16,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            FeatureTensor::F32(m) => m.rows(),
            FeatureTensor::Bf16(m) => m.rows(),
        }
    }

    /// Number of columns (the feature length `d`).
    pub fn cols(&self) -> usize {
        match self {
            FeatureTensor::F32(m) => m.cols(),
            FeatureTensor::Bf16(m) => m.cols(),
        }
    }

    /// Heap bytes held by the backing storage (halved for bf16).
    pub fn mem_bytes(&self) -> u64 {
        match self {
            FeatureTensor::F32(m) => m.mem_bytes(),
            FeatureTensor::Bf16(m) => m.mem_bytes(),
        }
    }

    /// The whole matrix in `f32`: borrowed when stored full-width, else a
    /// widened copy.
    pub fn widened(&self) -> Cow<'_, Dense2<f32>> {
        match self {
            FeatureTensor::F32(m) => Cow::Borrowed(&**m),
            FeatureTensor::Bf16(m) => Cow::Owned(dequantize(m)),
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trips_and_rounds() {
        for v in [0.0f32, 1.0, -2.5, 3.0e38, 1.0e-38] {
            let b = Bf16::from_f32(v);
            let back = b.to_f32();
            let rel = ((back - v) / v.abs().max(f32::MIN_POSITIVE)).abs();
            assert!(v == back || rel < 0.01, "{v} -> {back}");
        }
        // Exactly representable: 8-bit exponent means any power of two.
        assert_eq!(Bf16::from_f32(2f32.powi(100)).to_f32(), 2f32.powi(100));
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
    }

    #[test]
    fn bf16_rne_tie_goes_even() {
        // bits ...1_1000_0000_0000_0000: halfway with odd kept mantissa →
        // rounds up; halfway with even kept mantissa → truncates.
        let odd_keep = f32::from_bits(0x3f81_8000); // keeps ...0001, half set
        let rounded = bf16_from_f32(odd_keep);
        assert_eq!(rounded, 0x3f82, "tie with odd mantissa rounds up");
        let even_keep = f32::from_bits(0x3f82_8000);
        assert_eq!(bf16_from_f32(even_keep), 0x3f82, "tie with even mantissa truncates");
    }

    #[test]
    fn dtype_parsing_and_codes() {
        for d in [FeatureDtype::F32, FeatureDtype::Bf16] {
            assert_eq!(d.name().parse::<FeatureDtype>().unwrap(), d);
            assert_eq!(FeatureDtype::from_wire_code(d.wire_code()), Some(d));
        }
        assert!("f8".parse::<FeatureDtype>().is_err());
        // IEEE binary16 is not a storage type: neither its name nor its
        // former wire code (2) names a dtype.
        assert!("f16".parse::<FeatureDtype>().is_err());
        assert_eq!(FeatureDtype::from_wire_code(0), None);
        assert_eq!(FeatureDtype::from_wire_code(2), None);
        assert_eq!(FeatureDtype::Bf16.size_bytes(), 2);
        assert_eq!(FeatureDtype::F32.size_bytes(), 4);
    }

    #[test]
    fn feature_tensor_halves_memory_and_widens() {
        let src = Dense2::from_fn(8, 16, |r, c| (r * 16 + c) as f32 * 0.25 - 3.0);
        let full = FeatureTensor::from_f32(FeatureDtype::F32, src.clone());
        let half = FeatureTensor::from_f32(FeatureDtype::Bf16, src.clone());
        assert_eq!(half.mem_bytes() * 2, full.mem_bytes());
        assert_eq!(half.rows(), 8);
        assert_eq!(half.cols(), 16);

        // The grid values above are quarters below 32: exact in bf16's 8
        // significand bits, so `widened` round-trips the quantized values
        // exactly; it borrows full-width storage instead of copying it.
        assert_eq!(half.widened().as_slice(), full.widened().as_slice());
        assert!(matches!(full.widened(), Cow::Borrowed(_)));
    }

    #[test]
    fn quantize_dequantize_is_idempotent() {
        let src = Dense2::from_fn(5, 7, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.1 - 1.1);
        let q: Dense2<Bf16> = quantize(&src);
        let dq = dequantize(&q);
        let q2: Dense2<Bf16> = quantize(&dq);
        for (a, b) in q.as_slice().iter().zip(q2.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Quantization error is bounded by half of bf16's epsilon (2^-8).
        for (&a, &b) in src.as_slice().iter().zip(dq.as_slice()) {
            assert!((a - b).abs() <= a.abs() * 2f32.powi(-8), "{a} vs {b}");
        }
    }
}
