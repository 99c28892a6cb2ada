//! Half-precision feature storage: IEEE binary16 (`f16`) and bfloat16.
//!
//! FeatGraph's SpMM/SDDMM kernels are memory-bound (see the roofline
//! attribution in EXPERIMENTS.md), so halving the bytes of the dominant
//! operand — the vertex feature matrix — is a direct lever on kernel
//! throughput and on resident serving memory. This module provides the
//! storage side of that trade:
//!
//! * [`F16`] / [`Bf16`] — 16-bit storage scalars with round-to-nearest-even
//!   `f32` encode and exact `f32` decode. They are *storage only*: no
//!   arithmetic is defined on them, because kernels must accumulate in
//!   `f32` (the [`FeatElem`] contract).
//! * [`FeatElem`] — the load/store conversion trait kernels are generic
//!   over. Implemented for `f32` (identity), `F16`, and `Bf16`.
//! * [`FeatureDtype`] — runtime dtype tag (CLI flags, wire protocol, plan
//!   cache keys).
//! * [`FeatureTensor`] — a dtype-erased feature matrix the serving tier
//!   stores per model, with f32 gather/materialize paths.
//!
//! Hand-rolled on purpose: the workspace takes no external dependencies,
//! and the conversions are ~30 lines each.

use crate::dense::Dense2;

/// IEEE 754 binary16 storage scalar (1 sign, 5 exponent, 10 mantissa bits).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct F16(u16);

/// bfloat16 storage scalar: the top 16 bits of an `f32` (1 sign, 8 exponent,
/// 7 mantissa bits) — same dynamic range as `f32`, less precision.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Bf16(u16);

/// Encode an `f32` as IEEE binary16 with round-to-nearest-even.
/// Overflow saturates to `±inf`; NaN maps to a canonical quiet NaN.
#[inline]
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf stays inf; any NaN becomes the canonical quiet NaN.
        return if man == 0 { sign | 0x7c00 } else { sign | 0x7e00 };
    }
    let e = exp - 127 + 15; // re-biased exponent
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e <= 0 {
        // Result is subnormal (or rounds to zero). Values below half the
        // smallest subnormal truncate to signed zero.
        if e < -10 {
            return sign;
        }
        let man = man | 0x0080_0000; // make the implicit bit explicit
        let shift = (14 - e) as u32; // 14..=24
        let half_man = (man >> shift) as u16;
        let round_bit = 1u32 << (shift - 1);
        let sticky = man & (round_bit - 1) != 0;
        if man & round_bit != 0 && (sticky || half_man & 1 != 0) {
            return sign | (half_man + 1); // may carry into the exponent: correct
        }
        return sign | half_man;
    }
    let half_man = (man >> 13) as u16;
    let mut h = sign | ((e as u16) << 10) | half_man;
    let round_bit = 1u32 << 12;
    let sticky = man & (round_bit - 1) != 0;
    if man & round_bit != 0 && (sticky || half_man & 1 != 0) {
        h += 1; // mantissa overflow carries into the exponent: still correct
    }
    h
}

/// Decode an IEEE binary16 bit pattern to `f32` (always exact).
///
/// Branchless on purpose: this sits in the inner load loop of every f16
/// kernel, so it must compile to straight-line integer ops and selects
/// that LLVM can auto-vectorize, not a per-element branch (which costs
/// ~5x on the SpMM inner loop). All three cases are computed and the
/// right one selected:
///
/// * normal — re-bias the exponent (+112) and shift into place;
/// * subnormal/zero — re-biased bits sit at exponent 112 with fraction
///   `man/2¹⁰`; bumping to exponent 113 and subtracting 2⁻¹⁴ yields
///   exactly `man × 2⁻²⁴` (and `+0.0` for zero);
/// * inf/NaN — a second +112 pushes the exponent to 255, preserving the
///   NaN payload in the top mantissa bits.
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let e5 = u32::from(h >> 10) & 0x1f; // the 5-bit exponent field
    let em = (u32::from(h) & 0x7fff) << 13; // exp+man in f32 position
    let adjusted = em.wrapping_add(112 << 23);
    let normal = f32::from_bits(adjusted);
    let inf_nan = f32::from_bits(adjusted.wrapping_add(112 << 23));
    let subnorm = f32::from_bits(adjusted.wrapping_add(1 << 23)) - f32::from_bits(113 << 23);
    let v = if e5 == 0 {
        subnorm
    } else if e5 == 0x1f {
        inf_nan
    } else {
        normal
    };
    f32::from_bits(v.to_bits() | sign)
}

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

impl F16 {
    /// Quantize an `f32` (round-to-nearest-even).
    #[inline(always)]
    pub fn from_f32(x: f32) -> Self {
        F16(f16_from_f32(x))
    }

    /// Exact widening back to `f32`.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        f16_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[inline(always)]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// From a raw bit pattern.
    #[inline(always)]
    pub fn from_bits(bits: u16) -> Self {
        F16(bits)
    }
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

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
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
    /// IEEE binary16 storage, f32 accumulate.
    F16,
    /// bfloat16 storage, f32 accumulate.
    Bf16,
}

impl FeatureDtype {
    /// Bytes per element.
    pub fn size_bytes(self) -> usize {
        match self {
            FeatureDtype::F32 => 4,
            FeatureDtype::F16 | FeatureDtype::Bf16 => 2,
        }
    }

    /// Stable lowercase name (`f32`/`f16`/`bf16`) used in CLI flags, plan
    /// keys, and wire payloads.
    pub fn name(self) -> &'static str {
        match self {
            FeatureDtype::F32 => "f32",
            FeatureDtype::F16 => "f16",
            FeatureDtype::Bf16 => "bf16",
        }
    }

    /// One-byte wire code (1/2/3). Code 0 is reserved for "absent".
    pub fn wire_code(self) -> u8 {
        match self {
            FeatureDtype::F32 => 1,
            FeatureDtype::F16 => 2,
            FeatureDtype::Bf16 => 3,
        }
    }

    /// Inverse of [`wire_code`](Self::wire_code).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FeatureDtype::F32),
            2 => Some(FeatureDtype::F16),
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
            "f16" => Ok(FeatureDtype::F16),
            "bf16" => Ok(FeatureDtype::Bf16),
            other => Err(format!("unknown feature dtype {other:?} (expected f32|f16|bf16)")),
        }
    }
}

/// Storage element of a feature tensor: loads widen to `f32`, stores narrow
/// from `f32`. Kernels generic over `FeatElem` therefore always accumulate
/// in `f32`; for `E = f32` both conversions are the identity and the
/// monomorphized code is the pre-existing full-precision path, bit for bit.
pub trait FeatElem: Copy + Default + Send + Sync + std::fmt::Debug + 'static {
    /// The runtime tag for this element type.
    const DTYPE: FeatureDtype;

    /// Widen to `f32` (exact for all three storage types).
    fn load(self) -> f32;

    /// Narrow from `f32` (round-to-nearest-even for the half types).
    fn store(x: f32) -> Self;

    /// Whether kernels should stage rows of this type through a stack
    /// buffer with [`widen`](Self::widen) before combining. True only
    /// when the per-element decode is too complex to vectorize inside a
    /// combine loop (f16); f32 (identity) and bf16 (one shift) combine
    /// in place.
    const STAGED_WIDEN: bool = false;

    /// The slice itself when storage already *is* `f32`. Kernels that stage
    /// operands check this first, so an `f32` operand is read in place and
    /// never copied into a staging buffer.
    #[inline(always)]
    fn as_f32(src: &[Self]) -> Option<&[f32]> {
        let _ = src;
        None
    }

    /// Widen a slice to `f32` (`dst.len() == src.len()`), using hardware
    /// conversions where available. Kernels stage half rows through a
    /// small stack buffer with this instead of calling [`load`] per
    /// element, so the decode runs 8-wide (F16C) or auto-vectorized
    /// instead of defeating vectorization inside the combine loop.
    #[inline]
    fn widen(src: &[Self], dst: &mut [f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s.load();
        }
    }
}

/// Elements per stack staging buffer in widen-and-combine kernel loops.
/// 128 f32s = two cache lines of halves in, eight lines out — big enough
/// to amortize the chunk loop, small enough to live on the stack.
pub const WIDEN_CHUNK: usize = 128;

/// 8-wide `vcvtph2ps` decode; exact, like the scalar path.
///
/// # Safety
/// Caller must ensure the CPU supports F16C (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn widen_f16c(src: &[F16], dst: &mut [f32]) {
    use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
    let n = src.len().min(dst.len());
    let sp = src.as_ptr().cast::<u16>();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let h = _mm_loadu_si128(sp.add(i).cast());
        _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
        i += 8;
    }
    while i < n {
        *dp.add(i) = f16_to_f32(*sp.add(i));
        i += 1;
    }
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

    #[inline(always)]
    fn as_f32(src: &[Self]) -> Option<&[f32]> {
        Some(src)
    }

    #[inline(always)]
    fn widen(src: &[Self], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }
}

impl FeatElem for F16 {
    const DTYPE: FeatureDtype = FeatureDtype::F16;
    const STAGED_WIDEN: bool = true;

    #[inline(always)]
    fn load(self) -> f32 {
        self.to_f32()
    }

    #[inline(always)]
    fn store(x: f32) -> Self {
        F16::from_f32(x)
    }

    #[inline]
    fn widen(src: &[Self], dst: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("f16c") {
            // SAFETY: feature presence checked at runtime just above.
            unsafe { widen_f16c(src, dst) };
            return;
        }
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
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

/// A dtype-erased feature matrix: what the serving tier stores per model.
///
/// The `F32` variant is the bitwise-identical baseline; the half variants
/// halve resident bytes and widen to `f32` at gather/materialize time.
#[derive(Debug, Clone)]
pub enum FeatureTensor {
    /// Full-precision storage.
    F32(Dense2<f32>),
    /// IEEE binary16 storage.
    F16(Dense2<F16>),
    /// bfloat16 storage.
    Bf16(Dense2<Bf16>),
}

impl FeatureTensor {
    /// Quantize `src` into the requested storage dtype. `F32` moves the
    /// matrix without copying.
    pub fn from_f32(dtype: FeatureDtype, src: Dense2<f32>) -> Self {
        match dtype {
            FeatureDtype::F32 => FeatureTensor::F32(src),
            FeatureDtype::F16 => FeatureTensor::F16(quantize(&src)),
            FeatureDtype::Bf16 => FeatureTensor::Bf16(quantize(&src)),
        }
    }

    /// The storage dtype tag.
    pub fn dtype(&self) -> FeatureDtype {
        match self {
            FeatureTensor::F32(_) => FeatureDtype::F32,
            FeatureTensor::F16(_) => FeatureDtype::F16,
            FeatureTensor::Bf16(_) => FeatureDtype::Bf16,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            FeatureTensor::F32(m) => m.rows(),
            FeatureTensor::F16(m) => m.rows(),
            FeatureTensor::Bf16(m) => m.rows(),
        }
    }

    /// Number of columns (the feature length `d`).
    pub fn cols(&self) -> usize {
        match self {
            FeatureTensor::F32(m) => m.cols(),
            FeatureTensor::F16(m) => m.cols(),
            FeatureTensor::Bf16(m) => m.cols(),
        }
    }

    /// Heap bytes held by the backing storage (halved for half dtypes).
    pub fn mem_bytes(&self) -> u64 {
        match self {
            FeatureTensor::F32(m) => m.mem_bytes(),
            FeatureTensor::F16(m) => m.mem_bytes(),
            FeatureTensor::Bf16(m) => m.mem_bytes(),
        }
    }

    /// Borrow the full-precision matrix without copying, when stored as f32.
    pub fn as_f32(&self) -> Option<&Dense2<f32>> {
        match self {
            FeatureTensor::F32(m) => Some(m),
            _ => None,
        }
    }

    /// Materialize the whole matrix in `f32` (a copy for half dtypes; use
    /// [`as_f32`](Self::as_f32) first to avoid it when stored full-width).
    pub fn to_f32(&self) -> Dense2<f32> {
        match self {
            FeatureTensor::F32(m) => m.clone(),
            FeatureTensor::F16(m) => dequantize(m),
            FeatureTensor::Bf16(m) => dequantize(m),
        }
    }

    /// Gather `rows[i]`-th rows into a compact `f32` matrix whose row `i`
    /// is the selected feature row, widening half storage in the copy loop
    /// (the serving tier's per-request gather reads half the bytes).
    pub fn gather_rows_f32(&self, rows: &[u32]) -> Dense2<f32> {
        let mut out = Dense2::<f32>::zeros(rows.len(), self.cols());
        match self {
            FeatureTensor::F32(m) => {
                for (i, &g) in rows.iter().enumerate() {
                    out.row_mut(i).copy_from_slice(m.row(g as usize));
                }
            }
            FeatureTensor::F16(m) => {
                for (i, &g) in rows.iter().enumerate() {
                    for (o, &v) in out.row_mut(i).iter_mut().zip(m.row(g as usize)) {
                        *o = v.load();
                    }
                }
            }
            FeatureTensor::Bf16(m) => {
                for (i, &g) in rows.iter().enumerate() {
                    for (o, &v) in out.row_mut(i).iter_mut().zip(m.row(g as usize)) {
                        *o = v.load();
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_representable_values() {
        // 6.1035156e-5 is 2^-14, the smallest normal f16.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 6.1035156e-5] {
            let h = F16::from_f32(v);
            assert_eq!(h.to_f32(), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_all_bit_patterns_round_trip_through_f32() {
        // Every finite f16 is exact in f32, so decode→encode is lossless.
        for bits in 0..=u16::MAX {
            let v = f16_to_f32(bits);
            if v.is_nan() {
                assert!(f16_to_f32(f16_from_f32(v)).is_nan());
                continue;
            }
            assert_eq!(
                f16_from_f32(v),
                bits,
                "bits {bits:#06x} decoded to {v} which re-encoded differently"
            );
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1.0 + 2^-10); ties go to the even mantissa (1.0).
        let halfway = 1.0f32 + 2f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Just above halfway rounds up.
        let above = 1.0f32 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn f16_overflow_and_specials() {
        assert_eq!(F16::from_f32(1e6).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e6).to_f32(), f32::NEG_INFINITY);
        assert_eq!(F16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        // Tiny values flush to signed zero.
        assert_eq!(F16::from_f32(1e-10).to_f32(), 0.0);
        assert_eq!(F16::from_f32(-1e-10).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_subnormals_are_exact() {
        let smallest = 2f32.powi(-24);
        assert_eq!(F16::from_f32(smallest).to_f32(), smallest);
        assert_eq!(F16::from_f32(3.0 * smallest).to_f32(), 3.0 * smallest);
    }

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
        for d in [FeatureDtype::F32, FeatureDtype::F16, FeatureDtype::Bf16] {
            assert_eq!(d.name().parse::<FeatureDtype>().unwrap(), d);
            assert_eq!(FeatureDtype::from_wire_code(d.wire_code()), Some(d));
        }
        assert!("f8".parse::<FeatureDtype>().is_err());
        assert_eq!(FeatureDtype::from_wire_code(0), None);
        assert_eq!(FeatureDtype::F16.size_bytes(), 2);
        assert_eq!(FeatureDtype::F32.size_bytes(), 4);
    }

    #[test]
    fn feature_tensor_halves_memory_and_gathers() {
        let src = Dense2::from_fn(8, 16, |r, c| (r * 16 + c) as f32 * 0.25 - 3.0);
        let full = FeatureTensor::from_f32(FeatureDtype::F32, src.clone());
        let half = FeatureTensor::from_f32(FeatureDtype::F16, src.clone());
        assert_eq!(half.mem_bytes() * 2, full.mem_bytes());
        assert_eq!(half.rows(), 8);
        assert_eq!(half.cols(), 16);

        let g_full = full.gather_rows_f32(&[7, 0, 3]);
        assert_eq!(g_full.row(0), src.row(7));
        assert_eq!(g_full.row(2), src.row(3));

        // The grid values above are small integers × 0.25: exact in f16,
        // so the half gather matches bit for bit.
        let g_half = half.gather_rows_f32(&[7, 0, 3]);
        assert_eq!(g_half.as_slice(), g_full.as_slice());

        // to_f32 round-trips the quantized values exactly.
        assert_eq!(half.to_f32().as_slice(), full.to_f32().as_slice());
    }

    #[test]
    fn quantize_dequantize_is_idempotent() {
        let src = Dense2::from_fn(5, 7, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.1 - 1.1);
        let q: Dense2<F16> = quantize(&src);
        let dq = dequantize(&q);
        let q2: Dense2<F16> = quantize(&dq);
        for (a, b) in q.as_slice().iter().zip(q2.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Quantization error is bounded by half-precision epsilon.
        for (&a, &b) in src.as_slice().iter().zip(dq.as_slice()) {
            assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-6, "{a} vs {b}");
        }
    }
}
