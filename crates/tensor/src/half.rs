//! Software half-precision types.
//!
//! The paper uses FP16 embedding-table storage (§5.3.2) and FP16/BF16
//! quantized collectives (§4.5, [Yang et al. 2020]). On CPU there is no
//! hardware half type, so we implement the two 16-bit formats as newtypes
//! over `u16` with correct conversion semantics:
//!
//! * [`F16`] — IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
//!   round-to-nearest-even plus an optional stochastic-rounding conversion
//!   used for embedding updates.
//! * [`Bf16`] — bfloat16 (truncated binary32), the format used for backward
//!   AlltoAll because its dynamic range matches FP32.

use std::fmt;

use serde::{Deserialize, Serialize};

/// IEEE binary16 value stored as raw bits.
///
/// # Example
///
/// ```
/// use neo_tensor::F16;
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct F16(u16);

/// bfloat16 value stored as raw bits.
///
/// # Example
///
/// ```
/// use neo_tensor::Bf16;
/// let b = Bf16::from_f32(3.0);
/// assert_eq!(b.to_f32(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Bf16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Largest finite f16 value (65504).
    pub const MAX: F16 = F16(0x7bff);

    /// Converts from `f32` with round-to-nearest-even.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        Self(f32_to_f16_bits(value))
    }

    /// Converts from `f32` with stochastic rounding, using `noise` drawn
    /// uniformly from `[0, 1)`. Stochastic rounding keeps low-magnitude
    /// gradient updates from being systematically lost when embedding
    /// tables are stored in FP16.
    #[must_use]
    pub fn from_f32_stochastic(value: f32, noise: f32) -> Self {
        if !value.is_finite() {
            return Self::from_f32(value);
        }
        let lo_bits = f32_to_f16_bits_truncate(value);
        let lo = f16_bits_to_f32(lo_bits);
        if lo == value {
            return Self(lo_bits);
        }
        let hi_bits = next_toward_inf(lo_bits, value.is_sign_negative());
        let hi = f16_bits_to_f32(hi_bits);
        let span = hi - lo;
        let frac = if span == 0.0 || !span.is_finite() {
            0.0
        } else {
            (value - lo) / span
        };
        if noise < frac.abs() {
            Self(hi_bits)
        } else {
            Self(lo_bits)
        }
    }

    /// Converts back to `f32` (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds a value from a raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        Self(bits)
    }
}

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);

    /// Converts from `f32` with round-to-nearest-even on the truncated bits.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        Self(bf16_bits(value))
    }

    /// Converts back to `f32` (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds a value from a raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        Self(bits)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl From<f32> for Bf16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<Bf16> for f32 {
    fn from(v: Bf16) -> Self {
        v.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

// The slice kernels are plain `extend(map)` loops: with branch-free
// conversions inlined, the body is straight-line integer and float
// selects, which the autovectorizer turns into SIMD on its own. Explicit
// `[_; LANE]` chunking measured slower here (the lane array is one more
// copy on the way into `dst`).

/// Quantizes a slice of `f32` to FP16 bits (round-to-nearest-even).
pub fn quantize_f16(src: &[f32], dst: &mut Vec<u16>) {
    dst.clear();
    dst.extend(src.iter().map(|&v| f32_to_f16_bits(v)));
}

/// Dequantizes FP16 bits back to `f32`.
pub fn dequantize_f16(src: &[u16], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(src.iter().map(|&b| f16_bits_to_f32(b)));
}

/// Quantizes a slice of `f32` to BF16 bits.
pub fn quantize_bf16(src: &[f32], dst: &mut Vec<u16>) {
    dst.clear();
    dst.extend(src.iter().map(|&v| bf16_bits(v)));
}

/// Dequantizes BF16 bits back to `f32`.
pub fn dequantize_bf16(src: &[u16], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(src.iter().map(|&b| Bf16::from_bits(b).to_f32()));
}

/// f32 bits of 2^-14, the smallest normal f16.
const F16_MIN_NORMAL: u32 = 113 << 23;

/// f32 -> bf16 bits, round-to-nearest-even; NaN keeps its sign and high
/// payload and is forced quiet.
#[inline(always)]
fn bf16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    // adding 0x7fff plus the kept LSB carries into bit 16 exactly when
    // the dropped half is above the tie, or at the tie with an odd LSB
    let rounded = bits.wrapping_add(0x7fff + ((bits >> 16) & 1)) >> 16;
    let quiet_nan = (bits >> 16) | 0x0040;
    let is_nan = (bits & 0x7fff_ffff) > 0x7f80_0000;
    (if is_nan { quiet_nan } else { rounded }) as u16
}

/// f16 bits -> f32 (exact), branch-free: the exponent is rebiased with an
/// integer add; Inf/NaN take a second add to the all-ones f32 exponent,
/// and subnormals are renormalized by one exact float subtraction.
#[inline(always)]
fn f16_bits_to_f32(bits: u16) -> f32 {
    const EXP_MASK: u32 = 0x7c00 << 13;
    let sign = u32::from(bits & 0x8000) << 16;
    let shifted = u32::from(bits & 0x7fff) << 13;
    let exp = shifted & EXP_MASK;
    let rebiased = shifted + ((127 - 15) << 23);
    let inf_nan = rebiased + ((128 - 16) << 23);
    // as a normal with exponent -14, then minus 2^-14: mant * 2^-24 exactly
    let sub = (f32::from_bits(rebiased + (1 << 23)) - f32::from_bits(F16_MIN_NORMAL)).to_bits();
    let mag = if exp == EXP_MASK {
        inf_nan
    } else if exp == 0 {
        sub
    } else {
        rebiased
    };
    f32::from_bits(sign | mag)
}

/// f32 -> f16 bits, round-to-nearest-even, branch-free: normals round with
/// an integer add, subnormals with a magic float add (the FPU's own
/// round-to-nearest-even), and overflow / Inf / NaN are selected at the
/// end. NaN becomes the quiet NaN `0x7e00` with the input's sign.
#[inline(always)]
fn f32_to_f16_bits(value: f32) -> u16 {
    // 2^16: at or above this every f32 rounds to f16 Inf (or is NaN)
    const OVERFLOW: u32 = (127 + 16) << 23;
    // 0.5: adding it leaves an input below 2^-14 rounded to f16 subnormal
    // ulps (2^-24) in the low mantissa bits
    const DENORM_MAGIC: u32 = ((127 - 15) + (23 - 10) + 1) << 23;
    let bits = value.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    // normal: rebias the exponent; 0xfff plus the kept LSB carries into
    // bit 13 exactly on round-to-nearest-even (and into the exponent on
    // mantissa overflow, up to Inf)
    let mant_odd = (abs >> 13) & 1;
    let normal = abs
        .wrapping_sub((127 - 15) << 23)
        .wrapping_add(0xfff + mant_odd)
        >> 13;
    let sub = (f32::from_bits(abs) + f32::from_bits(DENORM_MAGIC))
        .to_bits()
        .wrapping_sub(DENORM_MAGIC);
    let inf_nan = if abs > 0x7f80_0000 { 0x7e00 } else { 0x7c00 };
    let mag = if abs >= OVERFLOW {
        inf_nan
    } else if abs < F16_MIN_NORMAL {
        sub
    } else {
        normal
    };
    (sign | mag) as u16
}

/// Truncating (round-toward-zero) f32 -> f16, used as the "low" endpoint for
/// stochastic rounding.
fn f32_to_f16_bits_truncate(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 31) as u16) << 15;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;
    if exp == 0xff {
        return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7bff; // clamp to max finite when truncating
    }
    if unbiased >= -14 {
        return sign | (((unbiased + 15) as u16) << 10) | (mant >> 13) as u16;
    }
    if unbiased < -24 {
        return sign;
    }
    let shift = (-14 - unbiased) as u32;
    let full = mant | 0x80_0000;
    sign | (full >> (13 + shift)) as u16
}

/// Next representable f16 away from zero (toward +/- inf depending on sign).
fn next_toward_inf(bits: u16, negative: bool) -> u16 {
    let mag = bits & 0x7fff;
    let sign = bits & 0x8000;
    if mag >= 0x7bff {
        return bits; // already max finite; stay
    }
    let _ = negative;
    sign | (mag + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_exact_small_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 1.5, 2.0, -3.25, 1024.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; RNE
        // picks the even mantissa (1.0).
        let v = 1.0 + f32::powi(2.0, -11);
        assert_eq!(F16::from_f32(v).to_f32(), 1.0);
        // slightly above halfway rounds up
        let v = 1.0 + f32::powi(2.0, -11) + f32::powi(2.0, -13);
        assert_eq!(F16::from_f32(v).to_f32(), 1.0 + f32::powi(2.0, -10));
    }

    #[test]
    fn f16_overflow_and_subnormal() {
        assert!(F16::from_f32(1e6).to_f32().is_infinite());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        let tiny = f32::powi(2.0, -20);
        let rt = F16::from_f32(tiny).to_f32();
        assert!((rt - tiny).abs() < f32::powi(2.0, -24));
        assert_eq!(F16::from_f32(1e-30).to_f32(), 0.0);
    }

    #[test]
    fn f16_max_constant() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn bf16_truncation_and_rounding() {
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(-2.5).to_f32(), -2.5);
        // bf16 keeps f32 range
        assert!(Bf16::from_f32(1e38).to_f32().is_finite());
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
        // relative error bounded by 2^-8
        for v in [3.3321f32, 1e-5, 123456.0, -0.001] {
            let r = Bf16::from_f32(v).to_f32();
            assert!(((r - v) / v).abs() < 1.0 / 128.0, "{v} -> {r}");
        }
    }

    #[test]
    fn stochastic_rounding_is_bracketed() {
        let v = 1.0 + 3.0 * f32::powi(2.0, -12); // not representable in f16
        let lo = F16::from_f32_stochastic(v, 0.999).to_f32();
        let hi = F16::from_f32_stochastic(v, 0.0001).to_f32();
        assert!(lo <= v && v <= hi, "{lo} {v} {hi}");
        assert!(hi > lo);
        // exact values never move
        assert_eq!(F16::from_f32_stochastic(1.5, 0.7).to_f32(), 1.5);
    }

    #[test]
    fn stochastic_rounding_unbiased_in_expectation() {
        let v = 1.0 + 3.0 * f32::powi(2.0, -12);
        let n = 10_000;
        let mut acc = 0.0f64;
        for i in 0..n {
            let noise = (i as f32 + 0.5) / n as f32;
            acc += F16::from_f32_stochastic(v, noise).to_f32() as f64;
        }
        let mean = acc / n as f64;
        assert!((mean - v as f64).abs() < 1e-5, "mean {mean} vs {v}");
    }

    #[test]
    fn quantize_roundtrips() {
        let src = vec![0.0f32, 1.0, -2.5, 0.125, 100.0];
        let mut q = Vec::new();
        let mut d = Vec::new();
        quantize_f16(&src, &mut q);
        dequantize_f16(&q, &mut d);
        assert_eq!(d, src);
        quantize_bf16(&src, &mut q);
        dequantize_bf16(&q, &mut d);
        assert_eq!(d, src);
    }

    /// The original branchy scalar conversions, kept as the bit-exact
    /// reference the branch-free kernels are checked against.
    mod reference {
        pub fn f16_bits_to_f32(bits: u16) -> f32 {
            let sign = ((bits >> 15) as u32) << 31;
            let exp = ((bits >> 10) & 0x1f) as u32;
            let mant = (bits & 0x3ff) as u32;
            let out = if exp == 0 {
                if mant == 0 {
                    sign
                } else {
                    let mut e = 127 - 15 + 1;
                    let mut m = mant;
                    while m & 0x400 == 0 {
                        m <<= 1;
                        e -= 1;
                    }
                    sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
                }
            } else if exp == 0x1f {
                sign | 0x7f80_0000 | (mant << 13)
            } else {
                sign | ((exp + 127 - 15) << 23) | (mant << 13)
            };
            f32::from_bits(out)
        }

        pub fn f32_to_f16_bits(value: f32) -> u16 {
            let bits = value.to_bits();
            let sign = ((bits >> 31) as u16) << 15;
            let exp = ((bits >> 23) & 0xff) as i32;
            let mant = bits & 0x7f_ffff;
            if exp == 0xff {
                return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
            }
            let unbiased = exp - 127;
            if unbiased > 15 {
                return sign | 0x7c00;
            }
            if unbiased >= -14 {
                let m = mant >> 13;
                let round = (mant >> 12) & 1;
                let sticky = mant & 0xfff;
                let mut h = sign | (((unbiased + 15) as u16) << 10) | m as u16;
                if round == 1 && (sticky != 0 || h & 1 == 1) {
                    h = h.wrapping_add(1);
                }
                return h;
            }
            if unbiased < -25 {
                return sign;
            }
            let shift = (-14 - unbiased) as u32;
            let full = mant | 0x80_0000;
            let m = full >> (13 + shift);
            let rem = full & ((1 << (13 + shift)) - 1);
            let halfway = 1u32 << (12 + shift);
            let mut h = sign | m as u16;
            if rem > halfway || (rem == halfway && h & 1 == 1) {
                h = h.wrapping_add(1);
            }
            h
        }

        pub fn bf16_bits(value: f32) -> u16 {
            let bits = value.to_bits();
            let round_bit = (bits >> 15) & 1;
            let sticky = bits & 0x7fff;
            let mut hi = (bits >> 16) as u16;
            if round_bit == 1 && (sticky != 0x0000 || hi & 1 == 1) && !value.is_nan() {
                hi = hi.wrapping_add(1);
            }
            if value.is_nan() {
                hi = ((bits >> 16) as u16) | 0x0040;
            }
            hi
        }
    }

    /// Asserts the branch-free f32 -> 16-bit conversions match the
    /// reference on the f32 bit pattern `bits`.
    fn check_f32_bits(bits: u32) {
        let v = f32::from_bits(bits);
        assert_eq!(
            f32_to_f16_bits(v),
            reference::f32_to_f16_bits(v),
            "f16 of {bits:#010x}"
        );
        assert_eq!(
            bf16_bits(v),
            reference::bf16_bits(v),
            "bf16 of {bits:#010x}"
        );
    }

    /// Boundary classes of the f32 -> f16 conversion, both signs.
    fn boundary_bits() -> Vec<u32> {
        let mut out: Vec<u32> = vec![
            0x0000_0000, // +0
            0x0000_0001, // smallest f32 subnormal
            0x007f_ffff, // largest f32 subnormal
            0x3300_0000, // 2^-25: the tie between 0 and the smallest f16 subnormal
            0x3880_0000, // 2^-14: smallest f16 normal
            0x477f_e000, // 65504: largest finite f16
            0x477f_f000, // 65520: ties up to Inf
            0x4780_0000, // 65536
            0x7f7f_ffff, // largest finite f32
            0x7f80_0000, // Inf
            0x7fc0_0000, // quiet NaN
            0x7f80_0001, // signalling NaN, lowest payload
            0x7fa0_0000, // signalling NaN, high payload
            0x7fff_ffff, // quiet NaN, full payload
        ];
        // neighbours of every exact boundary above
        for b in out.clone() {
            for d in 1..=4 {
                out.push(b.wrapping_add(d) & 0x7fff_ffff);
                out.push(b.wrapping_sub(d) & 0x7fff_ffff);
            }
        }
        // every exponent that yields an f16 subnormal or rounds to zero,
        // with mantissas at the tie, around it and at the extremes
        for exp in 100u32..=113 {
            for mant in [
                0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x40_0000, 0x40_0001, 0x7f_ffff,
            ] {
                out.push((exp << 23) | mant);
            }
            for mant in (0..0x80_0000u32).step_by(4093) {
                out.push((exp << 23) | mant);
            }
        }
        let negatives: Vec<u32> = out.iter().map(|b| b | 0x8000_0000).collect();
        out.extend(negatives);
        out
    }

    #[test]
    fn conversions_match_reference_on_boundary_classes() {
        for bits in boundary_bits() {
            check_f32_bits(bits);
        }
    }

    #[test]
    fn conversions_match_reference_on_a_strided_sweep() {
        // a prime stride walks every exponent and mantissa region
        for bits in (0..=u32::MAX).step_by(257) {
            check_f32_bits(bits);
        }
    }

    #[test]
    fn every_half_converts_exactly() {
        for h in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(h).to_bits(),
                reference::f16_bits_to_f32(h).to_bits(),
                "f16 {h:#06x}"
            );
        }
    }

    #[test]
    fn slice_kernels_match_the_scalar_conversions() {
        // lengths straddle common SIMD widths so vector body and tail both run
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 83] {
            let src: Vec<f32> = boundary_bits()
                .into_iter()
                .cycle()
                .step_by(7)
                .take(len)
                .map(f32::from_bits)
                .collect();
            let mut q = vec![1u16; 3];
            quantize_f16(&src, &mut q);
            let want: Vec<u16> = src.iter().map(|&v| reference::f32_to_f16_bits(v)).collect();
            assert_eq!(q, want);
            let mut d = vec![1.0f32; 2];
            dequantize_f16(&q, &mut d);
            let back: Vec<u32> = q
                .iter()
                .map(|&h| reference::f16_bits_to_f32(h).to_bits())
                .collect();
            assert_eq!(d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), back);
            quantize_bf16(&src, &mut q);
            let want: Vec<u16> = src.iter().map(|&v| reference::bf16_bits(v)).collect();
            assert_eq!(q, want);
            dequantize_bf16(&q, &mut d);
            assert_eq!(d.len(), len);
        }
    }

    /// Every f32 bit pattern through both branch-free f32 -> 16-bit
    /// conversions. Run with `cargo test --release -p neo-tensor --lib --
    /// --ignored`.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release with --ignored"]
    fn conversions_match_reference_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let end = ((t + 1) * span).min(1 << 32);
                    for bits in t * span..end {
                        check_f32_bits(bits as u32);
                    }
                });
            }
        });
    }

    #[test]
    fn displays_value() {
        assert_eq!(F16::from_f32(1.5).to_string(), "1.5");
        assert_eq!(Bf16::from_f32(-2.0).to_string(), "-2");
    }
}
