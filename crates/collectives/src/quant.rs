//! Quantized communication (§5.3.2, [Yang et al. 2020]).
//!
//! The paper sends the forward pooled-embedding AlltoAll in FP16 and the
//! backward AlltoAll in BF16: FP16 has more mantissa (better for
//! activations), BF16 has FP32's exponent range (safer for gradients).

use neo_tensor::half;

/// Error from asking a [`QuantMode`] for a wire conversion it cannot do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// [`QuantMode::Fp32`] has no 16-bit wire format; callers must
    /// short-circuit the unquantized case instead of converting.
    NotQuantized,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NotQuantized => {
                write!(f, "fp32 payloads are not quantized (no 16-bit wire format)")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Wire precision for a quantized collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// No quantization: 4 bytes/element.
    #[default]
    Fp32,
    /// IEEE half precision: 2 bytes/element; used for the forward AlltoAll.
    Fp16,
    /// bfloat16: 2 bytes/element; used for the backward AlltoAll.
    Bf16,
}

impl QuantMode {
    /// Bytes per element on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        match self {
            QuantMode::Fp32 => 4,
            QuantMode::Fp16 | QuantMode::Bf16 => 2,
        }
    }

    /// Quantizes to 16-bit wire format.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotQuantized`] on [`QuantMode::Fp32`] (which
    /// has no 16-bit wire format — callers short-circuit that case).
    pub fn quantize(&self, src: &[f32]) -> Result<Vec<u16>, QuantError> {
        let kernel = match self {
            QuantMode::Fp32 => return Err(QuantError::NotQuantized),
            QuantMode::Fp16 => half::quantize_f16,
            QuantMode::Bf16 => half::quantize_bf16,
        };
        let mut wire = Vec::new(); // lint: allow(hot_path_alloc) — wire-format buffer the quantize API returns; one allocation per exchanged tensor
        kernel(src, &mut wire);
        Ok(wire)
    }

    /// Dequantizes from the 16-bit wire format.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotQuantized`] on [`QuantMode::Fp32`].
    pub fn dequantize(&self, src: &[u16]) -> Result<Vec<f32>, QuantError> {
        let kernel = match self {
            QuantMode::Fp32 => return Err(QuantError::NotQuantized),
            QuantMode::Fp16 => half::dequantize_f16,
            QuantMode::Bf16 => half::dequantize_bf16,
        };
        let mut out = Vec::new(); // lint: allow(hot_path_alloc) — decode buffer the dequantize API returns; one allocation per exchanged tensor
        kernel(src, &mut out);
        Ok(out)
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantMode::Fp32 => write!(f, "FP32"),
            QuantMode::Fp16 => write!(f, "FP16"),
            QuantMode::Bf16 => write!(f, "BF16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(QuantMode::Fp32.wire_bytes(), 4);
        assert_eq!(QuantMode::Fp16.wire_bytes(), 2);
        assert_eq!(QuantMode::Bf16.wire_bytes(), 2);
    }

    #[test]
    fn fp16_roundtrip_error_bounded() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.123).collect();
        let back = QuantMode::Fp16
            .dequantize(&QuantMode::Fp16.quantize(&src).unwrap())
            .unwrap();
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-4);
        }
    }

    #[test]
    fn bf16_preserves_range() {
        let src = vec![1e30f32, -3e20, 4e-20];
        let back = QuantMode::Bf16
            .dequantize(&QuantMode::Bf16.quantize(&src).unwrap())
            .unwrap();
        for (a, b) in src.iter().zip(&back) {
            assert!(((a - b) / a).abs() < 1.0 / 128.0);
        }
    }

    #[test]
    fn fp16_overflows_where_bf16_does_not() {
        let src = vec![1e10f32];
        let f16 = QuantMode::Fp16
            .dequantize(&QuantMode::Fp16.quantize(&src).unwrap())
            .unwrap();
        let bf16 = QuantMode::Bf16
            .dequantize(&QuantMode::Bf16.quantize(&src).unwrap())
            .unwrap();
        assert!(f16[0].is_infinite(), "fp16 saturates at 65504");
        assert!(bf16[0].is_finite());
    }

    #[test]
    fn fp32_conversion_is_a_typed_error() {
        assert_eq!(
            QuantMode::Fp32.quantize(&[1.0]),
            Err(QuantError::NotQuantized)
        );
        assert_eq!(
            QuantMode::Fp32.dequantize(&[0]),
            Err(QuantError::NotQuantized)
        );
        assert!(QuantError::NotQuantized
            .to_string()
            .contains("not quantized"));
    }

    #[test]
    fn display_names() {
        assert_eq!(QuantMode::Fp16.to_string(), "FP16");
        assert_eq!(QuantMode::default(), QuantMode::Fp32);
    }
}
