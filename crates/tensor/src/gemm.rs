//! General matrix multiply and the two transpose variants used by MLP
//! back-propagation, as register-tiled kernels.
//!
//! The original system delegates these to cuBLAS (`GemmEx`); here they are
//! portable Rust. The workspace forbids `unsafe`, so there are no
//! intrinsics: each kernel keeps its block of C in fixed-size local arrays,
//! which LLVM holds in vector registers and lowers to packed SIMD on any
//! target that has it (SSE2 on the default x86-64 target). Rust never
//! contracts `a * b + c` into a fused multiply-add, so each product and sum
//! is rounded exactly as written.
//!
//! * [`matmul`] (`A·B`) and [`matmul_at_b`] (`Aᵀ·B`) share one kernel that
//!   reads A through a strided view, by row or by column. It holds an
//!   `MR x NR` (3 x 16) tile of C across the whole depth loop, so each C
//!   element is stored once. For each group of four depths it adds
//!   `a0*b0 + a1*b1 + a2*b2 + a3*b3` (summed left to right) to the
//!   accumulator, then the `k % 4` tail one product at a time.
//! * [`matmul_a_bt`] (`A·Bᵀ`) computes a `2 x 4` block of dot products per
//!   pass, so each lane of A feeds four B rows and each lane of B feeds two
//!   A rows. Each dot product keeps `LANE` partial sums, lane `l` over the
//!   depths `p ≡ l (mod LANE)`, adds them in lane order to `0.0`, then adds
//!   the `k % LANE` tail one product at a time.
//!
//! Edge blocks (`m % MR` rows, `n % NR` columns, `m % 2`, `n % 4`) run
//! narrower instances of the same kernel, so every output element sees the
//! same operations in the same order whatever its position. Results are
//! therefore a pure function of the inputs and the shape: repeated runs are
//! bitwise identical, and the serial and overlapped training schedules
//! (which share these kernels) stay bitwise-equal by construction. The
//! tests spell the order out as scalar reference functions.

use crate::{ShapeError, Tensor2};

/// Lane width: every `A·Bᵀ` dot product keeps `LANE` partial sums, two
/// 128-bit vector registers.
const LANE: usize = 8;
/// Rows of C in one register tile of the `A·B` / `Aᵀ·B` kernel.
const MR: usize = 3;
/// Columns of C in one register tile: an `MR x NR` tile is 12 of the 16
/// SSE registers, leaving room for the B row being streamed.
const NR: usize = 2 * LANE;
/// Depths fused into one accumulator update of the `A·B` / `Aᵀ·B` kernel.
const DEPTH_GROUP: usize = 4;

/// Strided view of the left operand: `A(i, p) = data[i * row + p * depth]`.
/// Row-major `A (m x k)` is `(k, 1)`; `Aᵀ` of a row-major `k x m` tensor is
/// `(1, m)`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row: usize,
    depth: usize,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> f32 {
        self.data[i * self.row + p * self.depth]
    }
}

/// `W` consecutive values of `s` from `off`, copied into a local array.
/// A fixed-size array (rather than a slice) is what lets LLVM drop the
/// per-lane bounds checks and keep the lanes in vector registers.
#[inline(always)]
fn load<const W: usize>(s: &[f32], off: usize) -> [f32; W] {
    let mut x = [0.0f32; W];
    x.copy_from_slice(&s[off..off + W]);
    x
}

/// One `R x W` tile of `C (m x n) = A (m x k) · B (k x n)` at `(i0, j0)`,
/// accumulated in registers over the whole depth and stored once.
#[inline(always)]
fn ab_tile<const R: usize, const W: usize>(
    a: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    (k, n): (usize, usize),
    (i0, j0): (usize, usize),
) {
    let mut acc = [[0.0f32; W]; R];
    let mut p = 0;
    while p + DEPTH_GROUP <= k {
        let bq: [[f32; W]; DEPTH_GROUP] = std::array::from_fn(|q| load(b, (p + q) * n + j0));
        for (r, accr) in acc.iter_mut().enumerate() {
            let aq: [f32; DEPTH_GROUP] = std::array::from_fn(|q| a.at(i0 + r, p + q));
            for l in 0..W {
                accr[l] +=
                    aq[0] * bq[0][l] + aq[1] * bq[1][l] + aq[2] * bq[2][l] + aq[3] * bq[3][l];
            }
        }
        p += DEPTH_GROUP;
    }
    while p < k {
        let brow: [f32; W] = load(b, p * n + j0);
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a.at(i0 + r, p);
            for l in 0..W {
                accr[l] += av * brow[l];
            }
        }
        p += 1;
    }
    for (r, accr) in acc.iter().enumerate() {
        let off = (i0 + r) * n + j0;
        c[off..off + W].copy_from_slice(accr);
    }
}

/// `C (m x n) = A · B` over every tile: the `NR`-wide column strips, then
/// at most one `LANE`-wide strip and single columns for the `n % NR` rest;
/// within each strip `MR`-row tiles, then the `m % MR` rows one by one.
fn ab_kernel(a: Lhs<'_>, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + NR <= n {
        ab_strip::<NR>(a, b, c, (m, k, n), j0);
        j0 += NR;
    }
    if j0 + LANE <= n {
        ab_strip::<LANE>(a, b, c, (m, k, n), j0);
        j0 += LANE;
    }
    for j in j0..n {
        ab_strip::<1>(a, b, c, (m, k, n), j);
    }
}

/// Every row of the `W`-wide column strip of C starting at `j0`.
#[inline(always)]
fn ab_strip<const W: usize>(
    a: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    j0: usize,
) {
    let m_body = m - m % MR;
    for i0 in (0..m_body).step_by(MR) {
        ab_tile::<MR, W>(a, b, c, (k, n), (i0, j0));
    }
    for i0 in m_body..m {
        ab_tile::<1, W>(a, b, c, (k, n), (i0, j0));
    }
}

/// The `LANE` partial sums of the `R x Q` dot products of A rows `i0..`
/// with B rows `j0..` over the depths `0..split`: lane `l` sums the
/// products at depths `p ≡ l (mod LANE)` in increasing `p`. Kept out of
/// line so the register allocator sees only this loop.
#[inline(never)]
fn abt_partials<const R: usize, const Q: usize>(
    a: &[f32],
    b: &[f32],
    (k, split): (usize, usize),
    (i0, j0): (usize, usize),
) -> [[[f32; LANE]; Q]; R] {
    let mut acc = [[[0.0f32; LANE]; Q]; R];
    let mut p = 0;
    while p < split {
        let al: [[f32; LANE]; R] = std::array::from_fn(|r| load(a, (i0 + r) * k + p));
        let bl: [[f32; LANE]; Q] = std::array::from_fn(|q| load(b, (j0 + q) * k + p));
        for (accr, ar) in acc.iter_mut().zip(&al) {
            for (accq, bq) in accr.iter_mut().zip(&bl) {
                for l in 0..LANE {
                    accq[l] += ar[l] * bq[l];
                }
            }
        }
        p += LANE;
    }
    acc
}

/// One `R x Q` block of `C (m x n) = A (m x k) · Bᵀ` with `B (n x k)`:
/// each dot product's `LANE` partial sums are added in lane order to
/// `0.0`, then the `k % LANE` tail products in depth order.
#[inline(always)]
fn abt_block<const R: usize, const Q: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (k, n): (usize, usize),
    (i0, j0): (usize, usize),
) {
    let split = k - k % LANE;
    let mut s = [[0.0f32; Q]; R];
    // with no full lane block every partial is 0.0, and 0.0 + 0.0 = 0.0
    if split > 0 {
        let acc = abt_partials::<R, Q>(a, b, (k, split), (i0, j0));
        for l in 0..LANE {
            for (sr, accr) in s.iter_mut().zip(&acc) {
                for (sq, accq) in sr.iter_mut().zip(accr) {
                    *sq += accq[l];
                }
            }
        }
    }
    if split < k {
        let btail: [&[f32]; Q] =
            std::array::from_fn(|q| &b[(j0 + q) * k + split..(j0 + q + 1) * k]);
        for (r, sr) in s.iter_mut().enumerate() {
            let atail = &a[(i0 + r) * k + split..(i0 + r + 1) * k];
            for (sq, bt) in sr.iter_mut().zip(btail) {
                for (&x, &y) in atail.iter().zip(bt) {
                    *sq += x * y;
                }
            }
        }
    }
    for (r, sr) in s.iter().enumerate() {
        let off = (i0 + r) * n + j0;
        c[off..off + Q].copy_from_slice(sr);
    }
}

/// `C (m x n) = A · Bᵀ` over every block: `2 x 4` blocks, then the odd
/// last row and the `n % 4` columns with narrower blocks.
fn abt_kernel(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let m_body = m - m % 2;
    let n_body = n - n % 4;
    for i0 in (0..m_body).step_by(2) {
        for j0 in (0..n_body).step_by(4) {
            abt_block::<2, 4>(a, b, c, (k, n), (i0, j0));
        }
        for j0 in n_body..n {
            abt_block::<2, 1>(a, b, c, (k, n), (i0, j0));
        }
    }
    for i0 in m_body..m {
        for j0 in (0..n_body).step_by(4) {
            abt_block::<1, 4>(a, b, c, (k, n), (i0, j0));
        }
        for j0 in n_body..n {
            abt_block::<1, 1>(a, b, c, (k, n), (i0, j0));
        }
    }
}

/// `C = A (m x k) * B (k x n)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use neo_tensor::{Tensor2, gemm};
/// let a = Tensor2::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// let b = Tensor2::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 10.0);
/// # Ok::<(), neo_tensor::ShapeError>(())
/// ```
pub fn matmul(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    if a.cols() != b.rows() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul input A", a.as_slice());
    crate::sanitize::check_finite("matmul input B", b.as_slice());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor2::zeros(m, n);
    let lhs = Lhs {
        data: a.as_slice(),
        row: k,
        depth: 1,
    };
    ab_kernel(lhs, b.as_slice(), c.as_mut_slice(), m, k, n);
    crate::sanitize::check_finite("matmul output", c.as_slice());
    Ok(c)
}

/// Given `A (k x m)` and `B (k x n)`, computes `C (m x n) = Aᵀ * B`.
///
/// Used for the weight gradient `dW = Xᵀ * dY` in the backward pass. It
/// runs the [`matmul`] kernel with A read by column, so `matmul_at_b(a, b)`
/// is bitwise equal to `matmul(&a.transposed(), b)`. There is no zero-skip
/// on A: a branch in the hot loop defeats vectorization, and skipping would
/// drop NaN/Inf propagation from B (`0 * inf = NaN`); the `sanitize`
/// feature checks the inputs instead.
///
/// # Errors
///
/// Returns [`ShapeError`] if the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    if a.rows() != b.rows() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul_at_b {}x{} , {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul_at_b input A", a.as_slice());
    crate::sanitize::check_finite("matmul_at_b input B", b.as_slice());
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Tensor2::zeros(m, n);
    let lhs = Lhs {
        data: a.as_slice(),
        row: 1,
        depth: m,
    };
    ab_kernel(lhs, b.as_slice(), c.as_mut_slice(), m, k, n);
    crate::sanitize::check_finite("matmul_at_b output", c.as_slice());
    Ok(c)
}

/// Given `A (m x k)` and `B (n x k)`, computes `C (m x n) = A * Bᵀ`.
///
/// Used for the input gradient `dX = dY * Wᵀ` (weights are stored
/// `in x out`) and for the pairwise dot-product feature interaction
/// `X * Xᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor2, b: &Tensor2) -> crate::Result<Tensor2> {
    if a.cols() != b.cols() {
        // lint: allow(hot_path_alloc) — error-path message, built only on a shape mismatch
        return Err(ShapeError::new(format!(
            "matmul_a_bt {}x{} , {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    crate::sanitize::check_finite("matmul_a_bt input A", a.as_slice());
    crate::sanitize::check_finite("matmul_a_bt input B", b.as_slice());
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Tensor2::zeros(m, n);
    abt_kernel(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    crate::sanitize::check_finite("matmul_a_bt output", c.as_slice());
    Ok(c)
}

/// Number of floating-point operations a `m x k x n` GEMM performs
/// (multiply-add counted as two flops). Used by the perf model and the
/// criterion benchmarks to report achieved TF/s.
#[must_use]
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let mut c = Tensor2::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    /// The operation order of `A·B` (and of `Aᵀ·B`, which reads the same
    /// `A`): each C element starts at `0.0`; every group of four depths
    /// adds `a0*b0 + a1*b1 + a2*b2 + a3*b3`, summed left to right; then the
    /// `k % 4` tail adds one product at a time.
    fn reference_ab(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let k = a.cols();
        Tensor2::from_fn(a.rows(), b.cols(), |i, j| {
            let t = |p: usize| a[(i, p)] * b[(p, j)];
            let mut c = 0.0f32;
            let mut p = 0;
            while p + 4 <= k {
                c += t(p) + t(p + 1) + t(p + 2) + t(p + 3);
                p += 4;
            }
            while p < k {
                c += t(p);
                p += 1;
            }
            c
        })
    }

    /// The operation order of `A·Bᵀ`: eight partial sums per dot
    /// product, partial `l` adding the products at depths `p ≡ l (mod 8)`
    /// below `k - k % 8` in increasing `p`; the partials are added in lane
    /// order to `0.0`; then the `k % 8` tail adds one product at a time.
    fn reference_abt(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let k = a.cols();
        let split = k - k % 8;
        Tensor2::from_fn(a.rows(), b.rows(), |i, j| {
            let t = |p: usize| a[(i, p)] * b[(j, p)];
            let mut lanes = [0.0f32; 8];
            for p in 0..split {
                lanes[p % 8] += t(p);
            }
            let mut s = 0.0f32;
            for v in lanes {
                s += v;
            }
            for p in split..k {
                s += t(p);
            }
            s
        })
    }

    /// Deterministic values spread over many binades, with signed zeros,
    /// so that any change in the order of the additions shows in the bits.
    fn spread(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Tensor2::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let bits = state >> 32;
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            match bits % 23 {
                0 => sign * 0.0,
                _ => {
                    let mantissa = 1.0 + ((bits >> 8) & 0xffff) as f32 / 65_536.0;
                    let exponent = ((bits >> 1) % 24) as i32 - 12;
                    sign * mantissa * 2f32.powi(exponent)
                }
            }
        })
    }

    fn bits(t: &Tensor2) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Bit-compares all three kernels with the reference order at one shape.
    fn assert_matches_reference(m: usize, k: usize, n: usize, seed: u64) {
        let a = spread(m, k, seed);
        let b = spread(k, n, seed ^ 0x5555);
        let want = bits(&reference_ab(&a, &b));
        assert_eq!(bits(&matmul(&a, &b).unwrap()), want, "A·B {m}x{k}x{n}");
        let at_b = matmul_at_b(&a.transposed(), &b).unwrap();
        assert_eq!(bits(&at_b), want, "Aᵀ·B {m}x{k}x{n}");
        let bt = b.transposed();
        let want = bits(&reference_abt(&a, &bt));
        assert_eq!(
            bits(&matmul_a_bt(&a, &bt).unwrap()),
            want,
            "A·Bᵀ {m}x{k}x{n}"
        );
    }

    #[test]
    fn kernels_match_reference_order_on_edge_shapes() {
        // 1x1x1, k < 4, n < LANE, and each remainder of m % MR, n % NR,
        // n % LANE, k % 4 and k % LANE next to a full tile
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 3, 1),
            (2, 2, 7),
            (MR, 4, LANE),
            (MR + 1, 5, NR),
            (MR + 2, 7, NR + LANE),
            (2 * MR, 9, NR + LANE + 3),
            (5, LANE, 2 * NR + 1),
            (7, 2 * LANE + 3, 4 * NR),
            (64, 16, 52),
            (9, 131, 13),
        ] {
            assert_matches_reference(m, k, n, (m * 10_000 + k * 100 + n) as u64);
        }
    }

    /// Every shape up to 24 in each dimension: all remainders of every
    /// tile and depth split, several times over.
    #[test]
    #[ignore = "exhaustive shape sweep; run with --release -- --ignored"]
    fn kernels_match_reference_order_exhaustively() {
        for m in 1..=24 {
            for k in 1..=24 {
                for n in 1..=24 {
                    assert_matches_reference(m, k, n, (m * 10_000 + k * 100 + n) as u64);
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (70, 130, 65)] {
            let a = Tensor2::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
            let b = Tensor2::from_fn(k, n, |i, j| ((i * 5 + j * 2) % 13) as f32 - 6.0);
            let got = matmul(&a, &b).unwrap();
            let want = naive(&a, &b);
            assert!(got.max_abs_diff(&want).unwrap() < 1e-3, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Tensor2::from_fn(9, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let b = Tensor2::from_fn(9, 6, |i, j| (i + j) as f32 * 0.2 - 1.0);
        let got = matmul_at_b(&a, &b).unwrap();
        let want = matmul(&a.transposed(), &b).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-4);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = Tensor2::from_fn(5, 7, |i, j| (i * 7 + j) as f32 * 0.05);
        let b = Tensor2::from_fn(3, 7, |i, j| (i + 2 * j) as f32 * 0.1 - 0.5);
        let got = matmul_a_bt(&a, &b).unwrap();
        let want = matmul(&a, &b.transposed()).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-4);
    }

    #[test]
    fn shape_checks_on_transpose_variants() {
        assert!(matmul_at_b(&Tensor2::zeros(3, 2), &Tensor2::zeros(4, 5)).is_err());
        assert!(matmul_a_bt(&Tensor2::zeros(3, 2), &Tensor2::zeros(4, 5)).is_err());
    }

    #[test]
    fn flops_counts_multiply_add() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn at_b_propagates_nonfinite_b_through_zero_a() {
        // A zero in A must not mask a non-finite B value: 0 * inf = NaN,
        // which the (sanitize-off) kernel carries into the output instead
        // of silently skipping the update.
        let a = Tensor2::zeros(3, 2); // k=3, m=2
        let mut b = Tensor2::zeros(3, 4);
        b[(1, 2)] = f32::INFINITY;
        let c = matmul_at_b(&a, &b).unwrap();
        assert!(c[(0, 2)].is_nan(), "0 * inf must propagate as NaN");
        assert!(c[(1, 2)].is_nan());
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "sanitize: non-finite")]
    fn at_b_rejects_nonfinite_b_under_sanitize() {
        // With the sanitizer armed the non-finite input is caught at the
        // kernel boundary, before 0 * inf can even produce a NaN.
        let mut b = Tensor2::zeros(3, 4);
        b[(1, 2)] = f32::INFINITY;
        let _ = matmul_at_b(&Tensor2::zeros(3, 2), &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every kernel matches the naive scalar reference within epsilon,
        /// for arbitrary shapes spanning the lane/unroll remainders.
        #[test]
        fn kernels_match_naive_reference(
            m in 1usize..20,
            k in 1usize..40,
            n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let val = |i: usize, j: usize, salt: u64| {
                (((seed * 31 + salt * 17 + (i * 131 + j * 7) as u64) % 41) as f32 - 20.0) * 0.125
            };
            let a = Tensor2::from_fn(m, k, |i, j| val(i, j, 1));
            let b = Tensor2::from_fn(k, n, |i, j| val(i, j, 2));
            let want = naive(&a, &b);
            let scale = 1e-4 * k as f32;

            let got = matmul(&a, &b).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);

            let got = matmul_at_b(&a.transposed(), &b).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);

            let got = matmul_a_bt(&a, &b.transposed()).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < scale);
        }

        /// Every kernel is bitwise equal to the reference order of its
        /// product, on shapes that cover every tile and depth remainder.
        #[test]
        fn kernels_bitwise_match_reference_order(
            m in 1usize..3 * MR + 1,
            k in 1usize..3 * LANE + 1,
            n in 1usize..2 * NR + LANE,
            seed in any::<u64>(),
        ) {
            assert_matches_reference(m, k, n, seed);
        }

        /// Repeated runs of every kernel are bitwise identical: the lane
        /// accumulators reduce in one fixed order, so there is no
        /// run-to-run nondeterminism for the schedules to diverge on.
        #[test]
        fn kernels_bitwise_self_consistent(
            m in 1usize..16,
            k in 1usize..34,
            n in 1usize..16,
            vals in proptest::collection::vec(-100i32..100, 1..8),
        ) {
            let pick = |i: usize, j: usize| {
                vals[(i * 31 + j * 7) % vals.len()] as f32 * 0.0625
            };
            let a = Tensor2::from_fn(m, k, pick);
            let b = Tensor2::from_fn(k, n, pick);
            let bt = b.transposed();
            let at = a.transposed();
            for _ in 0..2 {
                let c1 = matmul(&a, &b).unwrap();
                let c2 = matmul(&a, &b).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
                let c1 = matmul_at_b(&at, &b).unwrap();
                let c2 = matmul_at_b(&at, &b).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
                let c1 = matmul_a_bt(&a, &bt).unwrap();
                let c2 = matmul_a_bt(&a, &bt).unwrap();
                prop_assert_eq!(c1.as_slice(), c2.as_slice());
            }
        }
    }
}
