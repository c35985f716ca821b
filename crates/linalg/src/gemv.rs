//! Blocked, multi-accumulator matrix-vector kernels.
//!
//! OMP's inner loop is dominated by the transpose-correlation `Φᵀr`: one
//! dot product per dictionary column, `O(M·D)` per iteration. Issuing `D`
//! independent [`vector::dot`] calls leaves throughput on the table — the
//! compiler cannot vectorize across columns, and `x` is reloaded per call.
//! [`gemv_transpose_into`] instead walks an 8-column group per pass with
//! one SIMD accumulator per column, loading each 4-row quad of `x` once
//! for all 8 columns.
//!
//! **Determinism contract**: every kernel here produces *bit-identical*
//! results to the scalar reference it replaces. The scalar [`vector::dot`]
//! accumulates into 4 stride-4 partial sums combined as
//! `(a0 + a1) + (a2 + a3) + tail` — exactly one 4-wide SIMD lane. The AVX
//! path therefore uses plain mul+add (deliberately *no* FMA, which would
//! change the rounding) with the same lane combination, and falls back to
//! the scalar kernel per column when AVX is unavailable or a group is
//! partial. Tests pin the bit-equality; the OMP recovery path relies on it
//! for worker-count-independent selection.

use crate::error::{LinalgError, Result};
use crate::matrix::ColMatrix;
use crate::vector::{self, Vector};

/// Columns per register-blocked group in the transpose kernel. Eight f64
/// accumulators fit the 16 AVX `ymm` registers with room for the `x` quad
/// and one column load. A column block whose width is a multiple of it
/// runs the blocked path throughout, with no scalar tail.
pub const COLS_PER_GROUP: usize = 8;

/// Columns fused per pass in the forward (`A·x`) kernel: the output column
/// is read and written once per 4 input columns instead of once per column.
const FWD_COLS_PER_GROUP: usize = 4;

/// Computes `out[j] = ⟨column j, x⟩` for every column of a column-major
/// block (`data.len() == rows · out.len()`, `x.len() == rows`).
///
/// Bit-identical to calling [`vector::dot`] per column; panics on
/// mismatched slice lengths (the shape is a caller invariant, as with the
/// other slice-level kernels).
pub fn gemv_transpose_into(data: &[f64], rows: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), rows, "gemv_transpose_into: x length must equal rows");
    assert_eq!(
        data.len(),
        rows * out.len(),
        "gemv_transpose_into: data must hold rows * out.len() entries"
    );
    if rows == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime; slice shapes
        // were checked above.
        unsafe { x86::gemv_transpose_avx(data, rows, x, out) };
        return;
    }
    gemv_transpose_scalar(data, rows, x, out);
}

/// Scalar reference for [`gemv_transpose_into`]: one [`vector::dot`] per
/// column. This *defines* the bit pattern the SIMD path must reproduce.
fn gemv_transpose_scalar(data: &[f64], rows: usize, x: &[f64], out: &mut [f64]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = vector::dot(&data[j * rows..(j + 1) * rows], x);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm_prefetch, _MM_HINT_T0,
    };

    /// Prefetch distance in doubles (1 KiB ahead per column stream). At
    /// dictionary sizes that spill out of the last-level cache the hardware
    /// prefetcher alone leaves the kernel at the line-fill-buffer ceiling;
    /// explicit T0 prefetches one KiB ahead recover ~20% of DRAM bandwidth
    /// (measured on the `recovery` sweep at M = 512, N = 64 Ki). Prefetch
    /// never changes arithmetic, so the bit-identity contract is unaffected.
    const PF_DIST: usize = 128;

    /// 8-column blocked AVX transpose-gemv. Plain mul+add (no FMA) with the
    /// scalar kernel's lane combination keeps every output bit-identical to
    /// [`crate::vector::dot`].
    ///
    /// # Safety
    /// Caller must ensure the `avx` target feature is available and that
    /// `data.len() == rows * out.len()`, `x.len() == rows`, `rows > 0`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn gemv_transpose_avx(data: &[f64], rows: usize, x: &[f64], out: &mut [f64]) {
        let cols = out.len();
        let quads = rows / 4;
        let groups = cols / super::COLS_PER_GROUP;
        let end = data.len();
        for g in 0..groups {
            let base = g * super::COLS_PER_GROUP * rows;
            let mut acc: [__m256d; super::COLS_PER_GROUP] =
                [_mm256_setzero_pd(); super::COLS_PER_GROUP];
            for i in 0..quads {
                // One x quad serves all 8 column accumulators.
                let xv = _mm256_loadu_pd(x.as_ptr().add(i * 4));
                for (c, a) in acc.iter_mut().enumerate() {
                    let off = base + c * rows + i * 4;
                    // One prefetch per cache line (2 quads) per stream.
                    let pf = off + PF_DIST;
                    if i % 2 == 0 && pf < end {
                        _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(pf) as *const i8);
                    }
                    let col = _mm256_loadu_pd(data.as_ptr().add(off));
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(col, xv));
                }
            }
            for (c, a) in acc.iter().enumerate() {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), *a);
                // Tail rows: same left-to-right order as the scalar kernel.
                let mut rest = 0.0;
                for r in quads * 4..rows {
                    rest += data[base + c * rows + r] * x[r];
                }
                out[g * super::COLS_PER_GROUP + c] =
                    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + rest;
            }
        }
        // Partial trailing group: scalar per-column reference.
        for j in groups * super::COLS_PER_GROUP..cols {
            out[j] = crate::vector::dot(&data[j * rows..(j + 1) * rows], x);
        }
    }
}

/// Computes `out = A·x` for a column-major block, four columns per pass
/// (`data.len() == rows · x.len()`, `out.len() == rows`).
///
/// Per output element the additions run left-to-right in column order —
/// the same order as the sequential per-column `axpy` loop in
/// [`ColMatrix::matvec`] *without* its zero-skip, so results are
/// bit-identical whenever `x` has no exact zeros (and equal to within the
/// sign of zero otherwise).
pub fn gemv_into(data: &[f64], rows: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), rows, "gemv_into: out length must equal rows");
    assert_eq!(data.len(), rows * x.len(), "gemv_into: data must hold rows * x.len() entries");
    out.fill(0.0);
    let groups = x.len() / FWD_COLS_PER_GROUP;
    for g in 0..groups {
        let j = g * FWD_COLS_PER_GROUP;
        let base = j * rows;
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        for (i, o) in out.iter_mut().enumerate() {
            // One read-modify-write of `out` per 4 columns.
            *o = (((*o + x0 * data[base + i]) + x1 * data[base + rows + i])
                + x2 * data[base + 2 * rows + i])
                + x3 * data[base + 3 * rows + i];
        }
    }
    for j in groups * FWD_COLS_PER_GROUP..x.len() {
        vector::axpy(x[j], &data[j * rows..(j + 1) * rows], out);
    }
}

impl ColMatrix {
    /// Blocked transpose product `Aᵀ·x` — bit-identical to
    /// [`ColMatrix::matvec_transpose`], computed by [`gemv_transpose_into`].
    pub fn gemv_transpose(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows() {
            return Err(LinalgError::DimensionMismatch {
                op: "gemv_transpose",
                expected: (self.rows(), 1),
                actual: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols()];
        gemv_transpose_into(self.as_col_major(), self.rows(), x.as_slice(), &mut out);
        Ok(Vector::from_vec(out))
    }

    /// Blocked forward product `A·x` via [`gemv_into`].
    pub fn gemv(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "gemv",
                expected: (self.cols(), 1),
                actual: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows()];
        gemv_into(self.as_col_major(), self.rows(), x.as_slice(), &mut out);
        Ok(Vector::from_vec(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::GaussianSampler;

    fn gaussian(len: usize, seed: u64) -> Vec<f64> {
        let mut v = vec![0.0; len];
        GaussianSampler::from_seed(seed).fill(&mut v, 1.0);
        v
    }

    /// The contract everything else builds on: the dispatched kernel equals
    /// the per-column scalar dot bit-for-bit, across row counts that
    /// exercise quad tails and column counts that exercise partial groups.
    #[test]
    fn transpose_kernel_is_bit_identical_to_per_column_dot() {
        for &rows in &[1usize, 3, 4, 7, 16, 61, 128] {
            for &cols in &[1usize, 5, 8, 9, 16, 23, 64] {
                let data = gaussian(rows * cols, 42 + rows as u64 * 131 + cols as u64);
                let x = gaussian(rows, 7 + rows as u64);
                let mut fused = vec![0.0; cols];
                gemv_transpose_into(&data, rows, &x, &mut fused);
                for j in 0..cols {
                    let reference = vector::dot(&data[j * rows..(j + 1) * rows], &x);
                    assert_eq!(
                        fused[j].to_bits(),
                        reference.to_bits(),
                        "rows={rows} cols={cols} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_fallback_matches_dispatched_kernel() {
        let (rows, cols) = (37, 29);
        let data = gaussian(rows * cols, 5);
        let x = gaussian(rows, 6);
        let mut a = vec![0.0; cols];
        let mut b = vec![0.0; cols];
        gemv_transpose_into(&data, rows, &x, &mut a);
        gemv_transpose_scalar(&data, rows, &x, &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matrix_gemv_transpose_matches_matvec_transpose_bitwise() {
        let m = ColMatrix::from_col_major(24, 50, gaussian(24 * 50, 9)).unwrap();
        let x = Vector::from_vec(gaussian(24, 10));
        let fused = m.gemv_transpose(&x).unwrap();
        let reference = m.matvec_transpose(&x).unwrap();
        for (a, b) in fused.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn forward_gemv_matches_matvec() {
        for &(rows, cols) in &[(8usize, 3usize), (16, 4), (33, 13), (5, 1)] {
            let m = ColMatrix::from_col_major(rows, cols, gaussian(rows * cols, 77)).unwrap();
            let x = Vector::from_vec(gaussian(cols, 78));
            let fused = m.gemv(&x).unwrap();
            let reference = m.matvec(&x).unwrap();
            // Gaussian x has no exact zeros, so the zero-skip in matvec
            // never fires and the element-wise order is identical.
            for (a, b) in fused.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn zero_rows_and_dimension_checks() {
        let mut out = vec![1.0; 3];
        gemv_transpose_into(&[], 0, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
        let m = ColMatrix::zeros(4, 6);
        assert!(m.gemv_transpose(&Vector::zeros(5)).is_err());
        assert!(m.gemv(&Vector::zeros(5)).is_err());
    }

    #[test]
    #[should_panic(expected = "x length must equal rows")]
    fn transpose_kernel_rejects_bad_x() {
        let mut out = vec![0.0; 2];
        gemv_transpose_into(&[0.0; 8], 4, &[0.0; 3], &mut out);
    }
}
