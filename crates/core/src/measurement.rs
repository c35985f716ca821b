//! Random Gaussian measurement matrices.
//!
//! The paper's protocol (Section 3.1) has every node generate *the same*
//! `M × N` measurement matrix `Φ0` from a shared seed, with entries i.i.d.
//! `N(0, 1/M)`, and ship only the `M`-length sketch `y_l = Φ0 · x_l`. The
//! aggregator regenerates `Φ0` from the same seed for recovery, so the
//! matrix itself never crosses the network (the paper's Algorithms 3/4 pass
//! `seed` to both CS-Mapper and CS-Reducer).
//!
//! [`MeasurementSpec`] is that shared description `(M, N, seed)`. Each
//! column is generated from its own derived seed, which makes generation
//! order-independent: a mapper holding a sparse slice can generate only the
//! columns it needs and still agree bit-for-bit with the reducer that
//! materializes the whole matrix.

use cso_linalg::random::{derive_seed, GaussianSampler};
use cso_linalg::{ColMatrix, LinalgError, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared description of a measurement matrix: shape plus the seed all
/// parties agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementSpec {
    /// Number of measurements (rows), `M`.
    pub m: usize,
    /// Ambient dimension (columns), `N` — the global key-space size.
    pub n: usize,
    /// Seed from which every column stream is derived.
    pub seed: u64,
}

impl MeasurementSpec {
    /// Creates a spec. Errors when either dimension is zero.
    pub fn new(m: usize, n: usize, seed: u64) -> Result<Self, LinalgError> {
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "m/n",
                message: "measurement dimensions must be positive".into(),
            });
        }
        Ok(MeasurementSpec { m, n, seed })
    }

    /// Compression ratio `M / N` — the fraction of the data volume a sketch
    /// transmits relative to shipping the dense vector.
    pub fn compression_ratio(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// Generates column `j` (length `M`, entries `N(0, 1/M)`).
    ///
    /// Panics when `j >= n`; column indices come from the global key
    /// dictionary, so an out-of-range index is a logic error.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.n, "column {j} out of bounds ({})", self.n);
        let mut col = vec![0.0; self.m];
        self.fill_column(j, &mut col);
        col
    }

    /// Fills a caller-provided buffer with column `j`, avoiding per-column
    /// allocation in streaming paths.
    pub fn fill_column(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.m, "buffer length must equal m");
        let rng = StdRng::seed_from_u64(derive_seed(self.seed, j as u64));
        let mut g = GaussianSampler::new(rng);
        let std = 1.0 / (self.m as f64).sqrt();
        g.fill(out, std);
    }

    /// Materializes the full `M × N` matrix. Suitable when `M·N` fits in
    /// memory (recovery-side); mappers with sparse slices should prefer
    /// [`MeasurementSpec::measure_sparse`]. Large matrices are filled
    /// across threads; the result is bit-identical to
    /// [`MeasurementSpec::materialize_serial`].
    pub fn materialize(&self) -> ColMatrix {
        let mut data = vec![0.0f64; self.m * self.n];
        self.fill_columns(&mut data);
        ColMatrix::from_col_major(self.m, self.n, data).expect("sized buffer")
    }

    /// Fills `data` — `N` columns, column-major — with `Φ0`. Column
    /// generation is embarrassingly parallel (every column has its own
    /// derived seed), so large matrices are filled across threads without
    /// changing a bit.
    pub(crate) fn fill_columns(&self, data: &mut [f64]) {
        const PAR_MIN_ENTRIES: usize = 1 << 20;
        assert_eq!(data.len(), self.m * self.n, "buffer must hold the N columns");
        let fill = |first_col: usize, chunk: &mut [f64]| {
            for (offset, col) in chunk.chunks_mut(self.m).enumerate() {
                self.fill_column(first_col + offset, col);
            }
        };
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        if threads == 1 || data.len() < PAR_MIN_ENTRIES {
            fill(0, data);
            return;
        }
        let cols_per_chunk = self.n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk_idx, chunk) in data.chunks_mut(self.m * cols_per_chunk).enumerate() {
                scope.spawn(move || fill(chunk_idx * cols_per_chunk, chunk));
            }
        });
    }

    /// Single-threaded materialization (reference implementation).
    pub fn materialize_serial(&self) -> ColMatrix {
        let mut m = ColMatrix::zeros(self.m, self.n);
        for j in 0..self.n {
            self.fill_column(j, m.col_mut(j));
        }
        m
    }

    /// Computes the sketch `y = Φ0 · x` for a dense slice, streaming the
    /// matrix column-by-column (memory `O(M)` instead of `O(M·N)`).
    pub fn measure_dense(&self, x: &[f64]) -> Result<Vector, LinalgError> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                op: "measure_dense",
                expected: (self.n, 1),
                actual: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.m];
        let mut col = vec![0.0; self.m];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                self.fill_column(j, &mut col);
                cso_linalg::vector::axpy(xj, &col, &mut y);
            }
        }
        Ok(Vector::from_vec(y))
    }

    /// Computes the sketch for a sparse slice given as `(key index, value)`
    /// pairs — the common mapper-side case where a node only saw a subset
    /// of the global key space. Duplicate indices accumulate.
    pub fn measure_sparse(&self, entries: &[(usize, f64)]) -> Result<Vector, LinalgError> {
        let mut y = vec![0.0; self.m];
        let mut col = vec![0.0; self.m];
        for &(j, v) in entries {
            if j >= self.n {
                return Err(LinalgError::DimensionMismatch {
                    op: "measure_sparse",
                    expected: (self.n, 1),
                    actual: (j, 1),
                });
            }
            if v != 0.0 {
                self.fill_column(j, &mut col);
                cso_linalg::vector::axpy(v, &col, &mut y);
            }
        }
        Ok(Vector::from_vec(y))
    }

    /// Computes all column correlations `Φ0ᵀ · x` (one `⟨φ_j, x⟩` per key)
    /// without materializing the matrix: columns are regenerated in small
    /// batches and reduced through the blocked
    /// [`cso_linalg::gemv::gemv_transpose_into`] kernel. Bit-identical to
    /// `materialize().matvec_transpose(x)` — the streamed and in-memory
    /// recovery paths must agree exactly.
    pub fn correlations(&self, x: &[f64]) -> Result<Vector, LinalgError> {
        let mut out = vec![0.0; self.n];
        self.correlations_into(x, &mut out)?;
        Ok(Vector::from_vec(out))
    }

    /// [`MeasurementSpec::correlations`] into a caller-provided buffer of
    /// length `N`.
    pub fn correlations_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.m || out.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                op: "correlations",
                expected: (self.m, self.n),
                actual: (x.len(), out.len()),
            });
        }
        self.correlations_block_into(0, x, out);
        Ok(())
    }

    /// The correlations of columns `first..first + out.len()` (lengths are
    /// the caller's invariant). Every column's value is independent of the
    /// range it is computed in, which is what lets a scan split freely.
    pub(crate) fn correlations_block_into(&self, first: usize, x: &[f64], out: &mut [f64]) {
        const BLOCK: usize = 64;
        let mut cols = vec![0.0; self.m * BLOCK.min(out.len())];
        for (b, chunk) in out.chunks_mut(BLOCK).enumerate() {
            let block = &mut cols[..self.m * chunk.len()];
            for (offset, col) in block.chunks_mut(self.m).enumerate() {
                self.fill_column(first + b * BLOCK + offset, col);
            }
            cso_linalg::gemv::gemv_transpose_into(block, self.m, x, chunk);
        }
    }

    /// The BOMP bias column `φ0 = (1/√N) · Σⱼ φⱼ` (paper equation (3)).
    pub fn bias_column(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.m];
        let mut col = vec![0.0; self.m];
        for j in 0..self.n {
            self.fill_column(j, &mut col);
            cso_linalg::vector::axpy(1.0, &col, &mut s);
        }
        let inv = 1.0 / (self.n as f64).sqrt();
        for v in &mut s {
            *v *= inv;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MeasurementSpec {
        MeasurementSpec::new(16, 40, 1234).unwrap()
    }

    #[test]
    fn new_rejects_zero_dims() {
        assert!(MeasurementSpec::new(0, 5, 1).is_err());
        assert!(MeasurementSpec::new(5, 0, 1).is_err());
    }

    #[test]
    fn compression_ratio() {
        assert!((spec().compression_ratio() - 0.4).abs() < 1e-15);
    }

    #[test]
    fn columns_are_deterministic_and_order_independent() {
        let s = spec();
        let c5_first = s.column(5);
        let _ = s.column(0);
        let c5_again = s.column(5);
        assert_eq!(c5_first, c5_again);
        // Another spec instance with the same parameters agrees.
        let s2 = MeasurementSpec::new(16, 40, 1234).unwrap();
        assert_eq!(s2.column(5), c5_first);
    }

    #[test]
    fn different_columns_and_seeds_differ() {
        let s = spec();
        assert_ne!(s.column(0), s.column(1));
        let other = MeasurementSpec::new(16, 40, 999).unwrap();
        assert_ne!(other.column(0), s.column(0));
    }

    #[test]
    fn column_fill_column_materialize_agree_bitwise() {
        // Regression guard: `column` must stay a thin wrapper over
        // `fill_column` (it used to duplicate the generation loop), and
        // both must agree bit-for-bit with the materialized matrix.
        let s = MeasurementSpec::new(32, 129, 2024).unwrap();
        let full = s.materialize();
        let mut buf = vec![0.0; 32];
        for j in 0..129 {
            let owned = s.column(j);
            s.fill_column(j, &mut buf);
            for i in 0..32 {
                assert_eq!(owned[i].to_bits(), buf[i].to_bits(), "col {j} row {i}");
                assert_eq!(owned[i].to_bits(), full.col(j)[i].to_bits(), "col {j} row {i}");
            }
        }
    }

    #[test]
    fn materialize_matches_streamed_columns() {
        let s = spec();
        let full = s.materialize();
        for j in [0usize, 7, 39] {
            assert_eq!(full.col(j), s.column(j).as_slice());
        }
    }

    #[test]
    fn parallel_materialize_is_bit_identical_to_serial() {
        // Large enough to take the threaded path on multi-core hosts.
        let s = MeasurementSpec::new(128, 8192, 99).unwrap();
        let par = s.materialize();
        let ser = s.materialize_serial();
        assert_eq!(par.as_col_major(), ser.as_col_major());
    }

    #[test]
    fn entry_variance_is_one_over_m() {
        let s = MeasurementSpec::new(64, 500, 42).unwrap();
        let full = s.materialize();
        let data = full.as_col_major();
        let var: f64 = data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64;
        assert!((var - 1.0 / 64.0).abs() < 0.002, "var = {var}");
    }

    #[test]
    fn measure_dense_equals_matvec() {
        let s = spec();
        let x: Vec<f64> = (0..40).map(|i| (i as f64) - 20.0).collect();
        let streamed = s.measure_dense(&x).unwrap();
        let full = s.materialize().matvec(&Vector::from_vec(x)).unwrap();
        assert!(streamed.approx_eq(&full, 1e-12));
    }

    #[test]
    fn measure_dense_checks_length() {
        assert!(spec().measure_dense(&[0.0; 3]).is_err());
    }

    #[test]
    fn measure_sparse_equals_dense_on_same_data() {
        let s = spec();
        let mut x = vec![0.0; 40];
        x[3] = 2.0;
        x[17] = -5.0;
        let dense = s.measure_dense(&x).unwrap();
        let sparse = s.measure_sparse(&[(3, 2.0), (17, -5.0)]).unwrap();
        assert!(dense.approx_eq(&sparse, 1e-12));
    }

    #[test]
    fn measure_sparse_rejects_out_of_range() {
        assert!(spec().measure_sparse(&[(40, 1.0)]).is_err());
    }

    #[test]
    fn linearity_of_measurement() {
        // y(x1 + x2) = y(x1) + y(x2) — the property the whole distributed
        // aggregation rests on (paper equation (1)).
        let s = spec();
        let x1: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let x2: Vec<f64> = (0..40).map(|i| -((i % 3) as f64)).collect();
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y1 = s.measure_dense(&x1).unwrap();
        let y2 = s.measure_dense(&x2).unwrap();
        let ysum = s.measure_dense(&sum).unwrap();
        let combined = y1.add(&y2).unwrap();
        assert!(ysum.approx_eq(&combined, 1e-10));
    }

    #[test]
    fn streamed_correlations_match_materialized_bitwise() {
        // Regression guard for the fused recovery path: the streamed-column
        // correlation scan and the in-memory blocked kernel must agree
        // bit-for-bit, including at a non-multiple-of-block N with a
        // partial final batch.
        let s = MeasurementSpec::new(24, 197, 77).unwrap();
        let x: Vec<f64> = (0..24).map(|i| ((i * 31 % 17) as f64 - 8.0) * 0.37).collect();
        let streamed = s.correlations(&x).unwrap();
        let full = s.materialize().matvec_transpose(&Vector::from_vec(x.clone())).unwrap();
        for (j, (a, b)) in streamed.iter().zip(full.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "col {j}");
        }
        // And both equal the naive per-column dot.
        for j in [0usize, 63, 64, 196] {
            let naive = cso_linalg::vector::dot(&s.column(j), &x);
            assert_eq!(streamed.as_slice()[j].to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn correlations_check_input_length() {
        assert!(spec().correlations(&[0.0; 3]).is_err());
    }

    #[test]
    fn bias_column_is_scaled_column_sum() {
        let s = spec();
        let bias = s.bias_column();
        let full = s.materialize();
        let sum = full.column_sum();
        let inv = 1.0 / (40.0f64).sqrt();
        for (b, v) in bias.iter().zip(sum.iter()) {
            assert!((b - v * inv).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_out_of_range_panics() {
        spec().column(40);
    }
}
