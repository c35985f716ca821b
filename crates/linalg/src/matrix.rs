//! Dense column-major matrices.
//!
//! Orthogonal matching pursuit spends almost all of its time scanning the
//! columns of the measurement matrix for the one with the largest inner
//! product against the residual. Storing the matrix column-major makes that
//! scan a sequence of contiguous dot products, which is the reason this
//! crate provides [`ColMatrix`] rather than a row-major layout.

use crate::error::{LinalgError, Result};
use crate::vector::{self, Vector};

/// A dense matrix stored column-major: entry `(i, j)` lives at
/// `data[j * rows + i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ColMatrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ColMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from column-major storage.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len()` is not
    /// `rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_col_major",
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(ColMatrix { rows, cols, data })
    }

    /// Creates a matrix whose columns are the given equal-length vectors.
    pub fn from_columns(columns: &[Vector]) -> Result<Self> {
        let cols = columns.len();
        if cols == 0 {
            return Err(LinalgError::Empty { op: "from_columns" });
        }
        let rows = columns[0].len();
        let mut data = Vec::with_capacity(rows * cols);
        for (j, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_columns",
                    expected: (rows, 1),
                    actual: (c.len(), j),
                });
            }
            data.extend_from_slice(c.as_slice());
        }
        Ok(ColMatrix { rows, cols, data })
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = ColMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(i, j)`. Panics when out of bounds (debug-friendly accessor).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[j * self.rows + i]
    }

    /// Sets entry `(i, j)`. Panics when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[j * self.rows + i] = v;
    }

    /// Borrows column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrows column `j`.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Matrix-vector product `A · x`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                expected: (self.cols, 1),
                actual: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                vector::axpy(xj, self.col(j), &mut y);
            }
        }
        Ok(Vector::from_vec(y))
    }

    /// Matrix-vector product against sparse input given as `(index, value)`
    /// pairs: `A · x` where `x` has the listed non-zeros. Indices out of
    /// range produce an error; duplicate indices accumulate.
    pub fn matvec_sparse(&self, entries: &[(usize, f64)]) -> Result<Vector> {
        let mut y = vec![0.0; self.rows];
        for &(j, v) in entries {
            if j >= self.cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "matvec_sparse",
                    expected: (self.cols, 1),
                    actual: (j, 1),
                });
            }
            if v != 0.0 {
                vector::axpy(v, self.col(j), &mut y);
            }
        }
        Ok(Vector::from_vec(y))
    }

    /// Transposed product `Aᵀ · x`.
    pub fn matvec_transpose(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_transpose",
                expected: (self.rows, 1),
                actual: (x.len(), 1),
            });
        }
        let mut y = Vec::with_capacity(self.cols);
        for j in 0..self.cols {
            y.push(vector::dot(self.col(j), x.as_slice()));
        }
        Ok(Vector::from_vec(y))
    }

    /// Matrix product `A · B`.
    pub fn matmul(&self, other: &ColMatrix) -> Result<ColMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: (self.cols, other.rows),
                actual: (other.rows, other.cols),
            });
        }
        let mut out = ColMatrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            let bcol = other.col(j);
            let ocol = &mut out.data[j * self.rows..(j + 1) * self.rows];
            for (k, &bkj) in bcol.iter().enumerate() {
                if bkj != 0.0 {
                    vector::axpy(bkj, &self.data[k * self.rows..(k + 1) * self.rows], ocol);
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `Aᵀ · A` (always square `cols × cols`).
    pub fn gram(&self) -> ColMatrix {
        let mut g = ColMatrix::zeros(self.cols, self.cols);
        for j in 0..self.cols {
            for i in 0..=j {
                let v = vector::dot(self.col(i), self.col(j));
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        g
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> ColMatrix {
        let mut t = ColMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.data[i * self.cols + j] = self.data[j * self.rows + i];
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Sum of all columns as a single vector (used by BOMP's extended
    /// column `φ₀ = (1/√N) Σᵢ φᵢ`).
    pub fn column_sum(&self) -> Vector {
        let mut s = vec![0.0; self.rows];
        for j in 0..self.cols {
            vector::axpy(1.0, self.col(j), &mut s);
        }
        Vector::from_vec(s)
    }

    /// True when all entries pairwise differ by at most `tol`.
    pub fn approx_eq(&self, other: &ColMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Borrows the raw column-major storage.
    pub fn as_col_major(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColMatrix {
        // [[1, 3], [2, 4]] column-major: col0 = [1,2], col1 = [3,4]
        ColMatrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn from_col_major_rejects_bad_length() {
        assert!(ColMatrix::from_col_major(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_columns_builds_expected_layout() {
        let m = ColMatrix::from_columns(&[
            Vector::from_vec(vec![1.0, 2.0]),
            Vector::from_vec(vec![3.0, 4.0]),
        ])
        .unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn from_columns_rejects_ragged_and_empty() {
        assert!(ColMatrix::from_columns(&[]).is_err());
        assert!(ColMatrix::from_columns(&[Vector::zeros(2), Vector::zeros(3)]).is_err());
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = ColMatrix::identity(3);
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert!(i.matvec(&x).unwrap().approx_eq(&x, 0.0));
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let y = m.matvec(&Vector::from_vec(vec![1.0, 1.0])).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matvec_dimension_check() {
        assert!(sample().matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matvec_sparse_matches_dense() {
        let m = sample();
        let dense = m.matvec(&Vector::from_vec(vec![0.0, 2.0])).unwrap();
        let sparse = m.matvec_sparse(&[(1, 2.0)]).unwrap();
        assert!(dense.approx_eq(&sparse, 0.0));
    }

    #[test]
    fn matvec_sparse_accumulates_duplicates_and_checks_bounds() {
        let m = sample();
        let twice = m.matvec_sparse(&[(0, 1.0), (0, 1.0)]).unwrap();
        assert_eq!(twice.as_slice(), &[2.0, 4.0]);
        assert!(m.matvec_sparse(&[(5, 1.0)]).is_err());
    }

    #[test]
    fn matvec_transpose_matches_transpose_matvec() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 2.0]);
        let a = m.matvec_transpose(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-14));
        assert_eq!(a.as_slice(), &[5.0, 11.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let m = sample();
        let p = m.matmul(&ColMatrix::identity(2)).unwrap();
        assert!(p.approx_eq(&m, 0.0));
        let sq = m.matmul(&m).unwrap();
        // [[1,3],[2,4]]^2 = [[7,15],[10,22]]
        assert_eq!(sq.get(0, 0), 7.0);
        assert_eq!(sq.get(1, 0), 10.0);
        assert_eq!(sq.get(0, 1), 15.0);
        assert_eq!(sq.get(1, 1), 22.0);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = ColMatrix::zeros(2, 3);
        let b = ColMatrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let m = sample();
        let g = m.gram();
        assert_eq!(g.get(0, 0), 5.0); // 1²+2²
        assert_eq!(g.get(1, 1), 25.0); // 3²+4²
        assert_eq!(g.get(0, 1), 11.0); // 1·3+2·4
        assert_eq!(g.get(0, 1), g.get(1, 0));
    }

    #[test]
    fn transpose_involution() {
        let m = ColMatrix::from_col_major(2, 3, (0..6).map(|i| i as f64).collect()).unwrap();
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
    }

    #[test]
    fn column_sum_adds_all_columns() {
        let m = sample();
        let s = m.column_sum();
        assert_eq!(s.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn frobenius_norm_value() {
        let m = sample();
        assert!((m.frobenius_norm() - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn set_and_col_mut() {
        let mut m = ColMatrix::zeros(2, 2);
        m.set(1, 1, 9.0);
        assert_eq!(m.get(1, 1), 9.0);
        m.col_mut(0)[0] = 3.0;
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(2, 0);
    }
}
