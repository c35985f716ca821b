//! Pluggable measurement operators (DESIGN.md §13).
//!
//! The paper's protocol only needs three things from the sensing matrix Φ:
//! linearity (so node sketches add), seeded reconstruction (so every party
//! regenerates the same Φ from a shared `u64`), and incoherent-enough
//! columns for BOMP to recover mode + outliers. A dense Gaussian has all
//! three but costs `O(M·N)` per OMP correlation pass and ~320 GB at the
//! north-star scale. [`MeasurementOp`] abstracts the contract so the same
//! recovery/serve machinery runs over structured, matrix-free backends:
//!
//! | backend | apply | transpose scan | L-sparse measure | storage |
//! |---------------|--------------|----------------|------------------|---------|
//! | `DenseGaussian` | O(M·N) | O(M·N) | O(L·M) | O(M) streamed |
//! | `Srht` | O(Np·log Np) | O(Np·log Np) | O(Np·log Np) | O(M) rows + N/64 sign words |
//! | `SeededSparse` | O(N·s) | O(N·s) | O(L·s) | O(1) |
//!
//! (`Np` = next power of two ≥ N; `s` = nonzeros per column. The SRHT
//! sign words are built lazily, on the first full apply or scan, so
//! building an operator to validate a descriptor stays `O(M)`.)
//!
//! The transpose scan takes the recovery executor: every backend splits it
//! into one pool section over disjoint column blocks (the SRHT runs its
//! split FWHT first, see [`cso_linalg::fwht`]), and no float depends on
//! the split, so the scan is bit-identical at any worker count. OMP hands
//! each block's products to its shift-and-select in the same task
//! ([`OmpDictionary::scan`](crate::OmpDictionary::scan)).
//!
//! Every backend is rebuilt bit-identically from a 3-word wire descriptor
//! (`kind`, `param`, plus the `m/n/seed` geometry the epoch already
//! carries) — see [`OpDescriptor`]. The serve layer journals exactly that
//! descriptor, so WAL replay reconstructs the same operator.

use crate::measurement::MeasurementSpec;
use crate::omp::{self, scan_col_blocks};
use cso_exec::{ExecConfig, ExecStats};
use cso_linalg::fwht::{fwht_across, fwht_block, hadamard_sign, next_pow2, CACHE_BLOCK};
use cso_linalg::random::{derive_seed, stream_rng};
use cso_linalg::{LinalgError, Vector};
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Stable wire identifier of a measurement-operator backend.
///
/// The codes are part of the serve protocol (`OpenEpoch.op_kind`) and the
/// WAL format; they must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// Dense seeded Gaussian `N(0, 1/M)` — the paper's Φ0.
    Dense = 0,
    /// Row-subsampled randomized Hadamard transform, `Φ = (1/√M)·R·H·D`.
    Srht = 1,
    /// Count-sketch-style seeded sparse projection, `s` nonzeros per column.
    SeededSparse = 2,
}

impl OpKind {
    /// The on-wire code byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code; `None` for unknown codes (the serve layer maps
    /// that to `RejectCode::BadOperator`).
    pub fn from_code(code: u8) -> Option<OpKind> {
        match code {
            0 => Some(OpKind::Dense),
            1 => Some(OpKind::Srht),
            2 => Some(OpKind::SeededSparse),
            _ => None,
        }
    }

    /// Human-readable backend name (CSV/CLI label).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Dense => "dense",
            OpKind::Srht => "srht",
            OpKind::SeededSparse => "sparse",
        }
    }
}

/// Everything needed to rebuild a [`MeasurementOperator`] bit-identically
/// on any machine: backend kind, geometry, seed, and one backend parameter
/// (`s` for [`OpKind::SeededSparse`], must be 0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpDescriptor {
    /// Backend kind.
    pub kind: OpKind,
    /// Number of measurements (rows), `M`.
    pub m: usize,
    /// Ambient dimension (columns), `N`.
    pub n: usize,
    /// Shared seed.
    pub seed: u64,
    /// Backend parameter (`s` for `SeededSparse`; 0 otherwise).
    pub param: u64,
}

impl OpDescriptor {
    /// Descriptor for the dense Gaussian backend.
    pub fn dense(m: usize, n: usize, seed: u64) -> Self {
        OpDescriptor { kind: OpKind::Dense, m, n, seed, param: 0 }
    }

    /// Descriptor for the SRHT backend.
    pub fn srht(m: usize, n: usize, seed: u64) -> Self {
        OpDescriptor { kind: OpKind::Srht, m, n, seed, param: 0 }
    }

    /// Descriptor for the seeded-sparse backend with `s` nonzeros/column.
    pub fn seeded_sparse(m: usize, n: usize, seed: u64, s: u64) -> Self {
        OpDescriptor { kind: OpKind::SeededSparse, m, n, seed, param: s }
    }

    /// Reassembles a descriptor from wire fields. `None` when the kind code
    /// is unknown — the caller decides how to reject.
    pub fn from_wire(kind: u8, param: u64, m: usize, n: usize, seed: u64) -> Option<Self> {
        Some(OpDescriptor { kind: OpKind::from_code(kind)?, m, n, seed, param })
    }

    /// Builds the operator this descriptor names. Errors when the geometry
    /// or parameter is invalid for the backend.
    pub fn build(&self) -> Result<MeasurementOperator, LinalgError> {
        match self.kind {
            OpKind::Dense => {
                if self.param != 0 {
                    return Err(bad_param("dense operator takes no parameter"));
                }
                Ok(MeasurementOperator::Dense(MeasurementSpec::new(self.m, self.n, self.seed)?))
            }
            OpKind::Srht => {
                if self.param != 0 {
                    return Err(bad_param("srht operator takes no parameter"));
                }
                Ok(MeasurementOperator::Srht(SrhtOp::new(self.m, self.n, self.seed)?))
            }
            OpKind::SeededSparse => Ok(MeasurementOperator::SeededSparse(SeededSparseOp::new(
                self.m,
                self.n,
                self.seed,
                self.param as usize,
            )?)),
        }
    }
}

fn bad_param(message: &'static str) -> LinalgError {
    LinalgError::InvalidParameter { name: "op_param", message: message.into() }
}

/// A backend choice *without* geometry — what a protocol configures up
/// front, before `n` is known. Pairs with the epoch's `m/n/seed` to form an
/// [`OpDescriptor`] at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchBackend {
    /// Backend kind.
    pub kind: OpKind,
    /// Backend parameter (`s` for [`OpKind::SeededSparse`], 0 otherwise).
    pub param: u64,
}

impl Default for SketchBackend {
    /// The paper's dense Gaussian.
    fn default() -> Self {
        SketchBackend::dense()
    }
}

impl SketchBackend {
    /// Dense seeded Gaussian (the paper's Φ0).
    pub fn dense() -> Self {
        SketchBackend { kind: OpKind::Dense, param: 0 }
    }

    /// Subsampled randomized Hadamard transform.
    pub fn srht() -> Self {
        SketchBackend { kind: OpKind::Srht, param: 0 }
    }

    /// Seeded sparse projection with `s` nonzeros per column.
    pub fn seeded_sparse(s: u64) -> Self {
        SketchBackend { kind: OpKind::SeededSparse, param: s }
    }

    /// Decodes the `(kind, param)` wire pair; `None` for unknown kinds.
    pub fn from_wire(kind: u8, param: u64) -> Option<Self> {
        Some(SketchBackend { kind: OpKind::from_code(kind)?, param })
    }

    /// The `(kind, param)` wire pair.
    pub fn wire(&self) -> (u8, u64) {
        (self.kind.code(), self.param)
    }

    /// Human-readable backend name.
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }

    /// The full descriptor for a concrete `(m, n, seed)` geometry.
    pub fn descriptor(&self, m: usize, n: usize, seed: u64) -> OpDescriptor {
        OpDescriptor { kind: self.kind, m, n, seed, param: self.param }
    }

    /// Builds the operator for a concrete geometry (validates the
    /// parameter against it).
    pub fn build(&self, m: usize, n: usize, seed: u64) -> Result<MeasurementOperator, LinalgError> {
        self.descriptor(m, n, seed).build()
    }
}

/// The measurement-operator contract every backend satisfies.
///
/// All methods are deterministic functions of the descriptor: two operators
/// built from equal descriptors produce bit-identical outputs for equal
/// inputs, on any machine. `measure_sparse` is additionally guaranteed
/// bit-identical to `apply` on the densified entry vector — the property
/// that lets mapper-side sparse sketching and reducer-side dense replay
/// agree exactly.
pub trait MeasurementOp {
    /// Number of measurements (rows), `M`.
    fn m(&self) -> usize;
    /// Ambient dimension (columns), `N`.
    fn n(&self) -> usize;
    /// The wire descriptor that rebuilds this operator.
    fn descriptor(&self) -> OpDescriptor;

    /// The sketch `y = Φ·x` of a dense slice (`x.len() == n`).
    fn apply(&self, x: &[f64]) -> Result<Vector, LinalgError>;

    /// All column correlations `out = Φᵀ·x` (`x.len() == m`,
    /// `out.len() == n`) — the OMP inner-loop scan, split over `exec`.
    /// Bit-identical for every worker count.
    fn apply_transpose_into(
        &self,
        x: &[f64],
        out: &mut [f64],
        exec: &ExecConfig,
    ) -> Result<(), LinalgError>;

    /// Writes column `j` (length `M`) into `out`. Panics on out-of-range
    /// `j` or a wrong-length buffer — indices come from the key dictionary,
    /// so either is a logic error.
    fn column_into(&self, j: usize, out: &mut [f64]);

    /// The sketch of a sparse slice given as `(key index, value)` pairs.
    /// Duplicate indices accumulate. Bit-identical to [`MeasurementOp::apply`]
    /// on the densified vector.
    fn measure_sparse(&self, entries: &[(usize, f64)]) -> Result<Vector, LinalgError>;

    /// The BOMP bias column `φ0 = (1/√N)·Σⱼ φⱼ = (1/√N)·Φ·1` (paper
    /// equation (3)). Matrix-free backends get it in one `apply`, split
    /// over `exec` where the backend can; the bits never depend on it.
    fn bias_column(&self, exec: &ExecConfig) -> Vec<f64>;
}

/// Seed-stream salts keeping the SRHT sign/row streams disjoint from each
/// other (column streams of the other backends use the raw index space).
const SRHT_SIGN_STREAM: u64 = 0x5248_5453_4947_4e00; // "RHTSIGN\0"
const SRHT_ROW_STREAM: u64 = 0x5248_5452_4f57_5300; // "RHTROWS\0"

/// Row-subsampled randomized Hadamard transform `Φ = (1/√M)·R·H·D`:
/// `D` = seeded ±1 column signs, `H` = unnormalized `Np×Np` Hadamard
/// (`Np` = next power of two ≥ `N`, padding internal), `R` = `M` seeded
/// distinct rows. Entries are ±1/√M, matching the dense backend's `1/M`
/// variance and unit column norm. Nothing is materialized: `apply` and the
/// transpose scan are one in-place FWHT each. The only state beyond the
/// `M` rows is `D` packed one bit per column, built on the first full
/// apply or scan; it is a cache, so it takes no part in equality.
#[derive(Clone)]
pub struct SrhtOp {
    m: usize,
    n: usize,
    np: usize,
    seed: u64,
    /// The `M` sampled Hadamard rows, in sampling order (row `i` of Φ).
    rows: Vec<usize>,
    sign_seed: u64,
    /// `D` as `⌈N/64⌉` words: bit `j % 64` of word `j / 64` is set when
    /// column `j`'s sign is −1.
    signs: OnceLock<Vec<u64>>,
}

impl PartialEq for SrhtOp {
    fn eq(&self, other: &Self) -> bool {
        (self.m, self.n, self.np, self.seed, &self.rows, self.sign_seed)
            == (other.m, other.n, other.np, other.seed, &other.rows, other.sign_seed)
    }
}

impl Eq for SrhtOp {}

impl std::fmt::Debug for SrhtOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrhtOp")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("np", &self.np)
            .field("seed", &self.seed)
            .field("signs_cached", &self.signs.get().is_some())
            .finish()
    }
}

impl SrhtOp {
    /// Builds the SRHT operator for `(m, n, seed)`. Requires
    /// `0 < m <= next_pow2(n)` and `n > 0`.
    pub fn new(m: usize, n: usize, seed: u64) -> Result<Self, LinalgError> {
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "m/n",
                message: "measurement dimensions must be positive".into(),
            });
        }
        let np = next_pow2(n);
        if m > np {
            return Err(LinalgError::InvalidParameter {
                name: "m",
                message: format!("srht needs m <= next_pow2(n) = {np}, got m = {m}").into(),
            });
        }
        // Sample M distinct rows of H by seeded rejection; the stream is a
        // pure function of the seed, so every party gets the same rows.
        let mut rng = stream_rng(seed, SRHT_ROW_STREAM);
        let mut rows = Vec::with_capacity(m);
        let mut seen = std::collections::HashSet::with_capacity(m * 2);
        while rows.len() < m {
            let r = (rng.next_u64() % np as u64) as usize;
            if seen.insert(r) {
                rows.push(r);
            }
        }
        Ok(SrhtOp {
            m,
            n,
            np,
            seed,
            rows,
            sign_seed: derive_seed(seed, SRHT_SIGN_STREAM),
            signs: OnceLock::new(),
        })
    }

    /// The sign bit of column `j` (1 for −1): the seed stream `D` is
    /// defined by.
    #[inline]
    fn sign_bit(&self, j: usize) -> u64 {
        derive_seed(self.sign_seed, j as u64) & 1
    }

    /// The ±1 sign `D[j][j]` of column `j`, without touching the cache.
    #[inline]
    fn sign(&self, j: usize) -> f64 {
        signed_one(self.sign_bit(j))
    }

    /// `D` packed one bit per column, computed on first use (split over
    /// `exec`; every word is a function of its own columns only). The
    /// words are built outside the cell, not in `get_or_init`: a thread
    /// blocked on the cell while the builder waits for the pool could
    /// deadlock. Threads that race here build identical words.
    fn sign_words(&self, exec: &ExecConfig) -> &[u64] {
        if let Some(words) = self.signs.get() {
            return words;
        }
        let mut words = vec![0u64; self.n.div_ceil(64)];
        cso_exec::par_map_chunks_mut(exec, &mut words, SCAN_TASK / 64, |b, chunk| {
            for (i, word) in chunk.iter_mut().enumerate() {
                let first = b * SCAN_TASK + 64 * i;
                let end = (first + 64).min(self.n);
                *word = (first..end).fold(0, |w, j| w | self.sign_bit(j) << (j % 64));
            }
        });
        self.signs.get_or_init(|| words)
    }

    /// `y = (1/√M)·R·H·D·x` (`x.len() == n`): sign-flip into the padded
    /// buffer, one in-place FWHT, gather the sampled rows; split over
    /// `exec`, with the flip done row group by row group right before the
    /// group's narrow pass.
    fn forward(&self, x: &[f64], exec: &ExecConfig) -> Vec<f64> {
        let words = self.sign_words(exec);
        let mut scratch = vec![0.0; self.np];
        fwht_split(&mut scratch, exec, |first, rows| {
            // Rows past `n` are padding and stay zero.
            let end = (first + rows.len()).min(self.n);
            if first < end {
                let signs = &words[first / 64..];
                for ((slots, xs), &word) in
                    rows.chunks_mut(64).zip(x[first..end].chunks(64)).zip(signs)
                {
                    for (bit, (slot, xj)) in slots.iter_mut().zip(xs).enumerate() {
                        *slot = signed_one(word >> bit & 1) * xj;
                    }
                }
            }
        });
        let scale = self.scale();
        self.rows.iter().map(|&r| scale * scratch[r]).collect()
    }

    #[inline]
    fn scale(&self) -> f64 {
        1.0 / (self.m as f64).sqrt()
    }

    /// The internal padded transform length `Np`.
    pub fn padded_len(&self) -> usize {
        self.np
    }
}

/// Banded count-sketch-style projection: column `j` has exactly `s`
/// seeded nonzeros of value ±1/√s, one in each of `s` contiguous row
/// bands (so rows within a column are distinct and ascending). Column
/// norms are exactly 1; `measure_sparse` on an L-sparse slice costs
/// `O(L·s)` and the transpose scan is a scatter-free gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededSparseOp {
    m: usize,
    n: usize,
    seed: u64,
    s: usize,
}

impl SeededSparseOp {
    /// Builds the operator with `s` nonzeros per column. Requires
    /// `1 <= s <= m` (each of the `s` bands must be non-empty).
    pub fn new(m: usize, n: usize, seed: u64, s: usize) -> Result<Self, LinalgError> {
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "m/n",
                message: "measurement dimensions must be positive".into(),
            });
        }
        if s == 0 || s > m {
            return Err(LinalgError::InvalidParameter {
                name: "s",
                message: format!("seeded-sparse needs 1 <= s <= m = {m}, got s = {s}").into(),
            });
        }
        Ok(SeededSparseOp { m, n, seed, s })
    }

    /// Nonzeros per column.
    pub fn nnz_per_column(&self) -> usize {
        self.s
    }

    /// Streams column `j`'s pattern as `(row, value)` pairs, ascending by
    /// row. One seeded draw per band keeps generation order-independent
    /// across columns, exactly like the dense backend's column streams.
    #[inline]
    fn for_each_nonzero(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        let mut rng = stream_rng(self.seed, j as u64);
        let inv = 1.0 / (self.s as f64).sqrt();
        for b in 0..self.s {
            let lo = b * self.m / self.s;
            let hi = (b + 1) * self.m / self.s;
            let row = lo + (rng.next_u64() % (hi - lo) as u64) as usize;
            let value = if rng.next_u64() & 1 == 0 { inv } else { -inv };
            f(row, value);
        }
    }
}

/// A concrete measurement operator — the closed set of backends the wire
/// protocol knows. Use [`OpDescriptor::build`] (or the constructors here)
/// to obtain one; every layer from mapper sketching to serve-side recovery
/// is generic over [`MeasurementOp`], with this enum as the value type.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurementOperator {
    /// Dense seeded Gaussian (the paper's Φ0, [`MeasurementSpec`]).
    Dense(MeasurementSpec),
    /// Subsampled randomized Hadamard transform.
    Srht(SrhtOp),
    /// Seeded sparse (count-sketch-style) projection.
    SeededSparse(SeededSparseOp),
}

impl MeasurementOperator {
    /// Dense Gaussian backend.
    pub fn dense(m: usize, n: usize, seed: u64) -> Result<Self, LinalgError> {
        OpDescriptor::dense(m, n, seed).build()
    }

    /// SRHT backend.
    pub fn srht(m: usize, n: usize, seed: u64) -> Result<Self, LinalgError> {
        OpDescriptor::srht(m, n, seed).build()
    }

    /// Seeded-sparse backend with `s` nonzeros per column.
    pub fn seeded_sparse(m: usize, n: usize, seed: u64, s: usize) -> Result<Self, LinalgError> {
        OpDescriptor::seeded_sparse(m, n, seed, s as u64).build()
    }

    /// The backend kind.
    pub fn kind(&self) -> OpKind {
        match self {
            MeasurementOperator::Dense(_) => OpKind::Dense,
            MeasurementOperator::Srht(_) => OpKind::Srht,
            MeasurementOperator::SeededSparse(_) => OpKind::SeededSparse,
        }
    }

    fn shared_dims(&self) -> (usize, usize) {
        match self {
            MeasurementOperator::Dense(spec) => (spec.m, spec.n),
            MeasurementOperator::Srht(op) => (op.m, op.n),
            MeasurementOperator::SeededSparse(op) => (op.m, op.n),
        }
    }

    fn check_apply_len(&self, len: usize, op: &'static str) -> Result<(), LinalgError> {
        if len != self.n() {
            return Err(LinalgError::DimensionMismatch {
                op,
                expected: (self.n(), 1),
                actual: (len, 1),
            });
        }
        Ok(())
    }

    fn check_transpose_lens(&self, xlen: usize, outlen: usize) -> Result<(), LinalgError> {
        if xlen != self.m() || outlen != self.n() {
            return Err(LinalgError::DimensionMismatch {
                op: "apply_transpose_into",
                expected: (self.m(), self.n()),
                actual: (xlen, outlen),
            });
        }
        Ok(())
    }
}

impl MeasurementOp for MeasurementOperator {
    fn m(&self) -> usize {
        self.shared_dims().0
    }

    fn n(&self) -> usize {
        self.shared_dims().1
    }

    fn descriptor(&self) -> OpDescriptor {
        match self {
            MeasurementOperator::Dense(spec) => OpDescriptor::dense(spec.m, spec.n, spec.seed),
            MeasurementOperator::Srht(op) => OpDescriptor::srht(op.m, op.n, op.seed),
            MeasurementOperator::SeededSparse(op) => {
                OpDescriptor::seeded_sparse(op.m, op.n, op.seed, op.s as u64)
            }
        }
    }

    fn apply(&self, x: &[f64]) -> Result<Vector, LinalgError> {
        self.check_apply_len(x.len(), "apply")?;
        match self {
            MeasurementOperator::Dense(spec) => spec.measure_dense(x),
            MeasurementOperator::Srht(op) => {
                Ok(Vector::from_vec(op.forward(x, &ExecConfig::sequential())))
            }
            MeasurementOperator::SeededSparse(op) => {
                let mut y = vec![0.0; op.m];
                for (j, &xj) in x.iter().enumerate() {
                    if xj != 0.0 {
                        op.for_each_nonzero(j, |row, value| y[row] += value * xj);
                    }
                }
                Ok(Vector::from_vec(y))
            }
        }
    }

    fn apply_transpose_into(
        &self,
        x: &[f64],
        out: &mut [f64],
        exec: &ExecConfig,
    ) -> Result<(), LinalgError> {
        let copy = |_, t: &[f64], block: &mut [f64]| block.copy_from_slice(t);
        omp::OmpDictionary::scan(self, x, out, &mut Vec::new(), exec, copy)?;
        Ok(())
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.n(), "column {j} out of bounds ({})", self.n());
        assert_eq!(out.len(), self.m(), "buffer length must equal m");
        match self {
            MeasurementOperator::Dense(spec) => spec.fill_column(j, out),
            MeasurementOperator::Srht(op) => {
                let sd = op.scale() * op.sign(j);
                for (slot, &r) in out.iter_mut().zip(&op.rows) {
                    *slot = sd * hadamard_sign(r as u64, j as u64);
                }
            }
            MeasurementOperator::SeededSparse(op) => {
                out.fill(0.0);
                op.for_each_nonzero(j, |row, value| out[row] = value);
            }
        }
    }

    fn measure_sparse(&self, entries: &[(usize, f64)]) -> Result<Vector, LinalgError> {
        match self {
            MeasurementOperator::Dense(spec) => {
                // Unlike the legacy `MeasurementSpec::measure_sparse`
                // (which axpy's duplicates one entry at a time), coalesce
                // first and walk keys ascending — the operation sequence
                // `measure_dense` performs on the densified vector — so the
                // trait's bit-identity contract holds for duplicates too.
                let mut y = vec![0.0; spec.m];
                let mut col = vec![0.0; spec.m];
                for (j, xj) in coalesce(spec.n, entries)? {
                    if xj != 0.0 {
                        spec.fill_column(j, &mut col);
                        cso_linalg::vector::axpy(xj, &col, &mut y);
                    }
                }
                Ok(Vector::from_vec(y))
            }
            MeasurementOperator::Srht(op) => {
                // Densify then apply: the FWHT touches all Np slots anyway,
                // and going through `apply` is what makes the sparse and
                // dense sketch paths bit-identical.
                let mut x = vec![0.0; op.n];
                for &(j, v) in entries {
                    if j >= op.n {
                        return Err(sparse_out_of_range(op.n, j));
                    }
                    x[j] += v;
                }
                self.apply(&x)
            }
            MeasurementOperator::SeededSparse(op) => {
                let mut y = vec![0.0; op.m];
                for (j, xj) in coalesce(op.n, entries)? {
                    if xj != 0.0 {
                        op.for_each_nonzero(j, |row, value| y[row] += value * xj);
                    }
                }
                Ok(Vector::from_vec(y))
            }
        }
    }

    fn bias_column(&self, exec: &ExecConfig) -> Vec<f64> {
        let ones = || vec![1.0; self.n()];
        let mut y = match self {
            // The dense backend streams columns without densifying a ones
            // vector; keep that (bit-compatible) path.
            MeasurementOperator::Dense(spec) => return spec.bias_column(),
            MeasurementOperator::Srht(op) => op.forward(&ones(), exec),
            MeasurementOperator::SeededSparse(_) => {
                self.apply(&ones()).expect("ones vector has length n").into_vec()
            }
        };
        let inv = 1.0 / (self.n() as f64).sqrt();
        for v in &mut y {
            *v *= inv;
        }
        y
    }
}

/// Every backend is a dictionary the OMP kernels scan matrix-free.
impl omp::OmpDictionary for MeasurementOperator {
    fn rows(&self) -> usize {
        self.m()
    }

    fn cols(&self) -> usize {
        self.n()
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        MeasurementOp::column_into(self, j, out);
    }

    /// The dense and seeded-sparse backends compute products column by
    /// column over [`COL_BLOCK`](crate::omp::COL_BLOCK) blocks; the SRHT
    /// transforms `x` into `work` first and sign-flips `2^14` columns per
    /// task. [`MeasurementOp::apply_transpose_into`] is this scan with a
    /// visit that copies.
    fn scan<R: Send>(
        &self,
        x: &[f64],
        out: &mut [f64],
        work: &mut Vec<f64>,
        exec: &ExecConfig,
        visit: impl Fn(usize, &[f64], &mut [f64]) -> R + Sync,
    ) -> Result<(Vec<R>, ExecStats), LinalgError> {
        self.check_transpose_lens(x.len(), out.len())?;
        Ok(match self {
            MeasurementOperator::Dense(spec) => {
                let products = |first, t: &mut [f64]| spec.correlations_block_into(first, x, t);
                scan_col_blocks(out, exec, products, visit)
            }
            MeasurementOperator::Srht(op) => {
                // Φᵀx = (1/√M)·D·H·Rᵀx: scatter into the sampled rows
                // (distinct by construction) and FWHT (H is symmetric) in
                // `work`, each row group zeroed and scattered right before
                // its narrow pass; then each task sign-flips its block of
                // the first N entries (the rest is padding) in place.
                let scale = op.scale();
                let scatter = |first: usize, rows: &mut [f64]| {
                    rows.fill(0.0);
                    let span = first..first + rows.len();
                    for (&r, &xi) in op.rows.iter().zip(x) {
                        if span.contains(&r) {
                            rows[r - first] = scale * xi;
                        }
                    }
                };
                work.resize(op.np, 0.0);
                fwht_split(&mut work[..op.np], exec, scatter);
                let words = op.sign_words(exec);
                let mut blocks: Vec<(&mut [f64], &mut [f64])> =
                    out.chunks_mut(SCAN_TASK).zip(work[..op.n].chunks_mut(SCAN_TASK)).collect();
                cso_exec::par_map_chunks_mut(exec, &mut blocks, 1, |b, pair| {
                    let (block, t) = &mut pair[0];
                    let first = b * SCAN_TASK;
                    for (piece, &word) in t.chunks_mut(64).zip(&words[first / 64..]) {
                        for (bit, v) in piece.iter_mut().enumerate() {
                            *v *= signed_one(word >> bit & 1);
                        }
                    }
                    visit(first, t, block)
                })
            }
            MeasurementOperator::SeededSparse(op) => {
                let products = |first: usize, t: &mut [f64]| {
                    for (off, slot) in t.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        op.for_each_nonzero(first + off, |row, value| acc += value * x[row]);
                        *slot = acc;
                    }
                };
                scan_col_blocks(out, exec, products, visit)
            }
        })
    }
}

/// Columns per task of the SRHT's memory-bound sign passes: large enough
/// to amortize dispatch, small enough to balance two to eight workers at
/// `N = 2^20`. A multiple of 64, so each task owns whole sign words. The
/// dense and seeded-sparse scans spend far more per column and split into
/// [`COL_BLOCK`](crate::omp::COL_BLOCK) columns per task.
const SCAN_TASK: usize = 1 << 14;

/// Rows of the FWHT narrow pass handed to one task.
const FWHT_ROWS_PER_TASK: usize = 8;

/// Column strips of the FWHT wide pass. Strips are independent, so the
/// count only sets the task granularity, never a float.
const FWHT_STRIPS: usize = 8;

/// `1.0` for sign bit 0, `-1.0` for 1, without a branch: a mispredicted
/// branch per column on random signs costs more than the whole flip.
#[inline(always)]
fn signed_one(bit: u64) -> f64 {
    f64::from_bits(1.0f64.to_bits() | bit << 63)
}

/// [`cso_linalg::fwht::fwht`] of the buffer `fill` writes, split over
/// `exec`. Each narrow-pass task owns a disjoint group of rows: it calls
/// `fill(first, rows)` (`first` = the index of `rows[0]` in `data`) and
/// transforms the rows while they are cache-hot. The wide pass then runs
/// over disjoint column strips of every row. Bit-identical to filling all
/// of `data` and calling `fwht`, for every worker count.
fn fwht_split(data: &mut [f64], exec: &ExecConfig, fill: impl Fn(usize, &mut [f64]) + Sync) {
    let n = data.len();
    let block = CACHE_BLOCK.min(n);
    let task = block * FWHT_ROWS_PER_TASK;
    cso_exec::par_map_chunks_mut(exec, data, task, |b, rows| {
        fill(b * task, rows);
        rows.chunks_mut(block).for_each(fwht_block);
    });
    if n > block {
        let width = block / FWHT_STRIPS;
        let mut strips: Vec<Vec<&mut [f64]>> =
            (0..FWHT_STRIPS).map(|_| Vec::with_capacity(n / block)).collect();
        for row in data.chunks_mut(block) {
            for (strip, piece) in strips.iter_mut().zip(row.chunks_mut(width)) {
                strip.push(piece);
            }
        }
        cso_exec::par_map_chunks_mut(exec, &mut strips, 1, |_, strip| fwht_across(&mut strip[0]));
    }
}

fn sparse_out_of_range(n: usize, j: usize) -> LinalgError {
    LinalgError::DimensionMismatch { op: "measure_sparse", expected: (n, 1), actual: (j, 1) }
}

/// Sums duplicate indices in encounter order (the float sums densifying
/// would produce) and yields `(index, value)` ascending by index — the
/// traversal order `apply` uses on a dense vector.
fn coalesce(n: usize, entries: &[(usize, f64)]) -> Result<BTreeMap<usize, f64>, LinalgError> {
    let mut coalesced: BTreeMap<usize, f64> = BTreeMap::new();
    for &(j, v) in entries {
        if j >= n {
            return Err(sparse_out_of_range(n, j));
        }
        *coalesced.entry(j).or_insert(0.0) += v;
    }
    Ok(coalesced)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: usize = 24;
    const N: usize = 100;
    const SEED: u64 = 4242;

    fn backends() -> Vec<MeasurementOperator> {
        vec![
            MeasurementOperator::dense(M, N, SEED).unwrap(),
            MeasurementOperator::srht(M, N, SEED).unwrap(),
            MeasurementOperator::seeded_sparse(M, N, SEED, 6).unwrap(),
        ]
    }

    fn seq() -> ExecConfig {
        ExecConfig::sequential()
    }

    fn test_vector(n: usize, salt: u64) -> Vec<f64> {
        (0..n).map(|i| (((i as u64 * 2654435761 + salt) % 97) as f64 - 48.0) * 0.31).collect()
    }

    #[test]
    fn descriptor_round_trips_through_wire_fields() {
        for op in backends() {
            let d = op.descriptor();
            let (kind, param) = (d.kind.code(), d.param);
            let back = OpDescriptor::from_wire(kind, param, d.m, d.n, d.seed).unwrap();
            assert_eq!(back, d);
            let rebuilt = back.build().unwrap();
            assert_eq!(rebuilt, op);
        }
        assert!(OpDescriptor::from_wire(3, 0, M, N, SEED).is_none());
    }

    #[test]
    fn sketch_backend_pairs_with_geometry() {
        assert_eq!(SketchBackend::default(), SketchBackend::dense());
        for (backend, kind) in [
            (SketchBackend::dense(), OpKind::Dense),
            (SketchBackend::srht(), OpKind::Srht),
            (SketchBackend::seeded_sparse(6), OpKind::SeededSparse),
        ] {
            let (code, param) = backend.wire();
            assert_eq!(SketchBackend::from_wire(code, param), Some(backend));
            assert_eq!(backend.label(), kind.label());
            let d = backend.descriptor(M, N, SEED);
            assert_eq!(d, OpDescriptor { kind, m: M, n: N, seed: SEED, param });
            assert_eq!(backend.build(M, N, SEED).unwrap().kind(), kind);
        }
        assert_eq!(SketchBackend::from_wire(9, 0), None);
    }

    #[test]
    fn kind_codes_are_stable() {
        assert_eq!(OpKind::Dense.code(), 0);
        assert_eq!(OpKind::Srht.code(), 1);
        assert_eq!(OpKind::SeededSparse.code(), 2);
        for k in [OpKind::Dense, OpKind::Srht, OpKind::SeededSparse] {
            assert_eq!(OpKind::from_code(k.code()), Some(k));
        }
        assert_eq!(OpKind::from_code(77), None);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(MeasurementOperator::seeded_sparse(M, N, SEED, 0).is_err());
        assert!(MeasurementOperator::seeded_sparse(M, N, SEED, M + 1).is_err());
        assert!(SrhtOp::new(0, N, SEED).is_err());
        assert!(SrhtOp::new(300, N, SEED).is_err(), "m > next_pow2(n)");
        assert!(OpDescriptor { param: 9, ..OpDescriptor::dense(M, N, SEED) }.build().is_err());
        assert!(OpDescriptor { param: 9, ..OpDescriptor::srht(M, N, SEED) }.build().is_err());
    }

    #[test]
    fn apply_matches_explicit_columns() {
        // y = Σ xⱼ·φⱼ with φⱼ from column_into must agree with apply.
        let x = test_vector(N, 5);
        for op in backends() {
            let y = op.apply(&x).unwrap();
            let mut want = vec![0.0; M];
            let mut col = vec![0.0; M];
            for (j, &xj) in x.iter().enumerate() {
                op.column_into(j, &mut col);
                cso_linalg::vector::axpy(xj, &col, &mut want);
            }
            let diff: f64 = y.iter().zip(&want).map(|(a, b)| (a - b).abs()).sum();
            assert!(diff < 1e-9, "{:?}: diff = {diff}", op.kind());
        }
    }

    #[test]
    fn transpose_matches_column_dots() {
        let x = test_vector(M, 9);
        for op in backends() {
            let mut out = vec![0.0; N];
            op.apply_transpose_into(&x, &mut out, &seq()).unwrap();
            let mut col = vec![0.0; M];
            for j in [0usize, 1, 17, N - 1] {
                op.column_into(j, &mut col);
                let want = cso_linalg::vector::dot(&col, &x);
                assert!((out[j] - want).abs() < 1e-10, "{:?} col {j}", op.kind());
            }
        }
    }

    #[test]
    fn measure_sparse_bit_identical_to_densified_apply() {
        let entries = [(3usize, 2.5), (17, -1.25), (3, 0.5), (99, 4.0), (42, 0.0)];
        let mut dense = vec![0.0; N];
        for &(j, v) in &entries {
            dense[j] += v;
        }
        for op in backends() {
            let a = op.apply(&dense).unwrap();
            let b = op.measure_sparse(&entries).unwrap();
            for (i, (p, q)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "{:?} row {i}", op.kind());
            }
        }
    }

    #[test]
    fn measure_sparse_rejects_out_of_range() {
        for op in backends() {
            assert!(op.measure_sparse(&[(N, 1.0)]).is_err(), "{:?}", op.kind());
        }
    }

    #[test]
    fn apply_checks_lengths() {
        for op in backends() {
            assert!(op.apply(&vec![0.0; N - 1]).is_err());
            let mut out = vec![0.0; N];
            assert!(op.apply_transpose_into(&[0.0; M - 1], &mut out, &seq()).is_err());
            assert!(op.apply_transpose_into(&[0.0; M], &mut out[..N - 1], &seq()).is_err());
        }
    }

    #[test]
    fn columns_have_unit_norm_in_expectation() {
        // Dense: E‖φⱼ‖² = 1. SRHT/sparse: exactly 1 by construction.
        let mut col = vec![0.0; M];
        for op in backends() {
            let mut total = 0.0;
            for j in 0..N {
                op.column_into(j, &mut col);
                total += col.iter().map(|v| v * v).sum::<f64>();
            }
            let mean = total / N as f64;
            let tol = if op.kind() == OpKind::Dense { 0.2 } else { 1e-12 };
            assert!((mean - 1.0).abs() < tol, "{:?}: mean col norm² = {mean}", op.kind());
        }
    }

    #[test]
    fn linearity_of_measurement() {
        let x1 = test_vector(N, 1);
        let x2 = test_vector(N, 2);
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        for op in backends() {
            let y1 = op.apply(&x1).unwrap();
            let y2 = op.apply(&x2).unwrap();
            let ysum = op.apply(&sum).unwrap();
            assert!(ysum.approx_eq(&y1.add(&y2).unwrap(), 1e-9), "{:?}", op.kind());
        }
    }

    #[test]
    fn bias_column_is_scaled_column_sum() {
        for op in backends() {
            let bias = op.bias_column(&seq());
            let mut want = vec![0.0; M];
            let mut col = vec![0.0; M];
            for j in 0..N {
                op.column_into(j, &mut col);
                cso_linalg::vector::axpy(1.0, &col, &mut want);
            }
            let inv = 1.0 / (N as f64).sqrt();
            for (b, w) in bias.iter().zip(&want) {
                assert!((b - w * inv).abs() < 1e-9, "{:?}", op.kind());
            }
        }
    }

    #[test]
    fn dense_backend_matches_legacy_spec_bitwise() {
        let spec = MeasurementSpec::new(M, N, SEED).unwrap();
        let op = MeasurementOperator::Dense(spec);
        let x = test_vector(N, 3);
        let legacy = spec.measure_dense(&x).unwrap();
        let via_op = op.apply(&x).unwrap();
        assert!(legacy.iter().zip(via_op.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        let r = test_vector(M, 4);
        let mut out = vec![0.0; N];
        op.apply_transpose_into(&r, &mut out, &seq()).unwrap();
        let legacy_corr = spec.correlations(&r).unwrap();
        assert!(legacy_corr.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(op.bias_column(&seq()), spec.bias_column());
    }

    #[test]
    fn srht_padding_and_rows_are_deterministic() {
        let a = SrhtOp::new(M, N, SEED).unwrap();
        let b = SrhtOp::new(M, N, SEED).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.padded_len(), 128);
        // Rows are distinct.
        let mut rows = a.rows.clone();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), M);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn split_fwht_is_bit_identical_for_every_size_and_worker_count() {
        // Sizes below one FWHT block, row counts below the worker count,
        // and odd and even log2 on both passes.
        for log_n in 0..=20 {
            let n = 1usize << log_n;
            let x = test_vector(n, log_n);
            let mut want = x.clone();
            cso_linalg::fwht::fwht(&mut want);
            for workers in [1, 2, 8] {
                let mut got = vec![f64::NAN; n];
                fwht_split(&mut got, &ExecConfig::with_workers(workers), |first, rows| {
                    rows.copy_from_slice(&x[first..first + rows.len()]);
                });
                assert!(bits(&got) == bits(&want), "n = {n}, workers = {workers}");
            }
        }
    }

    #[test]
    fn srht_transpose_is_bit_identical_across_worker_counts() {
        // 2^17 transforms in place in `out`; 2^17 + 3 pads to 2^18 and
        // goes through the scratch buffer.
        for n in [1usize << 17, (1 << 17) + 3] {
            let op = MeasurementOperator::srht(64, n, SEED).unwrap();
            let x = test_vector(64, 11);
            let mut want = vec![0.0; n];
            op.apply_transpose_into(&x, &mut want, &seq()).unwrap();
            // Spot-check against explicit columns.
            let mut col = vec![0.0; 64];
            for j in [0, 1, n / 2, n - 1] {
                op.column_into(j, &mut col);
                let dot = cso_linalg::vector::dot(&col, &x);
                assert!((want[j] - dot).abs() < 1e-9, "n = {n}, col {j}");
            }
            for workers in [2, 8] {
                let exec = ExecConfig::with_workers(workers);
                let mut got = vec![f64::NAN; n];
                op.apply_transpose_into(&x, &mut got, &exec).unwrap();
                assert!(bits(&got) == bits(&want), "n = {n}, workers = {workers}");
                assert_eq!(bits(&op.bias_column(&exec)), bits(&op.bias_column(&seq())));
            }
        }
    }

    #[test]
    fn transpose_is_bit_identical_across_worker_counts_on_every_backend() {
        let n = 40_000;
        for op in [
            MeasurementOperator::dense(M, n, SEED).unwrap(),
            MeasurementOperator::srht(M, n, SEED).unwrap(),
            MeasurementOperator::seeded_sparse(M, n, SEED, 6).unwrap(),
        ] {
            let x = test_vector(M, 13);
            let mut want = vec![0.0; n];
            op.apply_transpose_into(&x, &mut want, &seq()).unwrap();
            for workers in [2, 8] {
                let mut got = vec![0.0; n];
                op.apply_transpose_into(&x, &mut got, &ExecConfig::with_workers(workers)).unwrap();
                assert!(bits(&got) == bits(&want), "{:?}, workers = {workers}", op.kind());
            }
        }
    }

    #[test]
    fn srht_sign_cache_is_invisible_to_eq_clone_and_debug() {
        let x = test_vector(N, 7);
        let fresh = SrhtOp::new(M, N, SEED).unwrap();
        let op = MeasurementOperator::Srht(fresh.clone());
        let MeasurementOperator::Srht(warm) = &op else { unreachable!() };
        let before = format!("{warm:?}");
        let y = op.apply(&x).unwrap();
        assert!(warm.signs.get().is_some() && fresh.signs.get().is_none());
        assert_eq!(*warm, fresh);
        assert_eq!(fresh, *warm);
        assert_ne!(*warm, SrhtOp::new(M, N, SEED + 1).unwrap());
        let copy = warm.clone();
        assert_eq!(copy, fresh);
        // The warm clone computes what a cold rebuild computes.
        let via_copy = MeasurementOperator::Srht(copy).apply(&x).unwrap();
        let cold = MeasurementOperator::Srht(fresh).apply(&x).unwrap();
        assert_eq!(bits(y.as_slice()), bits(cold.as_slice()));
        assert_eq!(bits(via_copy.as_slice()), bits(cold.as_slice()));
        // Debug stays a one-liner whether or not the words are cached.
        let after = format!("{warm:?}");
        assert!(after.len() < 120 && before.len() < 120, "{after}");
        assert!(after.contains("signs_cached: true") && before.contains("signs_cached: false"));
    }

    #[test]
    fn cached_signs_match_the_seed_stream() {
        let op = SrhtOp::new(M, 200, SEED).unwrap();
        let words = op.sign_words(&seq());
        assert_eq!(words.len(), 4);
        for j in 0..200 {
            assert_eq!(signed_one(words[j / 64] >> (j % 64) & 1), op.sign(j), "column {j}");
        }
        // Bits past N stay clear.
        assert_eq!(words[3] >> (200 % 64), 0);
        assert_eq!(signed_one(0), 1.0);
        assert_eq!(signed_one(1), -1.0);
    }

    #[test]
    fn sparse_nonzeros_are_banded_and_deterministic() {
        let op = SeededSparseOp::new(M, N, SEED, 6).unwrap();
        assert_eq!(op.nnz_per_column(), 6);
        for j in 0..N {
            let mut rows = Vec::new();
            op.for_each_nonzero(j, |row, value| {
                rows.push(row);
                assert!((value.abs() - 1.0 / 6.0f64.sqrt()).abs() < 1e-15);
            });
            assert_eq!(rows.len(), 6);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending distinct rows: {rows:?}");
            assert!(*rows.last().unwrap() < M);
        }
    }
}
