//! Biased Orthogonal Matching Pursuit (BOMP) — the paper's Algorithm 1.
//!
//! Standard compressive-sensing recovery assumes the signal is sparse *at
//! zero*. Production aggregates instead concentrate around an unknown mode
//! `b` (Figure 1: most keys near 1800, a few far away). BOMP reduces that
//! case to the sparse one by the decomposition `x = b·1 + z`:
//!
//! ```text
//! y = Φ0·x = Φ0·(b·1 + z) = [ (1/√N)·Σφᵢ , Φ0 ] · [ √N·b , z ]ᵀ = Φ̃ · z̃
//! ```
//!
//! The extended vector `z̃` *is* sparse (one bias coordinate plus the
//! outlier deviations), so OMP applies. The recovered mode is
//! `b = z̃₀ / √N` and each recovered signal entry is `x̂ᵢ = z̃ᵢ + b`.
//!
//! `Φ̃` is never built: every entry point wraps its `Φ0` — a materialized
//! [`ColMatrix`] or a [`MeasurementOperator`] — in a borrowed view that
//! adds only the `M`-length bias column, and one body runs OMP over it.
//! A caller that recovers more than once on one operator keeps it as a
//! [`ResidentOp`], which also keeps that bias column.

use crate::measurement::MeasurementSpec;
use crate::omp::{omp, resolve_exec, OmpConfig, OmpDictionary, OmpResult, StopReason};
use crate::ops::{MeasurementOp, MeasurementOperator};
use crate::sparse::SparseVector;
use cso_exec::{ExecConfig, ExecStats};
use cso_linalg::{vector, ColMatrix, LinalgError, Vector};
use cso_obs::{Recorder, Value};
use std::fmt;
use std::sync::OnceLock;

/// Recovered outlier: a key index and its recovered aggregate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveredOutlier {
    /// Position in the global key dictionary.
    pub index: usize,
    /// Recovered value `x̂ᵢ = zᵢ + b`.
    pub value: f64,
    /// Deviation from the recovered mode, `x̂ᵢ − b`.
    pub deviation: f64,
}

/// Output of a BOMP run.
#[derive(Debug, Clone)]
pub struct BompResult {
    /// Recovered mode `b = z₀/√N` (0 when the bias column was never
    /// selected — the sparse-at-zero case).
    pub mode: f64,
    /// Whether the bias column entered the support at all.
    pub bias_selected: bool,
    /// All recovered outliers (up to `R − 1`), sorted by decreasing
    /// `|deviation|`, ties broken by index.
    pub outliers: Vec<RecoveredOutlier>,
    /// Recovered deviation vector `z` (sparse, dimension `N`).
    pub deviations: SparseVector,
    /// Number of OMP iterations executed.
    pub iterations: usize,
    /// Why the inner OMP stopped.
    pub stop: StopReason,
    /// Mode estimate after each iteration (`z₀/√N`, or 0 before the bias
    /// column is selected). Empty unless mode tracking was enabled. This is
    /// the series plotted in the paper's Figures 4(b) and 9.
    pub mode_trace: Vec<f64>,
    /// Residual norm after each iteration.
    pub residual_trace: Vec<f64>,
}

impl BompResult {
    /// The `k` outliers furthest from the mode, as the paper's final
    /// selection step. Fewer are returned when recovery found fewer.
    pub fn top_k(&self, k: usize) -> &[RecoveredOutlier] {
        &self.outliers[..k.min(self.outliers.len())]
    }

    /// Reassembles the recovered dense vector `x̂ = b·1 + z`.
    pub fn recovered_dense(&self) -> Vector {
        let mut x = vec![self.mode; self.deviations.dim()];
        for &(i, z) in self.deviations.entries() {
            x[i] += z;
        }
        Vector::from_vec(x)
    }
}

/// Configuration for [`bomp`] / [`bomp_with_matrix`].
#[derive(Debug, Clone, Default)]
pub struct BompConfig {
    /// Inner OMP configuration. `max_iterations` is the paper's `R = f(k)`.
    pub omp: OmpConfig,
    /// Record the mode estimate after every iteration (Figures 4(b)/9).
    pub track_mode: bool,
}

impl BompConfig {
    /// The paper's iteration heuristic `R = f(k) ∈ [2k, 5k]` (Section 5).
    /// We default to the midpoint `3k + 1` (the `+ 1` pays for the bias
    /// column, which occupies one support slot).
    pub fn for_k_outliers(k: usize) -> Self {
        BompConfig { omp: OmpConfig::with_max_iterations(3 * k + 1), ..BompConfig::default() }
    }

    /// Iteration budget `r` with defaults elsewhere.
    pub fn with_max_iterations(r: usize) -> Self {
        BompConfig { omp: OmpConfig::with_max_iterations(r), ..BompConfig::default() }
    }
}

/// Runs BOMP from a measurement spec, materializing `Φ0`.
///
/// This is the aggregator-side entry point matching the paper's CS-Reducer:
/// regenerate `Φ0` from the shared seed, extend it with the bias column,
/// recover. The peak is one dense `M × N` matrix plus the `M`-length bias
/// column; the result is bit-identical to
/// `bomp_with_matrix(&spec.materialize(), …)`, which is what it runs.
pub fn bomp(
    spec: &MeasurementSpec,
    y: &Vector,
    config: &BompConfig,
) -> Result<BompResult, LinalgError> {
    // Reject a bad measurement before the `M × N` allocation.
    check_measurement(spec.m, spec.n, y)?;
    bomp_with_matrix(&spec.materialize(), y, config)
}

/// Runs BOMP against an already-materialized `Φ0` (`M × N`).
///
/// The run records a `recover.bomp` span into `config.omp.rec`. Per
/// iteration one `bomp.iter` event carries the selected atom in signal
/// space (`atom = -1, bias = true` for the bias column), the residual norm,
/// and the running mode estimate `z₀/√N` — the per-iteration signals of the
/// paper's Figures 4(b) and 9. A final `bomp.done` event records mode,
/// bias selection, iteration count and the stop reason. When the recorder
/// is enabled, per-iteration coefficient tracking is switched on so the
/// mode series can be computed (one `O(k²)` solve per iteration — the cost
/// of watching); a disabled recorder changes nothing.
pub fn bomp_with_matrix(
    phi0: &ColMatrix,
    y: &Vector,
    config: &BompConfig,
) -> Result<BompResult, LinalgError> {
    bomp_biased(phi0, &OnceLock::new(), |_| dense_bias(phi0), None, y, config)
}

/// Runs BOMP against a measurement operator without materializing the
/// dictionary — the matrix-free counterpart of [`bomp_with_matrix`]. Per
/// OMP iteration the correlation refresh costs one operator transpose pass
/// (`O(N log N)` for SRHT, `O(N·s)` for seeded-sparse, a streamed
/// regeneration of the columns for dense) instead of a pass over a stored
/// matrix, and peak memory stays `O(M + N)`. It records the same span and
/// events as [`bomp_with_matrix`], plus a `backend` attribute.
pub fn bomp_with_op(
    op: &MeasurementOperator,
    y: &Vector,
    config: &BompConfig,
) -> Result<BompResult, LinalgError> {
    let backend = Some(op.kind().label());
    bomp_biased(op, &OnceLock::new(), |exec| op.bias_column(exec), backend, y, config)
}

/// The operator a recovery keeps: a fixed function of its
/// [`OpDescriptor`](crate::OpDescriptor), so state to hold across
/// sketches and recovers, not work to redo. The dense backend is kept as
/// its materialized `Φ0`, built once here; a matrix-free backend is kept
/// as built (an SRHT's sampled rows and sign words). The bias column `φ0`
/// is computed by the first recover that gets past the measurement check,
/// on that recover's executor, and reused by every later one.
///
/// [`ResidentOp::sketch`] and [`ResidentOp::recover`] are bit-identical to
/// the one-shot paths: the matrix-vector product and [`bomp_with_matrix`]
/// on a materialized `Φ0`, and `apply` and [`bomp_with_op`] otherwise,
/// span and events included.
#[derive(Clone)]
pub struct ResidentOp {
    op: MeasurementOperator,
    /// The dense backend's materialized `Φ0`; `None` for matrix-free ones.
    phi0: Option<ColMatrix>,
    bias: OnceLock<Vec<f64>>,
}

impl ResidentOp {
    /// Keeps `op`, materializing `Φ0` when it is the dense backend.
    pub fn new(op: MeasurementOperator) -> Self {
        let phi0 = match &op {
            MeasurementOperator::Dense(spec) => Some(spec.materialize()),
            _ => None,
        };
        ResidentOp { op, phi0, bias: OnceLock::new() }
    }

    /// The sketch `y = Φ0·x` of a dense slice.
    pub fn sketch(&self, slice: &[f64]) -> Result<Vector, LinalgError> {
        match &self.phi0 {
            Some(phi0) => phi0.matvec(&Vector::from_vec(slice.to_vec())),
            None => self.op.apply(slice),
        }
    }

    /// Runs BOMP on the kept operator and bias column.
    pub fn recover(&self, y: &Vector, config: &BompConfig) -> Result<BompResult, LinalgError> {
        let (op, bias) = (&self.op, &self.bias);
        match &self.phi0 {
            Some(phi0) => bomp_biased(phi0, bias, |_| dense_bias(phi0), None, y, config),
            None => {
                let backend = Some(op.kind().label());
                bomp_biased(op, bias, |exec| op.bias_column(exec), backend, y, config)
            }
        }
    }
}

impl fmt::Debug for ResidentOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ResidentOp").field(&self.op.descriptor()).finish()
    }
}

/// Rejects an empty geometry, a measurement of the wrong length, and a
/// measurement with a NaN or infinite entry, which would poison every
/// correlation and the recovered coefficients.
fn check_measurement(m: usize, n: usize, y: &Vector) -> Result<(), LinalgError> {
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty { op: "bomp" });
    }
    if y.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "bomp",
            expected: (m, 1),
            actual: (y.len(), 1),
        });
    }
    if !y.iter().all(|v| v.is_finite()) {
        return Err(LinalgError::InvalidParameter {
            name: "y",
            message: "measurement entries must be finite".into(),
        });
    }
    Ok(())
}

/// `φ0 = (1/√N)·Σⱼ φⱼ` (paper equation (3)) of a materialized `Φ0`
/// (`M > 0`), summing its columns in order.
fn dense_bias(phi0: &ColMatrix) -> Vec<f64> {
    let mut bias = vec![0.0; phi0.rows()];
    for col in phi0.as_col_major().chunks_exact(phi0.rows()) {
        vector::axpy(1.0, col, &mut bias);
    }
    let inv_sqrt_n = 1.0 / (phi0.cols() as f64).sqrt();
    for b in bias.iter_mut() {
        *b *= inv_sqrt_n;
    }
    bias
}

/// The bias-extended dictionary `Φ̃ = [φ0, Φ0]` over a borrowed `Φ0`: atom
/// 0 is the borrowed bias column, atoms `1..=N` are `inner`'s columns.
/// Nothing is stored — the correlation scan is one dot plus `inner`'s own
/// scan, still one pool section.
struct Biased<'a, D: OmpDictionary + ?Sized> {
    inner: &'a D,
    bias: &'a [f64],
}

impl<D: OmpDictionary + ?Sized> OmpDictionary for Biased<'_, D> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols() + 1
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        if j == 0 {
            out.copy_from_slice(self.bias);
        } else {
            self.inner.column_into(j - 1, out);
        }
    }

    /// The inner dictionary's scan over atoms `1..=N`, its blocks shifted
    /// one atom right, behind a one-atom block 0: the bias dot, visited
    /// on the caller.
    fn scan<R: Send>(
        &self,
        x: &[f64],
        corr: &mut [f64],
        work: &mut Vec<f64>,
        exec: &ExecConfig,
        visit: impl Fn(usize, &[f64], &mut [f64]) -> R + Sync,
    ) -> Result<(Vec<R>, ExecStats), LinalgError> {
        let Some((head, tail)) = corr.split_first_mut() else {
            return Err(LinalgError::DimensionMismatch {
                op: "scan",
                expected: (self.rows(), self.cols()),
                actual: (x.len(), 0),
            });
        };
        let (mut picks, stats) =
            self.inner.scan(x, tail, work, exec, |first, t, block| visit(first + 1, t, block))?;
        picks.insert(0, visit(0, &[vector::dot(self.bias, x)], std::slice::from_mut(head)));
        Ok((picks, stats))
    }
}

/// The one BOMP body: checks the measurement, fills the `bias` cell with
/// `compute_bias` on the run's executor (the scans' worker budget) unless
/// an earlier run did, runs OMP over [`Biased`] and maps the result back
/// to signal space. `backend` labels the `recover.bomp` span on the
/// operator path.
fn bomp_biased<D: OmpDictionary + ?Sized>(
    inner: &D,
    bias: &OnceLock<Vec<f64>>,
    compute_bias: impl FnOnce(&ExecConfig) -> Vec<f64>,
    backend: Option<&str>,
    y: &Vector,
    config: &BompConfig,
) -> Result<BompResult, LinalgError> {
    let (m, n) = (inner.rows(), inner.cols());
    check_measurement(m, n, y)?;
    let exec = resolve_exec(&config.omp, m, n + 1);
    let dict = Biased { inner, bias: bias.get_or_init(|| compute_bias(&exec)) };
    let rec = &config.omp.rec;
    let mut omp_cfg = config.omp.clone();
    if config.track_mode || rec.is_enabled() {
        omp_cfg.track_coefficients = true;
    }
    let fields = [
        ("rows", Value::U64(m as u64)),
        ("cols", Value::U64(n as u64)),
        ("backend", Value::from(backend.unwrap_or_default())),
    ];
    let _span = rec.span_with("recover.bomp", &fields[..2 + usize::from(backend.is_some())]);
    let result = omp(&dict, y, &omp_cfg)?;
    assemble(n, result, config.track_mode, rec)
}

/// Recovery with a *known* mode — the baseline BOMP is compared against in
/// Figure 4(a).
///
/// When the bias `b` is known in advance, `x = b·1 + z` gives
/// `y − b·Φ0·1 = Φ0·z` with `z` sparse at zero, so plain OMP applies
/// directly (no extended column). The paper notes this baseline must spend
/// an extra `2s + 1` transmitted values to learn `b`, which BOMP avoids.
pub fn omp_with_known_mode(
    phi0: &ColMatrix,
    y: &Vector,
    mode: f64,
    config: &BompConfig,
) -> Result<BompResult, LinalgError> {
    let n = phi0.cols();
    let m = phi0.rows();
    if n == 0 || m == 0 {
        return Err(LinalgError::Empty { op: "omp_with_known_mode" });
    }
    if y.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "omp_with_known_mode",
            expected: (m, 1),
            actual: (y.len(), 1),
        });
    }
    // y' = y − b·Φ0·1.
    let ones = Vector::filled(n, mode);
    let bias_part = phi0.matvec(&ones)?;
    let y_prime = y.sub(&bias_part)?;

    let mut omp_cfg = config.omp.clone();
    omp_cfg.track_coefficients = false;
    let inner = omp(phi0, &y_prime, &omp_cfg)?;

    let deviations = inner.to_sparse(n)?;
    let mut outliers: Vec<RecoveredOutlier> = deviations
        .entries()
        .iter()
        .map(|&(i, z)| RecoveredOutlier { index: i, value: z + mode, deviation: z })
        .collect();
    outliers.sort_by(|a, b| {
        b.deviation
            .abs()
            .partial_cmp(&a.deviation.abs())
            .expect("finite deviations")
            .then(a.index.cmp(&b.index))
    });
    let residual_trace = inner.trace.iter().map(|t| t.residual_norm).collect();
    Ok(BompResult {
        mode,
        bias_selected: false,
        outliers,
        deviations,
        iterations: inner.trace.len(),
        stop: inner.stop,
        mode_trace: Vec::new(),
        residual_trace,
    })
}

/// Converts the extended-dictionary OMP result back into signal space
/// (paper equation (4)).
fn assemble(
    n: usize,
    inner: OmpResult,
    track_mode: bool,
    rec: &Recorder,
) -> Result<BompResult, LinalgError> {
    let inv_sqrt_n = 1.0 / (n as f64).sqrt();

    let mut mode = 0.0;
    let mut bias_selected = false;
    let mut deviation_entries: Vec<(usize, f64)> = Vec::with_capacity(inner.support.len());
    for (&col, &coef) in inner.support.iter().zip(inner.coefficients.iter()) {
        if col == 0 {
            bias_selected = true;
            mode = coef * inv_sqrt_n; // b = z₀/√N
        } else {
            deviation_entries.push((col - 1, coef));
        }
    }
    let deviations = SparseVector::new(n, deviation_entries)?;

    let mut outliers: Vec<RecoveredOutlier> = deviations
        .entries()
        .iter()
        .map(|&(i, z)| RecoveredOutlier { index: i, value: z + mode, deviation: z })
        .collect();
    outliers.sort_by(|a, b| {
        b.deviation
            .abs()
            .partial_cmp(&a.deviation.abs())
            .expect("finite deviations")
            .then(a.index.cmp(&b.index))
    });

    // Per-iteration mode estimate z₀/√N. Available whenever the inner OMP
    // tracked coefficients (track_mode, or an enabled recorder).
    let mode_series: Vec<f64> = if inner.trace.iter().all(|t| t.coefficients.is_some()) {
        inner
            .trace
            .iter()
            .map(|t| {
                let coeffs = t.coefficients.as_ref().expect("tracked");
                // Position of the bias column within the support-so-far.
                inner.support[..coeffs.len()]
                    .iter()
                    .position(|&c| c == 0)
                    .map(|p| coeffs[p] * inv_sqrt_n)
                    .unwrap_or(0.0)
            })
            .collect()
    } else {
        Vec::new()
    };

    if rec.is_enabled() {
        for (i, step) in inner.trace.iter().enumerate() {
            // Extended column 0 is the bias atom; columns 1.. map to signal
            // keys 0.. — report signal-space indices, with −1 for the bias.
            let bias = step.selected == 0;
            let atom = if bias { -1i64 } else { (step.selected - 1) as i64 };
            rec.event(
                "bomp.iter",
                &[
                    ("iter", Value::U64(i as u64)),
                    ("atom", Value::I64(atom)),
                    ("bias", Value::Bool(bias)),
                    ("residual", Value::F64(step.residual_norm)),
                    ("mode", Value::F64(mode_series.get(i).copied().unwrap_or(0.0))),
                ],
            );
        }
        rec.event(
            "bomp.done",
            &[
                ("mode", Value::F64(mode)),
                ("bias_selected", Value::Bool(bias_selected)),
                ("iterations", Value::U64(inner.trace.len() as u64)),
                ("stop", Value::from(inner.stop.as_str())),
            ],
        );
    }

    let mode_trace = if track_mode { mode_series } else { Vec::new() };
    let residual_trace = inner.trace.iter().map(|t| t.residual_norm).collect();

    Ok(BompResult {
        mode,
        bias_selected,
        outliers,
        deviations,
        iterations: inner.trace.len(),
        stop: inner.stop,
        mode_trace,
        residual_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Majority-dominated instance: all keys at `b` except the given ones.
    fn biased_instance(
        m: usize,
        n: usize,
        b: f64,
        outliers: &[(usize, f64)],
        seed: u64,
    ) -> (MeasurementSpec, Vector, Vec<f64>) {
        let spec = MeasurementSpec::new(m, n, seed).unwrap();
        let mut x = vec![b; n];
        for &(i, v) in outliers {
            x[i] = v;
        }
        let y = spec.measure_dense(&x).unwrap();
        (spec, y, x)
    }

    #[test]
    fn recovers_mode_and_outliers_exactly() {
        let (spec, y, _x) =
            biased_instance(60, 200, 5000.0, &[(10, 9000.0), (50, 100.0), (120, 7000.0)], 2024);
        let r = bomp(&spec, &y, &BompConfig::default()).unwrap();
        assert!(r.bias_selected);
        assert!((r.mode - 5000.0).abs() < 1e-6, "mode = {}", r.mode);
        let top = r.top_k(3);
        let mut idx: Vec<usize> = top.iter().map(|o| o.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![10, 50, 120]);
        for o in top {
            let expect = match o.index {
                10 => 9000.0,
                50 => 100.0,
                120 => 7000.0,
                _ => unreachable!(),
            };
            assert!((o.value - expect).abs() < 1e-5, "value {} for key {}", o.value, o.index);
        }
    }

    #[test]
    fn outliers_sorted_by_absolute_deviation() {
        let (spec, y, _) =
            biased_instance(60, 150, 1000.0, &[(5, 1100.0), (9, 5000.0), (80, -2000.0)], 7);
        let r = bomp(&spec, &y, &BompConfig::default()).unwrap();
        // |dev|: key 9 → 4000, key 80 → 3000, key 5 → 100.
        let order: Vec<usize> = r.outliers.iter().map(|o| o.index).collect();
        assert_eq!(order, vec![9, 80, 5]);
        // top_k truncates.
        assert_eq!(r.top_k(2).len(), 2);
        assert_eq!(r.top_k(10).len(), 3);
    }

    #[test]
    fn zero_mode_data_behaves_like_plain_omp() {
        // Sparse-at-zero data: BOMP should still recover, with mode ≈ 0.
        let (spec, y, _) = biased_instance(50, 120, 0.0, &[(3, 42.0), (100, -17.0)], 99);
        let r = bomp(&spec, &y, &BompConfig::default()).unwrap();
        assert!(r.mode.abs() < 1e-6, "mode = {}", r.mode);
        let mut idx: Vec<usize> = r.outliers.iter().map(|o| o.index).collect();
        idx.sort_unstable();
        // The bias column may or may not enter; the true outliers must.
        assert!(idx.contains(&3) && idx.contains(&100));
    }

    #[test]
    fn recovered_dense_matches_ground_truth() {
        let (spec, y, x) = biased_instance(80, 100, 1800.0, &[(4, 0.0), (90, 3600.0)], 5);
        let r = bomp(&spec, &y, &BompConfig::default()).unwrap();
        let rec = r.recovered_dense();
        for (i, (&xi, &ri)) in x.iter().zip(rec.iter()).enumerate() {
            assert!((xi - ri).abs() < 1e-5, "key {i}: {xi} vs {ri}");
        }
    }

    #[test]
    fn mode_trace_stabilizes_after_support_found() {
        let (spec, y, _) = biased_instance(
            80,
            200,
            5000.0,
            &[(1, 0.0), (2, 10000.0), (3, -3000.0), (4, 20000.0)],
            31,
        );
        let cfg = BompConfig { track_mode: true, ..BompConfig::default() };
        let r = bomp(&spec, &y, &cfg).unwrap();
        assert_eq!(r.mode_trace.len(), r.iterations);
        let last = *r.mode_trace.last().unwrap();
        assert!((last - 5000.0).abs() < 1e-5);
        assert!((last - r.mode).abs() < 1e-9, "trace end must equal final mode");
    }

    #[test]
    fn iteration_budget_limits_outliers() {
        let outliers: Vec<(usize, f64)> = (0..20).map(|i| (i * 7, 9000.0 + i as f64)).collect();
        let (spec, y, _) = biased_instance(100, 300, 100.0, &outliers, 13);
        let r = bomp(&spec, &y, &BompConfig::with_max_iterations(5)).unwrap();
        assert!(r.iterations <= 5);
        assert!(r.outliers.len() <= 5, "at most R−1 outliers plus bias");
    }

    #[test]
    fn for_k_outliers_budget_in_paper_range() {
        for k in [5usize, 10, 20] {
            let cfg = BompConfig::for_k_outliers(k);
            let r = cfg.omp.max_iterations;
            assert!(r >= 2 * k && r <= 5 * k, "R = {r} for k = {k}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let spec = MeasurementSpec::new(10, 20, 1).unwrap();
        let y = Vector::zeros(11);
        assert!(bomp(&spec, &y, &BompConfig::default()).is_err());
    }

    #[test]
    fn known_mode_omp_matches_bomp_on_exact_instances() {
        let (spec, y, _) =
            biased_instance(60, 200, 5000.0, &[(10, 9000.0), (50, 100.0), (120, 7000.0)], 2024);
        let phi0 = spec.materialize();
        let r = omp_with_known_mode(&phi0, &y, 5000.0, &BompConfig::default()).unwrap();
        assert_eq!(r.mode, 5000.0);
        assert!(!r.bias_selected);
        let mut idx: Vec<usize> = r.outliers.iter().map(|o| o.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![10, 50, 120]);
        for o in &r.outliers {
            let expect = match o.index {
                10 => 9000.0,
                50 => 100.0,
                120 => 7000.0,
                _ => unreachable!(),
            };
            assert!((o.value - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn known_mode_omp_with_wrong_mode_degrades() {
        // Feeding a wrong bias makes the implied z dense, so exact recovery
        // at this M must fail — quantifying the value of knowing b.
        let (spec, y, _) = biased_instance(40, 200, 5000.0, &[(10, 9000.0)], 9);
        let phi0 = spec.materialize();
        let r = omp_with_known_mode(&phi0, &y, 0.0, &BompConfig::default()).unwrap();
        assert!(
            r.residual_trace.last().copied().unwrap_or(f64::INFINITY) > 1.0 || r.outliers.len() > 5
        );
    }

    #[test]
    fn known_mode_omp_checks_dimensions() {
        let spec = MeasurementSpec::new(10, 20, 1).unwrap();
        let phi0 = spec.materialize();
        assert!(omp_with_known_mode(&phi0, &Vector::zeros(9), 0.0, &BompConfig::default()).is_err());
    }

    #[test]
    fn op_path_recovers_mode_and_outliers_on_every_backend() {
        let (m, n, seed) = (60, 200, 2024);
        let ops = [
            MeasurementOperator::dense(m, n, seed).unwrap(),
            MeasurementOperator::srht(m, n, seed).unwrap(),
            MeasurementOperator::seeded_sparse(m, n, seed, 12).unwrap(),
        ];
        let mut x = vec![5000.0; n];
        x[10] = 9000.0;
        x[50] = 100.0;
        x[120] = 7000.0;
        for op in &ops {
            let y = op.apply(&x).unwrap();
            let r = bomp_with_op(op, &y, &BompConfig::default()).unwrap();
            assert!(r.bias_selected, "{:?}", op.kind());
            assert!((r.mode - 5000.0).abs() < 1e-5, "{:?}: mode = {}", op.kind(), r.mode);
            let mut idx: Vec<usize> = r.top_k(3).iter().map(|o| o.index).collect();
            idx.sort_unstable();
            assert_eq!(idx, vec![10, 50, 120], "{:?}", op.kind());
            // A zero measurement is already exact: no iteration runs.
            let zero = bomp_with_op(op, &Vector::zeros(m), &BompConfig::default()).unwrap();
            assert_eq!(zero.stop, StopReason::ResidualTolerance, "{:?}", op.kind());
            assert_eq!((zero.iterations, zero.outliers.len()), (0, 0), "{:?}", op.kind());
        }
    }

    #[test]
    fn op_path_on_dense_backend_matches_matrix_path() {
        let (spec, y, _) =
            biased_instance(60, 200, 5000.0, &[(10, 9000.0), (50, 100.0), (120, 7000.0)], 2024);
        let op = MeasurementOperator::Dense(spec);
        for config in [BompConfig::default(), BompConfig { track_mode: true, ..Default::default() }]
        {
            let via_matrix = bomp(&spec, &y, &config).unwrap();
            let via_op = bomp_with_op(&op, &y, &config).unwrap();
            assert_eq!(via_op.bias_selected, via_matrix.bias_selected);
            assert_eq!(via_op.mode.to_bits(), via_matrix.mode.to_bits());
            assert_eq!(via_op.iterations, via_matrix.iterations);
            let a: Vec<usize> = via_op.outliers.iter().map(|o| o.index).collect();
            let b: Vec<usize> = via_matrix.outliers.iter().map(|o| o.index).collect();
            assert_eq!(a, b);
            // The streamed operator regenerates the same columns, so the
            // mode trace (empty unless tracked) agrees bit for bit.
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&via_op.mode_trace), bits(&via_matrix.mode_trace));
            assert_eq!(
                via_op.mode_trace.len(),
                if config.track_mode { via_op.iterations } else { 0 }
            );
        }
    }

    #[test]
    fn bomp_from_spec_is_bit_identical_to_materialized_path() {
        let (spec, y, _) =
            biased_instance(60, 200, 5000.0, &[(10, 9000.0), (50, 100.0), (120, 7000.0)], 2024);
        let phi0 = spec.materialize();
        for config in [BompConfig::default(), BompConfig { track_mode: true, ..Default::default() }]
        {
            let (rec_a, rec_b) = (Recorder::new(), Recorder::new());
            let traced = |rec: &Recorder| BompConfig {
                omp: OmpConfig { rec: rec.clone(), ..config.omp.clone() },
                ..config.clone()
            };
            let a = bomp(&spec, &y, &traced(&rec_a)).unwrap();
            let b = bomp_with_matrix(&phi0, &y, &traced(&rec_b)).unwrap();
            let untraced = bomp(&spec, &y, &config).unwrap();
            for r in [&a, &untraced] {
                assert_eq!(r.mode.to_bits(), b.mode.to_bits());
                assert_eq!(r.bias_selected, b.bias_selected);
                assert_eq!(r.iterations, b.iterations);
                assert_eq!(r.stop, b.stop);
                let outliers = |r: &BompResult| -> Vec<(usize, u64)> {
                    r.outliers.iter().map(|o| (o.index, o.value.to_bits())).collect()
                };
                assert_eq!(outliers(r), outliers(&b));
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(bits(&r.residual_trace), bits(&b.residual_trace));
                assert_eq!(bits(&r.mode_trace), bits(&b.mode_trace));
            }
            assert_eq!(a.mode_trace.len(), if config.track_mode { a.iterations } else { 0 });
            // The traces agree entry for entry: names, nesting, fields.
            let entries = |rec: &Recorder| -> Vec<String> {
                rec.trace_snapshot().iter().map(|e| format!("{e:?}")).collect()
            };
            assert!(!entries(&rec_a).is_empty());
            assert_eq!(entries(&rec_a), entries(&rec_b));
        }
        // Both entry points reject a wrong-length measurement the same way.
        let short = Vector::zeros(59);
        assert_eq!(
            format!("{:?}", bomp(&spec, &short, &BompConfig::default()).unwrap_err()),
            format!("{:?}", bomp_with_matrix(&phi0, &short, &BompConfig::default()).unwrap_err())
        );
    }

    #[test]
    fn op_bomp_is_bit_identical_across_worker_counts() {
        let (m, n) = (40, 3000);
        let mut x = vec![5000.0; n];
        x[10] = 9000.0;
        x[2999] = 100.0;
        for op in [
            MeasurementOperator::dense(m, n, 5).unwrap(),
            MeasurementOperator::srht(m, n, 5).unwrap(),
            MeasurementOperator::seeded_sparse(m, n, 5, 8).unwrap(),
        ] {
            let y = op.apply(&x).unwrap();
            let run = |workers: usize| {
                let mut cfg = BompConfig { track_mode: true, ..BompConfig::for_k_outliers(2) };
                cfg.omp.par_min_work = 0;
                cfg.omp.exec = ExecConfig::with_workers(workers);
                let r = bomp_with_op(&op, &y, &cfg).unwrap();
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                let outliers: Vec<(usize, u64)> =
                    r.outliers.iter().map(|o| (o.index, o.value.to_bits())).collect();
                (r.mode.to_bits(), outliers, bits(&r.mode_trace), bits(&r.residual_trace))
            };
            let seq = run(1);
            for workers in [2, 8] {
                assert_eq!(run(workers), seq, "{:?}, workers = {workers}", op.kind());
            }
        }
    }

    #[test]
    fn exec_stats_record_one_section_per_refresh() {
        // Atom 0, the bias dot, is visited on the caller; the N = 3000
        // atoms behind it are 6 block tasks, one section per pick: the
        // first scans y, every later one shifts by the last direction.
        let (spec, y, _) = biased_instance(40, 3000, 5000.0, &[(10, 9000.0), (2999, 100.0)], 5);
        let phi0 = spec.materialize();
        let rec = Recorder::new();
        let mut cfg = BompConfig::with_max_iterations(7);
        cfg.omp.residual_tolerance = 0.0;
        cfg.omp.stall_guard = false;
        cfg.omp.par_min_work = 0;
        cfg.omp.exec = ExecConfig::with_workers(2);
        cfg.omp.rec = rec.clone();
        let r = bomp_with_matrix(&phi0, &y, &cfg).unwrap();
        assert_eq!(r.iterations, 7);
        let tasks = 7 * 3000usize.div_ceil(crate::omp::COL_BLOCK);
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("exec.tasks"), Some(tasks as u64));
        assert_eq!(snap.gauge("exec.workers"), Some(2.0));
        assert_eq!(rec.events_named("exec.task").len(), tasks);
    }

    #[test]
    fn non_finite_measurement_is_rejected() {
        let (spec, y, _) = biased_instance(40, 100, 1800.0, &[(7, 9000.0)], 3);
        let phi0 = spec.materialize();
        let ops = [
            MeasurementOperator::Dense(spec),
            MeasurementOperator::srht(40, 100, 3).unwrap(),
            MeasurementOperator::seeded_sparse(40, 100, 3, 8).unwrap(),
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = y.clone();
            poisoned[11] = bad;
            let cfg = BompConfig::default();
            let mut results =
                vec![bomp(&spec, &poisoned, &cfg), bomp_with_matrix(&phi0, &poisoned, &cfg)];
            results.extend(ops.iter().map(|op| bomp_with_op(op, &poisoned, &cfg)));
            for r in results {
                assert!(
                    matches!(r, Err(LinalgError::InvalidParameter { name: "y", .. })),
                    "{bad}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn op_path_checks_dimensions() {
        let op = MeasurementOperator::srht(10, 20, 1).unwrap();
        assert!(bomp_with_op(&op, &Vector::zeros(9), &BompConfig::default()).is_err());
    }

    /// Every bit a recovery reports: mode, support, stop, outliers, traces.
    type Fingerprint = (u64, bool, usize, StopReason, Vec<(usize, u64)>, Vec<u64>, Vec<u64>);

    fn fingerprint(r: &BompResult) -> Fingerprint {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let outliers = r.outliers.iter().map(|o| (o.index, o.value.to_bits())).collect();
        let traces = (bits(&r.mode_trace), bits(&r.residual_trace));
        (r.mode.to_bits(), r.bias_selected, r.iterations, r.stop, outliers, traces.0, traces.1)
    }

    /// One operator per backend over a biased signal, with its measurement.
    fn resident_cases(m: usize, n: usize) -> Vec<(MeasurementOperator, Vec<f64>, Vector)> {
        let mut x = vec![5000.0; n];
        x[10] = 9000.0;
        x[n - 1] = 100.0;
        let ops = [
            MeasurementOperator::dense(m, n, 5).unwrap(),
            MeasurementOperator::srht(m, n, 5).unwrap(),
            MeasurementOperator::seeded_sparse(m, n, 5, 8).unwrap(),
        ];
        ops.into_iter()
            .map(|op| {
                let y = op.apply(&x).unwrap();
                (op, x.clone(), y)
            })
            .collect()
    }

    #[test]
    fn resident_op_sketch_matches_the_one_shot_products() {
        for (op, x, _) in resident_cases(40, 300) {
            let resident = ResidentOp::new(op.clone());
            let expect = match &op {
                // `CsProtocol::sketch_slice`'s product on the materialized Φ0.
                MeasurementOperator::Dense(spec) => {
                    spec.materialize().matvec(&Vector::from_vec(x.clone())).unwrap()
                }
                _ => op.apply(&x).unwrap(),
            };
            let got = resident.sketch(&x).unwrap();
            let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&got), bits(&expect), "{:?}", op.kind());
            assert!(resident.sketch(&x[1..]).is_err(), "{:?}", op.kind());
        }
    }

    #[test]
    fn resident_op_cold_and_warm_recovers_match_the_one_shot_paths() {
        for (op, _, y) in resident_cases(40, 300) {
            let resident = ResidentOp::new(op.clone());
            let cfg = |rec: &Recorder| BompConfig {
                omp: OmpConfig { rec: rec.clone(), ..BompConfig::for_k_outliers(2).omp },
                track_mode: true,
            };
            let (rec_fresh, rec_cold, rec_warm) =
                (Recorder::new(), Recorder::new(), Recorder::new());
            let fresh = match &op {
                MeasurementOperator::Dense(spec) => {
                    bomp_with_matrix(&spec.materialize(), &y, &cfg(&rec_fresh))
                }
                _ => bomp_with_op(&op, &y, &cfg(&rec_fresh)),
            }
            .unwrap();
            assert!(resident.bias.get().is_none(), "the first recover computes φ0");
            let cold = resident.recover(&y, &cfg(&rec_cold)).unwrap();
            assert!(resident.bias.get().is_some(), "{:?}", op.kind());
            let warm = resident.recover(&y, &cfg(&rec_warm)).unwrap();
            assert_eq!(fingerprint(&cold), fingerprint(&fresh), "{:?}", op.kind());
            assert_eq!(fingerprint(&warm), fingerprint(&fresh), "{:?}", op.kind());
            // Same span, backend label and events as the one-shot path.
            let entries = |rec: &Recorder| -> Vec<String> {
                rec.trace_snapshot().iter().map(|e| format!("{e:?}")).collect()
            };
            assert_eq!(entries(&rec_cold), entries(&rec_fresh), "{:?}", op.kind());
            assert_eq!(entries(&rec_warm), entries(&rec_fresh), "{:?}", op.kind());
        }
    }

    #[test]
    fn resident_op_bias_is_the_same_whichever_worker_count_computes_it() {
        for (op, _, y) in resident_cases(40, 3000) {
            let run = |resident: &ResidentOp, workers: usize| {
                let mut cfg = BompConfig { track_mode: true, ..BompConfig::for_k_outliers(2) };
                cfg.omp.par_min_work = 0;
                cfg.omp.exec = ExecConfig::with_workers(workers);
                fingerprint(&resident.recover(&y, &cfg).unwrap())
            };
            let orders = [(1, 2), (2, 1)].map(|(first, second)| {
                let resident = ResidentOp::new(op.clone());
                let cold = run(&resident, first);
                assert_eq!(run(&resident, second), cold, "{:?}, {first} then {second}", op.kind());
                cold
            });
            assert_eq!(orders[0], orders[1], "{:?}", op.kind());
        }
    }

    #[test]
    fn resident_op_rejects_a_bad_measurement_before_computing_the_bias() {
        for (op, _, y) in resident_cases(40, 300) {
            let resident = ResidentOp::new(op);
            let mut poisoned = y.clone();
            poisoned[3] = f64::NAN;
            let cfg = BompConfig::default();
            let nan = resident.recover(&poisoned, &cfg);
            assert!(matches!(nan, Err(LinalgError::InvalidParameter { name: "y", .. })), "{nan:?}");
            let short = resident.recover(&Vector::zeros(39), &cfg);
            assert!(matches!(short, Err(LinalgError::DimensionMismatch { .. })), "{short:?}");
            assert!(resident.bias.get().is_none(), "{resident:?}");
        }
    }

    #[test]
    fn negative_values_handled() {
        // Outlier values may be negative (the paper stresses x ∈ R^N).
        let (spec, y, _) = biased_instance(60, 120, -500.0, &[(7, -9000.0), (8, 400.0)], 55);
        let r = bomp(&spec, &y, &BompConfig::default()).unwrap();
        assert!((r.mode + 500.0).abs() < 1e-6);
        let top: Vec<usize> = r.top_k(2).iter().map(|o| o.index).collect();
        assert!(top.contains(&7) && top.contains(&8));
    }
}
