//! Orthogonal Matching Pursuit.
//!
//! The greedy recovery algorithm of Pati et al. / Tropp & Gilbert that the
//! paper uses as its subroutine (Algorithm 2). Each iteration:
//!
//! 1. scans the dictionary for the column with the largest `|⟨φ, r⟩|`,
//! 2. appends that column to the active set,
//! 3. re-projects `y` onto the active span (via incremental QR — the
//!    "QR factorization with Gram–Schmidt process" of Section 5),
//! 4. updates the residual `r = y − proj(y, Φ*)`.
//!
//! Termination mirrors the paper's production concerns:
//! - an iteration budget `R` (Section 5 tunes `R = f(k) ∈ [2k, 5k]`),
//! - a residual tolerance (exact recovery reached),
//! - the **residual-stall guard**: "terminate the recovery process once the
//!   residual stops decreasing", the paper's fix for floating-point error
//!   accumulation in Gram–Schmidt QR.
//!
//! The loop runs over any [`OmpDictionary`]: a materialized [`ColMatrix`]
//! (its scan is the blocked [`cso_linalg::gemv`] kernel), a matrix-free
//! [`MeasurementOperator`](crate::MeasurementOperator), or BOMP's
//! bias-extended wrapper of either.
//! Two kernels implement it (selected by [`OmpConfig::kernel`]):
//!
//! - [`OmpKernel::Fused`] (default) maintains the residual and the full
//!   correlation vector `c = Φᵀr` incrementally. After selecting column
//!   `j` the new orthonormal direction `q` satisfies `r' = r − (qᵀr)·q`
//!   (one dot + one axpy, since `r ⊥ span(q₀..q_{k−1})`), and the
//!   correlations follow as `c' = c − (qᵀr)·Φᵀq` — one
//!   [`OmpDictionary::scan`] of `q` whose block tasks shift their slice
//!   of `c` and pick their block's winner as they go, instead of
//!   re-projecting `y` through the QR and re-scanning every column
//!   against `r`.
//! - [`OmpKernel::Reference`] is the textbook loop (full `qr.residual`
//!   re-projection and a fresh `Φᵀr` scan per iteration), kept as the
//!   oracle the fused path is tested against.
//!
//! Every pick is one pool section over column blocks: each block task
//! computes its columns' products, folds them into its slice of `c` and
//! returns the block winner, and the winners fold in ascending order. A
//! product is a function of its column alone and the fold reproduces the
//! serial left-to-right argmax with its lowest-index tie-break, so results
//! are bit-identical at any block size and worker count. See DESIGN.md §9.

use crate::sparse::SparseVector;
use cso_exec::{ExecConfig, ExecStats};
use cso_linalg::{gemv, vector, ColMatrix, IncrementalQr, LinalgError, Vector};
use cso_obs::{Recorder, Value};

/// Columns per task of the dense and seeded-sparse scans. Small enough
/// that two workers split the paper's `N = 10,400` dictionary to within
/// one block (about 5 %), large enough to amortize the dispatch; a
/// multiple of the gemv kernel's column group. Only the schedule depends
/// on it, never a bit (DESIGN.md §9).
pub const COL_BLOCK: usize = 512;

const _: () = assert!(COL_BLOCK.is_multiple_of(gemv::COLS_PER_GROUP));

/// Default for [`OmpConfig::par_min_work`]: dictionaries below ~2M
/// elements are scanned inline, where pool dispatch would cost more than
/// the scan itself.
pub const DEFAULT_PAR_MIN_WORK: usize = 1 << 21;

/// Why an OMP run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration budget `R` was exhausted.
    MaxIterations,
    /// The residual norm fell below the tolerance — recovery is exact to
    /// working precision.
    ResidualTolerance,
    /// The residual stopped decreasing (floating-point stall guard from
    /// Section 5 of the paper).
    ResidualStall,
    /// The best remaining column was numerically inside the active span, so
    /// no further progress is possible.
    RankExhausted,
    /// Every dictionary column has already been selected.
    DictionaryExhausted,
}

impl StopReason {
    /// Stable lowercase name for traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::MaxIterations => "max_iterations",
            StopReason::ResidualTolerance => "residual_tolerance",
            StopReason::ResidualStall => "residual_stall",
            StopReason::RankExhausted => "rank_exhausted",
            StopReason::DictionaryExhausted => "dictionary_exhausted",
        }
    }
}

/// Which inner-loop implementation [`omp`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpKernel {
    /// Incremental residual/correlation recurrence: one `Dᵀq` pass per
    /// iteration, its shift fused into the argmax sweep (default).
    Fused,
    /// Textbook loop: full QR re-projection and a fresh `Dᵀr` scan per
    /// iteration. The oracle the fused kernel is tested against.
    Reference,
}

impl OmpKernel {
    /// Stable lowercase name for traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            OmpKernel::Fused => "fused",
            OmpKernel::Reference => "reference",
        }
    }
}

/// Tuning knobs for [`omp`].
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Iteration budget `R` (the paper's `f(k)`).
    pub max_iterations: usize,
    /// Stop when `‖r‖₂ ≤ residual_tolerance · ‖y‖₂`.
    pub residual_tolerance: f64,
    /// Enable the residual-stall termination guard.
    pub stall_guard: bool,
    /// Minimum relative residual decrease per iteration before the stall
    /// guard fires (only meaningful when `stall_guard` is set).
    pub min_relative_decrease: f64,
    /// Record the full least-squares coefficient vector after every
    /// iteration (needed for the paper's mode-vs-iteration traces,
    /// Figures 4(b) and 9; costs one `O(k²)` solve per iteration).
    pub track_coefficients: bool,
    /// Inner-loop implementation (see [`OmpKernel`]).
    pub kernel: OmpKernel,
    /// Worker budget for dictionary scans. Resolved **once per run** (not
    /// per iteration): dictionaries with fewer than
    /// [`OmpConfig::par_min_work`] elements always scan inline on the
    /// caller.
    pub exec: ExecConfig,
    /// Minimum dictionary size (`rows · cols`) before `exec` is engaged;
    /// below it every scan runs sequentially regardless of `exec.workers`.
    pub par_min_work: usize,
    /// Where the run records its `recover.omp` span and its `omp.iter` /
    /// `omp.stop` events. Travels with `exec`; the default
    /// [`Recorder::disabled`] reduces every instrumentation point to one
    /// branch.
    pub rec: Recorder,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            max_iterations: usize::MAX,
            residual_tolerance: 1e-9,
            stall_guard: true,
            min_relative_decrease: 1e-12,
            track_coefficients: false,
            kernel: OmpKernel::Fused,
            exec: ExecConfig::default(),
            par_min_work: DEFAULT_PAR_MIN_WORK,
            rec: Recorder::disabled(),
        }
    }
}

impl OmpConfig {
    /// Config with an explicit iteration budget and defaults elsewhere.
    pub fn with_max_iterations(r: usize) -> Self {
        OmpConfig { max_iterations: r, ..OmpConfig::default() }
    }
}

/// Per-iteration record of an OMP run.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Dictionary column selected this iteration.
    pub selected: usize,
    /// Residual norm *after* re-projection.
    pub residual_norm: f64,
    /// Least-squares coefficients over the support selected so far, in
    /// selection order. Populated only when
    /// [`OmpConfig::track_coefficients`] is set.
    pub coefficients: Option<Vec<f64>>,
}

/// Output of an OMP run.
#[derive(Debug, Clone)]
pub struct OmpResult {
    /// Selected column indices, in selection order.
    pub support: Vec<usize>,
    /// Final least-squares coefficients, aligned with `support`.
    pub coefficients: Vec<f64>,
    /// Final residual norm.
    pub residual_norm: f64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Per-iteration trace.
    pub trace: Vec<IterationRecord>,
}

impl OmpResult {
    /// Assembles the recovered signal as a sparse `dim`-dimensional vector.
    pub fn to_sparse(&self, dim: usize) -> Result<SparseVector, LinalgError> {
        SparseVector::new(
            dim,
            self.support.iter().copied().zip(self.coefficients.iter().copied()).collect(),
        )
    }

    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.trace.len()
    }
}

/// What a kernel loop hands back to the shared epilogue.
struct RunOutcome {
    qr: IncrementalQr,
    support: Vec<usize>,
    trace: Vec<IterationRecord>,
    residual_norm: f64,
    stop: StopReason,
}

/// Runs OMP against a dictionary: a materialized [`ColMatrix`], a
/// matrix-free [`MeasurementOperator`](crate::MeasurementOperator), or any
/// other [`OmpDictionary`].
///
/// `dict` is `M × D` (for BOMP, `D = N + 1` with the bias column first);
/// `y` has length `M`. Errors on a dimension mismatch or an empty
/// measurement. Every scan runs on [`OmpConfig::exec`], resolved once per
/// run: dictionaries below [`OmpConfig::par_min_work`] elements stay
/// inline. The run records a `recover.omp` span with one `omp.iter` event
/// per iteration (selected atom, residual norm, relative residual
/// decrease) and a final `omp.stop` event into [`OmpConfig::rec`].
pub fn omp<D: OmpDictionary + ?Sized>(
    dict: &D,
    y: &Vector,
    config: &OmpConfig,
) -> Result<OmpResult, LinalgError> {
    if y.len() != dict.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "omp",
            expected: (dict.rows(), 1),
            actual: (y.len(), 1),
        });
    }
    if dict.rows() == 0 || dict.cols() == 0 {
        return Err(LinalgError::Empty { op: "omp" });
    }

    let _span = config.rec.span_with(
        "recover.omp",
        &[
            ("rows", Value::U64(dict.rows() as u64)),
            ("cols", Value::U64(dict.cols() as u64)),
            ("kernel", Value::from(config.kernel.as_str())),
        ],
    );
    let exec = resolve_exec(config, dict.rows(), dict.cols());

    let outcome = match config.kernel {
        OmpKernel::Fused => run_fused(dict, y, config, &exec)?,
        OmpKernel::Reference => run_reference(dict, y, config, &exec)?,
    };
    finish_run(outcome, y, config)
}

/// The worker budget for every scan of one run, resolved exactly once:
/// dictionaries below [`OmpConfig::par_min_work`] stay inline no matter
/// what `exec` asks for.
pub(crate) fn resolve_exec(config: &OmpConfig, rows: usize, cols: usize) -> ExecConfig {
    if rows * cols >= config.par_min_work {
        config.exec
    } else {
        ExecConfig::sequential()
    }
}

/// Shared epilogue of every kernel: the final least-squares solve through
/// the run's QR and the `omp.stop` event.
fn finish_run(
    outcome: RunOutcome,
    y: &Vector,
    config: &OmpConfig,
) -> Result<OmpResult, LinalgError> {
    let RunOutcome { qr, support, trace, residual_norm, stop } = outcome;

    let coefficients = if support.is_empty() {
        Vec::new()
    } else {
        qr.solve_least_squares(y.as_slice())?.into_vec()
    };
    if config.rec.is_enabled() {
        config.rec.event(
            "omp.stop",
            &[
                ("reason", Value::from(stop.as_str())),
                ("iterations", Value::U64(trace.len() as u64)),
                ("residual", Value::F64(residual_norm)),
                ("stall_guard", Value::Bool(config.stall_guard)),
            ],
        );
    }
    Ok(OmpResult { support, coefficients, residual_norm, stop, trace })
}

/// A dictionary the OMP kernels can scan. Implementations provide exactly
/// the two products the loop needs (a blocked transpose scan and
/// single-column reads); everything else — QR, residual recurrence,
/// selection, stall guard, tracing — is the one loop in this module.
pub trait OmpDictionary {
    /// Measurement dimension (length of every atom).
    fn rows(&self) -> usize;
    /// Number of atoms.
    fn cols(&self) -> usize;
    /// Writes atom `j` into `out` (length [`OmpDictionary::rows`]).
    fn column_into(&self, j: usize, out: &mut [f64]);
    /// The correlation scan `Dᵀ·x` (`x.len() == rows`,
    /// `corr.len() == cols`) as one pool section on `exec` over column
    /// blocks of the dictionary's choosing. Each task computes its block's
    /// products `t[i] = ⟨φ_{first+i}, x⟩` into task-local scratch and
    /// returns `visit(first, t, &mut corr[first..first + t.len()])`; the
    /// results come back in block order with the section's stats. A
    /// matrix-free backend may transform `x` first, into `work`: scratch
    /// the caller keeps across the scans of one run. Every product's bits
    /// must depend on its column and `x` alone, never on the split.
    fn scan<R: Send>(
        &self,
        x: &[f64],
        corr: &mut [f64],
        work: &mut Vec<f64>,
        exec: &ExecConfig,
        visit: impl Fn(usize, &[f64], &mut [f64]) -> R + Sync,
    ) -> Result<(Vec<R>, ExecStats), LinalgError>;
}

/// One pool section over the [`COL_BLOCK`]-column blocks of `corr`: each
/// task fills its block's products with `products(first, t)` on a stack
/// scratch and returns `visit(first, t, block)`. The scan of every
/// dictionary that computes products column by column.
pub(crate) fn scan_col_blocks<R: Send>(
    corr: &mut [f64],
    exec: &ExecConfig,
    products: impl Fn(usize, &mut [f64]) + Sync,
    visit: impl Fn(usize, &[f64], &mut [f64]) -> R + Sync,
) -> (Vec<R>, ExecStats) {
    cso_exec::par_map_chunks_mut(exec, corr, COL_BLOCK, |b, block| {
        let first = b * COL_BLOCK;
        let mut t = [0.0; COL_BLOCK];
        let t = &mut t[..block.len()];
        products(first, t);
        visit(first, t, block)
    })
}

impl OmpDictionary for ColMatrix {
    fn rows(&self) -> usize {
        ColMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        ColMatrix::cols(self)
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        out.copy_from_slice(self.col(j));
    }

    fn scan<R: Send>(
        &self,
        x: &[f64],
        corr: &mut [f64],
        _work: &mut Vec<f64>,
        exec: &ExecConfig,
        visit: impl Fn(usize, &[f64], &mut [f64]) -> R + Sync,
    ) -> Result<(Vec<R>, ExecStats), LinalgError> {
        let rows = ColMatrix::rows(self);
        if x.len() != rows || corr.len() != ColMatrix::cols(self) {
            return Err(LinalgError::DimensionMismatch {
                op: "scan",
                expected: (rows, ColMatrix::cols(self)),
                actual: (x.len(), corr.len()),
            });
        }
        let data = self.as_col_major();
        let products = |first: usize, t: &mut [f64]| {
            gemv::gemv_transpose_into(&data[first * rows..(first + t.len()) * rows], rows, x, t);
        };
        Ok(scan_col_blocks(corr, exec, products, visit))
    }
}

/// The fused kernel's selection state: `corr[j]` tracks `⟨φ_j, r⟩`,
/// `selected` flags the support, and `work` is the dictionary's scan
/// scratch, kept across the scans of one run.
struct Picker {
    corr: Vec<f64>,
    selected: Vec<bool>,
    work: Vec<f64>,
}

impl Picker {
    fn new(d: usize) -> Self {
        Picker { corr: vec![0.0; d], selected: vec![false; d], work: Vec::new() }
    }

    /// Refreshes every correlation with one scan of `x` — `update(c, t)`
    /// folds column `j`'s product `t = ⟨φ_j, x⟩` into `corr[j]` — and
    /// returns the argmax of `|c|` over unselected columns, lowest index
    /// winning ties: exactly the serial left-to-right scan. The scan is one
    /// pool section whose block tasks update and pick as they go (its
    /// `exec.*` stats go to `rec`); the block winners fold in ascending
    /// order. That equals the serial scan unless a NaN sits among the
    /// correlations (a NaN incumbent loses to the next column, so the
    /// result depends on where scans start); then the updated vector is
    /// scanned serially instead.
    fn refresh<D: OmpDictionary + ?Sized>(
        &mut self,
        dict: &D,
        x: &[f64],
        update: impl Fn(f64, f64) -> f64 + Sync,
        exec: &ExecConfig,
        rec: &Recorder,
    ) -> Result<Option<(usize, f64)>, LinalgError> {
        let selected = &self.selected;
        let (partials, stats) =
            dict.scan(x, &mut self.corr, &mut self.work, exec, |first, t, block| {
                update_and_select(block, t, &update, first, selected)
            })?;
        stats.record(rec);
        if partials.iter().any(|&(_, nan)| nan) {
            return Ok(argmax_unselected(&self.corr, selected, 0));
        }
        Ok(fold_block_winners(partials.into_iter().map(|(best, _)| best)))
    }
}

/// The incremental-residual kernel (see the module docs and DESIGN.md §9).
///
/// Invariants at the top of each iteration:
/// - `residual = y − proj(y, span(support))` (maintained by axpy),
/// - `corr[j] = ⟨φ_j, residual⟩` **after** the pending refresh is applied —
///   every refresh is deferred to the scan of the next pick (the first one
///   scans `y`, each later one shifts by the last direction), so a run
///   that stops never pays a scan it does not select from.
fn run_fused<D: OmpDictionary + ?Sized>(
    dict: &D,
    y: &Vector,
    config: &OmpConfig,
    exec: &ExecConfig,
) -> Result<RunOutcome, LinalgError> {
    let rows = dict.rows();
    let d = dict.cols();
    let y_norm = y.norm2();
    let abs_tol = config.residual_tolerance * y_norm;

    let mut picker = Picker::new(d);
    let mut qr = IncrementalQr::new(rows);
    let mut support: Vec<usize> = Vec::new();
    let mut trace: Vec<IterationRecord> = Vec::new();
    let mut residual = y.clone();
    let mut norm = y_norm;
    let mut prev_norm = y_norm;
    // Deferred correlation refresh: `None` before the first pick, when
    // `corr` is still unscanned; `Some(α)` after, when `corr` reflects the
    // residual *before* the last selection and must be shifted by
    // `−α·Dᵀq_last`.
    let mut pending: Option<f64> = None;
    let mut col = vec![0.0f64; rows];
    let rec = &config.rec;

    let stop = loop {
        if support.len() >= config.max_iterations {
            break StopReason::MaxIterations;
        }
        if norm <= abs_tol {
            break StopReason::ResidualTolerance;
        }
        if support.len() == d {
            break StopReason::DictionaryExhausted;
        }
        let best = match pending {
            None => picker.refresh(dict, y.as_slice(), |_, t| t, exec, rec)?,
            Some(alpha) => {
                let q = qr.q_col(qr.ncols() - 1);
                picker.refresh(dict, q, move |c, t| c - alpha * t, exec, rec)?
            }
        };
        let (j, _) = best.expect("unselected column exists");
        dict.column_into(j, &mut col);
        match qr.push_column(&col) {
            Ok(()) => {}
            Err(LinalgError::RankDeficient { .. }) => break StopReason::RankExhausted,
            Err(e) => return Err(e),
        }
        picker.selected[j] = true;
        support.push(j);
        // r ⊥ span(q₀..q_{k−1}) already, so the new projection removes
        // only the q_k component: r' = r − (q_kᵀr)·q_k.
        let q = qr.q_col(qr.ncols() - 1);
        let alpha = vector::dot(q, residual.as_slice());
        vector::axpy(-alpha, q, residual.as_mut_slice());
        norm = residual.norm2();
        pending = Some(alpha);
        if record_iteration(config, &qr, y, j, norm, prev_norm, &mut trace)? {
            break StopReason::ResidualStall;
        }
        prev_norm = norm;
    };

    Ok(RunOutcome { qr, support, trace, residual_norm: norm, stop })
}

/// The textbook loop: full `qr.residual` re-projection and a fresh
/// transpose scan per iteration, then the serial argmax (ties to the
/// lowest index). The oracle [`run_fused`] is tested against.
fn run_reference<D: OmpDictionary + ?Sized>(
    dict: &D,
    y: &Vector,
    config: &OmpConfig,
    exec: &ExecConfig,
) -> Result<RunOutcome, LinalgError> {
    let rows = dict.rows();
    let d = dict.cols();
    let y_norm = y.norm2();
    let abs_tol = config.residual_tolerance * y_norm;

    let mut qr = IncrementalQr::new(rows);
    let mut selected = vec![false; d];
    let mut support: Vec<usize> = Vec::new();
    let mut trace: Vec<IterationRecord> = Vec::new();
    let mut residual = y.clone();
    let mut norm = y_norm;
    let mut prev_norm = y_norm;
    let mut corr = vec![0.0f64; d];
    let mut work = Vec::new();
    let mut col = vec![0.0f64; rows];
    let copy = |_, t: &[f64], block: &mut [f64]| block.copy_from_slice(t);

    let stop = loop {
        if support.len() >= config.max_iterations {
            break StopReason::MaxIterations;
        }
        if norm <= abs_tol {
            break StopReason::ResidualTolerance;
        }
        if support.len() == d {
            break StopReason::DictionaryExhausted;
        }
        let (_, stats) = dict.scan(residual.as_slice(), &mut corr, &mut work, exec, copy)?;
        stats.record(&config.rec);
        let best = argmax_unselected(&corr, &selected, 0);
        let (j, _) = best.expect("unselected column exists");
        dict.column_into(j, &mut col);
        match qr.push_column(&col) {
            Ok(()) => {}
            Err(LinalgError::RankDeficient { .. }) => break StopReason::RankExhausted,
            Err(e) => return Err(e),
        }
        selected[j] = true;
        support.push(j);
        residual = qr.residual(y.as_slice())?;
        norm = residual.norm2();
        if record_iteration(config, &qr, y, j, norm, prev_norm, &mut trace)? {
            break StopReason::ResidualStall;
        }
        prev_norm = norm;
    };

    Ok(RunOutcome { qr, support, trace, residual_norm: norm, stop })
}

/// Shared per-iteration bookkeeping: coefficient tracking, trace push, the
/// `omp.iter` event, and the stall-guard decision (returns `true` when the
/// guard fires). Identical for both kernels so their traces agree.
fn record_iteration(
    config: &OmpConfig,
    qr: &IncrementalQr,
    y: &Vector,
    j: usize,
    norm: f64,
    prev_norm: f64,
    trace: &mut Vec<IterationRecord>,
) -> Result<bool, LinalgError> {
    let coefficients = if config.track_coefficients {
        Some(qr.solve_least_squares(y.as_slice())?.into_vec())
    } else {
        None
    };
    trace.push(IterationRecord { selected: j, residual_norm: norm, coefficients });
    config.rec.event(
        "omp.iter",
        &[
            ("iter", Value::U64(trace.len() as u64)),
            ("atom", Value::U64(j as u64)),
            ("residual", Value::F64(norm)),
            (
                "rel_decrease",
                Value::F64(if prev_norm > 0.0 { 1.0 - norm / prev_norm } else { 0.0 }),
            ),
        ],
    );
    Ok(config.stall_guard && norm >= prev_norm * (1.0 - config.min_relative_decrease))
}

/// Folds one block's products `t` into its correlations (`block`, first
/// column `first`) with `update` and returns the block's argmax of `|c|`
/// over unselected columns, lowest index winning ties — the result of
/// [`argmax_unselected`] on the updated block, in two passes that
/// vectorize: the update fused with a lane-wise peak of `|c|` (selected
/// columns count as −1), then the first column reaching the peak. A NaN
/// makes "the peak" ill-defined, so a block holding one falls back to the
/// serial scan itself, and reports it (the `bool`).
fn update_and_select(
    block: &mut [f64],
    t: &[f64],
    update: &impl Fn(f64, f64) -> f64,
    first: usize,
    selected: &[bool],
) -> (Option<(usize, f64)>, bool) {
    const LANES: usize = 8;
    let sel = &selected[first..first + block.len()];
    let mut peak = [-1.0f64; LANES];
    let mut nan = false;
    let mut step = |c: &mut f64, t: f64, s: bool, peak: &mut f64| {
        *c = update(*c, t);
        let a = if s { -1.0 } else { c.abs() };
        nan |= a.is_nan();
        *peak = if a > *peak { a } else { *peak };
    };
    let mut cs = block.chunks_exact_mut(LANES);
    let mut ts = t.chunks_exact(LANES);
    let mut ss = sel.chunks_exact(LANES);
    for ((c4, t4), s4) in (&mut cs).zip(&mut ts).zip(&mut ss) {
        for l in 0..LANES {
            step(&mut c4[l], t4[l], s4[l], &mut peak[l]);
        }
    }
    for ((c, &t), &s) in cs.into_remainder().iter_mut().zip(ts.remainder()).zip(ss.remainder()) {
        step(c, t, s, &mut peak[0]);
    }
    if nan {
        return (argmax_unselected(block, sel, first), true);
    }
    let peak = peak.into_iter().fold(-1.0, |m, a| if a > m { a } else { m });
    let off = block.iter().zip(sel).position(|(c, &s)| !s && c.abs() == peak);
    (off.map(|off| (first + off, peak)), false)
}

/// Folds per-block winners (ascending block order) with the lowest-index
/// tie-break — identical to a serial left-to-right scan.
fn fold_block_winners(
    partials: impl IntoIterator<Item = Option<(usize, f64)>>,
) -> Option<(usize, f64)> {
    partials.into_iter().flatten().fold(None, |acc, (j, c)| match acc {
        Some((_, b)) if b >= c => acc,
        _ => Some((j, c)),
    })
}

/// Serial argmax of `|corr[j]|` over unselected columns (`selected[j]`
/// flags `corr[j]`, whose column index is `start + j`), lowest index wins
/// ties. The selection rule of both kernels: the reference kernel calls
/// it directly, and every blocked pick of [`Picker::refresh`] reproduces
/// it.
fn argmax_unselected(corr: &[f64], selected: &[bool], start: usize) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (j, c) in corr.iter().enumerate() {
        if selected[j] {
            continue;
        }
        let a = c.abs();
        match best {
            Some((_, b)) if b >= a => {}
            _ => best = Some((start + j, a)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::MeasurementSpec;
    use crate::ops::{MeasurementOp, MeasurementOperator};

    /// Builds a random Gaussian dictionary and a sparse ground truth.
    fn sparse_instance(
        m: usize,
        n: usize,
        support: &[(usize, f64)],
        seed: u64,
    ) -> (ColMatrix, Vector, SparseVector) {
        let spec = MeasurementSpec::new(m, n, seed).unwrap();
        let phi = spec.materialize();
        let truth = SparseVector::new(n, support.to_vec()).unwrap();
        let y = phi.matvec(&truth.to_dense()).unwrap();
        (phi, y, truth)
    }

    #[test]
    fn recovers_exactly_sparse_signal() {
        let (phi, y, truth) = sparse_instance(40, 100, &[(3, 5.0), (42, -2.0), (77, 9.0)], 7);
        let r = omp(&phi, &y, &OmpConfig::default()).unwrap();
        assert_eq!(r.stop, StopReason::ResidualTolerance);
        let rec = r.to_sparse(100).unwrap();
        assert!(
            rec.l2_distance(&truth).unwrap() < 1e-8,
            "d = {}",
            rec.l2_distance(&truth).unwrap()
        );
        let mut sup = r.support.clone();
        sup.sort_unstable();
        assert_eq!(sup, vec![3, 42, 77]);
    }

    #[test]
    fn selects_largest_component_first() {
        let (phi, y, _) = sparse_instance(50, 80, &[(10, 1.0), (20, 100.0)], 3);
        let r = omp(&phi, &y, &OmpConfig::default()).unwrap();
        assert_eq!(r.support[0], 20, "dominant component should be picked first");
    }

    #[test]
    fn respects_iteration_budget() {
        let (phi, y, _) = sparse_instance(40, 100, &[(1, 3.0), (2, 3.0), (3, 3.0), (4, 3.0)], 11);
        let r = omp(&phi, &y, &OmpConfig::with_max_iterations(2)).unwrap();
        assert_eq!(r.stop, StopReason::MaxIterations);
        assert_eq!(r.iterations(), 2);
        assert_eq!(r.support.len(), 2);
    }

    #[test]
    fn zero_measurement_stops_immediately() {
        let spec = MeasurementSpec::new(10, 20, 5).unwrap();
        let phi = spec.materialize();
        let r = omp(&phi, &Vector::zeros(10), &OmpConfig::default()).unwrap();
        assert_eq!(r.stop, StopReason::ResidualTolerance);
        assert!(r.support.is_empty());
        assert!(r.coefficients.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let phi = ColMatrix::zeros(4, 6);
        assert!(omp(&phi, &Vector::zeros(5), &OmpConfig::default()).is_err());
    }

    #[test]
    fn residual_norms_are_monotone_while_running() {
        let (phi, y, _) = sparse_instance(30, 60, &[(5, 4.0), (6, -3.0), (30, 2.0)], 17);
        let r = omp(&phi, &y, &OmpConfig::default()).unwrap();
        for w in r.trace.windows(2) {
            assert!(
                w[1].residual_norm <= w[0].residual_norm + 1e-12,
                "residual must not increase before the stall guard fires"
            );
        }
    }

    #[test]
    fn trace_records_coefficients_when_asked() {
        let (phi, y, _) = sparse_instance(30, 60, &[(5, 4.0), (30, 2.0)], 19);
        let cfg = OmpConfig { track_coefficients: true, ..OmpConfig::default() };
        let r = omp(&phi, &y, &cfg).unwrap();
        for (k, rec) in r.trace.iter().enumerate() {
            let c = rec.coefficients.as_ref().expect("coefficients tracked");
            assert_eq!(c.len(), k + 1);
        }
        // Untracked by default.
        let r2 = omp(&phi, &y, &OmpConfig::default()).unwrap();
        assert!(r2.trace.iter().all(|t| t.coefficients.is_none()));
    }

    #[test]
    fn stall_guard_fires_on_unreachable_tolerance() {
        // Noisy measurement that no sparse combination fits exactly: once the
        // support no longer improves the fit, the guard must stop the run
        // instead of exhausting the dictionary.
        let spec = MeasurementSpec::new(12, 30, 23).unwrap();
        let phi = spec.materialize();
        let mut y = phi.matvec(&SparseVector::new(30, vec![(4, 5.0)]).unwrap().to_dense()).unwrap();
        // Perturb with a fixed non-representable component.
        for i in 0..y.len() {
            y[i] += ((i * 7919 % 13) as f64 - 6.0) * 1e-3;
        }
        let cfg = OmpConfig { residual_tolerance: 0.0, ..OmpConfig::default() };
        let r = omp(&phi, &y, &cfg).unwrap();
        // With M=12 rows the residual hits ~0 after 12 independent columns;
        // the stall guard (or rank exhaustion) must stop before scanning all 30.
        assert!(r.support.len() <= 13, "stopped after {} columns", r.support.len());
        assert!(
            matches!(
                r.stop,
                StopReason::ResidualStall
                    | StopReason::RankExhausted
                    | StopReason::ResidualTolerance
            ),
            "stop = {:?}",
            r.stop
        );
    }

    #[test]
    fn dictionary_exhausted_when_budget_allows() {
        // Two axis columns in R³ and a target with mass on the third axis:
        // the dictionary runs out before the residual can reach zero.
        let phi = ColMatrix::from_columns(&[
            Vector::from_vec(vec![1.0, 0.0, 0.0]),
            Vector::from_vec(vec![0.0, 1.0, 0.0]),
        ])
        .unwrap();
        let y = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let cfg = OmpConfig { residual_tolerance: 0.0, stall_guard: false, ..OmpConfig::default() };
        let r = omp(&phi, &y, &cfg).unwrap();
        assert_eq!(r.stop, StopReason::DictionaryExhausted);
        assert_eq!(r.support.len(), 2);
        assert!((r.residual_norm - 3.0).abs() < 1e-12);
    }

    #[test]
    fn identity_dictionary_reads_off_entries() {
        let phi = ColMatrix::identity(4);
        let y = Vector::from_vec(vec![0.0, 7.0, 0.0, -2.0]);
        let r = omp(&phi, &y, &OmpConfig::default()).unwrap();
        let rec = r.to_sparse(4).unwrap();
        assert_eq!(rec.get(1), 7.0);
        assert_eq!(rec.get(3), -2.0);
        assert_eq!(rec.nnz(), 2);
    }

    #[test]
    fn fused_matches_reference_on_fixed_instance() {
        let (phi, y, _) = sparse_instance(40, 120, &[(8, 6.0), (55, -4.0), (99, 2.5)], 29);
        let fused = omp(&phi, &y, &OmpConfig::default()).unwrap();
        let reference =
            omp(&phi, &y, &OmpConfig { kernel: OmpKernel::Reference, ..OmpConfig::default() })
                .unwrap();
        assert_eq!(fused.support, reference.support);
        assert_eq!(fused.stop, reference.stop);
        for (a, b) in fused.coefficients.iter().zip(reference.coefficients.iter()) {
            // Both kernels solve the final coefficients through the same QR,
            // so agreement is bitwise.
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let scale = y.norm2();
        assert!((fused.residual_norm - reference.residual_norm).abs() <= 1e-10 * scale.max(1.0));
    }

    #[test]
    fn fused_is_bit_identical_across_worker_counts() {
        // d = 2500 spans two COL_BLOCK blocks; par_min_work: 0 forces the
        // exec pool on even for this small instance.
        let (phi, y, _) = sparse_instance(16, 2500, &[(100, 5.0), (2300, -3.0)], 31);
        let base = OmpConfig { par_min_work: 0, ..OmpConfig::default() };
        let seq =
            omp(&phi, &y, &OmpConfig { exec: ExecConfig::sequential(), ..base.clone() }).unwrap();
        for workers in [2, 8] {
            let par = omp(
                &phi,
                &y,
                &OmpConfig { exec: ExecConfig::with_workers(workers), ..base.clone() },
            )
            .unwrap();
            assert_eq!(par.support, seq.support, "workers = {workers}");
            assert_eq!(par.stop, seq.stop);
            assert_eq!(par.residual_norm.to_bits(), seq.residual_norm.to_bits());
            for (a, b) in par.coefficients.iter().zip(seq.coefficients.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (ta, tb) in par.trace.iter().zip(seq.trace.iter()) {
                assert_eq!(ta.residual_norm.to_bits(), tb.residual_norm.to_bits());
            }
        }
    }

    #[test]
    fn op_fused_is_bit_identical_across_worker_counts() {
        // d = 5000 spans three COL_BLOCK blocks; par_min_work: 0 engages
        // the split scan and the split refresh on every backend.
        let n = 5000;
        let base = OmpConfig { par_min_work: 0, ..OmpConfig::default() };
        for op in [
            MeasurementOperator::dense(48, n, 37).unwrap(),
            MeasurementOperator::srht(48, n, 37).unwrap(),
            MeasurementOperator::seeded_sparse(48, n, 37, 8).unwrap(),
        ] {
            let truth = SparseVector::new(n, vec![(100, 5.0), (2300, -3.0), (4999, 2.0)]).unwrap();
            let y = op.apply(truth.to_dense().as_slice()).unwrap();
            let seq = omp(&op, &y, &OmpConfig { exec: ExecConfig::sequential(), ..base.clone() })
                .unwrap();
            for workers in [2, 8] {
                let cfg = OmpConfig { exec: ExecConfig::with_workers(workers), ..base.clone() };
                let par = omp(&op, &y, &cfg).unwrap();
                assert_eq!(par.support, seq.support, "{:?}, workers = {workers}", op.kind());
                assert_eq!(par.stop, seq.stop);
                assert_eq!(par.residual_norm.to_bits(), seq.residual_norm.to_bits());
                for (a, b) in par.coefficients.iter().zip(seq.coefficients.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (ta, tb) in par.trace.iter().zip(seq.trace.iter()) {
                    assert_eq!(ta.residual_norm.to_bits(), tb.residual_norm.to_bits());
                }
            }
        }
    }

    #[test]
    fn block_select_is_bit_identical_to_serial_argmax() {
        // Ties (first index wins), selected columns, blocks that are all
        // selected, a NaN block (serial fallback), signed zeros, partial
        // lanes at the block tail; a shift and an assignment.
        let n = 37;
        let base: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.5).collect();
        let products: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64 - 2.0) * 0.25).collect();
        let mut cases: Vec<(Vec<f64>, Vec<bool>)> = vec![
            (base.clone(), vec![false; n]),
            (base.clone(), (0..n).map(|i| i % 3 == 0).collect()),
            (base.clone(), vec![true; n]),
            (vec![0.0; n], vec![false; n]),
            (vec![-0.0; n], (0..n).map(|i| i < 5).collect()),
        ];
        let mut with_nan = base.clone();
        with_nan[9] = f64::NAN;
        cases.push((with_nan.clone(), vec![false; n]));
        with_nan[n - 1] = f64::NAN;
        cases.push((with_nan, vec![false; n]));
        let assign = |_: f64, t: f64| t;
        for (corr, selected) in cases {
            for alpha in [0.0, 1.0, -2.0] {
                let shift = move |c: f64, t: f64| c - alpha * t;
                let mut want = corr.clone();
                for (c, t) in want.iter_mut().zip(&products) {
                    *c -= alpha * *t;
                }
                let expect = argmax_unselected(&want, &selected, 0);
                let mut got = corr.clone();
                let (pick, _) = update_and_select(&mut got, &products, &shift, 0, &selected);
                let key = |p: Option<(usize, f64)>| p.map(|(j, a)| (j, a.to_bits()));
                assert_eq!(key(pick), key(expect), "alpha = {alpha}, selected = {selected:?}");
                let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "shifted correlations differ");
            }
            let mut got = corr.clone();
            let (pick, _) = update_and_select(&mut got, &products, &assign, 0, &selected);
            let expect = argmax_unselected(&products, &selected, 0);
            assert_eq!(pick.map(|(j, a)| (j, a.to_bits())), expect.map(|(j, a)| (j, a.to_bits())));
            assert_eq!(got, products);
        }
    }

    #[test]
    fn split_select_is_bit_identical_to_serial_scan_with_nans() {
        // A NaN incumbent loses to the next column, so per-block winners
        // fold differently from one serial scan: [5.0 | NaN, 1.0] picks
        // 1.0 serially but 5.0 by block. The split pick must match serial.
        // One row whose entries are the products: Φᵀ·[1] is that row.
        let d = 3 * COL_BLOCK + 17;
        let row: Vec<f64> = (0..d).map(|i| ((i * 13 % 7) as f64 - 3.0) * 1e-3).collect();
        let phi = ColMatrix::from_col_major(1, d, row.clone()).unwrap();
        let mut base: Vec<f64> = (0..d).map(|i| ((i * 7919 % 1009) as f64) * 1e-3).collect();
        base[COL_BLOCK - 1] = 50.0;
        let mut nan_at_block_start = base.clone();
        nan_at_block_start[COL_BLOCK] = f64::NAN;
        let mut nan_at_end = base.clone();
        nan_at_end[d - 1] = f64::NAN;
        let selected: Vec<bool> = (0..d).map(|i| i % 5 == 0).collect();
        for corr in [base, nan_at_block_start, nan_at_end] {
            let mut want = corr.clone();
            for (c, t) in want.iter_mut().zip(&row) {
                *c -= 0.5 * vector::dot(&[*t], &[1.0]);
            }
            let expect = argmax_unselected(&want, &selected, 0).map(|(j, a)| (j, a.to_bits()));
            for workers in [1, 2, 8] {
                let mut picker = Picker::new(d);
                picker.corr.copy_from_slice(&corr);
                picker.selected.copy_from_slice(&selected);
                let exec = ExecConfig::with_workers(workers);
                let shift = |c: f64, t: f64| c - 0.5 * t;
                let pick = picker.refresh(&phi, &[1.0], shift, &exec, &Recorder::disabled());
                let pick = pick.unwrap().map(|(j, a)| (j, a.to_bits()));
                assert_eq!(pick, expect, "workers = {workers}");
                let same = picker.corr.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "workers = {workers}: shifted correlations differ");
            }
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(OmpKernel::Fused.as_str(), "fused");
        assert_eq!(OmpKernel::Reference.as_str(), "reference");
        assert_eq!(OmpConfig::default().kernel, OmpKernel::Fused);
    }

    #[test]
    fn op_path_on_dense_backend_matches_matrix_path_bitwise() {
        // The operator scan regenerates columns through the same blocked
        // gemv kernel the matrix path uses (column-independent), so the
        // dense backend must agree with the materialized run bit-for-bit.
        let (phi, y, _) = sparse_instance(40, 120, &[(8, 6.0), (55, -4.0), (99, 2.5)], 29);
        let op = MeasurementOperator::dense(40, 120, 29).unwrap();
        let via_matrix = omp(&phi, &y, &OmpConfig::default()).unwrap();
        let via_op = omp(&op, &y, &OmpConfig::default()).unwrap();
        assert_eq!(via_op.support, via_matrix.support);
        assert_eq!(via_op.stop, via_matrix.stop);
        assert_eq!(via_op.residual_norm.to_bits(), via_matrix.residual_norm.to_bits());
        for (a, b) in via_op.coefficients.iter().zip(via_matrix.coefficients.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn op_fused_matches_op_reference_on_every_backend() {
        let ops = [
            MeasurementOperator::dense(40, 120, 29).unwrap(),
            MeasurementOperator::srht(40, 120, 29).unwrap(),
            MeasurementOperator::seeded_sparse(40, 120, 29, 8).unwrap(),
        ];
        for op in &ops {
            let truth = SparseVector::new(120, vec![(8, 6.0), (55, -4.0), (99, 2.5)]).unwrap();
            let y = op.apply(truth.to_dense().as_slice()).unwrap();
            let fused = omp(op, &y, &OmpConfig::default()).unwrap();
            let reference =
                omp(op, &y, &OmpConfig { kernel: OmpKernel::Reference, ..Default::default() })
                    .unwrap();
            assert_eq!(fused.support, reference.support, "{:?}", op.kind());
            assert_eq!(fused.stop, reference.stop);
            for (a, b) in fused.coefficients.iter().zip(reference.coefficients.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Each backend recovers the planted support exactly.
            let mut sup = fused.support.clone();
            sup.sort_unstable();
            assert_eq!(sup, vec![8, 55, 99], "{:?}", op.kind());
        }
    }

    #[test]
    fn colmatrix_implements_op_dictionary() {
        // The dense scan is the blocked gemv over the whole matrix, split
        // over COL_BLOCK blocks and visited block by block in order, and
        // column reads are plain copies.
        let (phi, y, _) = sparse_instance(30, 2 * COL_BLOCK + 90, &[(5, 4.0), (70, -2.0)], 41);
        let want = phi.gemv_transpose(&y).unwrap();
        for workers in [1, 2] {
            let mut got = vec![0.0; phi.cols()];
            let exec = ExecConfig::with_workers(workers);
            let copy = |first: usize, t: &[f64], block: &mut [f64]| {
                block.copy_from_slice(t);
                (first, t.len())
            };
            let mut work = Vec::new();
            let (blocks, stats) = phi.scan(y.as_slice(), &mut got, &mut work, &exec, copy).unwrap();
            assert_eq!(blocks, [(0, COL_BLOCK), (COL_BLOCK, COL_BLOCK), (2 * COL_BLOCK, 90)]);
            assert_eq!(stats.tasks(), 3);
            assert!(got.iter().zip(want.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        let mut col = vec![0.0; phi.rows()];
        OmpDictionary::column_into(&phi, 70, &mut col);
        assert_eq!(col, phi.col(70));
        let mut short = vec![0.0; phi.cols() - 1];
        let exec = ExecConfig::sequential();
        let scan = phi.scan(y.as_slice(), &mut short, &mut Vec::new(), &exec, |_, _, _| ());
        assert!(scan.is_err());
    }

    #[test]
    fn nan_atom_selects_the_same_support_in_both_kernels() {
        // A NaN entry in column 3000, past the first COL_BLOCK: its
        // correlation is NaN on every scan, and a NaN incumbent loses to
        // the next column. Both kernels select by that one serial rule, so
        // they agree with each other at every worker count.
        let truth = [(100, 5.0), (5, -4.0), (4000, 3.0), (3500, 2.0)];
        let (mut phi, y, _) = sparse_instance(40, 5000, &truth, 43);
        phi.col_mut(3000)[7] = f64::NAN;
        let base = OmpConfig { par_min_work: 0, ..OmpConfig::default() };
        for workers in [1, 2] {
            let fused = OmpConfig { exec: ExecConfig::with_workers(workers), ..base.clone() };
            let reference = OmpConfig { kernel: OmpKernel::Reference, ..fused.clone() };
            let f = omp(&phi, &y, &fused).unwrap();
            let r = omp(&phi, &y, &reference).unwrap();
            assert_eq!(f.support, r.support, "workers = {workers}");
            assert_eq!(f.stop, r.stop, "workers = {workers}");
            // Every scan restarts at the column after the NaN.
            assert!(f.support.iter().all(|&j| j > 3000), "{:?}", f.support);
        }
    }

    #[test]
    fn op_path_checks_dimensions() {
        let op = MeasurementOperator::srht(10, 20, 1).unwrap();
        assert!(omp(&op, &Vector::zeros(11), &OmpConfig::default()).is_err());
    }
}
