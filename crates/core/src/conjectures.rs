//! Numerical verification of the paper's two conjectures (Section 4).
//!
//! Theorem 1's proof rests on two conjectures about weakly-dependent
//! Gaussian ensembles that the authors verified by "extensive numerical
//! experiments". The functions here regenerate those experiments:
//!
//! - **Conjecture 1 (Near-Isometric Transformation)**: for a random
//!   `M × (s+1)` matrix `Φ*` whose first column is weakly dependent on the
//!   others (covariance `ζ·I`), any `r ∈ span(Φ*)` satisfies
//!   `‖Φ*ᵀ·r‖₂ ≥ 0.5·‖r‖₂` with overwhelming probability.
//! - **Conjecture 2 (Near-Independent Inner Product)**: for weakly-dependent
//!   Gaussian `x, y` with `E[xyᵀ] = ζ·I` and `y' = y/‖y‖₂`,
//!   `P(|⟨x, y'⟩| ≤ ε) ≥ 1 − e^{−ε²·a·M/2}` with `a = 1.1`.

use crate::ops::{MeasurementOp, MeasurementOperator};
use cso_exec::ExecConfig;
use cso_linalg::random::{stream_rng, GaussianSampler};
use cso_linalg::{ColMatrix, LinalgError, Vector};
use rand::RngCore;

/// Outcome of a batch of conjecture trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Trials run.
    pub trials: usize,
    /// Trials in which the conjectured inequality held.
    pub successes: usize,
    /// Smallest observed margin ratio (see the specific conjecture for the
    /// ratio definition); > 1 means the inequality held with room to spare.
    pub min_margin: f64,
}

impl TrialStats {
    /// Empirical success rate.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }
}

/// Generates the weakly-dependent ensemble of Conjecture 1: `s` independent
/// columns with `N(0, 1/M)` entries plus a first column
/// `φ0 = ζ·Σφᵢ + √(1 − s·ζ²)·g` whose entries keep variance `1/M` and have
/// per-entry covariance `ζ/M` against each other column — the same
/// structure as BOMP's bias column (`ζ = 1/√N`, maximal at `1/√s`).
fn dependent_ensemble(m: usize, s: usize, zeta: f64, seed: u64) -> ColMatrix {
    let std = 1.0 / (m as f64).sqrt();
    let mut cols: Vec<Vector> = Vec::with_capacity(s + 1);
    let mut g = GaussianSampler::new(stream_rng(seed, 1));
    // Independent columns first.
    let mut indep: Vec<Vec<f64>> = Vec::with_capacity(s);
    for _ in 0..s {
        let mut c = vec![0.0; m];
        g.fill(&mut c, std);
        indep.push(c);
    }
    // φ0 = ζ·Σφᵢ + √(1 − s·ζ²)·fresh  (unit total variance per entry).
    let resid_var = 1.0 - s as f64 * zeta * zeta;
    assert!(resid_var >= 0.0, "ζ too large for s (need s·ζ² ≤ 1)");
    let mut c0 = vec![0.0; m];
    for c in &indep {
        cso_linalg::vector::axpy(zeta, c, &mut c0);
    }
    let mut fresh = vec![0.0; m];
    g.fill(&mut fresh, std);
    cso_linalg::vector::axpy(resid_var.sqrt(), &fresh, &mut c0);
    cols.push(Vector::from_vec(c0));
    cols.extend(indep.into_iter().map(Vector::from_vec));
    ColMatrix::from_columns(&cols).expect("non-empty ensemble")
}

/// Runs `trials` random tests of Conjecture 1 with the given shape and
/// dependence strength. Each trial draws a fresh ensemble and a random
/// `r ∈ span(Φ*)` and checks `‖Φ*ᵀr‖₂ ≥ 0.5‖r‖₂`. The margin ratio is
/// `‖Φ*ᵀr‖₂ / (0.5‖r‖₂)`.
pub fn verify_conjecture1(
    m: usize,
    s: usize,
    zeta: f64,
    trials: usize,
    seed: u64,
) -> Result<TrialStats, LinalgError> {
    if m == 0 || s == 0 {
        return Err(LinalgError::InvalidParameter {
            name: "m/s",
            message: "dimensions must be positive".into(),
        });
    }
    let mut successes = 0;
    let mut min_margin = f64::INFINITY;
    for t in 0..trials {
        let phi_star = dependent_ensemble(m, s, zeta, seed.wrapping_add(t as u64));
        // Random r in span(Φ*): random combination of the columns.
        let mut g = GaussianSampler::new(stream_rng(seed ^ 0xABCD, t as u64));
        let mut coeffs = vec![0.0; s + 1];
        g.fill(&mut coeffs, 1.0);
        let r = phi_star.matvec(&Vector::from_vec(coeffs))?;
        let rn = r.norm2();
        if rn == 0.0 {
            continue;
        }
        let lhs = phi_star.matvec_transpose(&r)?.norm2();
        let margin = lhs / (0.5 * rn);
        min_margin = min_margin.min(margin);
        if margin >= 1.0 {
            successes += 1;
        }
    }
    Ok(TrialStats { trials, successes, min_margin })
}

/// Runs `trials` random tests of Conjecture 2: draws weakly-dependent
/// `x, y ~ N(0, I/M)` with per-entry covariance `ζ`, normalizes `y`, and
/// checks `|⟨x, y'⟩| ≤ ε`. Success must occur at rate at least
/// `1 − e^{−ε²·a·M/2}` for the conjecture (with `a = 1.1`) to stand; the
/// margin ratio reported is `ε / |⟨x, y'⟩|`.
pub fn verify_conjecture2(
    m: usize,
    zeta: f64,
    epsilon: f64,
    trials: usize,
    seed: u64,
) -> Result<TrialStats, LinalgError> {
    if m == 0 {
        return Err(LinalgError::InvalidParameter {
            name: "m",
            message: "must be positive".into(),
        });
    }
    if epsilon <= 0.0 {
        return Err(LinalgError::InvalidParameter {
            name: "epsilon",
            message: "must be positive".into(),
        });
    }
    let std = 1.0 / (m as f64).sqrt();
    // BOMP's bias column has per-entry covariance ζ/M against the other
    // columns (ζ = 1/√N), i.e. per-entry *correlation* ζ — that is the
    // dependence strength we plant here.
    let rho = zeta.clamp(-1.0, 1.0);
    let resid = (1.0 - rho * rho).sqrt();
    let mut successes = 0;
    let mut min_margin = f64::INFINITY;
    for t in 0..trials {
        let mut g = GaussianSampler::new(stream_rng(seed, t as u64));
        let mut y = vec![0.0; m];
        g.fill(&mut y, std);
        let mut w = vec![0.0; m];
        g.fill(&mut w, std);
        let x: Vec<f64> = y.iter().zip(&w).map(|(yi, wi)| rho * yi + resid * wi).collect();
        let yn = cso_linalg::vector::norm2(&y);
        if yn == 0.0 {
            continue;
        }
        let ip = cso_linalg::vector::dot(&x, &y).abs() / yn;
        let margin = epsilon / ip.max(f64::MIN_POSITIVE);
        min_margin = min_margin.min(margin);
        if ip <= epsilon {
            successes += 1;
        }
    }
    Ok(TrialStats { trials, successes, min_margin })
}

/// The conjectured lower bound on Conjecture 2's success probability,
/// `1 − e^{−ε²·a·M/2}` with the paper's `a = 1.1`.
pub fn conjecture2_bound(m: usize, epsilon: f64, a: f64) -> f64 {
    1.0 - (-epsilon * epsilon * a * m as f64 / 2.0).exp()
}

/// Draws `count` distinct random column indices of `op` from a seeded
/// stream (rejection sampling; `count` ≪ `N` in every use).
fn sample_columns(op: &MeasurementOperator, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = stream_rng(seed, 0x636f6c73); // "cols"
    let mut picked = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    while picked.len() < count {
        let j = (rng.next_u64() % op.n() as u64) as usize;
        if seen.insert(j) {
            picked.push(j);
        }
    }
    picked
}

/// Conjecture 1 over an actual measurement operator: each trial samples
/// `s` distinct columns of `op`, prepends the operator's real bias column
/// (the exact `Φ*` BOMP's QR sees), draws a random `r ∈ span(Φ*)` and
/// checks `‖Φ*ᵀr‖₂ ≥ 0.5‖r‖₂`. This replaces the synthetic
/// weakly-dependent ensemble of [`verify_conjecture1`] with the concrete
/// backend under test, so the near-isometry claim is validated per backend
/// rather than for idealized Gaussians only.
pub fn verify_conjecture1_op(
    op: &MeasurementOperator,
    s: usize,
    trials: usize,
    seed: u64,
) -> Result<TrialStats, LinalgError> {
    if s == 0 || s >= op.n() {
        return Err(LinalgError::InvalidParameter { name: "s", message: "need 0 < s < n".into() });
    }
    let m = op.m();
    let bias = Vector::from_vec(op.bias_column(&ExecConfig::sequential()));
    let mut successes = 0;
    let mut min_margin = f64::INFINITY;
    let mut col = vec![0.0; m];
    for t in 0..trials {
        let picked = sample_columns(op, s, seed.wrapping_add(t as u64));
        let mut cols: Vec<Vector> = Vec::with_capacity(s + 1);
        cols.push(bias.clone());
        for &j in &picked {
            op.column_into(j, &mut col);
            cols.push(Vector::from_vec(col.clone()));
        }
        let phi_star = ColMatrix::from_columns(&cols).expect("non-empty ensemble");
        let mut g = GaussianSampler::new(stream_rng(seed ^ 0xABCD, t as u64));
        let mut coeffs = vec![0.0; s + 1];
        g.fill(&mut coeffs, 1.0);
        let r = phi_star.matvec(&Vector::from_vec(coeffs))?;
        let rn = r.norm2();
        if rn == 0.0 {
            continue;
        }
        let lhs = phi_star.matvec_transpose(&r)?.norm2();
        let margin = lhs / (0.5 * rn);
        min_margin = min_margin.min(margin);
        if margin >= 1.0 {
            successes += 1;
        }
    }
    Ok(TrialStats { trials, successes, min_margin })
}

/// Conjecture 2 over an actual measurement operator: each trial samples
/// two distinct columns `φ_j, φ_j'`, normalizes the second, and checks
/// `|⟨φ_j, φ_j'/‖φ_j'‖⟩| ≤ ε` — pairwise near-independence of the concrete
/// backend's columns, the property OMP's greedy argmax relies on.
pub fn verify_conjecture2_op(
    op: &MeasurementOperator,
    epsilon: f64,
    trials: usize,
    seed: u64,
) -> Result<TrialStats, LinalgError> {
    if epsilon <= 0.0 {
        return Err(LinalgError::InvalidParameter {
            name: "epsilon",
            message: "must be positive".into(),
        });
    }
    if op.n() < 2 {
        return Err(LinalgError::InvalidParameter {
            name: "n",
            message: "need at least two columns".into(),
        });
    }
    let m = op.m();
    let mut successes = 0;
    let mut min_margin = f64::INFINITY;
    let mut x = vec![0.0; m];
    let mut y = vec![0.0; m];
    for t in 0..trials {
        let picked = sample_columns(op, 2, seed.wrapping_add(t as u64));
        op.column_into(picked[0], &mut x);
        op.column_into(picked[1], &mut y);
        let yn = cso_linalg::vector::norm2(&y);
        if yn == 0.0 {
            continue;
        }
        let ip = cso_linalg::vector::dot(&x, &y).abs() / yn;
        let margin = epsilon / ip.max(f64::MIN_POSITIVE);
        min_margin = min_margin.min(margin);
        if ip <= epsilon {
            successes += 1;
        }
    }
    Ok(TrialStats { trials, successes, min_margin })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjecture1_holds_at_paper_scales() {
        // Paper: "When M and s are larger than 10 … always holds by a large
        // margin."
        let stats = verify_conjecture1(64, 16, 1.0 / 4.0, 200, 42).unwrap();
        assert_eq!(stats.successes, stats.trials, "margin = {}", stats.min_margin);
        assert!(stats.min_margin > 1.2, "expected large margin, got {}", stats.min_margin);
    }

    #[test]
    fn conjecture1_holds_at_maximal_dependence() {
        // ζ at its largest value 1/√s.
        let s = 9;
        let zeta = 1.0 / (s as f64).sqrt();
        let stats = verify_conjecture1(48, s, zeta, 200, 7).unwrap();
        assert_eq!(stats.successes, stats.trials);
    }

    #[test]
    fn conjecture1_rejects_degenerate_inputs() {
        assert!(verify_conjecture1(0, 5, 0.1, 1, 1).is_err());
        assert!(verify_conjecture1(5, 0, 0.1, 1, 1).is_err());
    }

    #[test]
    fn conjecture2_success_rate_beats_bound() {
        let m = 100;
        let eps = 0.3;
        let zeta = 1.0 / 1000.0; // ζ = 1/√N with N = 10⁶
        let stats = verify_conjecture2(m, zeta, eps, 2000, 11).unwrap();
        let bound = conjecture2_bound(m, eps, 1.1);
        assert!(stats.success_rate() >= bound, "rate {} < bound {bound}", stats.success_rate());
    }

    #[test]
    fn conjecture2_bound_monotone_in_m_and_eps() {
        assert!(conjecture2_bound(200, 0.3, 1.1) > conjecture2_bound(100, 0.3, 1.1));
        assert!(conjecture2_bound(100, 0.4, 1.1) > conjecture2_bound(100, 0.3, 1.1));
    }

    #[test]
    fn conjecture2_rejects_degenerate_inputs() {
        assert!(verify_conjecture2(0, 0.1, 0.3, 1, 1).is_err());
        assert!(verify_conjecture2(10, 0.1, 0.0, 1, 1).is_err());
    }

    #[test]
    fn dependent_ensemble_has_designed_correlation() {
        // Column 0 should correlate with each other column at roughly ζ per
        // entry; estimate over a large matrix.
        let m = 20_000;
        let s = 2;
        let zeta = 0.5;
        let e = dependent_ensemble(m, s, zeta, 99);
        let c0 = e.col(0);
        for j in 1..=s {
            let cj = e.col(j);
            let cov: f64 = c0.iter().zip(cj).map(|(a, b)| a * b).sum::<f64>() / m as f64;
            // Expected per-entry covariance: ζ·var = ζ/M.
            let expected = zeta / m as f64;
            assert!(
                (cov - expected).abs() < 5.0 / (m as f64),
                "cov = {cov}, expected ≈ {expected}"
            );
        }
        // Entries of column 0 still have variance ≈ 1/M.
        let var: f64 = c0.iter().map(|v| v * v).sum::<f64>() / m as f64;
        assert!((var - 1.0 / m as f64).abs() < 0.3 / m as f64, "var = {var}");
    }

    fn op_backends(m: usize, n: usize, s: usize) -> Vec<MeasurementOperator> {
        vec![
            MeasurementOperator::dense(m, n, 77).unwrap(),
            MeasurementOperator::srht(m, n, 77).unwrap(),
            MeasurementOperator::seeded_sparse(m, n, 77, s).unwrap(),
        ]
    }

    #[test]
    fn conjecture1_holds_on_every_operator_backend() {
        for op in op_backends(64, 4096, 8) {
            let stats = verify_conjecture1_op(&op, 16, 100, 5).unwrap();
            assert_eq!(
                stats.successes,
                stats.trials,
                "{:?}: margin = {}",
                op.kind(),
                stats.min_margin
            );
            assert!(stats.min_margin > 1.0, "{:?}: {}", op.kind(), stats.min_margin);
        }
    }

    #[test]
    fn conjecture2_beats_bound_on_every_operator_backend() {
        // m = 100 / ε = 0.3 is the regime the synthetic test uses: the
        // bound leaves ~14 allowed failures in 2000 trials, well clear of
        // Monte-Carlo noise. The sparse backend needs s large enough that
        // its collision tail (governed by s, not m) stays sub-Gaussian at
        // this ε — s = 32 gives ≈3 expected failures (see DESIGN.md §13).
        let eps = 0.3;
        for op in op_backends(100, 4096, 32) {
            let stats = verify_conjecture2_op(&op, eps, 2000, 9).unwrap();
            let bound = conjecture2_bound(100, eps, 1.1);
            assert!(
                stats.success_rate() >= bound,
                "{:?}: rate {} < bound {bound}",
                op.kind(),
                stats.success_rate()
            );
        }
    }

    #[test]
    fn operator_verifiers_reject_degenerate_inputs() {
        let op = MeasurementOperator::dense(8, 32, 1).unwrap();
        assert!(verify_conjecture1_op(&op, 0, 1, 1).is_err());
        assert!(verify_conjecture1_op(&op, 32, 1, 1).is_err());
        assert!(verify_conjecture2_op(&op, 0.0, 1, 1).is_err());
    }

    #[test]
    fn trial_stats_success_rate() {
        let s = TrialStats { trials: 4, successes: 3, min_margin: 1.5 };
        assert_eq!(s.success_rate(), 0.75);
        let empty = TrialStats { trials: 0, successes: 0, min_margin: f64::INFINITY };
        assert_eq!(empty.success_rate(), 0.0);
    }

    #[test]
    fn span_membership_sanity() {
        use cso_linalg::IncrementalQr;
        // r built from the ensemble columns is in their span: projecting
        // onto a QR of the columns reproduces it.
        let e = dependent_ensemble(32, 4, 0.3, 3);
        let mut qr = IncrementalQr::new(32);
        for j in 0..e.cols() {
            qr.push_column(e.col(j)).unwrap();
        }
        let mut g = GaussianSampler::new(stream_rng(5, 0));
        let mut coeffs = vec![0.0; 5];
        g.fill(&mut coeffs, 1.0);
        let r = e.matvec(&Vector::from_vec(coeffs)).unwrap();
        let resid = qr.residual(r.as_slice()).unwrap();
        assert!(resid.norm2() < 1e-10 * r.norm2().max(1.0));
    }
}
