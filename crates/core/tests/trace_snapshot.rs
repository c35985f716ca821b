//! Snapshot test: the recorded BOMP atom/residual sequence on a fixed-seed
//! quickstart-sized problem (N = 2000, M = 150, mode 1800 — the same shape
//! as `examples/quickstart.rs`).
//!
//! The pipeline is fully deterministic (seeded Gaussian matrix, exact
//! arithmetic order), so the per-iteration `bomp.iter` events are stable
//! across runs and platforms with IEEE-754 doubles. Atoms are matched
//! exactly; residual norms are matched at `{:.3e}` so the snapshot survives
//! last-bit libm differences while still pinning the convergence curve.

use cso_core::{bomp, BompConfig, MeasurementSpec, OmpKernel};
use cso_obs::{Recorder, Value};

/// The fixed instance: N keys at the mode, three planted outliers.
fn run_fixture_with(kernel: OmpKernel) -> Recorder {
    let n = 2000;
    let mut x = vec![1800.0; n];
    x[404] = 9000.0; // deviation +7200
    x[1200] = -4200.0; // deviation −6000
    x[33] = 6500.0; // deviation +4700
    let spec = MeasurementSpec::new(150, n, 42).expect("valid spec");
    let y = spec.measure_dense(&x).expect("measure");

    let mut cfg = BompConfig::for_k_outliers(3);
    cfg.omp.kernel = kernel;
    let rec = Recorder::new();
    cfg.omp.rec = rec.clone();
    bomp(&spec, &y, &cfg).expect("recovery");
    rec
}

fn run_fixture() -> Recorder {
    run_fixture_with(OmpKernel::Fused)
}

fn trace_fields(rec: &Recorder) -> (Vec<i64>, Vec<String>, Vec<String>) {
    let iters = rec.events_named("bomp.iter");
    let atoms: Vec<i64> = iters
        .iter()
        .map(|e| match e.field("atom") {
            Some(&Value::I64(a)) => a,
            other => panic!("atom field missing or mistyped: {other:?}"),
        })
        .collect();
    let residuals: Vec<String> = iters
        .iter()
        .map(|e| format!("{:.3e}", e.field_f64("residual").expect("residual field")))
        .collect();
    let modes: Vec<String> =
        iters.iter().map(|e| format!("{:.1}", e.field_f64("mode").expect("mode field"))).collect();
    (atoms, residuals, modes)
}

#[test]
fn bomp_iteration_trace_is_reproducible() {
    let rec = run_fixture();
    let (atoms, residuals, modes) = trace_fields(&rec);

    // Iteration 1 grabs the bias column (atom −1): the mode dominates the
    // measurement energy. The three outliers follow by correlation with the
    // residual, and once the support is complete the residual collapses to
    // numerical zero (~1e-10 after an initial norm of ~1e4). The fused
    // kernel's incremental residual differs from the reference only in the
    // last collapsed value, where both are pure cancellation noise.
    assert_eq!(atoms, vec![-1, 1200, 404, 33], "selected-atom sequence changed");
    assert_eq!(
        residuals,
        vec!["1.051e4", "8.229e3", "4.466e3", "1.537e-10"],
        "residual-norm sequence changed"
    );
    assert_eq!(
        modes,
        vec!["1813.0", "1791.7", "1795.0", "1800.0"],
        "mode-estimate sequence changed"
    );

    let done = rec.events_named("bomp.done");
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].field("bias_selected"), Some(&Value::Bool(true)));
    let mode = done[0].field_f64("mode").expect("final mode");
    assert!((mode - 1800.0).abs() < 1e-6, "final mode = {mode}");
}

#[test]
fn reference_kernel_trace_is_unchanged() {
    // The historical snapshot, pinned against the reference kernel: the
    // textbook QR re-projection loop must keep producing exactly the
    // residual curve recorded before the fused kernel became the default.
    let rec = run_fixture_with(OmpKernel::Reference);
    let (atoms, residuals, modes) = trace_fields(&rec);
    assert_eq!(atoms, vec![-1, 1200, 404, 33], "selected-atom sequence changed");
    assert_eq!(
        residuals,
        vec!["1.051e4", "8.229e3", "4.466e3", "1.536e-10"],
        "residual-norm sequence changed"
    );
    assert_eq!(
        modes,
        vec!["1813.0", "1791.7", "1795.0", "1800.0"],
        "mode-estimate sequence changed"
    );
}

#[test]
fn trace_matches_result_fields() {
    // The events must agree with what the returned BompResult reports: same
    // iteration count, same final residual, same mode.
    let n = 2000;
    let mut x = vec![1800.0; n];
    x[404] = 9000.0;
    x[1200] = -4200.0;
    x[33] = 6500.0;
    let spec = MeasurementSpec::new(150, n, 42).expect("valid spec");
    let y = spec.measure_dense(&x).expect("measure");

    let rec = Recorder::new();
    let mut cfg = BompConfig::for_k_outliers(3);
    cfg.omp.rec = rec.clone();
    let result = bomp(&spec, &y, &cfg).expect("recovery");

    let iters = rec.events_named("bomp.iter");
    assert_eq!(iters.len(), result.iterations);
    for (event, &expected) in iters.iter().zip(result.residual_trace.iter()) {
        assert_eq!(event.field_f64("residual"), Some(expected));
    }
    let done = &rec.events_named("bomp.done")[0];
    assert_eq!(done.field_f64("mode"), Some(result.mode));
    assert_eq!(done.field_u64("iterations"), Some(result.iterations as u64));

    // And the untraced run is bit-identical — observation is free.
    let plain = cso_core::bomp(&spec, &y, &BompConfig::for_k_outliers(3)).expect("recovery");
    assert_eq!(plain.mode, result.mode);
    assert_eq!(plain.residual_trace, result.residual_trace);
}
