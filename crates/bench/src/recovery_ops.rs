//! Measurement-operator benchmark (PR 9 tentpole proof).
//!
//! Puts the three wire-addressable backends of DESIGN.md §13 side by side
//! on the same planted-outlier instance, per dictionary size `N`:
//!
//! - **scan**: one full correlation pass `Φᵀ·r` — the OMP inner loop and
//!   the term that dominates recovery cost. Dense streams `O(M·N)` seeded
//!   Gaussians; SRHT is one `O(Np·log Np)` in-place FWHT; seeded-sparse is
//!   an `O(N·s)` banded gather. Each pass is timed on one worker and on
//!   every available CPU (the count is a column of the table and a field
//!   of the JSON), so per-core and all-core figures are both on record.
//! - **recover**: end-to-end `bomp_with_op` wall time on every available
//!   CPU plus recovery quality (mode error, planted outliers found) — the
//!   speedup is only real if the structured backends still recover the
//!   paper's signal.
//!
//! The headline row is `N = 2^20` at `M = 4096`, where the dense pass is
//! minutes-scale and the matrix-free backends are the difference between
//! "recovery is offline" and "recovery is interactive". The dense
//! end-to-end run is skipped at that size (73 iterations of a ~4·10⁹-draw
//! scan); its per-pass cost is measured directly instead.
//!
//! With CSV output enabled the table mirrors to `results/recovery_ops.csv`
//! and a machine-readable summary goes to `BENCH_pr9.json` (repo root).

use crate::common::{Opts, Table};
use cso_core::{bomp_with_op, BompConfig, MeasurementOp, MeasurementOperator, SketchBackend};
use cso_exec::ExecConfig;
use cso_linalg::Vector;
use std::time::Instant;

const SEED: u64 = 4242;
/// Planted population mode (every key carries it; BOMP must find it).
const MODE: f64 = 50.0;
/// Seeded-sparse nonzeros per column (`s`); 8 keeps column coherence
/// `≤ collisions/s` small while the scan stays `O(8·N)`.
const SPARSE_S: u64 = 8;

/// One sweep point: geometry, planted sparsity, rep counts, and whether
/// the dense backend also runs end-to-end (skipped at the 1M headline).
struct Point {
    n: usize,
    m: usize,
    k: usize,
    scan_reps: usize,
    dense_scan_reps: usize,
    dense_e2e: bool,
}

/// One table row: a backend at a sweep point.
struct Row {
    n: usize,
    m: usize,
    backend: &'static str,
    /// One pass on one worker.
    scan_ns: f64,
    /// One pass on every available CPU.
    scan_ns_all: f64,
    scan_speedup: f64,
    recover: Option<Recovered>,
}

/// End-to-end recovery outcome for one backend.
struct Recovered {
    ns: f64,
    iterations: usize,
    mode_abs_err: f64,
    found: usize,
    planted: usize,
}

/// The planted instance: `x = MODE·1 + deviations` at `k` distinct seeded
/// indices (odd multiplier mod a power of two is a bijection, so the
/// indices never collide).
fn planted_signal(n: usize, k: usize) -> (Vec<f64>, Vec<usize>) {
    let mut x = vec![MODE; n];
    let mut idx = Vec::with_capacity(k);
    for i in 0..k {
        let j = (i.wrapping_mul(2654435761)) % n;
        let dev = if i % 2 == 0 { 300.0 + 10.0 * i as f64 } else { -(250.0 + 10.0 * i as f64) };
        x[j] += dev;
        idx.push(j);
    }
    (x, idx)
}

/// A deterministic residual-shaped probe of length `m` for scan timing.
fn probe(m: usize) -> Vec<f64> {
    (0..m).map(|i| (((i as u64 * 2654435761 + 17) % 97) as f64 - 48.0) * 0.31).collect()
}

/// Interleaved min-of-reps over the backends (a, b, c, a, b, c, …): cache
/// warmup and clock drift hit every backend equally instead of biasing
/// whichever runs later. Backend `i` is timed `reps[i]` times (with one
/// untimed warmup when `reps[i] > 1`) and reports its minimum — the
/// contention-robust estimator for a deterministic kernel.
fn interleaved_scan_ns(ops: &[MeasurementOperator], reps: &[usize], exec: &ExecConfig) -> Vec<f64> {
    let m = ops[0].m();
    let n = ops[0].n();
    let x = probe(m);
    let mut out = vec![0.0; n];
    for (op, &r) in ops.iter().zip(reps) {
        if r > 1 {
            op.apply_transpose_into(&x, &mut out, exec).expect("scan warmup");
        }
    }
    let mut best = vec![f64::INFINITY; ops.len()];
    let rounds = reps.iter().copied().max().unwrap_or(0);
    for round in 0..rounds {
        for (i, op) in ops.iter().enumerate() {
            if round < reps[i] {
                let t = Instant::now();
                op.apply_transpose_into(&x, &mut out, exec).expect("scan");
                std::hint::black_box(&out);
                best[i] = best[i].min(t.elapsed().as_nanos() as f64);
            }
        }
    }
    best
}

/// One end-to-end recovery: sketch the planted instance with `op`, run
/// BOMP with the paper's `R = 3k + 1` budget, report wall time and how
/// much of the planted structure came back.
fn recover(op: &MeasurementOperator, x: &[f64], planted: &[usize], k: usize) -> Recovered {
    let y: Vector = op.apply(x).expect("sketch");
    let config = BompConfig::for_k_outliers(k);
    let t = Instant::now();
    let res = bomp_with_op(op, &y, &config).expect("bomp");
    let ns = t.elapsed().as_nanos() as f64;
    let found = planted.iter().filter(|&&j| res.outliers.iter().any(|o| o.index == j)).count();
    Recovered {
        ns,
        iterations: res.iterations,
        mode_abs_err: (res.mode - MODE).abs(),
        found,
        planted: planted.len(),
    }
}

/// The CPUs the all-core rows run on.
fn host_cpus() -> usize {
    ExecConfig::auto().workers
}

/// The `recovery_ops` experiment: dense vs SRHT vs seeded-sparse.
pub fn recovery_ops(opts: &Opts) {
    let fast = opts.trials <= 4;
    let reps = opts.trials.clamp(2, 7);
    let points: Vec<Point> = if fast {
        [512usize, 2048]
            .iter()
            .map(|&n| Point { n, m: 64, k: 6, scan_reps: 2, dense_scan_reps: 2, dense_e2e: true })
            .collect()
    } else {
        vec![
            Point {
                n: 16_384,
                m: 512,
                k: 16,
                scan_reps: reps,
                dense_scan_reps: reps,
                dense_e2e: true,
            },
            Point {
                n: 65_536,
                m: 512,
                k: 16,
                scan_reps: reps,
                dense_scan_reps: 3,
                dense_e2e: true,
            },
            // The headline: the north-star dictionary width. One dense
            // pass is measured (it is the baseline being beaten); the
            // dense end-to-end run would be R = 73 such passes.
            Point {
                n: 1 << 20,
                m: 4096,
                k: 24,
                scan_reps: 3,
                dense_scan_reps: 1,
                dense_e2e: false,
            },
        ]
    };

    let mut rows = Vec::new();
    for p in &points {
        let backends =
            [SketchBackend::dense(), SketchBackend::srht(), SketchBackend::seeded_sparse(SPARSE_S)];
        let ops: Vec<MeasurementOperator> =
            backends.iter().map(|b| b.build(p.m, p.n, SEED).expect("valid geometry")).collect();
        let reps: Vec<usize> = backends
            .iter()
            .map(|b| if *b == SketchBackend::dense() { p.dense_scan_reps } else { p.scan_reps })
            .collect();
        let scans = interleaved_scan_ns(&ops, &reps, &ExecConfig::sequential());
        let scans_all = interleaved_scan_ns(&ops, &reps, &ExecConfig::auto());
        let dense_scan = scans[0];

        let (x, planted) = planted_signal(p.n, p.k);
        for (((backend, op), scan_ns), scan_ns_all) in
            backends.iter().zip(&ops).zip(&scans).zip(&scans_all)
        {
            let run_e2e = p.dense_e2e || *backend != SketchBackend::dense();
            rows.push(Row {
                n: p.n,
                m: p.m,
                backend: backend.label(),
                scan_ns: *scan_ns,
                scan_ns_all: *scan_ns_all,
                scan_speedup: dense_scan / *scan_ns,
                recover: run_e2e.then(|| recover(op, &x, &planted, p.k)),
            });
        }
    }

    let mut table = Table::new(
        "recovery_ops",
        &[
            "n",
            "m",
            "backend",
            "cpus",
            "scan_ms_1w",
            "scan_ms_all",
            "scan_x_dense",
            "recover_ms",
            "iters",
            "mode_abs_err",
            "outliers_found",
        ],
    );
    let cpus = host_cpus();
    for r in &rows {
        let (rec_ms, iters, mode_err, found) = match &r.recover {
            Some(rec) => (
                format!("{:.1}", rec.ns / 1e6),
                format!("{}", rec.iterations),
                format!("{:.2e}", rec.mode_abs_err),
                format!("{}/{}", rec.found, rec.planted),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        table.row(&[
            &r.n,
            &r.m,
            &r.backend,
            &cpus,
            &format!("{:.3}", r.scan_ns / 1e6),
            &format!("{:.3}", r.scan_ns_all / 1e6),
            &format!("{:.1}", r.scan_speedup),
            &rec_ms,
            &iters,
            &mode_err,
            &found,
        ]);
    }
    // Fast mode is a smoke: print but never clobber the recorded full-sweep
    // artifacts (results/recovery_ops.csv, BENCH_pr9.json) with toy sizes.
    let artifact_opts = Opts { write_csv: opts.write_csv && !fast, ..*opts };
    table.finish(&artifact_opts);

    if artifact_opts.write_csv {
        write_bench_json(&rows);
    }
}

/// Writes the machine-readable sweep to `BENCH_pr9.json` (repo root).
/// Skipped end-to-end runs serialize as `null`, not sentinel numbers.
/// `scan_ns` is one worker; `scan_ns_all` and `recover_ns` use `host_cpus`.
fn write_bench_json(rows: &[Row]) {
    let cores = host_cpus();
    let mut out = String::new();
    out.push_str("{\"bench\":\"recovery_ops\",\"params\":{");
    out.push_str(&format!("\"seed\":{SEED},\"sparse_s\":{SPARSE_S},\"host_cpus\":{cores}"));
    out.push_str("},\"sweep\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (rec_ns, iters, mode_err, found, planted) = match &r.recover {
            Some(rec) => (
                format!("{}", rec.ns),
                format!("{}", rec.iterations),
                format!("{}", rec.mode_abs_err),
                format!("{}", rec.found),
                format!("{}", rec.planted),
            ),
            None => ("null".into(), "null".into(), "null".into(), "null".into(), "null".into()),
        };
        out.push_str(&format!(
            "{{\"n\":{},\"m\":{},\"backend\":\"{}\",\"scan_ns\":{},\"scan_ns_all\":{},\
             \"scan_speedup_vs_dense\":{},\"recover_ns\":{rec_ns},\"iterations\":{iters},\
             \"mode_abs_err\":{mode_err},\"outliers_found\":{found},\"outliers_planted\":{planted}}}",
            r.n, r.m, r.backend, r.scan_ns, r.scan_ns_all, r.scan_speedup,
        ));
    }
    out.push_str("]}");
    cso_obs::json::validate(&out).expect("BENCH_pr9.json must be valid JSON");
    std::fs::write("BENCH_pr9.json", format!("{out}\n")).expect("write BENCH_pr9.json");
    println!("wrote BENCH_pr9.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_indices_are_distinct() {
        for n in [512usize, 1 << 20] {
            let (_, idx) = planted_signal(n, 24);
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 24);
        }
    }

    #[test]
    fn structured_backends_recover_the_planted_instance() {
        // The quality claim behind the speedup table, at smoke scale: both
        // matrix-free backends find every planted outlier and the mode.
        let (n, m, k) = (2048usize, 64usize, 6usize);
        let (x, planted) = planted_signal(n, k);
        for backend in [SketchBackend::srht(), SketchBackend::seeded_sparse(SPARSE_S)] {
            let op = backend.build(m, n, SEED).unwrap();
            let rec = recover(&op, &x, &planted, k);
            assert_eq!(rec.found, rec.planted, "{}: missed outliers", backend.label());
            assert!(rec.mode_abs_err < 1.0, "{}: mode err {}", backend.label(), rec.mode_abs_err);
        }
    }

    #[test]
    fn recovery_ops_smoke_runs_without_artifacts() {
        recovery_ops(&Opts { trials: 1, write_csv: false });
    }
}
