//! Microbenchmarks for the measurement-operator backends (DESIGN.md §13):
//! the forward sketch `Φ·x` and the OMP correlation pass `Φᵀ·r` for the
//! dense streamed Gaussian, the SRHT, and the seeded-sparse projection,
//! across paper-scale dictionary widths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cso_core::{MeasurementOp, MeasurementOperator, SketchBackend};
use cso_exec::ExecConfig;

const M: usize = 256;
const SEED: u64 = 4242;

fn backends(n: usize) -> Vec<(&'static str, MeasurementOperator)> {
    [SketchBackend::dense(), SketchBackend::srht(), SketchBackend::seeded_sparse(8)]
        .iter()
        .map(|b| (b.label(), b.build(M, n, SEED).unwrap()))
        .collect()
}

fn bench_operator_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("op_apply");
    for n in [16_384usize, 65_536] {
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).cos()).collect();
        for (label, op) in backends(n) {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| op.apply(black_box(&x)).unwrap())
            });
        }
    }
    g.finish();
}

fn bench_operator_transpose_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("op_transpose_scan");
    for n in [16_384usize, 65_536] {
        let r: Vec<f64> = (0..M).map(|i| ((i as f64) * 0.37).sin()).collect();
        let mut out = vec![0.0; n];
        for (label, op) in backends(n) {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| {
                    op.apply_transpose_into(black_box(&r), &mut out, &ExecConfig::sequential())
                        .unwrap();
                    black_box(&out);
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_operator_apply, bench_operator_transpose_scan
}
criterion_main!(benches);
