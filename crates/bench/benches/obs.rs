//! Observability overhead: BOMP recovery with the default disabled
//! recorder (one branch per call site) vs with an enabled recorder in
//! `OmpConfig::rec` (pays for coefficient tracking and trace storage).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cso_core::{bomp_with_matrix, BompConfig, MeasurementSpec};
use cso_linalg::{ColMatrix, Vector};
use cso_obs::Recorder;
use cso_workloads::{MajorityConfig, MajorityData};

const N: usize = 2000;
const S: usize = 20;
const M: usize = 400;

fn instance() -> (ColMatrix, Vector) {
    let data =
        MajorityData::generate(&MajorityConfig { n: N, s: S, ..MajorityConfig::default() }, 9)
            .unwrap();
    let spec = MeasurementSpec::new(M, N, 4).unwrap();
    let phi = spec.materialize();
    let y = spec.measure_dense(&data.values).unwrap();
    (phi, y)
}

fn bench_observation_overhead(c: &mut Criterion) {
    let (phi, y) = instance();
    let cfg = BompConfig::with_max_iterations(S + 1);
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.bench_function("disabled_recorder", |b| {
        b.iter(|| bomp_with_matrix(black_box(&phi), black_box(&y), &cfg).unwrap())
    });
    g.bench_function("enabled_recorder", |b| {
        b.iter(|| {
            let mut traced = cfg.clone();
            traced.omp.rec = Recorder::new();
            bomp_with_matrix(black_box(&phi), black_box(&y), &traced).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_observation_overhead);
criterion_main!(benches);
