//! Executed MapReduce-job benchmarks: the CS job vs the traditional top-k
//! job over real records on the simulator engine (the wall-clock companion
//! to the modeled Figures 10–12).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cso_core::BompConfig;
use cso_mapreduce::{run_cs_job, run_topk_job, ExecConfig, Record};
use cso_workloads::{PowerLawConfig, PowerLawData};

fn splits(n: usize, tasks: usize) -> Vec<Vec<Record>> {
    let data = PowerLawData::generate(&PowerLawConfig { n, alpha: 1.5, x_min: 10.0 }, 19).unwrap();
    let shifted = data.shifted_to_zero_mode();
    (0..tasks)
        .map(|t| {
            shifted
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, v * ((t + i) % 3 + 1) as f64 / 6.0))
                .collect()
        })
        .collect()
}

fn bench_jobs(c: &mut Criterion) {
    let mut g = c.benchmark_group("executed_jobs");
    g.sample_size(10);
    for n in [2000usize, 8000] {
        let sp = splits(n, 8);
        g.bench_with_input(BenchmarkId::new("traditional_topk", n), &n, |b, _| {
            b.iter(|| run_topk_job(black_box(&sp), n, 5).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("cs_job_m200", n), &n, |b, _| {
            b.iter(|| {
                run_cs_job(
                    &ExecConfig::sequential(),
                    black_box(&sp),
                    n,
                    200,
                    3,
                    5,
                    &BompConfig::with_max_iterations(25),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_engine_overhead(c: &mut Criterion) {
    use cso_mapreduce::map_reduce;
    use cso_obs::Recorder;
    let splits: Vec<Vec<u32>> = (0..8).map(|t| (t * 1000..(t + 1) * 1000).collect()).collect();
    c.bench_function("engine_shuffle_8x1000", |b| {
        b.iter(|| {
            map_reduce(
                &ExecConfig::sequential(),
                &Recorder::disabled(),
                black_box(&splits),
                |x, em| em.emit(x % 97, 1u64),
                |_, vs| vs,
                12,
                |k, vs| vec![(*k, vs.len())],
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_jobs, bench_engine_overhead
}
criterion_main!(benches);
