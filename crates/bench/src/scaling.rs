//! Scaling sweep for the parallel execution engine (PR 3).
//!
//! Runs the executed CS job (`run_cs_job`) — the pipeline whose map
//! side the work-stealing pool parallelizes — at increasing worker counts
//! and reports, per count:
//!
//! - median **wall-clock** time and the speedup relative to the pinned
//!   sequential reference (`workers = 1`);
//! - the **modeled speedup** `Σ busy_ns / max_worker(busy_ns)` from the
//!   executor's per-worker stats — the load-balance ceiling the schedule
//!   achieved, independent of how many physical cores the host happens to
//!   have (see EXPERIMENTS.md: on a single-core host wall-clock speedup is
//!   ≈ 1× by construction while the modeled speedup shows the pool doing
//!   its job);
//! - executor task and steal counts from the `exec.*` metrics.
//!
//! With CSV output enabled, the table mirrors to `results/scaling.csv`
//! and a machine-readable summary is written to `BENCH_pr3.json` at the
//! repository root (validated with [`cso_obs::json::validate`]).

use crate::common::{Opts, Table};
use cso_core::BompConfig;
use cso_exec::{ExecConfig, MAX_WORKERS};
use cso_mapreduce::{run_cs_job, Record};
use cso_obs::{json, EntryKind, Recorder};
use std::time::Instant;

/// One row of the sweep.
struct Sample {
    workers: usize,
    wall_ns: f64,
    tasks: u64,
    steals: u64,
    modeled_speedup: f64,
}

/// Deterministic map-heavy workload: `splits` map tasks over `n` keys,
/// every split touching most keys so `measure_sparse` dominates recovery.
fn workload(splits: usize, records_per_split: usize, n: usize) -> Vec<Vec<Record>> {
    (0..splits)
        .map(|t| {
            (0..records_per_split)
                .map(|i| {
                    let key = (t * 131 + i * 17) % n;
                    let value = ((t + 1) * (i % 97 + 1)) as f64 * 0.5 - 24.0;
                    (key, value)
                })
                .collect()
        })
        .collect()
}

/// Worker counts to sweep: powers of two through `max(4, cores)`, plus the
/// core count itself when it is not a power of two.
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let top = cores.clamp(4, MAX_WORKERS);
    let mut counts: Vec<usize> =
        std::iter::successors(Some(1usize), |w| Some(w * 2)).take_while(|&w| w <= top).collect();
    if !counts.contains(&top) {
        counts.push(top);
    }
    counts
}

/// Runs the job once with an enabled recorder and aggregates the `exec.*`
/// stats: total tasks, total steals, and the busy-time load balance.
fn measure_exec(
    exec: &ExecConfig,
    splits: &[Vec<Record>],
    n: usize,
    m: usize,
    k: usize,
) -> (u64, u64, f64) {
    let rec = Recorder::new();
    let mut recovery = BompConfig::for_k_outliers(k);
    recovery.omp.rec = rec.clone();
    run_cs_job(exec, splits, n, m, 42, k, &recovery).expect("scaling workload must run");
    let snap = rec.metrics_snapshot();
    let tasks = snap.counter("exec.tasks").unwrap_or(0);
    let steals = snap.counter("exec.steals").unwrap_or(0);
    // Sum busy time per worker id across all parallel sections, then take
    // the bottleneck: modeled speedup = total work / critical-path worker.
    let mut busy_by_worker: Vec<u64> = Vec::new();
    for entry in rec.trace_snapshot() {
        if entry.kind == EntryKind::SpanStart && entry.name == "exec.worker" {
            let worker = entry.field_u64("worker").unwrap_or(0) as usize;
            let busy = entry.field_u64("busy_ns").unwrap_or(0);
            if busy_by_worker.len() <= worker {
                busy_by_worker.resize(worker + 1, 0);
            }
            busy_by_worker[worker] += busy;
        }
    }
    let total: u64 = busy_by_worker.iter().sum();
    let max = busy_by_worker.iter().copied().max().unwrap_or(0);
    let modeled = if max == 0 { 1.0 } else { total as f64 / max as f64 };
    (tasks, steals, modeled)
}

/// Median wall time of `reps` untraced runs, in nanoseconds.
fn measure_wall(
    exec: &ExecConfig,
    splits: &[Vec<Record>],
    n: usize,
    m: usize,
    k: usize,
    reps: usize,
) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                run_cs_job(exec, splits, n, m, 42, k, &BompConfig::for_k_outliers(k))
                    .expect("scaling workload must run"),
            );
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// The `scaling` experiment: sweep worker counts over the CS-job pipeline.
pub fn scaling(opts: &Opts) {
    // Fast mode keeps the smoke test quick; the default is sized so the
    // map side (sketch construction) dominates end-to-end time.
    let (tasks, records, n, m, k) =
        if opts.trials <= 4 { (16, 200, 512, 48, 4) } else { (32, 1500, 2048, 128, 8) };
    let reps = opts.trials.clamp(3, 7);
    let splits = workload(tasks, records, n);

    let mut samples = Vec::new();
    for workers in worker_counts() {
        let exec = ExecConfig::with_workers(workers);
        let (exec_tasks, steals, modeled) = measure_exec(&exec, &splits, n, m, k);
        let wall_ns = measure_wall(&exec, &splits, n, m, k, reps);
        samples.push(Sample {
            workers,
            wall_ns,
            tasks: exec_tasks,
            steals,
            modeled_speedup: modeled,
        });
    }

    let base_ns = samples[0].wall_ns;
    let mut table = Table::new(
        "scaling",
        &["workers", "wall_ms", "wall_speedup", "modeled_speedup", "exec_tasks", "steals"],
    );
    for s in &samples {
        table.row(&[
            &s.workers,
            &format!("{:.2}", s.wall_ns / 1e6),
            &format!("{:.2}", base_ns / s.wall_ns),
            &format!("{:.2}", s.modeled_speedup),
            &s.tasks,
            &s.steals,
        ]);
    }
    table.finish(opts);

    if opts.write_csv {
        write_bench_json(&samples, tasks, records, n, m, k, reps);
    }
}

/// Writes the machine-readable sweep to `BENCH_pr3.json` (repo root).
#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    samples: &[Sample],
    tasks: usize,
    records: usize,
    n: usize,
    m: usize,
    k: usize,
    reps: usize,
) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let base_ns = samples[0].wall_ns;
    let mut out = String::new();
    out.push_str("{\"bench\":\"scaling\",\"params\":{");
    out.push_str(&format!(
        "\"map_tasks\":{tasks},\"records_per_task\":{records},\"n\":{n},\"m\":{m},\"k\":{k},\
         \"reps\":{reps},\"host_cpus\":{cores}"
    ));
    out.push_str("},\"sweep\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workers\":{},\"wall_ns\":{},\"wall_speedup\":{},\"modeled_speedup\":{},\
             \"exec_tasks\":{},\"steals\":{}}}",
            s.workers,
            s.wall_ns,
            base_ns / s.wall_ns,
            s.modeled_speedup,
            s.tasks,
            s.steals
        ));
    }
    out.push_str("]}");
    json::validate(&out).expect("BENCH_pr3.json must be valid JSON");
    std::fs::write("BENCH_pr3.json", format!("{out}\n")).expect("write BENCH_pr3.json");
    println!("wrote BENCH_pr3.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_start_at_one_and_reach_at_least_four() {
        let counts = worker_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.iter().any(|&w| w >= 4));
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn exec_stats_show_full_parallel_coverage() {
        // Every map task runs on the executor in both parallel sections
        // (sketch.build and mr.map), and the modeled speedup is sane.
        let splits = workload(8, 50, 128);
        let (tasks, _steals, modeled) =
            measure_exec(&ExecConfig::with_workers(4), &splits, 128, 32, 3);
        assert_eq!(tasks, 2 * 8, "8 sketch tasks + 8 engine map tasks");
        assert!(modeled >= 1.0);
        assert!(modeled <= 4.0 + 1e-9);
    }

    #[test]
    fn scaling_smoke_runs_without_artifacts() {
        scaling(&Opts { trials: 1, write_csv: false });
    }
}
