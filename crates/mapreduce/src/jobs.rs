//! The two executable jobs of Section 6.2, expressed on the mini engine:
//! the CS job (paper Algorithms 3 and 4) and the traditional top-k job.
//!
//! Records reach the mappers already key-resolved: a record is
//! `(key index, score)` with indices from the global key dictionary (the
//! paper's mappers do this lookup against the broadcast `KeyList`).

use crate::engine::{map_reduce, JobCounters};
use cso_core::{bomp, BompConfig, KeyValue, MeasurementSpec};
use cso_exec::ExecConfig;
use cso_linalg::{LinalgError, Vector};
use cso_obs::{Recorder, Value};

/// One raw input record: a resolved key index and a signed score.
pub type Record = (usize, f64);

/// Result of the executed CS job.
#[derive(Debug, Clone)]
pub struct CsJobOutput {
    /// Recovered top-k outliers.
    pub outliers: Vec<KeyValue>,
    /// Recovered mode.
    pub mode: f64,
    /// Engine counters (map output is `M` values per task).
    pub counters: JobCounters,
}

/// Result of the executed traditional top-k job.
#[derive(Debug, Clone)]
pub struct TopKJobOutput {
    /// The exact top-k keys by value.
    pub topk: Vec<KeyValue>,
    /// Engine counters (map output is one pair per distinct key per task).
    pub counters: JobCounters,
}

/// Runs the CS job (Algorithm 3 mapper + Algorithm 4 reducer), with the
/// per-split sketch construction and the engine's map tasks on `exec`'s
/// worker threads.
///
/// Each map task partially aggregates its split against the key list,
/// compresses the partial vector with the seed-shared `Φ0`, and emits
/// `(measurement row, partial measurement)` pairs. The reduce side sums
/// each row and the driver runs BOMP on the assembled global measurement.
///
/// The job records into `recovery.omp.rec`: one `job.cs` span containing
/// `sketch.build` (Algorithm 3's per-split partial aggregation and
/// compression), the engine's `mr.job` span (shuffle + per-row summation),
/// and `recovery` (BOMP with its per-iteration events). The finished
/// [`JobCounters`] are published into the `mr.*` counters, so the
/// recorder's metrics agree with [`CsJobOutput::counters`] exactly.
///
/// Output is **bit-identical** for any worker count: per-split sketches
/// are computed in isolation and merged in split order, and the engine's
/// shuffle preserves its value-ordering contract (see [`crate::engine`]).
/// With `exec.workers > 1` and an enabled recorder, `exec.*` spans and
/// metrics appear inside `sketch.build` and `mr.map`; sequential traces
/// are unchanged.
pub fn run_cs_job(
    exec: &ExecConfig,
    splits: &[Vec<Record>],
    n: usize,
    m: usize,
    seed: u64,
    k: usize,
    recovery: &BompConfig,
) -> Result<CsJobOutput, LinalgError> {
    let rec = &recovery.omp.rec;
    let spec = MeasurementSpec::new(m, n, seed)?;

    let _job_span = rec.span_with(
        "job.cs",
        &[
            ("tasks", Value::U64(splits.len() as u64)),
            ("n", Value::U64(n as u64)),
            ("m", Value::U64(m as u64)),
            ("k", Value::U64(k as u64)),
        ],
    );

    // Map phase (per split): partial aggregation + local compression
    // (Algorithm 3). A real mapper regenerates Φ0 from the shared seed;
    // `measure_sparse` does exactly that, column by column. The unit of
    // compression is the whole split, so the map pass runs here (one task
    // per split on the executor) and the engine's shuffle/reduce handles
    // the per-row summation below. On error the lowest-index split wins,
    // matching the sequential scan.
    let input_records: u64 = splits.iter().map(|s| s.len() as u64).sum();
    let sketches: Vec<Vec<Record>> = {
        let _sketch_span = rec.span("sketch.build");
        let (result, stats) =
            cso_exec::try_par_map(exec, splits, |_, split| -> Result<Vec<Record>, LinalgError> {
                // Partial aggregation by key (the mapper's hash aggregation).
                let mut partial: std::collections::HashMap<usize, f64> =
                    std::collections::HashMap::new();
                for &(key, score) in split {
                    if key >= n {
                        return Err(LinalgError::DimensionMismatch {
                            op: "cs_mapper",
                            expected: (n, 1),
                            actual: (key, 1),
                        });
                    }
                    *partial.entry(key).or_insert(0.0) += score;
                }
                // Sort by key so the float summation order — and hence the
                // sketch — is identical across runs (HashMap order is not).
                let mut entries: Vec<(usize, f64)> = partial.into_iter().collect();
                entries.sort_unstable_by_key(|&(key, _)| key);
                let yl = spec.measure_sparse(&entries)?;
                Ok(yl.iter().copied().enumerate().collect())
            });
        stats.record(rec);
        result?
    };

    // Shuffle + reduce: sum each measurement row across tasks.
    let (rows, mut counters) = map_reduce(
        exec,
        rec,
        &sketches,
        |pair: &(usize, f64), em| em.emit(pair.0, pair.1),
        |_row, values| values,
        8,
        |row, values| vec![(*row, values.iter().sum::<f64>())],
    );
    counters.map_input_records = input_records;
    let mut y = Vector::zeros(m);
    for (row, v) in rows {
        y[row] = v;
    }

    // Reduce phase: recover with BOMP on the regenerated Φ0.
    let result = {
        let _recovery_span = rec.span("recovery");
        bomp(&spec, &y, recovery)?
    };
    counters.publish(rec);
    let outliers =
        result.top_k(k).iter().map(|o| KeyValue { index: o.index, value: o.value }).collect();
    Ok(CsJobOutput { outliers, mode: result.mode, counters })
}

/// Runs the traditional top-k job: mappers emit one pair per record, the
/// map-side combiner folds each task's pairs to one per distinct key,
/// the reducer sums per key, and the driver selects the k largest values.
pub fn run_topk_job(
    splits: &[Vec<Record>],
    n: usize,
    k: usize,
) -> Result<TopKJobOutput, LinalgError> {
    for split in splits {
        if let Some(&(key, _)) = split.iter().find(|&&(key, _)| key >= n) {
            return Err(LinalgError::DimensionMismatch {
                op: "topk_mapper",
                expected: (n, 1),
                actual: (key, 1),
            });
        }
    }
    let (sums, counters) = map_reduce(
        &ExecConfig::sequential(),
        &Recorder::disabled(),
        splits,
        |&(key, score): &Record, em| em.emit(key, score),
        |_key, values| vec![values.iter().sum::<f64>()],
        12,
        |key, values| vec![KeyValue { index: *key, value: values.iter().sum() }],
    );

    let mut topk = sums;
    topk.sort_by(|a, b| b.value.partial_cmp(&a.value).expect("finite").then(a.index.cmp(&b.index)));
    topk.truncate(k);
    Ok(TopKJobOutput { topk, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits with a known aggregate: mode 0, outliers at keys 7 and 31.
    fn fixture(n: usize) -> (Vec<Vec<Record>>, Vec<f64>) {
        let mut global = vec![0.0; n];
        global[7] = 500.0;
        global[31] = -300.0;
        global[2] = 40.0;
        // Three splits, values spread unevenly, some repeated keys.
        let splits = vec![
            vec![(7, 100.0), (2, 40.0), (31, -500.0)],
            vec![(7, 150.0), (31, 100.0)],
            vec![(7, 250.0), (31, 100.0)],
        ];
        (splits, global)
    }

    #[test]
    fn topk_job_computes_exact_sums() {
        let (splits, global) = fixture(64);
        let out = run_topk_job(&splits, 64, 3).unwrap();
        assert_eq!(out.topk[0].index, 7);
        assert!((out.topk[0].value - global[7]).abs() < 1e-12);
        assert_eq!(out.topk[1].index, 2);
        // Counters: 3 tasks, map output = distinct keys per split.
        assert_eq!(out.counters.map_tasks, 3);
        assert_eq!(out.counters.map_output_records, 3 + 2 + 2);
        assert_eq!(out.counters.shuffle_bytes, (3 + 2 + 2) * 12);
        assert_eq!(out.counters.reduce_groups, 3);
        assert_eq!(out.counters.map_input_records, 7);
    }

    #[test]
    fn cs_job_recovers_same_outliers() {
        let (splits, _) = fixture(64);
        let out =
            run_cs_job(&ExecConfig::sequential(), &splits, 64, 40, 9, 3, &BompConfig::default())
                .unwrap();
        let idx: Vec<usize> = out.outliers.iter().map(|o| o.index).collect();
        assert_eq!(idx[0], 7, "largest deviation first");
        assert!(idx.contains(&31));
        assert!(out.mode.abs() < 1e-6, "mode of this data is 0");
        // Counters: M values per task.
        assert_eq!(out.counters.map_output_records, 3 * 40);
        assert_eq!(out.counters.shuffle_bytes, 3 * 40 * 8);
        assert_eq!(out.counters.reduce_groups, 40);
    }

    #[test]
    fn cs_job_matches_direct_measurement() {
        // The job's assembled measurement must equal measuring the global
        // aggregate directly (linearity through the MapReduce pipeline).
        let (splits, global) = fixture(64);
        let out =
            run_cs_job(&ExecConfig::sequential(), &splits, 64, 48, 5, 2, &BompConfig::default())
                .unwrap();
        let spec = MeasurementSpec::new(48, 64, 5).unwrap();
        let y = spec.measure_dense(&global).unwrap();
        let direct = cso_core::bomp(&spec, &y, &BompConfig::default()).unwrap();
        assert_eq!(out.outliers[0].index, direct.top_k(1)[0].index);
        assert!((out.mode - direct.mode).abs() < 1e-9);
    }

    #[test]
    fn traced_cs_job_matches_untraced_and_publishes_counters() {
        let (splits, _) = fixture(64);
        let plain =
            run_cs_job(&ExecConfig::sequential(), &splits, 64, 40, 9, 3, &BompConfig::default())
                .unwrap();
        let rec = Recorder::new();
        let mut config = BompConfig::default();
        config.omp.rec = rec.clone();
        let traced = run_cs_job(&ExecConfig::sequential(), &splits, 64, 40, 9, 3, &config).unwrap();
        assert_eq!(plain.outliers, traced.outliers);
        assert_eq!(plain.counters, traced.counters);
        assert!((plain.mode - traced.mode).abs() < 1e-12);

        let snap = rec.metrics_snapshot();
        let c = traced.counters;
        assert_eq!(snap.counter("mr.map_input_records"), Some(c.map_input_records));
        assert_eq!(snap.counter("mr.map_output_records"), Some(c.map_output_records));
        assert_eq!(snap.counter("mr.shuffle_bytes"), Some(c.shuffle_bytes));
        assert_eq!(snap.counter("mr.map_tasks"), Some(c.map_tasks));
        assert_eq!(snap.counter("mr.reduce_groups"), Some(c.reduce_groups));

        // Span structure: job.cs ⊃ {sketch.build, mr.job ⊃ {mr.map,
        // mr.reduce}, recovery ⊃ BOMP}, one mr.task event per split.
        let spans: Vec<&str> = rec
            .trace_snapshot()
            .iter()
            .filter(|e| e.kind == cso_obs::EntryKind::SpanStart)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            spans,
            vec![
                "job.cs",
                "sketch.build",
                "mr.job",
                "mr.map",
                "mr.reduce",
                "recovery",
                "recover.bomp",
                "recover.omp"
            ]
        );
        assert_eq!(rec.events_named("mr.task").len(), splits.len());
    }

    #[test]
    fn jobs_reject_out_of_range_keys() {
        let splits = vec![vec![(99usize, 1.0)]];
        assert!(run_topk_job(&splits, 10, 1).is_err());
        assert!(run_cs_job(
            &ExecConfig::sequential(),
            &splits,
            10,
            5,
            1,
            1,
            &BompConfig::default()
        )
        .is_err());
        // The parallel job rejects them too, for every worker count.
        for workers in [1, 2, 8] {
            assert!(run_cs_job(
                &ExecConfig::with_workers(workers),
                &splits,
                10,
                5,
                1,
                1,
                &BompConfig::default(),
            )
            .is_err());
        }
    }

    /// The parallel CS job is bit-identical to the sequential reference:
    /// same recovered outliers (indices AND value bits), same mode, same
    /// counters, for worker counts that exercise real stealing.
    #[test]
    fn parallel_cs_job_is_bit_identical_to_sequential() {
        let n = 128;
        let splits: Vec<Vec<Record>> = (0..16)
            .map(|t| {
                (0..40).map(|i| ((t * 13 + i * 7) % n, ((t + 1) * (i + 3)) as f64 * 0.25)).collect()
            })
            .collect();
        let seq =
            run_cs_job(&ExecConfig::sequential(), &splits, n, 48, 11, 4, &BompConfig::default())
                .unwrap();
        for workers in [1, 2, 8] {
            let par = run_cs_job(
                &ExecConfig::with_workers(workers),
                &splits,
                n,
                48,
                11,
                4,
                &BompConfig::default(),
            )
            .unwrap();
            assert_eq!(par.counters, seq.counters, "workers = {workers}");
            assert_eq!(par.mode.to_bits(), seq.mode.to_bits(), "workers = {workers}");
            assert_eq!(par.outliers.len(), seq.outliers.len());
            for (a, b) in par.outliers.iter().zip(&seq.outliers) {
                assert_eq!(a.index, b.index, "workers = {workers}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn cs_shuffle_is_smaller_when_m_below_keys() {
        // The whole point: M values/task vs one pair per distinct key/task.
        let n = 512;
        let mut splits = Vec::new();
        for t in 0..4 {
            let split: Vec<Record> = (0..n).map(|i| (i, (t + i) as f64)).collect();
            splits.push(split);
        }
        let cs =
            run_cs_job(&ExecConfig::sequential(), &splits, n, 32, 3, 5, &BompConfig::default())
                .unwrap();
        let tk = run_topk_job(&splits, n, 5).unwrap();
        assert!(cs.counters.shuffle_bytes < tk.counters.shuffle_bytes / 10);
    }
}
