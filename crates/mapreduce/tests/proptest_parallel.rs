//! Property-based determinism tests for the parallel MapReduce engine:
//! for arbitrary inputs, the parallel paths must be **bit-identical** to
//! the sequential reference at every worker count (DESIGN.md §8).

use cso_exec::ExecConfig;
use cso_mapreduce::{map_reduce, run_cs_job};
use cso_obs::Recorder;
use proptest::prelude::*;

/// Worker counts exercised against the sequential reference.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The executed CS job agrees bit-for-bit across worker counts:
    /// counters, mode bits, and every recovered outlier's value bits.
    #[test]
    fn cs_job_identical_across_worker_counts(
        records in prop::collection::vec((0usize..64, -1e5f64..1e5), 16..80),
        tasks in 2usize..6,
        m in 24usize..40,
        seed in 0u64..1000,
    ) {
        let splits: Vec<Vec<(usize, f64)>> =
            records.chunks(records.len().div_ceil(tasks)).map(<[_]>::to_vec).collect();
        let cfg = cso_core::BompConfig::default();
        let reference = run_cs_job(&ExecConfig::sequential(), &splits, 64, m, seed, 3, &cfg).unwrap();
        for workers in WORKER_COUNTS {
            let run = run_cs_job(
                &ExecConfig::with_workers(workers),
                &splits,
                64,
                m,
                seed,
                3,
                &cfg,
            )
            .unwrap();
            prop_assert_eq!(run.counters, reference.counters);
            prop_assert_eq!(run.mode.to_bits(), reference.mode.to_bits());
            prop_assert_eq!(run.outliers.len(), reference.outliers.len());
            for (a, b) in run.outliers.iter().zip(&reference.outliers) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }

    /// A generic float-summing job through the raw engine is bit-identical
    /// across worker counts — the value-ordering contract holds for
    /// arbitrary key collisions across tasks.
    #[test]
    fn engine_float_sums_identical_across_worker_counts(
        splits in prop::collection::vec(
            prop::collection::vec((0usize..16, -1e9f64..1e9), 0..30),
            1..8,
        ),
    ) {
        let (reference, ref_counters) = map_reduce(
            &ExecConfig::sequential(),
            &Recorder::disabled(),
            &splits,
            |&(k, v): &(usize, f64), em| em.emit(k, v),
            |_, vs| vs,
            8,
            |k, vs| vec![(*k, vs.iter().sum::<f64>())],
        );
        for workers in WORKER_COUNTS {
            let (out, counters) = map_reduce(
                &ExecConfig::with_workers(workers),
                &Recorder::disabled(),
                &splits,
                |&(k, v): &(usize, f64), em| em.emit(k, v),
                |_, vs| vs,
                8,
                |k, vs| vec![(*k, vs.iter().sum::<f64>())],
            );
            prop_assert_eq!(counters, ref_counters);
            prop_assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
