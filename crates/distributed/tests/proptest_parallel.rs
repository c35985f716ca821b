//! Property-based determinism tests for the parallel execution engine:
//! for arbitrary clusters and fault schedules, the CS protocol must
//! produce **bit-identical** results (outlier indices, value bits, mode
//! bits, cost, survivors) at every worker count. This is the contract
//! DESIGN.md §8 documents — parallelism changes scheduling, never output.

use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, FaultPlan, OutlierProtocol, ProtocolRun, RetryPolicy};
use cso_exec::ExecConfig;
use cso_obs::Recorder;
use proptest::prelude::*;

/// Worker counts exercised against the sequential reference: the pinned
/// reference itself, a pair (max contention on this pool), and an
/// oversubscribed count.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn cluster_from(slices: Vec<Vec<f64>>) -> Cluster {
    Cluster::new(slices).expect("proptest generates non-empty equal-length slices")
}

fn assert_bit_identical(a: &ProtocolRun, b: &ProtocolRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cost, b.cost);
    prop_assert_eq!(a.mode.to_bits(), b.mode.to_bits());
    prop_assert_eq!(a.estimate.len(), b.estimate.len());
    for (x, y) in a.estimate.iter().zip(&b.estimate) {
        prop_assert_eq!(x.index, y.index);
        prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
    }
    Ok(())
}

/// Slices: `l ∈ 2..6` nodes over `n = 48` keys, values in a range wide
/// enough that float summation order would show up in the low bits if the
/// engine ever reassociated the sketch sum.
fn slices_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 48..49), 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Untraced and traced runs are bit-identical across worker counts:
    /// tracing never perturbs the computation.
    #[test]
    fn run_and_run_traced_identical_across_worker_counts(
        slices in slices_strategy(),
        m in 24usize..40,
        seed in 0u64..1000,
        k in 1usize..5,
    ) {
        let cluster = cluster_from(slices);
        let base = CsProtocol::new(m, seed);
        let reference =
            base.clone().with_exec(ExecConfig::sequential()).run(&cluster, k).unwrap();
        for workers in WORKER_COUNTS {
            let proto = base.clone().with_exec(ExecConfig::with_workers(workers));
            let run = proto.run(&cluster, k).unwrap();
            assert_bit_identical(&run, &reference)?;
            let rec = Recorder::new();
            let traced = proto.with_recorder(rec).run(&cluster, k).unwrap();
            assert_bit_identical(&traced, &reference)?;
        }
    }

    /// Degraded (fault-injected) runs are bit-identical across worker
    /// counts: survivors, retransmissions, elapsed virtual time, cost, and
    /// the recovered estimate all match the sequential reference.
    #[test]
    fn degraded_runs_identical_across_worker_counts(
        slices in slices_strategy(),
        m in 24usize..40,
        seed in 0u64..1000,
        fault_seed in 0u64..1000,
        drop_pct in 0u32..40,
    ) {
        let cluster = cluster_from(slices);
        let plan = FaultPlan::new(fault_seed)
            .drop_rate(f64::from(drop_pct) / 100.0)
            .corrupt_rate(0.05);
        let policy = RetryPolicy::default().with_max_attempts(4);
        let base = CsProtocol::new(m, seed);
        let reference = base
            .clone()
            .with_exec(ExecConfig::sequential())
            .run_degraded(&cluster, 3, SketchEncoding::F64, &plan, &policy);
        for workers in WORKER_COUNTS {
            let run = base
                .clone()
                .with_exec(ExecConfig::with_workers(workers))
                .run_degraded(&cluster, 3, SketchEncoding::F64, &plan, &policy);
            match (&reference, &run) {
                (Ok(a), Ok(b)) => {
                    assert_bit_identical(&a.run, &b.run)?;
                    prop_assert_eq!(&a.surviving_nodes, &b.surviving_nodes);
                    prop_assert_eq!(&a.dropped_nodes, &b.dropped_nodes);
                    prop_assert_eq!(a.retransmissions, b.retransmissions);
                    prop_assert_eq!(a.elapsed_ticks, b.elapsed_ticks);
                    prop_assert_eq!(a.fault_stats, b.fault_stats);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "parallel and sequential disagree on success"),
            }
        }
    }

}
