//! Incremental sketch maintenance.
//!
//! The introduction lists two operational requirements the sketch must
//! satisfy beyond one-shot queries: (2) terabytes of new click data arrive
//! every 10 minutes, so incremental updates are mandatory; (3) data centers
//! join and leave the aggregation. Because the measurement is linear, both
//! reduce to adding or subtracting `M`-length vectors — no recomputation
//! over historical data is ever needed.

use cso_core::{BompConfig, BompResult, MeasurementOperator, MeasurementSpec, ResidentOp};
use cso_linalg::{LinalgError, Vector};
use std::collections::BTreeMap;

/// An aggregator that maintains the global sketch under streaming updates
/// and node membership changes.
///
/// The global measurement is kept **canonical**: after any membership
/// change (join or leave) `y` is the dyadic fold of the current per-node
/// sketches over the node-id space ([`crate::fold`]). A running float sum
/// would drift under churn — `(y + s) − s + s` is not `y + s`
/// bit-for-bit — so a node that leaves and re-joins across an epoch
/// boundary would otherwise perturb every later recovery. Canonical
/// resummation makes membership history irrelevant: the same member set
/// with the same sketches always yields the same measurement bits, which
/// is also what lets a TCP server ingest sketches in arbitrary arrival
/// order and still recover bit-identically to the sequential in-process
/// path (`cso-serve`).
///
/// The fold is **lazy**: a membership change is a map insert or remove
/// that invalidates the cached measurement, and the fold runs once, on the
/// first read after it ([`global_measurement`], [`recover`], or an
/// [`update`], which folds before applying its delta). Joining `L` nodes
/// and then reading therefore costs `O(L·M)` in total, not `O(L²·M)`;
/// streaming updates against a folded measurement stay `O(M)`.
///
/// [`global_measurement`]: SketchAggregator::global_measurement
/// [`recover`]: SketchAggregator::recover
/// [`update`]: SketchAggregator::update
#[derive(Debug, Clone)]
pub struct SketchAggregator {
    spec: MeasurementSpec,
    /// Cached global measurement: the dyadic fold of `node_sketches` plus
    /// any streaming deltas applied since the last membership change.
    /// `None` after a membership change, until the next read refolds it.
    y: Option<Vector>,
    /// Last full sketch received per node id (needed to retire a node),
    /// keyed in ascending order so resummation is deterministic.
    node_sketches: BTreeMap<usize, Vector>,
    /// The recovery operator, built (`Φ0` materialized) by the first
    /// recover and kept, with its bias column, for every later one.
    op: Option<ResidentOp>,
}

impl SketchAggregator {
    /// Creates an empty aggregator for the given measurement spec.
    pub fn new(spec: MeasurementSpec) -> Self {
        SketchAggregator { spec, y: None, node_sketches: BTreeMap::new(), op: None }
    }

    /// The shared measurement spec.
    pub fn spec(&self) -> &MeasurementSpec {
        &self.spec
    }

    /// Number of participating nodes.
    pub fn node_count(&self) -> usize {
        self.node_sketches.len()
    }

    /// True when `node` currently contributes a sketch.
    pub fn contains(&self, node: usize) -> bool {
        self.node_sketches.contains_key(&node)
    }

    /// The contributing node ids, ascending.
    pub fn node_ids(&self) -> Vec<usize> {
        self.node_sketches.keys().copied().collect()
    }

    /// The current global measurement, folded now if membership changed
    /// since the last read.
    pub fn global_measurement(&mut self) -> &Vector {
        self.folded()
    }

    /// The cached measurement, refolded first if a membership change
    /// invalidated it.
    fn folded(&mut self) -> &mut Vector {
        let (m, members) = (self.spec.m, &self.node_sketches);
        self.y.get_or_insert_with(|| {
            let members: Vec<(usize, &Vector)> = members.iter().map(|(id, s)| (*id, s)).collect();
            crate::fold::dyadic_fold(m, &members)
        })
    }

    /// Registers a node's initial sketch (a data center joins). Errors on a
    /// wrong sketch length or an id already registered.
    pub fn join(&mut self, node: usize, sketch: Vector) -> Result<(), LinalgError> {
        self.check_len(&sketch)?;
        if self.node_sketches.contains_key(&node) {
            return Err(LinalgError::InvalidParameter {
                name: "node",
                message: "node id already registered".into(),
            });
        }
        self.node_sketches.insert(node, sketch);
        self.y = None;
        Ok(())
    }

    /// Retires a node (a data center leaves). Errors on an unknown id.
    pub fn leave(&mut self, node: usize) -> Result<(), LinalgError> {
        self.node_sketches.remove(&node).ok_or(LinalgError::InvalidParameter {
            name: "node",
            message: "unknown node id".into(),
        })?;
        self.y = None;
        Ok(())
    }

    /// Applies a batch of new records on `node`, given as sparse
    /// `(key index, score delta)` pairs: the node measures only the delta
    /// and ships an `M`-length update — cost `O(M)`, independent of history
    /// (plus the one pending fold, if membership changed since the last
    /// read: the delta lands on the canonical measurement of the members
    /// *before* it, exactly as if that fold had run at the change).
    pub fn update(&mut self, node: usize, delta: &[(usize, f64)]) -> Result<(), LinalgError> {
        let dy = self.spec.measure_sparse(delta)?;
        if !self.node_sketches.contains_key(&node) {
            return Err(LinalgError::InvalidParameter {
                name: "node",
                message: "unknown node id".into(),
            });
        }
        self.folded().add_assign(&dy)?;
        self.node_sketches.get_mut(&node).expect("membership checked above").add_assign(&dy)
    }

    /// Recovers mode and outliers from the current global sketch.
    pub fn recover(&mut self, config: &BompConfig) -> Result<BompResult, LinalgError> {
        self.folded();
        let dense = MeasurementOperator::Dense(self.spec);
        let op = self.op.get_or_insert_with(|| ResidentOp::new(dense));
        op.recover(self.y.as_ref().expect("folded above"), config)
    }

    fn check_len(&self, sketch: &Vector) -> Result<(), LinalgError> {
        if sketch.len() != self.spec.m {
            return Err(LinalgError::DimensionMismatch {
                op: "sketch",
                expected: (self.spec.m, 1),
                actual: (sketch.len(), 1),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MeasurementSpec {
        MeasurementSpec::new(80, 200, 77).unwrap()
    }

    fn dense_with(mode: f64, outliers: &[(usize, f64)]) -> Vec<f64> {
        let mut x = vec![mode; 200];
        for &(i, v) in outliers {
            x[i] = v;
        }
        x
    }

    #[test]
    fn join_update_recover_round_trip() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        // Two nodes, each holding half the mode mass.
        let a = dense_with(900.0, &[(10, 5000.0)]);
        let b = dense_with(900.0, &[(10, 4500.0)]);
        agg.join(0, spec.measure_dense(&a).unwrap()).unwrap();
        agg.join(1, spec.measure_dense(&b).unwrap()).unwrap();
        assert_eq!(agg.node_count(), 2);
        let r = agg.recover(&BompConfig::default()).unwrap();
        assert!((r.mode - 1800.0).abs() < 1e-6);
        assert_eq!(r.top_k(1)[0].index, 10);
        assert!((r.top_k(1)[0].value - 9500.0).abs() < 1e-4);
    }

    #[test]
    fn streaming_updates_shift_the_result() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        let a = dense_with(100.0, &[(5, 4000.0)]);
        agg.join(0, spec.measure_dense(&a).unwrap()).unwrap();
        // New click data arrives: key 150 suddenly spikes on node 0.
        agg.update(0, &[(150, 7000.0)]).unwrap();
        let r = agg.recover(&BompConfig::default()).unwrap();
        let top: Vec<usize> = r.top_k(2).iter().map(|o| o.index).collect();
        assert!(top.contains(&150), "new outlier must appear, got {top:?}");
        assert!((r.mode - 100.0).abs() < 1e-6);
    }

    #[test]
    fn leave_subtracts_contribution_exactly() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        let a = dense_with(500.0, &[(3, 9000.0)]);
        let b = dense_with(500.0, &[(120, -4000.0)]);
        let ya = spec.measure_dense(&a).unwrap();
        agg.join(0, ya.clone()).unwrap();
        agg.join(1, spec.measure_dense(&b).unwrap()).unwrap();
        agg.leave(1).unwrap();
        assert_eq!(agg.node_count(), 1);
        assert!(agg.global_measurement().approx_eq(&ya, 1e-9));
        let r = agg.recover(&BompConfig::default()).unwrap();
        assert_eq!(r.top_k(1)[0].index, 3);
        assert!((r.mode - 500.0).abs() < 1e-6);
    }

    /// Node churn is a server's steady state: a node that leaves and
    /// re-joins with the same sketch must leave the global measurement
    /// bit-for-bit unchanged, no matter how many cycles happen or in what
    /// order the membership set was originally assembled.
    #[test]
    fn leave_then_rejoin_is_loss_free() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        let sketches: Vec<Vector> = (0..4)
            .map(|i| {
                spec.measure_dense(&dense_with(100.0 + i as f64, &[(i * 31, 7e3 * (i + 1) as f64)]))
                    .unwrap()
            })
            .collect();
        for (i, s) in sketches.iter().enumerate() {
            agg.join(i, s.clone()).unwrap();
        }
        let before: Vec<u64> = agg.global_measurement().iter().map(|v| v.to_bits()).collect();

        // An epoch boundary's worth of churn: each node leaves and comes
        // back, twice over, interleaved.
        for _ in 0..2 {
            for (i, s) in sketches.iter().enumerate() {
                agg.leave(i).unwrap();
                assert_eq!(agg.node_count(), 3);
                agg.join(i, s.clone()).unwrap();
            }
        }
        let after: Vec<u64> = agg.global_measurement().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after, "churn drifted the global measurement");
    }

    /// The measurement is canonical in the member set: join order is
    /// irrelevant, so concurrent ingest (arbitrary arrival order over TCP)
    /// agrees bit-for-bit with the sequential reference.
    #[test]
    fn join_order_does_not_change_the_bits() {
        let spec = spec();
        let sketches: Vec<Vector> = (0..5)
            .map(|i| spec.measure_dense(&dense_with(i as f64, &[(i * 17, 900.0)])).unwrap())
            .collect();
        let reference: Vec<u64> = {
            let mut agg = SketchAggregator::new(spec);
            for (i, s) in sketches.iter().enumerate() {
                agg.join(i, s.clone()).unwrap();
            }
            agg.global_measurement().iter().map(|v| v.to_bits()).collect()
        };
        for order in [[4usize, 2, 0, 3, 1], [1, 3, 4, 0, 2]] {
            let mut agg = SketchAggregator::new(spec);
            for &i in &order {
                agg.join(i, sketches[i].clone()).unwrap();
            }
            let got: Vec<u64> = agg.global_measurement().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, reference, "order {order:?}");
        }
    }

    #[test]
    fn membership_introspection() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        agg.join(3, Vector::zeros(80)).unwrap();
        agg.join(1, Vector::zeros(80)).unwrap();
        assert!(agg.contains(3));
        assert!(!agg.contains(0));
        assert_eq!(agg.node_ids(), vec![1, 3]);
    }

    #[test]
    fn join_twice_and_unknown_node_rejected() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        agg.join(0, Vector::zeros(80)).unwrap();
        assert!(agg.join(0, Vector::zeros(80)).is_err());
        assert!(agg.leave(9).is_err());
        assert!(agg.update(9, &[(0, 1.0)]).is_err());
        assert!(agg.join(1, Vector::zeros(81)).is_err());
    }

    #[test]
    fn update_matches_resketching_from_scratch() {
        let spec = spec();
        let mut agg = SketchAggregator::new(spec);
        let base = dense_with(0.0, &[(1, 10.0)]);
        agg.join(0, spec.measure_dense(&base).unwrap()).unwrap();
        agg.update(0, &[(2, 20.0), (1, 5.0)]).unwrap();
        // Reference: sketch of the fully updated slice.
        let mut updated = base;
        updated[2] += 20.0;
        updated[1] += 5.0;
        let reference = spec.measure_dense(&updated).unwrap();
        assert!(agg.global_measurement().approx_eq(&reference, 1e-9));
    }
}

/// The lazy aggregator against an eager reference model: every operation
/// sequence must yield the same measurement bits, the same recoveries and
/// the same errors as refolding immediately on each membership change.
#[cfg(test)]
mod lazy_fold_tests {
    use super::*;
    use cso_core::bomp_with_matrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const M: usize = 16;
    const N: usize = 48;

    fn spec() -> MeasurementSpec {
        MeasurementSpec::new(M, N, 91).unwrap()
    }

    /// The pre-lazy aggregator: the dyadic fold runs inside every join and
    /// leave, so `y` is always materialized.
    struct Eager {
        spec: MeasurementSpec,
        y: Vector,
        sketches: BTreeMap<usize, Vector>,
    }

    impl Eager {
        fn new(spec: MeasurementSpec) -> Self {
            Eager { spec, y: Vector::zeros(spec.m), sketches: BTreeMap::new() }
        }

        fn refold(&mut self) {
            let members: Vec<(usize, &Vector)> =
                self.sketches.iter().map(|(id, s)| (*id, s)).collect();
            self.y = crate::fold::dyadic_fold(self.spec.m, &members);
        }

        fn join(&mut self, node: usize, sketch: Vector) -> Result<(), LinalgError> {
            if sketch.len() != self.spec.m {
                return Err(LinalgError::DimensionMismatch {
                    op: "sketch",
                    expected: (self.spec.m, 1),
                    actual: (sketch.len(), 1),
                });
            }
            if self.sketches.contains_key(&node) {
                return Err(LinalgError::InvalidParameter {
                    name: "node",
                    message: "node id already registered".into(),
                });
            }
            self.sketches.insert(node, sketch);
            self.refold();
            Ok(())
        }

        fn leave(&mut self, node: usize) -> Result<(), LinalgError> {
            self.sketches.remove(&node).ok_or(LinalgError::InvalidParameter {
                name: "node",
                message: "unknown node id".into(),
            })?;
            self.refold();
            Ok(())
        }

        fn update(&mut self, node: usize, delta: &[(usize, f64)]) -> Result<(), LinalgError> {
            let dy = self.spec.measure_sparse(delta)?;
            let sketch = self.sketches.get_mut(&node).ok_or(LinalgError::InvalidParameter {
                name: "node",
                message: "unknown node id".into(),
            })?;
            sketch.add_assign(&dy)?;
            self.y.add_assign(&dy)
        }

        fn recover(&self, config: &BompConfig) -> Result<BompResult, LinalgError> {
            bomp_with_matrix(&self.spec.materialize(), &self.y, config)
        }
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A sketch drawn from `seed`; about one in seven has the wrong length.
    fn sketch(seed: u64) -> Vector {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = if rng.gen_range(0..7) == 0 { M + 1 } else { M };
        Vector::from_vec((0..len).map(|_| rng.gen_range(-1e6..1e6)).collect())
    }

    /// A one- to three-key delta drawn from `seed`; key indices reach two
    /// past `N`, so some deltas are rejected.
    fn delta(seed: u64) -> Vec<(usize, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1 + seed % 3).map(|_| (rng.gen_range(0..N + 2), rng.gen_range(-5e3..5e3))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random join/leave/update/read sequences over a small id space
        /// (so duplicate joins and unknown ids occur) agree with the eager
        /// model bit for bit, error for error.
        #[test]
        fn lazy_fold_matches_eager_reference_bit_for_bit(
            ops in prop::collection::vec((0u8..5, 0usize..10, 0u64..u64::MAX), 0..48),
        ) {
            let config = BompConfig::default();
            let mut lazy = SketchAggregator::new(spec());
            let mut eager = Eager::new(spec());
            for (op, node, arg) in ops {
                match op {
                    0 => prop_assert_eq!(
                        lazy.join(node, sketch(arg)),
                        eager.join(node, sketch(arg))
                    ),
                    1 => prop_assert_eq!(lazy.leave(node), eager.leave(node)),
                    2 => prop_assert_eq!(
                        lazy.update(node, &delta(arg)),
                        eager.update(node, &delta(arg))
                    ),
                    3 => prop_assert_eq!(bits(lazy.global_measurement()), bits(&eager.y)),
                    _ => prop_assert_eq!(
                        format!("{:?}", lazy.recover(&config)),
                        format!("{:?}", eager.recover(&config))
                    ),
                }
                prop_assert_eq!(lazy.node_ids(), eager.sketches.keys().copied().collect::<Vec<_>>());
            }
            prop_assert_eq!(bits(lazy.global_measurement()), bits(&eager.y));
        }
    }
}
