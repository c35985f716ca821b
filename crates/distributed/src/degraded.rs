//! Degraded-mode aggregation: the CS protocol under node loss.
//!
//! The sketch sum `y = Σ_{l∈S} Φ0·x_l` is a *valid* measurement for any
//! subset `S` of nodes — it measures the partial aggregate `x_S = Σ_{l∈S}
//! x_l` (equation (1) restricted to the survivors). So when retries are
//! exhausted the aggregator does not fail: it runs BOMP on the partial sum
//! and reports exactly which nodes contributed. This is the structural
//! advantage of a *linear* sketch over the keyid-value baselines, whose
//! partial aggregates silently mix complete and incomplete keys.
//!
//! [`CsProtocol::run_degraded`] drives one fault-injected execution:
//! frames flow through a [`LossyChannel`], corrupt frames are rejected by
//! the CRC before any byte is interpreted, retransmissions follow a
//! [`RetryPolicy`] on the virtual clock, and duplicates are ignored by the
//! [`SketchCollector`]'s `(node, seed)` dedup — retransmission is
//! idempotent by construction.

use crate::cluster::Cluster;
use crate::cost::CostMeter;
use crate::cs::CsProtocol;
use crate::fault::{Delivery, FaultPlan, FaultStats, LossyChannel};
use crate::protocol::{OutlierProtocol, ProtocolRun};
use crate::quantize::{self, SketchEncoding};
use crate::retry::RetryPolicy;
use crate::wire;
use cso_core::KeyValue;
use cso_linalg::{LinalgError, Vector};
use cso_obs::Value;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

/// Virtual ticks one transmission attempt takes when the channel does not
/// straggle.
const TRANSIT_TICKS: u64 = 1;

/// Outcome of offering a sketch to the [`SketchCollector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// First sketch from this `(node, seed)` — folded into the sum.
    Accepted,
    /// Already seen — ignored (retransmits and network duplicates are
    /// idempotent).
    Duplicate,
}

/// Accumulates node sketches into the aggregate measurement, deduplicating
/// by `(node, seed)` so duplicated or retransmitted frames never double-
/// count a node's contribution. The aggregate is maintained as the
/// canonical [dyadic fold] over node ids, so a degraded (surviving-subset)
/// measurement is bit-identical to what any other path — flat server,
/// relay tier, in-process reference — computes over the same survivors.
/// The fold is lazy: an accepted offer invalidates the cached sum and the
/// next [`SketchCollector::sum`] refolds it, so collecting `L` sketches
/// and then reading costs `O(L·M)`, not `O(L²·M)`.
///
/// [dyadic fold]: crate::fold::dyadic_fold
#[derive(Debug, Clone)]
pub struct SketchCollector {
    m: usize,
    /// The dyadic fold of `sketches`; empty after an accepted offer until
    /// the next read fills it.
    sum: OnceCell<Vector>,
    sketches: BTreeMap<u32, Vector>,
    seen: BTreeSet<(u32, u64)>,
    duplicates_ignored: u64,
}

impl SketchCollector {
    /// An empty collector for `m`-length sketches.
    pub fn new(m: usize) -> Self {
        SketchCollector {
            m,
            sum: OnceCell::new(),
            sketches: BTreeMap::new(),
            seen: BTreeSet::new(),
            duplicates_ignored: 0,
        }
    }

    /// Folds `sketch` into the sum unless this `(node, seed)` already
    /// contributed. Errors only on a length mismatch.
    pub fn offer(&mut self, node: u32, seed: u64, sketch: &Vector) -> Result<Offer, LinalgError> {
        if sketch.len() != self.m {
            return Err(LinalgError::DimensionMismatch {
                op: "offer",
                expected: (self.m, 1),
                actual: (sketch.len(), 1),
            });
        }
        if !self.seen.insert((node, seed)) {
            self.duplicates_ignored += 1;
            return Ok(Offer::Duplicate);
        }
        match self.sketches.get_mut(&node) {
            // Same node under a second seed: linearity lets its total
            // contribution stay one fold member.
            Some(existing) => existing.add_assign(sketch)?,
            None => {
                self.sketches.insert(node, sketch.clone());
            }
        }
        self.sum.take();
        Ok(Offer::Accepted)
    }

    /// The partial aggregate measurement `Σ_{l∈S} y_l` so far, folded now
    /// if an offer was accepted since the last read.
    pub fn sum(&self) -> &Vector {
        self.sum.get_or_init(|| {
            let members: Vec<(usize, &Vector)> =
                self.sketches.iter().map(|(id, s)| (*id as usize, s)).collect();
            crate::fold::dyadic_fold(self.m, &members)
        })
    }

    /// Node ids that have contributed, ascending, each once — a node
    /// offered under two seeds is one fold member.
    pub fn nodes(&self) -> Vec<u32> {
        self.sketches.keys().copied().collect()
    }

    /// Number of distinct `(node, seed)` contributions; a node offered
    /// under two seeds counts twice (see [`SketchCollector::nodes`]).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// How many offers were ignored as duplicates.
    pub fn duplicates_ignored(&self) -> u64 {
        self.duplicates_ignored
    }
}

/// Result of one fault-injected, possibly-partial protocol execution.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// The recovery over the surviving partial aggregate. `cost` is real
    /// framed bytes including every retransmission attempt.
    pub run: ProtocolRun,
    /// Nodes whose sketch reached the aggregator.
    pub surviving_nodes: Vec<usize>,
    /// Nodes lost to exhausted retries or the deadline.
    pub dropped_nodes: Vec<usize>,
    /// Transmission attempts beyond each node's first.
    pub retransmissions: u64,
    /// Frames the wire checksum rejected (each triggered a retransmit).
    pub corrupt_rejected: u64,
    /// Frames ignored because their `(node, seed)` had already contributed.
    pub duplicates_ignored: u64,
    /// Nodes abandoned because their virtual deadline passed.
    pub timeouts: u64,
    /// Virtual time the slowest node took (nodes transmit in parallel).
    pub elapsed_ticks: u64,
    /// What the channel actually injected.
    pub fault_stats: FaultStats,
}

impl DegradedRun {
    /// Fraction of the cluster that contributed to the aggregate.
    pub fn surviving_fraction(&self) -> f64 {
        let total = self.surviving_nodes.len() + self.dropped_nodes.len();
        if total == 0 {
            0.0
        } else {
            self.surviving_nodes.len() as f64 / total as f64
        }
    }
}

impl CsProtocol {
    /// Runs the protocol over a lossy transport, degrading gracefully to
    /// the surviving subset when retries are exhausted.
    ///
    /// Every attempt's framed bytes are charged to the cost meter — a
    /// dropped or corrupt frame still crossed the wire — so the reported
    /// [`crate::cost::CommunicationCost`] prices fault recovery honestly.
    /// Errors only on invalid configuration or when *no* node survives.
    ///
    /// The run records into [`CsProtocol::rec`]: one `protocol.cs.degraded`
    /// span containing `sketch.build`, `transport` (one `transport.node`
    /// event per node with its attempt count, survival, and virtual
    /// elapsed ticks), and `recovery`. The recorder's tick advances by the
    /// round's elapsed virtual time. Published metrics: the `comm.*`
    /// counters (equal to the returned
    /// [`crate::cost::CommunicationCost`] exactly), the transport counters
    /// `retry.retransmissions` / `transport.corrupt_rejected` /
    /// `transport.duplicates` / `transport.timeouts` / `nodes.survived` /
    /// `nodes.dropped`, the channel's `fault.*` counters, and the
    /// `transport.surviving_fraction` gauge.
    pub fn run_degraded(
        &self,
        cluster: &Cluster,
        k: usize,
        encoding: SketchEncoding,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<DegradedRun, LinalgError> {
        let rec = &self.rec;
        let n = cluster.n();
        let engine = self.engine(n)?;

        let _proto_span = rec.span_with(
            "protocol.cs.degraded",
            &[
                ("nodes", Value::U64(cluster.l() as u64)),
                ("n", Value::U64(n as u64)),
                ("m", Value::U64(self.m as u64)),
                ("k", Value::U64(k as u64)),
            ],
        );

        let mut channel = LossyChannel::new(plan);
        let mut collector = SketchCollector::new(self.m);
        let mut meter = CostMeter::new(cluster.l());
        meter.begin_round();

        let mut surviving_nodes = Vec::new();
        let mut dropped_nodes = Vec::new();
        let mut retransmissions = 0u64;
        let mut corrupt_rejected = 0u64;
        let mut timeouts = 0u64;
        let mut elapsed_ticks = 0u64;
        let mut tuples_sent = 0u64;

        // Node frames are identical across attempts — retransmits are
        // idempotent and the collector dedups by (node, seed). Measurement
        // and framing are independent per node, so they run on the
        // executor; the lossy transport below stays sequential because the
        // channel's fault schedule and the cost meter are order-sensitive.
        let frames_by_node: Vec<Vec<u8>> = {
            let _s = rec.span("sketch.build");
            let nodes: Vec<usize> = (0..cluster.l()).collect();
            let (result, stats) = cso_exec::try_par_map(&self.exec, &nodes, |_, &node| {
                let sketch = engine.sketch(cluster.slice(node))?;
                Ok::<_, LinalgError>(wire::encode(&wire::Message::Sketch {
                    node: node as u32,
                    seed: self.seed,
                    payload: quantize::encode(&sketch, encoding),
                }))
            });
            stats.record(rec);
            result?
        };

        let transport_span = rec.span_with("transport", &[("round", Value::U64(1))]);
        for (node, frame) in frames_by_node.iter().enumerate() {
            let mut node_elapsed = 0u64;
            let mut survived = false;
            let mut attempts_sent = 0u64;
            'attempts: for attempt in 0..policy.max_attempts {
                if attempt > 0 {
                    node_elapsed += policy.backoff_ticks(node, attempt);
                    if policy.timed_out(node_elapsed) {
                        // The backoff alone crossed the deadline — this
                        // retry is never sent.
                        timeouts += 1;
                        break 'attempts;
                    }
                    retransmissions += 1;
                }
                // The frame goes on the wire whatever happens to it next.
                meter.record_wire_bytes(node, frame.len() as u64);
                tuples_sent += self.m as u64;
                attempts_sent += 1;
                node_elapsed += TRANSIT_TICKS;

                match channel.transmit(node, attempt, frame) {
                    Delivery::Dropped => {}
                    Delivery::Delivered { frames, delay_ticks } => {
                        node_elapsed += delay_ticks;
                        if policy.timed_out(node_elapsed) {
                            // Arrived after the aggregator stopped waiting:
                            // the late frame is discarded unread.
                            timeouts += 1;
                            break 'attempts;
                        }
                        for received in &frames {
                            match wire::decode(received) {
                                Ok(wire::Message::Sketch { node: from, seed, payload })
                                    if seed == self.seed =>
                                {
                                    collector.offer(from, seed, &quantize::decode(&payload))?;
                                    survived = true;
                                }
                                // Wrong seed or non-sketch message: a peer
                                // misconfiguration, not a transport fault.
                                Ok(_) => {
                                    return Err(LinalgError::InvalidParameter {
                                        name: "wire",
                                        message: "unexpected message kind or seed".into(),
                                    });
                                }
                                Err(_) => corrupt_rejected += 1,
                            }
                        }
                        if survived {
                            break 'attempts;
                        }
                    }
                }
            }

            if survived {
                surviving_nodes.push(node);
            } else {
                dropped_nodes.push(node);
            }
            rec.event(
                "transport.node",
                &[
                    ("node", Value::U64(node as u64)),
                    ("attempts", Value::U64(attempts_sent)),
                    ("survived", Value::Bool(survived)),
                    ("elapsed_ticks", Value::U64(node_elapsed)),
                ],
            );
            if rec.is_enabled() {
                rec.histogram_record("transport.node_attempts", attempts_sent);
            }
            // Nodes transmit concurrently; the round lasts as long as the
            // slowest one.
            elapsed_ticks = elapsed_ticks.max(node_elapsed);
        }
        // Virtual time: the round lasts as long as its slowest node.
        rec.advance_ticks(elapsed_ticks);
        drop(transport_span);

        if collector.is_empty() {
            return Err(LinalgError::Empty { op: "degraded aggregation" });
        }

        let recovery = self.effective_recovery(k);
        let result = {
            let _r = rec.span("recovery");
            engine.recover(collector.sum(), &recovery)?
        };
        let estimate: Vec<KeyValue> =
            result.top_k(k).iter().map(|o| KeyValue { index: o.index, value: o.value }).collect();

        let mut cost = meter.finish();
        cost.tuples = tuples_sent;

        let fault_stats = channel.stats();
        cost.publish(rec);
        if rec.is_enabled() {
            for node in 0..cluster.l() {
                rec.histogram_record("comm.node_bits", meter.node_bits(node));
            }
            rec.counter_add("retry.retransmissions", retransmissions);
            rec.counter_add("transport.corrupt_rejected", corrupt_rejected);
            rec.counter_add("transport.duplicates", collector.duplicates_ignored());
            rec.counter_add("transport.timeouts", timeouts);
            rec.counter_add("nodes.survived", surviving_nodes.len() as u64);
            rec.counter_add("nodes.dropped", dropped_nodes.len() as u64);
            fault_stats.publish(rec);
            let total = (surviving_nodes.len() + dropped_nodes.len()) as f64;
            rec.gauge_set("transport.surviving_fraction", surviving_nodes.len() as f64 / total);
        }

        Ok(DegradedRun {
            run: ProtocolRun { protocol: self.name(), estimate, mode: result.mode, cost },
            surviving_nodes,
            dropped_nodes,
            retransmissions,
            corrupt_rejected,
            duplicates_ignored: collector.duplicates_ignored(),
            timeouts,
            elapsed_ticks,
            fault_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CHECKSUM_BYTES;
    use cso_core::BompConfig;
    use cso_obs::Recorder;
    use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};

    fn cluster_of(l: usize, seed: u64) -> (Cluster, MajorityData) {
        let data = MajorityData::generate(
            &MajorityConfig { n: 400, s: 8, ..MajorityConfig::default() },
            seed,
        )
        .unwrap();
        let slices = split(&data.values, l, SliceStrategy::RandomProportions, seed + 1).unwrap();
        (Cluster::new(slices).unwrap(), data)
    }

    fn proto() -> CsProtocol {
        CsProtocol::new(120, 7).with_recovery(BompConfig::for_k_outliers(8))
    }

    /// Framed bytes of one F64 sketch of length `m`.
    fn frame_bytes(m: usize) -> u64 {
        (1 + 1 + 4 + 8 + 1 + 4 + 8 * m + CHECKSUM_BYTES) as u64
    }

    #[test]
    fn fault_free_run_matches_wire_execution() {
        let (cluster, _) = cluster_of(4, 42);
        let p = proto();
        let clean = p.run_over_wire(&cluster, 8, SketchEncoding::F64).unwrap();
        let deg = p
            .run_degraded(
                &cluster,
                8,
                SketchEncoding::F64,
                &FaultPlan::none(),
                &RetryPolicy::no_retry(),
            )
            .unwrap();
        assert_eq!(deg.run.estimate, clean.estimate);
        assert!((deg.run.mode - clean.mode).abs() < 1e-12);
        assert_eq!(deg.run.cost.bits, clean.cost.bits);
        assert_eq!(deg.run.cost.tuples, clean.cost.tuples);
        assert_eq!(deg.surviving_nodes, vec![0, 1, 2, 3]);
        assert!(deg.dropped_nodes.is_empty());
        assert_eq!(deg.retransmissions, 0);
        assert_eq!(deg.surviving_fraction(), 1.0);
    }

    #[test]
    fn acceptance_two_of_eight_down_five_percent_corruption() {
        // The issue's acceptance scenario: 8 nodes, nodes 2 and 5 hard-
        // failed, 5% of frames corrupted in flight.
        let (cluster, _) = cluster_of(8, 42);
        let p = proto();
        let plan = FaultPlan::new(1234).fail_nodes(&[2, 5]).corrupt_rate(0.05);
        let policy = RetryPolicy::default();
        let deg = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy).unwrap();

        assert_eq!(deg.dropped_nodes, vec![2, 5]);
        assert_eq!(deg.surviving_nodes, vec![0, 1, 3, 4, 6, 7]);
        assert!((deg.surviving_fraction() - 0.75).abs() < 1e-12);

        // Recovery must equal the clean protocol on the surviving subset —
        // degraded mode is exact on the partial aggregate, and no corrupt
        // frame leaked garbage into the sum. The reindexed partial cluster
        // folds the survivors at ids 0..6 while the degraded path folds
        // them at their original ids {0,1,3,4,6,7}; those are two
        // different dyadic parenthesizations, so the comparison here is
        // index equality plus a last-ulp-scale tolerance. (Bit-identity at
        // *matching* ids is pinned by the wire-execution and relay tests.)
        let surviving: Vec<Vec<f64>> =
            deg.surviving_nodes.iter().map(|&l| cluster.slice(l).to_vec()).collect();
        let partial = Cluster::new(surviving).unwrap();
        let clean = p.run(&partial, 8).unwrap();
        let indices = |r: &ProtocolRun| r.estimate.iter().map(|kv| kv.index).collect::<Vec<_>>();
        assert_eq!(indices(&deg.run), indices(&clean));
        for (d, c) in deg.run.estimate.iter().zip(&clean.estimate) {
            let tol = 1e-9 * c.value.abs().max(1.0);
            assert!(
                (d.value - c.value).abs() <= tol,
                "index {}: {} vs {}",
                d.index,
                d.value,
                c.value
            );
        }
        assert!((deg.run.mode - clean.mode).abs() < 1e-9);

        // Every channel-injected corruption was caught by the checksum:
        // zero garbage decodes, each one retransmitted.
        assert_eq!(deg.corrupt_rejected, deg.fault_stats.corrupted);

        // Retransmissions happened (two dead nodes alone retry 3× each)
        // and every attempt's bytes are in the communication cost:
        // attempts sent = first tries + retransmissions, exactly.
        assert!(deg.retransmissions >= 6, "retransmissions = {}", deg.retransmissions);
        let attempts = cluster.l() as u64 + deg.retransmissions;
        assert_eq!(deg.fault_stats.attempts, attempts);
        assert_eq!(deg.run.cost.bits, attempts * frame_bytes(p.m) * 8);
        assert_eq!(deg.run.cost.tuples, attempts * p.m as u64);
    }

    #[test]
    fn determinism_same_plan_same_run() {
        let (cluster, _) = cluster_of(6, 9);
        let p = proto();
        let plan =
            FaultPlan::new(77).drop_rate(0.2).corrupt_rate(0.1).duplicate_rate(0.2).delay(0.2, 3);
        let policy = RetryPolicy::default();
        let a = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy).unwrap();
        let b = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy).unwrap();
        assert_eq!(a.run.estimate, b.run.estimate);
        assert_eq!(a.run.cost, b.run.cost);
        assert_eq!(a.surviving_nodes, b.surviving_nodes);
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.elapsed_ticks, b.elapsed_ticks);
        assert_eq!(a.fault_stats, b.fault_stats);
    }

    /// Degraded runs are bit-identical across worker counts: the parallel
    /// section only builds per-node frames, and the fault-injected
    /// transport replays the same schedule on the calling thread.
    #[test]
    fn parallel_degraded_run_is_bit_identical_to_sequential() {
        use cso_exec::ExecConfig;
        let (cluster, _) = cluster_of(8, 42);
        let plan = FaultPlan::new(1234).fail_nodes(&[2, 5]).corrupt_rate(0.05);
        let policy = RetryPolicy::default();
        let seq = proto()
            .with_exec(ExecConfig::sequential())
            .run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy)
            .unwrap();
        for workers in [2, 8] {
            let par = proto()
                .with_exec(ExecConfig::with_workers(workers))
                .run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy)
                .unwrap();
            assert_eq!(par.run.estimate, seq.run.estimate, "workers = {workers}");
            assert_eq!(par.run.mode.to_bits(), seq.run.mode.to_bits());
            assert_eq!(par.run.cost, seq.run.cost);
            assert_eq!(par.surviving_nodes, seq.surviving_nodes);
            assert_eq!(par.fault_stats, seq.fault_stats);
            assert_eq!(par.elapsed_ticks, seq.elapsed_ticks);
        }
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let (cluster, _) = cluster_of(5, 3);
        let p = proto();
        let plan = FaultPlan::new(4).duplicate_rate(1.0);
        let deg = p
            .run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &RetryPolicy::no_retry())
            .unwrap();
        assert_eq!(deg.duplicates_ignored, 5, "every node's frame arrived twice");
        // The estimate equals the clean run: duplicate sketches were not
        // summed twice.
        let clean = p.run(&cluster, 8).unwrap();
        assert_eq!(deg.run.estimate, clean.estimate);
        assert!((deg.run.mode - clean.mode).abs() < 1e-9);
    }

    #[test]
    fn stragglers_past_deadline_are_dropped() {
        let (cluster, _) = cluster_of(4, 6);
        let p = proto();
        // Every delivery straggles ≥ 1 extra tick; the deadline is 1 tick,
        // so transit (1) + any straggle always arrives late.
        let plan = FaultPlan::new(8).delay(1.0, 50);
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_ticks: 1,
            max_backoff_ticks: 4,
            jitter_seed: 1,
            timeout_ticks: 1,
        };
        let result = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy);
        assert!(matches!(result, Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn heavy_loss_recovers_when_retries_suffice() {
        let (cluster, _) = cluster_of(6, 20);
        let p = proto();
        // 40% loss, but 6 attempts: survival probability per node > 99.5%.
        let plan = FaultPlan::new(31).drop_rate(0.4);
        let policy = RetryPolicy::default().with_max_attempts(6).with_timeout_ticks(10_000);
        let deg = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy).unwrap();
        assert_eq!(deg.dropped_nodes, Vec::<usize>::new());
        assert!(deg.retransmissions > 0, "40% loss must force retransmits");
        let clean = p.run(&cluster, 8).unwrap();
        assert_eq!(deg.run.estimate, clean.estimate);
    }

    #[test]
    fn traced_degraded_counters_match_run_fields_exactly() {
        let (cluster, _) = cluster_of(8, 42);
        let p = proto();
        let plan = FaultPlan::new(1234).fail_nodes(&[2, 5]).corrupt_rate(0.05);
        let policy = RetryPolicy::default();
        let rec = Recorder::new();
        let deg = p
            .clone()
            .with_recorder(rec.clone())
            .run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy)
            .unwrap();

        // Tracing must not perturb the deterministic execution.
        let plain = p.run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &policy).unwrap();
        assert_eq!(deg.run.estimate, plain.run.estimate);
        assert_eq!(deg.run.cost, plain.run.cost);
        assert_eq!(deg.fault_stats, plain.fault_stats);

        // Every published counter equals the corresponding DegradedRun
        // field exactly.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("comm.bits"), Some(deg.run.cost.bits));
        assert_eq!(snap.counter("comm.tuples"), Some(deg.run.cost.tuples));
        assert_eq!(snap.counter("comm.rounds"), Some(1));
        assert_eq!(snap.counter("retry.retransmissions"), Some(deg.retransmissions));
        assert_eq!(snap.counter("transport.corrupt_rejected"), Some(deg.corrupt_rejected));
        assert_eq!(snap.counter("transport.duplicates"), Some(deg.duplicates_ignored));
        assert_eq!(snap.counter("transport.timeouts"), Some(deg.timeouts));
        assert_eq!(snap.counter("nodes.survived"), Some(deg.surviving_nodes.len() as u64));
        assert_eq!(snap.counter("nodes.dropped"), Some(deg.dropped_nodes.len() as u64));
        assert_eq!(snap.counter("fault.attempts"), Some(deg.fault_stats.attempts));
        assert_eq!(snap.counter("fault.dropped"), Some(deg.fault_stats.dropped));
        assert_eq!(snap.counter("fault.corrupted"), Some(deg.fault_stats.corrupted));
        assert_eq!(snap.gauge("transport.surviving_fraction"), Some(deg.surviving_fraction()));

        // The virtual clock advanced by the round's elapsed time, and one
        // transport.node event was recorded per node.
        assert_eq!(rec.tick(), deg.elapsed_ticks);
        assert_eq!(rec.events_named("transport.node").len(), cluster.l());
    }

    #[test]
    fn all_nodes_down_is_an_error() {
        let (cluster, _) = cluster_of(3, 2);
        let plan = FaultPlan::new(1).fail_nodes(&[0, 1, 2]);
        let result =
            proto().run_degraded(&cluster, 8, SketchEncoding::F64, &plan, &RetryPolicy::default());
        assert!(matches!(result, Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn collector_rejects_wrong_length_and_dedups() {
        let mut c = SketchCollector::new(3);
        let y = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(c.offer(0, 9, &y).unwrap(), Offer::Accepted);
        assert_eq!(c.offer(0, 9, &y).unwrap(), Offer::Duplicate);
        assert_eq!(c.offer(1, 9, &y).unwrap(), Offer::Accepted);
        assert_eq!(c.len(), 2);
        assert_eq!(c.nodes(), vec![0, 1]);
        assert_eq!(c.duplicates_ignored(), 1);
        assert_eq!(c.sum().as_slice(), &[2.0, 4.0, 6.0]);
        let bad = Vector::from_vec(vec![1.0]);
        assert!(c.offer(2, 9, &bad).is_err());
    }

    /// A node offered under two seeds is listed once by `nodes` (the
    /// fold's members) and counted twice by `len` (its contributions).
    #[test]
    fn collector_lists_a_two_seed_node_once() {
        let mut c = SketchCollector::new(2);
        let y = Vector::from_vec(vec![1.0, 2.0]);
        assert_eq!(c.offer(4, 7, &y).unwrap(), Offer::Accepted);
        assert_eq!(c.offer(4, 8, &y).unwrap(), Offer::Accepted);
        assert_eq!(c.nodes(), vec![4]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.sum().as_slice(), &[2.0, 4.0]);
    }

    /// The lazily folded sum is, after every offer, bit-identical to a
    /// fresh dyadic fold over the accepted members. The random sequences
    /// replay earlier frames (duplicates) and let nodes offer a second
    /// seed, whose sketch joins that node's one member.
    #[test]
    fn collector_sum_matches_fresh_fold_after_every_offer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = 6;
        let (mut duplicates, mut second_seeds) = (0, 0);
        for run in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(run);
            let mut collector = SketchCollector::new(m);
            let mut offered: Vec<(u32, u64, Vector)> = Vec::new();
            let mut seen = BTreeSet::new();
            let mut members: BTreeMap<u32, Vector> = BTreeMap::new();
            for step in 0..48 {
                let (node, seed, sketch) = if step % 4 == 3 {
                    offered[rng.gen_range(0..offered.len())].clone()
                } else {
                    let node = rng.gen_range(0..20u32);
                    let seed = if rng.gen_bool(0.3) { 8 } else { 7 };
                    // Mixed magnitudes, so any other summation order shows
                    // in the low bits.
                    let sketch: Vec<f64> = (0..m)
                        .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..7)))
                        .collect();
                    (node, seed, Vector::from_vec(sketch))
                };
                let offer = collector.offer(node, seed, &sketch).unwrap();
                if seen.insert((node, seed)) {
                    assert_eq!(offer, Offer::Accepted);
                    match members.get_mut(&node) {
                        Some(total) => {
                            total.add_assign(&sketch).unwrap();
                            second_seeds += 1;
                        }
                        None => {
                            members.insert(node, sketch.clone());
                        }
                    }
                } else {
                    assert_eq!(offer, Offer::Duplicate);
                    duplicates += 1;
                }
                offered.push((node, seed, sketch));
                let fresh: Vec<(usize, &Vector)> =
                    members.iter().map(|(id, s)| (*id as usize, s)).collect();
                let want = crate::fold::dyadic_fold(m, &fresh);
                let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(collector.sum()), bits(&want), "run {run}, step {step}");
            }
        }
        assert!(duplicates > 0 && second_seeds > 0, "{duplicates} dups, {second_seeds} 2nd seeds");
    }
}
