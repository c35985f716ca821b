//! The compressive-sensing protocol (the paper's contribution, Figure 2).
//!
//! Single round: every node measures its slice with the shared matrix and
//! ships the `M`-length sketch; the aggregator sums the sketches
//! (`y = Σ Φ0·x_l = Φ0·x`, equation (1)) and recovers mode and outliers
//! with BOMP. Communication: `L·M` values, one round — logarithmic in `N`
//! when `M = O(s^a log N)` per Theorem 1.

use crate::cluster::Cluster;
use crate::cost::CostMeter;
use crate::fault::FaultPlan;
use crate::protocol::{OutlierProtocol, ProtocolRun};
use crate::quantize::SketchEncoding;
use crate::retry::RetryPolicy;
use cso_core::{BompConfig, KeyValue, ResidentOp, SketchBackend};
use cso_exec::ExecConfig;
use cso_linalg::{ColMatrix, LinalgError, Vector};
use cso_obs::{Recorder, Value};

/// The CS-based outlier protocol.
#[derive(Debug, Clone)]
pub struct CsProtocol {
    /// Sketch length `M` every node transmits.
    pub m: usize,
    /// Shared seed all parties derive `Φ0` from.
    pub seed: u64,
    /// Recovery configuration. When `omp.max_iterations` is `usize::MAX`
    /// (the default), the protocol substitutes the paper's `R = f(k)`
    /// heuristic at run time.
    pub recovery: BompConfig,
    /// Execution configuration, threaded into both the node-side sketch
    /// builds (independent per node, run on the work-stealing pool when
    /// `exec.workers > 1`) and the aggregator's recovery scans
    /// (`recovery.omp.exec`; engaged only for dictionaries above
    /// `omp.par_min_work` elements). Results are bit-identical to the
    /// sequential reference for any worker count: each node's sketch
    /// `y_l = Φ0·x_l` is computed in isolation, sketches sum in node order
    /// on the calling thread, and recovery scans use fixed column blocks
    /// with an ordered reduction (DESIGN.md §9).
    pub exec: ExecConfig,
    /// Measurement-operator backend. [`SketchBackend::dense`] (the
    /// default) runs the seed repo's exact materialized path bit-for-bit;
    /// the matrix-free backends (`srht`, `seeded_sparse`) never form Φ0
    /// and drop the per-scan cost from `O(M·N)` to `O(Np·log Np)` /
    /// `O(N·s)` (DESIGN.md §13).
    pub backend: SketchBackend,
    /// Where runs record their spans, events and `comm.*` metrics;
    /// threaded into the recovery as `recovery.omp.rec`, beside `exec`.
    /// The default [`Recorder::disabled`] records nothing.
    pub rec: Recorder,
}

impl CsProtocol {
    /// Protocol with sketch size `m`, seed, and default recovery settings.
    /// Sketch builds use [`ExecConfig::auto`] (all available cores).
    pub fn new(m: usize, seed: u64) -> Self {
        CsProtocol {
            m,
            seed,
            recovery: BompConfig::default(),
            exec: ExecConfig::default(),
            backend: SketchBackend::dense(),
            rec: Recorder::disabled(),
        }
    }

    /// Overrides the recovery configuration.
    pub fn with_recovery(mut self, recovery: BompConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Overrides the execution configuration
    /// ([`ExecConfig::sequential`] pins the single-threaded reference path).
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Records every run into `rec` (see [`CsProtocol::rec`]).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Overrides the measurement-operator backend.
    pub fn with_backend(mut self, backend: SketchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The operator an `n`-key run measures and recovers with, kept for
    /// the whole run: dense materializes Φ0 once (all parties regenerate
    /// the same matrix from the seed — bit-identical to per-node
    /// regeneration, see tests); the matrix-free backends validate and
    /// build the seeded operator.
    pub(crate) fn engine(&self, n: usize) -> Result<ResidentOp, LinalgError> {
        Ok(ResidentOp::new(self.backend.build(self.m, n, self.seed)?))
    }

    /// Builds all node sketches (`y_l = Φ0·x_l`) on the configured
    /// executor, returned in node order, recording `exec.*` stats into
    /// `rec` when the build actually ran multi-worker.
    fn build_sketches(
        &self,
        engine: &ResidentOp,
        cluster: &Cluster,
        rec: &Recorder,
    ) -> Result<Vec<Vector>, LinalgError> {
        let nodes: Vec<usize> = (0..cluster.l()).collect();
        let (result, stats) =
            cso_exec::try_par_map(&self.exec, &nodes, |_, &l| engine.sketch(cluster.slice(l)));
        stats.record(rec);
        result
    }

    /// The effective iteration budget for a given `k`.
    pub(crate) fn budget_for(&self, k: usize) -> usize {
        if self.recovery.omp.max_iterations == usize::MAX {
            BompConfig::for_k_outliers(k).omp.max_iterations
        } else {
            self.recovery.omp.max_iterations
        }
    }

    /// The recovery configuration a run with outlier budget `k` actually
    /// uses: the `R = f(k)` iteration heuristic resolved and capped at `M`,
    /// and the protocol's [`ExecConfig`] and [`Recorder`] threaded into the
    /// OMP scans. Out-of-process aggregators (`cso-serve`) recover with
    /// exactly this configuration to stay bit-identical to the in-process
    /// paths.
    pub fn effective_recovery(&self, k: usize) -> BompConfig {
        let mut recovery = self.recovery.clone();
        recovery.omp.max_iterations = self.budget_for(k).min(self.m);
        recovery.omp.exec = self.exec;
        recovery.omp.rec = self.rec.clone();
        recovery
    }

    /// Builds every node's sketch `y_l = Φ0·x_l` on the configured
    /// executor, in node order — the node-side half of the protocol,
    /// exposed so real transports (`cso-serve`'s TCP clients) can ship the
    /// same measurements the simulated paths use.
    pub fn node_sketches(&self, cluster: &Cluster) -> Result<Vec<Vector>, LinalgError> {
        let engine = self.engine(cluster.n())?;
        self.build_sketches(&engine, cluster, &Recorder::disabled())
    }

    /// Node-side compression on a materialized matrix: `y_l = Φ0 · x_l`,
    /// the product [`ResidentOp::sketch`] computes on a dense backend.
    /// Kept public as an oracle for that path.
    pub fn sketch_slice(phi0: &ColMatrix, slice: &[f64]) -> Result<Vector, LinalgError> {
        phi0.matvec(&Vector::from_vec(slice.to_vec()))
    }

    /// Runs the protocol over the real wire format: every node's sketch is
    /// quantized with `encoding`, framed as a [`crate::wire::Message`],
    /// decoded on the aggregator, and the cost is the **actual encoded byte
    /// count** (headers included) rather than the abstract tuple
    /// accounting.
    ///
    /// This is the fault-free degraded run: [`CsProtocol::run_degraded`]
    /// over [`FaultPlan::none`] with [`RetryPolicy::no_retry`], so every
    /// frame crosses once, `rounds` is 1 and `tuples` is `L·M`. With
    /// [`crate::quantize::SketchEncoding::F64`] the recovered result is
    /// identical to [`OutlierProtocol::run`]; narrower encodings trade
    /// bounded recovery noise for a 2–4× smaller payload (the paper's
    /// footnote 2).
    pub fn run_over_wire(
        &self,
        cluster: &Cluster,
        k: usize,
        encoding: SketchEncoding,
    ) -> Result<ProtocolRun, LinalgError> {
        let plan = FaultPlan::none();
        Ok(self.run_degraded(cluster, k, encoding, &plan, &RetryPolicy::no_retry())?.run)
    }
}

impl OutlierProtocol for CsProtocol {
    fn name(&self) -> &'static str {
        "cs-bomp"
    }

    /// Runs the protocol priced in abstract tuples, recording into
    /// [`CsProtocol::rec`].
    ///
    /// The trace is one `protocol.cs` span containing `sketch.build` (all
    /// node-side measurements), `transport` (the single sketch round, one
    /// virtual tick), and `recovery` (which BOMP fills with per-iteration
    /// events — see [`cso_core::bomp_with_matrix`]). The finished
    /// [`CostMeter`] is published into the `comm.*` counters, so the
    /// recorder's metrics agree with [`ProtocolRun::cost`] exactly.
    fn run(&self, cluster: &Cluster, k: usize) -> Result<ProtocolRun, LinalgError> {
        let rec = &self.rec;
        let n = cluster.n();
        // All parties regenerate the same operator from the seed; the
        // simulation shares an address space, so it is built once here
        // (bit-identical to per-node regeneration — see tests).
        let engine = self.engine(n)?;

        let _proto_span = rec.span_with(
            "protocol.cs",
            &[
                ("nodes", Value::U64(cluster.l() as u64)),
                ("n", Value::U64(n as u64)),
                ("m", Value::U64(self.m as u64)),
                ("k", Value::U64(k as u64)),
                ("backend", Value::Str(self.backend.label().into())),
            ],
        );

        let sketches: Vec<Vector> = {
            let _s = rec.span("sketch.build");
            self.build_sketches(&engine, cluster, rec)?
        };

        let mut meter = CostMeter::new(cluster.l());
        let y;
        {
            let _t = rec.span_with("transport", &[("round", Value::U64(1))]);
            meter.begin_round();
            rec.advance_ticks(1);
            for l in 0..sketches.len() {
                meter.record_values(l, self.m as u64);
            }
            // Canonical dyadic fold over node ids — the one summation
            // order every aggregation path (in-process, serve, relay
            // tier) shares, so they all agree bit-for-bit.
            let members: Vec<(usize, &Vector)> = sketches.iter().enumerate().collect();
            y = crate::fold::dyadic_fold(self.m, &members);
        }

        let recovery = self.effective_recovery(k);
        let result = {
            let _r = rec.span("recovery");
            engine.recover(&y, &recovery)?
        };

        meter.publish(rec);
        let estimate: Vec<KeyValue> =
            result.top_k(k).iter().map(|o| KeyValue { index: o.index, value: o.value }).collect();
        Ok(ProtocolRun { protocol: self.name(), estimate, mode: result.mode, cost: meter.finish() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_core::MeasurementSpec;
    use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};

    fn majority_cluster(seed: u64) -> (Cluster, MajorityData) {
        let data = MajorityData::generate(
            &MajorityConfig { n: 400, s: 8, ..MajorityConfig::default() },
            seed,
        )
        .unwrap();
        let slices = split(
            &data.values,
            4,
            SliceStrategy::Camouflaged { offset: 2000.0, fraction: 0.2 },
            seed + 1,
        )
        .unwrap();
        (Cluster::new(slices).unwrap(), data)
    }

    #[test]
    fn finds_global_outliers_despite_camouflage() {
        let (cluster, data) = majority_cluster(42);
        let proto = CsProtocol::new(120, 7);
        let run = proto.run(&cluster, 8).unwrap();
        assert!((run.mode - 5000.0).abs() < 1.0, "mode = {}", run.mode);
        let truth = data.true_k_outliers(8);
        let (ek, ev) = cso_core::outlier_errors(&truth, &run.estimate).unwrap();
        assert_eq!(ek, 0.0, "estimate = {:?}", run.estimate);
        assert!(ev < 1e-6, "ev = {ev}");
    }

    #[test]
    fn matrix_free_backends_find_the_outliers() {
        let (cluster, data) = majority_cluster(42);
        let truth = data.true_k_outliers(8);
        for backend in [SketchBackend::srht(), SketchBackend::seeded_sparse(12)] {
            let proto = CsProtocol::new(120, 7).with_backend(backend);
            let run = proto.run(&cluster, 8).unwrap();
            assert!((run.mode - 5000.0).abs() < 1.0, "{}: mode = {}", backend.label(), run.mode);
            let (ek, ev) = cso_core::outlier_errors(&truth, &run.estimate).unwrap();
            assert_eq!(ek, 0.0, "{}: estimate = {:?}", backend.label(), run.estimate);
            assert!(ev < 1e-6, "{}: ev = {ev}", backend.label());
        }
    }

    #[test]
    fn backend_choice_does_not_change_the_cost() {
        // Every backend ships the same L·M sketch values in one round —
        // the operator only changes the aggregator-side arithmetic.
        let (cluster, _) = majority_cluster(1);
        let mut costs = Vec::new();
        for backend in
            [SketchBackend::dense(), SketchBackend::srht(), SketchBackend::seeded_sparse(8)]
        {
            let proto = CsProtocol::new(50, 3).with_backend(backend);
            costs.push(proto.run(&cluster, 5).unwrap().cost);
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn invalid_backend_parameter_is_rejected_at_run_time() {
        let (cluster, _) = majority_cluster(1);
        let proto = CsProtocol::new(50, 3).with_backend(SketchBackend::seeded_sparse(51));
        assert!(proto.run(&cluster, 5).is_err(), "s > m must fail");
    }

    #[test]
    fn wire_execution_matches_abstract_run_on_every_backend() {
        let (cluster, _) = majority_cluster(77);
        for backend in
            [SketchBackend::dense(), SketchBackend::srht(), SketchBackend::seeded_sparse(12)]
        {
            let proto = CsProtocol::new(110, 5)
                .with_recovery(BompConfig::for_k_outliers(8))
                .with_backend(backend);
            let abstract_run = proto.run(&cluster, 8).unwrap();
            let wire_run =
                proto.run_over_wire(&cluster, 8, crate::quantize::SketchEncoding::F64).unwrap();
            assert_eq!(abstract_run.estimate, wire_run.estimate, "{}", backend.label());
            assert!((abstract_run.mode - wire_run.mode).abs() < 1e-12, "{}", backend.label());
        }
    }

    #[test]
    fn cost_is_l_times_m_values_single_round() {
        let (cluster, _) = majority_cluster(1);
        let proto = CsProtocol::new(50, 3);
        let run = proto.run(&cluster, 5).unwrap();
        assert_eq!(run.cost.tuples, 4 * 50);
        assert_eq!(run.cost.bits, 4 * 50 * 64);
        assert_eq!(run.cost.rounds, 1);
    }

    #[test]
    fn cost_independent_of_key_distribution() {
        // "Our solution is independent of how the keys are distributed over
        // the different nodes" (Section 6.1).
        let data = MajorityData::generate(
            &MajorityConfig { n: 300, s: 5, ..MajorityConfig::default() },
            3,
        )
        .unwrap();
        let proto = CsProtocol::new(64, 9);
        let mut costs = Vec::new();
        for strategy in [
            SliceStrategy::Uniform,
            SliceStrategy::RandomProportions,
            SliceStrategy::Camouflaged { offset: 1000.0, fraction: 0.3 },
        ] {
            let slices = split(&data.values, 5, strategy, 11).unwrap();
            let run = proto.run(&Cluster::new(slices).unwrap(), 5).unwrap();
            costs.push(run.cost);
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn recovery_matches_centralized_bomp() {
        // The distributed pipeline must agree with running BOMP directly on
        // the aggregate (linearity, equation (1)).
        let (cluster, _) = majority_cluster(5);
        let n = cluster.n();
        let spec = MeasurementSpec::new(100, n, 13).unwrap();
        let aggregate = cluster.aggregate();
        let y_central = spec.measure_dense(&aggregate).unwrap();
        let central = cso_core::bomp(&spec, &y_central, &BompConfig::for_k_outliers(8)).unwrap();

        let proto = CsProtocol::new(100, 13).with_recovery(BompConfig::for_k_outliers(8));
        let run = proto.run(&cluster, 8).unwrap();
        assert!((run.mode - central.mode).abs() < 1e-6);
        let central_top: Vec<usize> = central.top_k(8).iter().map(|o| o.index).collect();
        let run_top: Vec<usize> = run.estimate.iter().map(|o| o.index).collect();
        assert_eq!(central_top, run_top);
    }

    #[test]
    fn wire_execution_matches_abstract_run_at_f64() {
        let (cluster, _) = majority_cluster(77);
        let proto = CsProtocol::new(110, 5).with_recovery(BompConfig::for_k_outliers(8));
        let abstract_run = proto.run(&cluster, 8).unwrap();
        let wire_run =
            proto.run_over_wire(&cluster, 8, crate::quantize::SketchEncoding::F64).unwrap();
        assert_eq!(abstract_run.estimate, wire_run.estimate);
        assert!((abstract_run.mode - wire_run.mode).abs() < 1e-12);
        // Real bytes = abstract payload + framing headers.
        assert!(wire_run.cost.bits > abstract_run.cost.bits);
        assert!(wire_run.cost.bits < abstract_run.cost.bits + cluster.l() as u64 * 8 * 32);
    }

    /// The wire run is the fault-free degraded run: one round, every node's
    /// `M` values sent once, and every frame's bytes counted once.
    #[test]
    fn wire_execution_is_one_round_of_one_frame_per_node() {
        let (cluster, _) = majority_cluster(77);
        let proto = CsProtocol::new(110, 5).with_recovery(BompConfig::for_k_outliers(8));
        let encoding = crate::quantize::SketchEncoding::F64;
        let run = proto.run_over_wire(&cluster, 8, encoding).unwrap();
        let frames: u64 = proto
            .node_sketches(&cluster)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(l, sketch)| {
                let payload = crate::quantize::encode(sketch, encoding);
                let msg = crate::wire::Message::Sketch { node: l as u32, seed: 5, payload };
                crate::wire::encode(&msg).len() as u64
            })
            .sum();
        assert_eq!(run.cost.rounds, 1);
        assert_eq!(run.cost.tuples, (cluster.l() * proto.m) as u64);
        assert_eq!(run.cost.bits, frames * 8);
    }

    #[test]
    fn wire_execution_with_quantization_is_cheaper_and_still_accurate() {
        let (cluster, data) = majority_cluster(78);
        let proto = CsProtocol::new(120, 9).with_recovery(BompConfig::for_k_outliers(8));
        let f64_run =
            proto.run_over_wire(&cluster, 8, crate::quantize::SketchEncoding::F64).unwrap();
        let f32_run =
            proto.run_over_wire(&cluster, 8, crate::quantize::SketchEncoding::F32).unwrap();
        assert!(f32_run.cost.bits < f64_run.cost.bits * 6 / 10);
        let truth = data.true_k_outliers(8);
        let ek = cso_core::error_on_key(&truth, &f32_run.estimate).unwrap();
        assert_eq!(ek, 0.0, "32-bit sketches must not lose the outliers");
    }

    #[test]
    fn traced_run_matches_untraced_and_publishes_exact_cost() {
        let (cluster, _) = majority_cluster(42);
        // Pin the sequential reference path so the recorded span sequence
        // below is exact on any host (multi-worker runs add exec.* spans).
        let proto = CsProtocol::new(120, 7)
            .with_recovery(BompConfig::for_k_outliers(8))
            .with_exec(ExecConfig::sequential());
        let plain = proto.run(&cluster, 8).unwrap();
        let rec = Recorder::new();
        let traced = proto.clone().with_recorder(rec.clone()).run(&cluster, 8).unwrap();

        // Tracing must not change the computation.
        assert_eq!(plain.estimate, traced.estimate);
        assert_eq!(plain.cost, traced.cost);
        assert!((plain.mode - traced.mode).abs() < 1e-12);

        // Published comm.* counters equal the CostMeter totals exactly.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("comm.bits"), Some(traced.cost.bits));
        assert_eq!(snap.counter("comm.tuples"), Some(traced.cost.tuples));
        assert_eq!(snap.counter("comm.rounds"), Some(u64::from(traced.cost.rounds)));

        // The trace contains the protocol span structure and per-iteration
        // BOMP events.
        let trace = rec.trace_snapshot();
        let span_names: Vec<&str> = trace
            .iter()
            .filter(|e| e.kind == cso_obs::EntryKind::SpanStart)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            span_names,
            vec![
                "protocol.cs",
                "sketch.build",
                "transport",
                "recovery",
                "recover.bomp",
                "recover.omp"
            ]
        );
        assert!(!rec.events_named("bomp.iter").is_empty());
        assert_eq!(rec.events_named("bomp.done").len(), 1);
    }

    /// Parallel sketch builds are bit-identical to the sequential
    /// reference — estimate value bits, mode bits, and cost all match for
    /// worker counts that exercise real stealing.
    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let (cluster, _) = majority_cluster(23);
        let base = CsProtocol::new(110, 9).with_recovery(BompConfig::for_k_outliers(8));
        let seq = base.clone().with_exec(ExecConfig::sequential()).run(&cluster, 8).unwrap();
        for workers in [1, 2, 8] {
            let par =
                base.clone().with_exec(ExecConfig::with_workers(workers)).run(&cluster, 8).unwrap();
            assert_eq!(par.cost, seq.cost, "workers = {workers}");
            assert_eq!(par.mode.to_bits(), seq.mode.to_bits(), "workers = {workers}");
            assert_eq!(par.estimate.len(), seq.estimate.len());
            for (a, b) in par.estimate.iter().zip(&seq.estimate) {
                assert_eq!(a.index, b.index, "workers = {workers}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "workers = {workers}");
            }
            // The wire path agrees too.
            let wire = base
                .clone()
                .with_exec(ExecConfig::with_workers(workers))
                .run_over_wire(&cluster, 8, crate::quantize::SketchEncoding::F64)
                .unwrap();
            assert_eq!(wire.estimate, seq.estimate, "workers = {workers}");
        }
    }

    /// A traced multi-worker run records `exec.*` inside `sketch.build`
    /// without disturbing the `comm.*` cost metrics.
    #[test]
    fn parallel_traced_run_records_exec_metrics() {
        let (cluster, _) = majority_cluster(31);
        let proto = CsProtocol::new(80, 3)
            .with_recovery(BompConfig::for_k_outliers(6))
            .with_exec(ExecConfig::with_workers(4));
        let rec = Recorder::new();
        let run = proto.with_recorder(rec.clone()).run(&cluster, 6).unwrap();
        let snap = rec.metrics_snapshot();
        // One executor task per node.
        assert_eq!(snap.counter("exec.tasks"), Some(cluster.l() as u64));
        assert_eq!(snap.gauge("exec.workers"), Some(4.0));
        assert_eq!(rec.events_named("exec.task").len(), cluster.l());
        // Cost accounting is untouched by the executor.
        assert_eq!(snap.counter("comm.bits"), Some(run.cost.bits));
        assert_eq!(snap.counter("comm.tuples"), Some(run.cost.tuples));
    }

    #[test]
    fn default_budget_follows_paper_heuristic() {
        let p = CsProtocol::new(100, 1);
        for k in [5, 10, 20] {
            let r = p.budget_for(k);
            assert!(r >= 2 * k && r <= 5 * k);
        }
        let fixed = CsProtocol::new(100, 1).with_recovery(BompConfig::with_max_iterations(7));
        assert_eq!(fixed.budget_for(20), 7);
    }
}
