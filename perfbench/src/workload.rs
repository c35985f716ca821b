//! The three workloads, their epoch inputs, and the in-process oracle
//! every served report is checked against.
//!
//! Inputs are made before anything is timed: a pool of distinct epochs,
//! each with its leaf sketches (data-center-side work the served system
//! never does), its ground-truth outliers, and the report the oracle
//! expects. Timed epochs cycle through the pool, so the inputs a run sees
//! depend only on the workload seed.

use crate::trace::Clock;
use cso_core::{
    bomp_with_matrix, bomp_with_op, BompResult, MeasurementOp, MeasurementOperator,
    MeasurementSpec, SketchBackend,
};
use cso_distributed::{dyadic_fold, CsProtocol, TopologySpec};
use cso_linalg::{ColMatrix, Vector};
use cso_workloads::{ClickLogConfig, ClickLogData};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's core-search click-log query, flat into one root.
    PaperClicklog,
    /// 1024 small seeded-sparse sketches flat into one root.
    FaninFlat,
    /// SRHT sketches at N = 2^20 through a tier of four relays.
    SrhtTree,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperClicklog, Workload::FaninFlat, Workload::SrhtTree];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClicklog => "paper_clicklog",
            Workload::FaninFlat => "fanin_flat",
            Workload::SrhtTree => "srht_tree",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload's epochs are shaped.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Key-space size `N`.
    pub n: usize,
    /// Sketch length `M`.
    pub m: usize,
    /// Leaves (data centers) per epoch.
    pub leaves: usize,
    /// Outlier budget of every recover request.
    pub k: usize,
    /// Measurement operator.
    pub backend: SketchBackend,
    /// Leaves per relay, or `None` for leaves sending straight to the root.
    pub fan_in: Option<usize>,
    /// Outliers planted per epoch (synthetic workloads).
    pub planted: usize,
    /// Distinct epoch inputs the timed epochs cycle through.
    pub pool: usize,
    /// Warm-up epochs per set-up.
    pub warmup_epochs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Percentile `seal_to_report_ms_tail` reports, chosen to leave well
    /// over ten epochs beyond it in a full-length run.
    pub tail: f64,
    /// Whether set-up restarts the root on its warm-up journal.
    pub restart: bool,
    /// Click-log generator for the paper workload.
    pub clicklog: Option<ClickLogConfig>,
}

impl Spec {
    /// The full-size workload the benchmark measures.
    pub fn full(workload: Workload) -> Spec {
        match workload {
            Workload::PaperClicklog => {
                let cfg = ClickLogConfig::core_search();
                Spec {
                    workload,
                    n: cfg.keys,
                    m: 500,
                    leaves: cfg.data_centers,
                    k: 20,
                    backend: SketchBackend::dense(),
                    fan_in: None,
                    planted: cfg.outliers,
                    pool: 16,
                    warmup_epochs: 2,
                    setups: 5,
                    tail: 75.0,
                    restart: false,
                    clicklog: Some(cfg),
                }
            }
            Workload::FaninFlat => Spec {
                workload,
                n: 1 << 14,
                m: 80,
                leaves: 1024,
                k: 3,
                backend: SketchBackend::seeded_sparse(8),
                fan_in: None,
                planted: 3,
                pool: 16,
                warmup_epochs: 3,
                setups: 5,
                tail: 90.0,
                restart: true,
                clicklog: None,
            },
            Workload::SrhtTree => Spec {
                workload,
                n: 1 << 20,
                m: 1024,
                leaves: 64,
                k: 8,
                backend: SketchBackend::srht(),
                fan_in: Some(16),
                planted: 12,
                pool: 8,
                warmup_epochs: 2,
                setups: 5,
                tail: 75.0,
                restart: false,
                clicklog: None,
            },
        }
    }

    /// A toy-size variant with the same shape, for the self-tests.
    pub fn toy(workload: Workload) -> Spec {
        let mut spec = Spec::full(workload);
        match workload {
            Workload::PaperClicklog => {
                let cfg = ClickLogConfig::core_search().scaled_down(10);
                (spec.n, spec.m, spec.k, spec.planted) = (cfg.keys, 160, 5, cfg.outliers);
                spec.clicklog = Some(cfg);
            }
            Workload::FaninFlat => (spec.n, spec.m, spec.leaves) = (1 << 10, 32, 64),
            Workload::SrhtTree => {
                (spec.n, spec.m, spec.leaves, spec.k, spec.planted) = (1 << 12, 128, 16, 4, 6);
                spec.fan_in = Some(4);
            }
        }
        (spec.pool, spec.warmup_epochs, spec.setups) = (3, 1, 2);
        spec
    }

    /// The relay tree's shape, when the workload has one.
    pub fn topology(&self) -> Option<TopologySpec> {
        self.fan_in.map(|f| {
            TopologySpec::new(self.leaves as u64, f as u64).expect("fan-in divides the leaves")
        })
    }

    /// Nodes the root's sealed epoch aggregates: leaves, or regions.
    pub fn root_nodes(&self) -> u64 {
        self.topology().map_or(self.leaves as u64, |t| t.region_count())
    }
}

/// splitmix64: a small seeded generator, so inputs depend on nothing but
/// the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One data center's slice, kept in whichever form generated it, so the
/// leaf-side operator cost can be timed on a real slice.
#[derive(Debug, Clone)]
pub enum LeafSlice {
    /// A dense slice (the click log).
    Dense(Vec<f64>),
    /// `base` on every key plus sparse `(key, value)` deviations.
    Planted {
        /// Value on every key.
        base: f64,
        /// Deviations from `base`.
        entries: Vec<(usize, f64)>,
    },
}

impl LeafSlice {
    /// The slice as a dense length-`n` vector.
    pub fn dense(&self, n: usize) -> Vec<f64> {
        match self {
            LeafSlice::Dense(v) => v.clone(),
            LeafSlice::Planted { base, entries } => {
                let mut x = vec![*base; n];
                for &(j, v) in entries {
                    x[j] += v;
                }
                x
            }
        }
    }
}

/// What the oracle expects one epoch's served report to be.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Recovered mode.
    pub mode: f64,
    /// Recovered top-k outliers as `(key, value)`.
    pub outliers: Vec<(u32, f64)>,
    /// BOMP iterations the recovery runs.
    pub iterations: usize,
    /// Reported keys found among the true top-k, over k.
    pub recall: f64,
}

impl Expected {
    /// Whether a served report carries exactly the oracle's bits.
    pub fn matches(&self, mode: f64, outliers: &[(u32, f64)]) -> bool {
        mode.to_bits() == self.mode.to_bits()
            && outliers.len() == self.outliers.len()
            && outliers
                .iter()
                .zip(&self.outliers)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

/// One pool entry: leaf sketches plus the oracle's verdict.
#[derive(Debug, Clone)]
pub struct EpochInput {
    /// Leaf sketches, indexed by absolute leaf id.
    pub sketches: Vec<Vector>,
    /// Leaf 0's slice, for timing the leaf-side operator.
    pub leaf0: LeafSlice,
    /// The report the served system must return.
    pub expected: Expected,
    /// When the oracle's `dyadic_fold` ran (ns on the run clock).
    pub fold: (u64, u64),
    /// When the oracle's BOMP ran.
    pub bomp: (u64, u64),
}

/// Every input a run needs, made before anything is timed.
pub struct Inputs {
    /// The workload's shape.
    pub spec: Spec,
    /// Measurement seed shared by every party.
    pub mseed: u64,
    /// The epoch pool.
    pub epochs: Vec<EpochInput>,
}

impl Inputs {
    /// Generates the pool for `spec` from `seed`, timing the oracle's
    /// calls on `clock`.
    pub fn generate(spec: &Spec, seed: u64, clock: Clock) -> Result<Inputs, String> {
        let mseed = Rng::new(seed, 1).next_u64() >> 1;
        let engine = if spec.backend == SketchBackend::dense() {
            let phi0 = MeasurementSpec::new(spec.m, spec.n, mseed).map_err(|e| e.to_string())?;
            Engine::Dense(phi0.materialize())
        } else {
            let op = spec.backend.build(spec.m, spec.n, mseed).map_err(|e| e.to_string())?;
            let ones = op.apply(&vec![1.0; spec.n]).map_err(|e| e.to_string())?;
            Engine::Op(op, ones)
        };
        let epochs = (0..spec.pool)
            .map(|i| {
                let data_seed = Rng::new(seed, 100 + i as u64).next_u64();
                let (slices, truth) = match &spec.clicklog {
                    Some(cfg) => clicklog_epoch(cfg, spec.k, data_seed)?,
                    None => planted_epoch(spec, data_seed),
                };
                let sketches = slices.iter().map(|s| engine.sketch(s)).collect::<Result<_, _>>()?;
                oracle(spec, mseed, &engine, clock, sketches, truth, slices.into_iter().next())
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs { spec: spec.clone(), mseed, epochs })
    }
}

/// How leaf sketches are formed and recoveries run.
enum Engine {
    /// The materialized Φ0 (the dense backend's exact path).
    Dense(ColMatrix),
    /// A matrix-free operator and its sketch of the all-ones vector.
    Op(MeasurementOperator, Vector),
}

impl Engine {
    /// The leaf's sketch. Planted slices use linearity,
    /// `Φ·(b·1 + Σ vⱼ·eⱼ) = b·Φ1 + Σ vⱼ·φⱼ`, which costs `O(M)` per
    /// deviation instead of a full transform over `N` keys; the served
    /// system only ever sees the resulting vectors, and the oracle folds
    /// the very same vectors.
    fn sketch(&self, slice: &LeafSlice) -> Result<Vector, String> {
        match (self, slice) {
            (Engine::Dense(phi0), LeafSlice::Dense(x)) => {
                CsProtocol::sketch_slice(phi0, x).map_err(|e| e.to_string())
            }
            (Engine::Op(op, ones), LeafSlice::Planted { base, entries }) => {
                let mut y: Vec<f64> = ones.iter().map(|v| base * v).collect();
                let mut col = vec![0.0; op.m()];
                for &(j, v) in entries {
                    op.column_into(j, &mut col);
                    cso_linalg::vector::axpy(v, &col, &mut y);
                }
                Ok(Vector::from_vec(y))
            }
            _ => Err("slice form does not fit the operator".into()),
        }
    }

    fn recover(&self, y: &Vector, k: usize, m: usize, mseed: u64) -> Result<BompResult, String> {
        let config = CsProtocol::new(m, mseed).effective_recovery(k);
        match self {
            Engine::Dense(phi0) => bomp_with_matrix(phi0, y, &config),
            Engine::Op(op, _) => bomp_with_op(op, y, &config),
        }
        .map_err(|e| e.to_string())
    }
}

/// The paper's click log: `L` dense slices and the true top-k keys.
fn clicklog_epoch(
    cfg: &ClickLogConfig,
    k: usize,
    seed: u64,
) -> Result<(Vec<LeafSlice>, Vec<usize>), String> {
    let data = ClickLogData::generate(cfg, seed).map_err(|e| e.to_string())?;
    let truth = data.true_k_outliers(k).iter().map(|kv| kv.index).collect();
    Ok((data.slices.into_iter().map(LeafSlice::Dense).collect(), truth))
}

/// A synthetic majority-dominated aggregate: every key sits at the mode
/// except `planted` outliers whose deviations decay geometrically. Each
/// outlier is split between two leaves, and each leaf carries two
/// camouflage entries that cancel against its neighbours', so no single
/// leaf shows the global picture. Leaves get unequal shares of the mode.
fn planted_epoch(spec: &Spec, seed: u64) -> (Vec<LeafSlice>, Vec<usize>) {
    let (n, l) = (spec.n, spec.leaves);
    let mut rng = Rng::new(seed, 7);
    let mode = 100.0 + 50.0 * rng.unit();
    let weights: Vec<f64> = (0..l).map(|_| 0.5 + rng.unit()).collect();
    let total: f64 = weights.iter().sum();
    let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); l];
    let mut keys: Vec<usize> = Vec::with_capacity(spec.planted);
    while keys.len() < spec.planted {
        let j = rng.below(n);
        if !keys.contains(&j) {
            keys.push(j);
        }
    }
    let mut deviations: Vec<(usize, f64)> = Vec::with_capacity(keys.len());
    for (rank, &j) in keys.iter().enumerate() {
        let magnitude = 5000.0 * 0.8f64.powf(rank as f64 + rng.unit());
        let dev = if rng.unit() < 0.5 { -magnitude } else { magnitude };
        let share = 0.2 + 0.6 * rng.unit();
        entries[rng.below(l)].push((j, dev * share));
        entries[rng.below(l)].push((j, dev * (1.0 - share)));
        deviations.push((j, dev));
    }
    for leaf in 0..l {
        let j = rng.below(n);
        let amount = 2000.0 * (rng.unit() - 0.5);
        entries[leaf].push((j, amount));
        entries[(leaf + 1) % l].push((j, -amount));
    }
    deviations.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
    let truth = deviations.iter().take(spec.k).map(|&(j, _)| j).collect();
    let slices = entries
        .into_iter()
        .zip(weights)
        .map(|(entries, w)| LeafSlice::Planted { base: mode * w / total, entries })
        .collect();
    (slices, truth)
}

/// Folds and recovers one epoch in-process exactly as the served path
/// must: the canonical dyadic fold over absolute leaf ids, then BOMP with
/// `CsProtocol::effective_recovery(k)`.
fn oracle(
    spec: &Spec,
    mseed: u64,
    engine: &Engine,
    clock: Clock,
    sketches: Vec<Vector>,
    truth: Vec<usize>,
    leaf0: Option<LeafSlice>,
) -> Result<EpochInput, String> {
    let members: Vec<(usize, &Vector)> = sketches.iter().enumerate().collect();
    let t0 = clock.now();
    let y = dyadic_fold(spec.m, &members);
    let t1 = clock.now();
    let result = engine.recover(&y, spec.k, spec.m, mseed)?;
    let t2 = clock.now();
    let (fold, bomp) = ((t0, t1), (t1, t2));
    let outliers: Vec<(u32, f64)> =
        result.top_k(spec.k).iter().map(|o| (o.index as u32, o.value)).collect();
    let hits = outliers.iter().filter(|(j, _)| truth.contains(&(*j as usize))).count();
    let expected = Expected {
        mode: result.mode,
        outliers,
        iterations: result.iterations,
        recall: hits as f64 / spec.k as f64,
    };
    let leaf0 = leaf0.ok_or("workload has no leaves")?;
    Ok(EpochInput { sketches, leaf0, expected, fold, bomp })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            let spec = Spec::toy(w);
            let a = Inputs::generate(&spec, 5, Clock::start()).unwrap();
            let b = Inputs::generate(&spec, 5, Clock::start()).unwrap();
            let c = Inputs::generate(&spec, 6, Clock::start()).unwrap();
            assert_eq!(a.epochs.len(), spec.pool);
            for (x, y) in a.epochs.iter().zip(&b.epochs) {
                assert_eq!(x.sketches, y.sketches, "{}", w.name());
                assert!(x.expected.matches(y.expected.mode, &y.expected.outliers));
            }
            assert_ne!(a.epochs[0].sketches, c.epochs[0].sketches, "{}", w.name());
        }
    }

    #[test]
    fn planted_sketches_equal_the_operator_applied_to_the_slice() {
        let spec = Spec::toy(Workload::SrhtTree);
        let inputs = Inputs::generate(&spec, 3, Clock::start()).unwrap();
        let op = spec.backend.build(spec.m, spec.n, inputs.mseed).unwrap();
        let input = &inputs.epochs[0];
        let direct = op.apply(&input.leaf0.dense(spec.n)).unwrap();
        let diff: f64 =
            direct.iter().zip(input.sketches[0].iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff < 1e-6 * direct.norm1(), "linearity shortcut drifted: {diff}");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
