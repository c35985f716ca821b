//! Production-like distributed click-log generator.
//!
//! The paper evaluates on Bing search-quality logs: one week of click
//! events, 65 TB, merged from 8 geo-distributed data centers, 49 markets
//! and 62 verticals; after predicate filtering the three production
//! queries touch N ≈ 10.4K / 9K / 10K keys with sparsity s ≈ 300 / 650 /
//! 610 (read off the mode-stabilization points of Figure 9). That data is
//! proprietary, so this module generates a synthetic equivalent with the
//! same *structural* properties the algorithms are sensitive to:
//!
//! 1. the **aggregated** per-key scores concentrate around a non-zero mode
//!    with `s` far-away outliers (the Figure 1 "sparse-like" shape);
//! 2. **individual data-center slices are skewed**: each key's mass is
//!    split unevenly and pairs of data centers carry cancelling offsets, so
//!    local outliers/modes differ from the global ones (the paper's central
//!    difficulty — key `k5` looks normal on every node);
//! 3. keys are composite `(QueryDate, Market, Vertical, RequestURL)` tuples
//!    drawn from realistic dimension cardinalities, and raw per-event
//!    records can be materialized for the MapReduce and query layers.

use crate::slicing::{self, SliceStrategy};
use cso_linalg::random::stream_rng;
use cso_linalg::LinalgError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which production score a generated workload models (the paper's three
/// representative queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreKind {
    /// Core-search click score (N ≈ 10.4K, s ≈ 300).
    CoreSearch,
    /// Advertisement click score (N ≈ 9K, s ≈ 650).
    Ads,
    /// Answer click score (N ≈ 10K, s ≈ 610).
    Answer,
}

impl ScoreKind {
    /// Short lowercase name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreKind::CoreSearch => "core-search",
            ScoreKind::Ads => "ads",
            ScoreKind::Answer => "answer",
        }
    }
}

/// A composite group-by key, mirroring the paper's
/// `GROUP BY QueryDate, Market, Vertical, RequestURL` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClickKey {
    /// Day offset within the one-week window (0..7).
    pub day: u8,
    /// Market id (0..49).
    pub market: u8,
    /// Vertical id (0..62).
    pub vertical: u8,
    /// Request-URL id within the (market, vertical) bucket.
    pub url: u16,
}

impl ClickKey {
    /// Human-readable label, e.g. `d3/m17/v40/u102`.
    pub fn label(&self) -> String {
        format!("d{}/m{}/v{}/u{}", self.day, self.market, self.vertical, self.url)
    }
}

/// One raw click record on a data center — what the mappers consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClickEvent {
    /// Composite key of the record.
    pub key: ClickKey,
    /// Data center that logged the event.
    pub data_center: u8,
    /// Signed click score (Success Click positive, Quick-Back negative).
    pub score: f64,
}

/// Configuration for the click-log generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClickLogConfig {
    /// Which production score this workload models.
    pub kind: ScoreKind,
    /// Number of data centers `L` (paper: 8).
    pub data_centers: usize,
    /// Number of distinct group-by keys `N` after predicate filtering.
    pub keys: usize,
    /// Number of planted global outliers `s`.
    pub outliers: usize,
    /// Global mode the aggregated scores concentrate around.
    pub mode: f64,
    /// Standard deviation of the concentration around the mode (0 gives
    /// exactly majority-dominated data).
    pub mode_jitter: f64,
    /// Minimum |deviation| of a planted outlier.
    pub outlier_min_dev: f64,
    /// Maximum |deviation| of a planted outlier.
    pub outlier_max_dev: f64,
    /// Magnitude of the zero-sum per-data-center camouflage offsets.
    pub camouflage_offset: f64,
    /// Fraction of keys receiving camouflage per data-center pair.
    pub camouflage_fraction: f64,
}

impl ClickLogConfig {
    /// Preset for the paper's core-search click-score query
    /// (N = 10.4K, s ≈ 300; mode stabilizes at M = 500 in Figure 9(a)).
    pub fn core_search() -> Self {
        ClickLogConfig {
            kind: ScoreKind::CoreSearch,
            data_centers: 8,
            keys: 10_400,
            outliers: 300,
            mode: 1800.0,
            mode_jitter: 0.0,
            outlier_min_dev: 250.0,
            outlier_max_dev: 20_000.0,
            camouflage_offset: 3000.0,
            camouflage_fraction: 0.25,
        }
    }

    /// Preset for the ads click-score query (N = 9K, s ≈ 650; Figure 9(b)).
    pub fn ads() -> Self {
        ClickLogConfig {
            kind: ScoreKind::Ads,
            data_centers: 8,
            keys: 9_000,
            outliers: 650,
            mode: 420.0,
            mode_jitter: 0.0,
            outlier_min_dev: 100.0,
            outlier_max_dev: 12_000.0,
            camouflage_offset: 2000.0,
            camouflage_fraction: 0.25,
        }
    }

    /// Preset for the answer click-score query (N = 10K, s ≈ 610;
    /// Figure 9(c)).
    pub fn answer() -> Self {
        ClickLogConfig {
            kind: ScoreKind::Answer,
            data_centers: 8,
            keys: 10_000,
            outliers: 610,
            mode: 950.0,
            mode_jitter: 0.0,
            outlier_min_dev: 150.0,
            outlier_max_dev: 15_000.0,
            camouflage_offset: 2500.0,
            camouflage_fraction: 0.25,
        }
    }

    /// A small variant of any preset, for fast tests: scales keys and
    /// outliers down by `factor`.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        self.keys = (self.keys / factor).max(16);
        self.outliers = (self.outliers / factor).max(2);
        self
    }
}

/// A fully generated distributed click-log workload.
#[derive(Debug, Clone)]
pub struct ClickLogData {
    /// The configuration it was generated from.
    pub config: ClickLogConfig,
    /// The key dictionary: index → composite key (index order is the global
    /// vectorization order).
    pub keys: Vec<ClickKey>,
    /// Ground-truth aggregated values, length `N`.
    pub global: Vec<f64>,
    /// Planted mode.
    pub mode: f64,
    /// Indices of planted outliers, sorted.
    pub outlier_indices: Vec<usize>,
    /// Per-data-center dense slices (`L` vectors of length `N`), summing to
    /// `global` exactly.
    pub slices: Vec<Vec<f64>>,
}

impl ClickLogData {
    /// Generates a workload. Errors on degenerate configurations.
    pub fn generate(config: &ClickLogConfig, seed: u64) -> Result<Self, LinalgError> {
        if config.keys == 0 || config.data_centers == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "keys/data_centers",
                message: "must be positive".into(),
            });
        }
        if config.outliers * 2 >= config.keys {
            return Err(LinalgError::InvalidParameter {
                name: "outliers",
                message: "need s < N/2 for a majority-dominated aggregate".into(),
            });
        }
        if config.outlier_min_dev <= 0.0 || config.outlier_max_dev < config.outlier_min_dev {
            return Err(LinalgError::InvalidParameter {
                name: "outlier_dev",
                message: "need 0 < min <= max".into(),
            });
        }

        let keys = build_key_dictionary(config.keys, seed);

        // Global aggregate: mode (+ jitter) everywhere, s outliers planted.
        let mut rng = stream_rng(seed, 10);
        let mut indices: Vec<usize> = (0..config.keys).collect();
        indices.shuffle(&mut rng);
        let chosen: Vec<usize> = indices[..config.outliers].to_vec();
        let mut outlier_indices = chosen.clone();
        outlier_indices.sort_unstable();

        let mut global = vec![0.0; config.keys];
        if config.mode_jitter > 0.0 {
            let mut g = cso_linalg::GaussianSampler::new(stream_rng(seed, 11));
            for v in &mut global {
                *v = g.sample_scaled(config.mode, config.mode_jitter);
            }
        } else {
            global.iter_mut().for_each(|v| *v = config.mode);
        }
        // Outlier deviations decay geometrically with rank: a handful of
        // dominant outliers over a mass of barely-divergent ones, reaching
        // the floor `min_dev` by rank ≈ s/8. This steep-decay structure is
        // what lets the paper's production queries stay accurate at 1%
        // communication even though the full sparsity s ≈ 300 exceeds M
        // there — only the dominant outliers need to be recovered exactly.
        let decay = (config.outlier_min_dev / config.outlier_max_dev)
            .powf(8.0 / config.outliers.max(8) as f64);
        for (rank, &i) in chosen.iter().enumerate() {
            let u: f64 = rng.gen();
            let dev = (config.outlier_max_dev * decay.powf(rank as f64 + u))
                .max(config.outlier_min_dev * (1.0 + 0.5 * rng.gen::<f64>()));
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            global[i] = config.mode + sign * dev;
        }

        // Distribution skew: random proportions + zero-sum camouflage.
        let slices = slicing::split(
            &global,
            config.data_centers,
            SliceStrategy::Camouflaged {
                offset: config.camouflage_offset,
                fraction: config.camouflage_fraction,
            },
            seed.wrapping_add(1),
        )?;

        Ok(ClickLogData {
            config: *config,
            keys,
            global,
            mode: config.mode,
            outlier_indices,
            slices,
        })
    }

    /// Number of keys `N`.
    pub fn n(&self) -> usize {
        self.global.len()
    }

    /// Number of data centers `L`.
    pub fn l(&self) -> usize {
        self.slices.len()
    }

    /// The true k-outliers of the aggregate (deviation from the planted
    /// mode).
    pub fn true_k_outliers(&self, k: usize) -> Vec<cso_core::KeyValue> {
        cso_core::outlier::k_outliers_strict(&self.global, self.mode, k)
    }

    /// Materializes raw click events for one data center: each key's slice
    /// value is decomposed into `events_per_key` records whose scores sum
    /// to it. This is what the MapReduce mappers and the query layer scan.
    pub fn events(&self, dc: usize, events_per_key: usize, seed: u64) -> Vec<ClickEvent> {
        assert!(dc < self.l(), "data center {dc} out of range");
        assert!(events_per_key >= 1, "need at least one event per key");
        let mut rng = stream_rng(seed, 100 + dc as u64);
        let mut events = Vec::with_capacity(self.n() * events_per_key);
        for (i, &total) in self.slices[dc].iter().enumerate() {
            let key = self.keys[i];
            let mut remaining = total;
            for e in 0..events_per_key {
                let score = if e + 1 == events_per_key {
                    remaining
                } else {
                    // Random share of what remains, in [0, remaining] by
                    // magnitude, keeping the decomposition exact.
                    let share = rng.gen::<f64>();
                    let s = remaining * share;
                    remaining -= s;
                    s
                };
                events.push(ClickEvent { key, data_center: dc as u8, score });
            }
        }
        events
    }
}

/// Builds `n` distinct composite keys with realistic dimension
/// cardinalities (7 days × 49 markets × 62 verticals × URL pool).
fn build_key_dictionary(n: usize, seed: u64) -> Vec<ClickKey> {
    let mut rng = stream_rng(seed, 5);
    let mut keys = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while keys.len() < n {
        let key = ClickKey {
            day: rng.gen_range(0..7),
            market: rng.gen_range(0..49),
            vertical: rng.gen_range(0..62),
            url: rng.gen_range(0..4096),
        };
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClickLogConfig {
        ClickLogConfig::core_search().scaled_down(40) // 260 keys, 7 outliers
    }

    #[test]
    fn presets_match_paper_scales() {
        let cs = ClickLogConfig::core_search();
        assert_eq!(cs.keys, 10_400);
        assert_eq!(cs.outliers, 300);
        assert_eq!(cs.data_centers, 8);
        assert_eq!(ClickLogConfig::ads().keys, 9_000);
        assert_eq!(ClickLogConfig::ads().outliers, 650);
        assert_eq!(ClickLogConfig::answer().keys, 10_000);
        assert_eq!(ClickLogConfig::answer().outliers, 610);
    }

    #[test]
    fn slices_sum_to_global() {
        let d = ClickLogData::generate(&small(), 1).unwrap();
        let agg = crate::slicing::aggregate(&d.slices).unwrap();
        for (a, g) in agg.iter().zip(&d.global) {
            assert!((a - g).abs() < 1e-8);
        }
    }

    #[test]
    fn global_is_majority_dominated_when_jitter_zero() {
        let d = ClickLogData::generate(&small(), 2).unwrap();
        let at_mode = d.global.iter().filter(|&&v| v == d.mode).count();
        assert!(at_mode * 2 > d.n());
        assert_eq!(d.n() - at_mode, d.outlier_indices.len());
    }

    #[test]
    fn local_slices_hide_global_structure() {
        // The defining difficulty: per-DC values at outlier keys should not
        // stand out locally the way they do globally.
        let d = ClickLogData::generate(&small(), 3).unwrap();
        let slice = &d.slices[0];
        let slice_mean = slice.iter().sum::<f64>() / slice.len() as f64;
        let slice_sd = (slice.iter().map(|v| (v - slice_mean).powi(2)).sum::<f64>()
            / slice.len() as f64)
            .sqrt();
        // Count non-outlier keys that look locally extreme (z > 2) — the
        // camouflage must create a non-trivial number of local impostors.
        let impostors = slice
            .iter()
            .enumerate()
            .filter(|(i, &v)| {
                !d.outlier_indices.contains(i) && ((v - slice_mean) / slice_sd).abs() > 2.0
            })
            .count();
        assert!(impostors > 0, "camouflage should create local impostors");
    }

    #[test]
    fn keys_are_distinct_and_in_dimension_ranges() {
        let d = ClickLogData::generate(&small(), 4).unwrap();
        let mut set = std::collections::HashSet::new();
        for k in &d.keys {
            assert!(k.day < 7 && k.market < 49 && k.vertical < 62);
            assert!(set.insert(*k), "duplicate key {}", k.label());
        }
        assert_eq!(d.keys.len(), d.n());
    }

    #[test]
    fn events_decompose_slice_values_exactly() {
        let d = ClickLogData::generate(&small(), 5).unwrap();
        let events = d.events(2, 3, 77);
        assert_eq!(events.len(), d.n() * 3);
        // Re-aggregate events by key index and compare to the slice.
        let mut sums = vec![0.0; d.n()];
        let index_of: std::collections::HashMap<ClickKey, usize> =
            d.keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        for e in &events {
            assert_eq!(e.data_center, 2);
            sums[index_of[&e.key]] += e.score;
        }
        for (s, v) in sums.iter().zip(&d.slices[2]) {
            assert!((s - v).abs() < 1e-9);
        }
    }

    #[test]
    fn true_outliers_match_planted_set() {
        let d = ClickLogData::generate(&small(), 6).unwrap();
        let out = d.true_k_outliers(d.outlier_indices.len());
        let mut idx: Vec<usize> = out.iter().map(|o| o.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, d.outlier_indices);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ClickLogData::generate(&small(), 7).unwrap();
        let b = ClickLogData::generate(&small(), 7).unwrap();
        assert_eq!(a.global, b.global);
        assert_eq!(a.slices, b.slices);
        assert_eq!(a.keys, b.keys);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = small();
        c.outliers = c.keys; // no majority
        assert!(ClickLogData::generate(&c, 1).is_err());
        let mut c = small();
        c.keys = 0;
        assert!(ClickLogData::generate(&c, 1).is_err());
        let mut c = small();
        c.outlier_min_dev = -1.0;
        assert!(ClickLogData::generate(&c, 1).is_err());
    }

    #[test]
    fn jitter_produces_near_mode_concentration() {
        let mut c = small();
        c.mode_jitter = 5.0;
        let d = ClickLogData::generate(&c, 8).unwrap();
        let near = d
            .global
            .iter()
            .enumerate()
            .filter(|(i, &v)| !d.outlier_indices.contains(i) && (v - d.mode).abs() < 25.0)
            .count();
        assert!(near + d.outlier_indices.len() >= d.n() * 99 / 100);
    }

    #[test]
    fn score_kind_names() {
        assert_eq!(ScoreKind::CoreSearch.name(), "core-search");
        assert_eq!(ScoreKind::Ads.name(), "ads");
        assert_eq!(ScoreKind::Answer.name(), "answer");
    }
}
