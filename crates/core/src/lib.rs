//! # cso-core
//!
//! The primary contribution of *"Distributed Outlier Detection using
//! Compressive Sensing"* (SIGMOD'15): compressive-sensing sketches for
//! distributed aggregation, and the **BOMP** recovery algorithm that finds
//! both the unknown mode and the outliers of the aggregated data from a
//! logarithmic-size sketch.
//!
//! ## Pipeline
//!
//! ```
//! use cso_core::{MeasurementSpec, bomp, BompConfig};
//!
//! // Global key space of N = 200 keys, sketch size M = 60, shared seed.
//! let spec = MeasurementSpec::new(60, 200, 7).unwrap();
//!
//! // Two nodes hold additive slices of the global vector.
//! let mut a = vec![900.0; 200];
//! let mut b = vec![900.0; 200];
//! a[17] = 5000.0;     // a global outlier, only visible after aggregation
//! b[17] = 4000.0;
//!
//! // Each node ships only its M-length sketch.
//! let ya = spec.measure_dense(&a).unwrap();
//! let yb = spec.measure_dense(&b).unwrap();
//! let y = ya.add(&yb).unwrap();   // sketches add: y = Φ0·(a + b)
//!
//! // The aggregator recovers mode and outliers with BOMP.
//! let result = bomp(&spec, &y, &BompConfig::default()).unwrap();
//! assert!((result.mode - 1800.0).abs() < 1e-6);
//! assert_eq!(result.top_k(1)[0].index, 17);
//! ```
//!
//! ## Modules
//!
//! - [`measurement`] — seeded Gaussian measurement matrices (`Φ0`);
//! - [`ops`] — the [`MeasurementOp`] trait and matrix-free backends
//!   (SRHT, seeded sparse) behind the same seeded contract;
//! - [`omp`](mod@crate::omp) — orthogonal matching pursuit with the paper's QR-based inner
//!   loop and residual-stall guard, over any [`OmpDictionary`] (a
//!   materialized matrix or a measurement operator);
//! - [`bomp`](mod@crate::bomp) — Biased OMP (Algorithm 1), recovering an unknown mode
//!   from a spec, a materialized `Φ0` or an operator through one body;
//! - [`bp`](mod@crate::bp) — basis pursuit (ADMM), the alternative recovery baseline;
//! - [`outlier`] — exact k-outlier / top-k / absolute-top-k semantics;
//! - [`metrics`] — the paper's EK / EV quality metrics;
//! - [`conjectures`] — numerical verification of the paper's Conjectures
//!   1 and 2;
//! - [`sparse`] — sparse recovered-signal representation.

#![warn(missing_docs)]

pub mod aggregates;
pub mod bomp;
pub mod bp;
pub mod conjectures;
pub mod cosamp;
pub mod measurement;
pub mod metrics;
pub mod omp;
pub mod ops;
pub mod outlier;
pub mod sparse;

pub use bomp::{
    bomp, bomp_with_matrix, bomp_with_op, omp_with_known_mode, BompConfig, BompResult,
    RecoveredOutlier, ResidentOp,
};
pub use bp::{basis_pursuit, BpConfig, BpResult};
pub use cosamp::{cosamp, CosampConfig, CosampResult};
pub use measurement::MeasurementSpec;
pub use metrics::{error_on_key, error_on_value, outlier_errors};
pub use omp::{omp, IterationRecord, OmpConfig, OmpDictionary, OmpKernel, OmpResult, StopReason};
pub use ops::{
    MeasurementOp, MeasurementOperator, OpDescriptor, OpKind, SeededSparseOp, SketchBackend, SrhtOp,
};
pub use outlier::KeyValue;
pub use sparse::SparseVector;
