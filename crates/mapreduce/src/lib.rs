//! # cso-mapreduce
//!
//! The Hadoop substitute for the SIGMOD'15 efficiency evaluation
//! (Section 6.2): a deterministic single-process MapReduce runtime with
//! counters ([`engine`]), the two executable jobs — the CS job of
//! Algorithms 3/4 and the traditional top-k job ([`jobs`]) — and an
//! analytic time model ([`model`]) priced by a [`ClusterProfile`]
//! approximating the paper's 10-node cluster.
//!
//! The executed jobs establish *correctness* (the CS pipeline recovers the
//! same outliers as a centralized run); the time model regenerates the
//! *performance* figures (10, 11, 12), whose claims are about where the
//! IO-savings-vs-recovery-cost crossover falls.

#![warn(missing_docs)]

pub mod engine;
pub mod jobs;
pub mod model;
pub mod profile;

pub use cso_exec::ExecConfig;
pub use engine::{map_reduce, Emitter, JobCounters};
pub use jobs::{run_cs_job, run_topk_job, CsJobOutput, Record, TopKJobOutput};
pub use model::{cs_bomp, traditional_topk, JobEstimate, WorkloadShape};
pub use profile::ClusterProfile;
