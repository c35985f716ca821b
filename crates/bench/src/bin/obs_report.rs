//! `obs_report`: emit a fixed-seed traced RunReport and measure the cost of
//! observation.
//!
//! One deterministic quickstart-scale CS protocol run executes with an
//! enabled recorder; the resulting [`RunReport`] (trace + metrics + EK/EV)
//! is self-validated (strict JSON parse, required top-level keys, comm
//! metrics equal to the protocol's `CommunicationCost` exactly) and written
//! to `results/run_report.jsonl`. The binary then times the default run
//! (its recorder is disabled) against one given an explicitly disabled
//! recorder and one given an enabled recorder, and writes the comparison
//! to `BENCH_pr2.json` at the repository root. The first two run the same
//! code, so their difference is the timing noise floor.
//!
//! Run with: `cargo run --release -p cso-bench --bin obs_report`
//! (CI runs this as its observability smoke step.)

use cso_core::{outlier_errors, BompConfig};
use cso_distributed::{Cluster, CsProtocol, OutlierProtocol};
use cso_obs::{json, Recorder, RunReport, REPORT_KEYS};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::time::Instant;

const N: usize = 2000;
const S: usize = 12;
const M: usize = 150;
const L: usize = 3;
const K: usize = 8;
const DATA_SEED: u64 = 7;
const SPLIT_SEED: u64 = 11;
const MATRIX_SEED: u64 = 42;

fn fixture() -> (Cluster, MajorityData) {
    let data = MajorityData::generate(
        &MajorityConfig { n: N, s: S, mode: 1800.0, ..MajorityConfig::default() },
        DATA_SEED,
    )
    .expect("valid workload config");
    let slices = split(
        &data.values,
        L,
        SliceStrategy::Camouflaged { offset: 1500.0, fraction: 0.2 },
        SPLIT_SEED,
    )
    .expect("valid split");
    (Cluster::new(slices).expect("cluster"), data)
}

fn protocol() -> CsProtocol {
    CsProtocol::new(M, MATRIX_SEED).with_recovery(BompConfig::for_k_outliers(K))
}

/// Median-of-runs wall time for `f`, in nanoseconds per call.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let (cluster, data) = fixture();
    let proto = protocol();

    // --- Traced run → RunReport -----------------------------------------
    let rec = Recorder::new();
    let run = proto.clone().with_recorder(rec.clone()).run(&cluster, K).expect("protocol run");
    let truth = data.true_k_outliers(K);
    let (ek, ev) = outlier_errors(&truth, &run.estimate).expect("quality metrics");

    let report = RunReport::from_recorder("obs_report", &rec)
        .with_param("n", N as u64)
        .with_param("m", M as u64)
        .with_param("nodes", L as u64)
        .with_param("k", K as u64)
        .with_param("seed", MATRIX_SEED)
        .with_errors(ek, ev);

    // Self-validation: the artifact must parse as strict JSON, expose every
    // required top-level key, and its comm metrics must equal the meter.
    let object = report.to_json();
    json::validate(&object).expect("RunReport::to_json must be valid JSON");
    for key in REPORT_KEYS {
        assert!(object.contains(&format!("\"{key}\":")), "report missing required key `{key}`");
    }
    let lines = json::validate_jsonl(&report.to_jsonl()).expect("valid JSONL");
    let snap = &report.metrics;
    assert_eq!(snap.counter("comm.bits"), Some(run.cost.bits), "comm.bits != CostMeter");
    assert_eq!(snap.counter("comm.tuples"), Some(run.cost.tuples), "comm.tuples != CostMeter");
    assert_eq!(
        snap.counter("comm.rounds"),
        Some(u64::from(run.cost.rounds)),
        "comm.rounds != CostMeter"
    );
    assert!(
        !rec.events_named("bomp.iter").is_empty(),
        "trace must carry per-iteration BOMP events"
    );

    let path = report.write_jsonl("results/run_report.jsonl").expect("write report");
    println!("wrote {} ({} JSONL records)", path.display(), lines);
    println!("EK = {ek:.4}  EV = {ev:.4}  mode = {:.1}", run.mode);
    println!(
        "comm: {} bits, {} tuples, {} round(s)",
        run.cost.bits, run.cost.tuples, run.cost.rounds
    );

    // --- Overhead: untraced vs disabled recorder ------------------------
    let iters: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(20);
    let disabled = proto.clone().with_recorder(Recorder::disabled());
    let untraced_ns = time_ns(iters, || {
        std::hint::black_box(proto.run(&cluster, K).expect("run"));
    });
    let disabled_ns = time_ns(iters, || {
        std::hint::black_box(disabled.run(&cluster, K).expect("run"));
    });
    let enabled_ns = time_ns(iters, || {
        let traced = proto.clone().with_recorder(Recorder::new());
        std::hint::black_box(traced.run(&cluster, K).expect("run"));
    });
    let overhead = disabled_ns / untraced_ns - 1.0;
    println!(
        "untraced {:.2} ms, disabled recorder {:.2} ms ({:+.1}% overhead), enabled {:.2} ms",
        untraced_ns / 1e6,
        disabled_ns / 1e6,
        100.0 * overhead,
        enabled_ns / 1e6
    );

    // --- BENCH_pr2.json --------------------------------------------------
    let mut bench = String::new();
    bench.push_str("{\"bench\":\"obs_report\",\"params\":{");
    bench.push_str(&format!(
        "\"n\":{N},\"m\":{M},\"nodes\":{L},\"k\":{K},\"seed\":{MATRIX_SEED},\"iters\":{iters}"
    ));
    bench.push_str("},\"quality\":{");
    bench.push_str(&format!("\"ek\":{ek},\"ev\":{ev}"));
    bench.push_str("},\"communication\":{");
    bench.push_str(&format!(
        "\"bits\":{},\"tuples\":{},\"rounds\":{}",
        run.cost.bits, run.cost.tuples, run.cost.rounds
    ));
    bench.push_str("},\"timing_ns\":{");
    bench.push_str(&format!(
        "\"untraced\":{untraced_ns},\"disabled_recorder\":{disabled_ns},\"enabled_recorder\":{enabled_ns},\"disabled_overhead_fraction\":{overhead}"
    ));
    bench.push_str(&format!("}},\"trace_records\":{lines}}}"));
    json::validate(&bench).expect("BENCH_pr2.json must be valid JSON");
    std::fs::write("BENCH_pr2.json", format!("{bench}\n")).expect("write BENCH_pr2.json");
    println!("wrote BENCH_pr2.json");
}
