//! Quickstart: the full sketch → aggregate → recover pipeline in ~60 lines.
//!
//! Three "data centers" each hold a slice of per-key click scores. No slice
//! shows anything unusual on its own, but once aggregated, a handful of
//! keys are far from the mode. Each node ships only an M-length sketch;
//! the aggregator recovers both the (unknown) mode and the outliers.
//!
//! Run with: `cargo run --release --example quickstart`

use cs_outlier::core::{bomp, outlier_errors, BompConfig, MeasurementSpec};
use cs_outlier::linalg::Vector;
use cs_outlier::obs::{Recorder, RunReport, Value};
use cs_outlier::workloads::{split, MajorityConfig, MajorityData, SliceStrategy};

fn main() {
    // Global data: N = 2000 keys concentrated at b = 1800, s = 12 outliers.
    let n = 2000;
    let data = MajorityData::generate(
        &MajorityConfig { n, s: 12, mode: 1800.0, min_deviation: 500.0, max_deviation: 9000.0 },
        /* seed */ 7,
    )
    .expect("valid config");

    // Distribute it over 3 nodes with camouflage: locally, outlier keys
    // look ordinary and ordinary keys look outlying.
    let slices =
        split(&data.values, 3, SliceStrategy::Camouflaged { offset: 1500.0, fraction: 0.2 }, 11)
            .expect("valid split");

    // Everything below runs under an enabled Recorder: spans group the
    // pipeline stages, and BOMP emits one event per recovery iteration.
    let rec = Recorder::new();

    // Every node derives the same Φ0 from a shared (M, N, seed) spec and
    // transmits only M = 150 numbers instead of N = 2000.
    let spec = MeasurementSpec::new(150, n, 42).expect("valid spec");
    let mut y = Vector::zeros(spec.m);
    {
        let _s = rec.span_with("sketch.build", &[("nodes", Value::U64(3))]);
        for (node, slice) in slices.iter().enumerate() {
            let sketch = spec.measure_dense(slice).expect("sketch");
            println!(
                "node {node}: slice of {n} values compressed to {} measurements",
                sketch.len()
            );
            y.add_assign(&sketch).expect("same length");
        }
    }
    rec.counter_add("comm.bits", 3 * spec.m as u64 * 64);
    rec.counter_add("comm.tuples", 3 * spec.m as u64);
    rec.counter_add("comm.rounds", 1);

    // Aggregator side: recover mode + outliers from the summed sketch.
    let mut config = BompConfig::default();
    config.omp.rec = rec.clone();
    let result = bomp(&spec, &y, &config).expect("recovery");
    println!(
        "\nrecovered mode b = {:.1}  (true: {:.1}), {} iterations",
        result.mode, data.mode, result.iterations
    );
    println!("top-5 outliers (true outlier keys: {:?}):", data.outlier_indices);
    for o in result.top_k(5) {
        println!("  key {:>4}  value {:>8.1}  deviation {:>+8.1}", o.index, o.value, o.deviation);
    }

    // Communication: 3 nodes × 150 values vs 3 × 2000 for transmit-all.
    let sent = 3 * spec.m;
    let all = 3 * n;
    println!(
        "\ncommunication: {sent} values vs {all} for transmit-all ({:.1}% of ALL)",
        100.0 * sent as f64 / all as f64
    );

    // Bundle trace + metrics + recovery quality into one artifact. The
    // JSONL schema is documented in DESIGN.md §7.
    let truth = data.true_k_outliers(5);
    let estimate: Vec<cs_outlier::core::KeyValue> = result
        .top_k(5)
        .iter()
        .map(|o| cs_outlier::core::KeyValue { index: o.index, value: o.value })
        .collect();
    let (ek, ev) = outlier_errors(&truth, &estimate).expect("quality metrics");
    let report = RunReport::from_recorder("quickstart", &rec)
        .with_param("n", n as u64)
        .with_param("m", spec.m as u64)
        .with_param("nodes", 3u64)
        .with_param("seed", 42u64)
        .with_errors(ek, ev);
    let path = report.write_jsonl("results/quickstart_report.jsonl").expect("write report");
    println!("\nEK = {ek:.4}  EV = {ev:.4}; full run report: {}", path.display());
}
