//! Continuous monitoring: detect emerging outliers in a stream of windows.
//!
//! "Terabyte of new click log data is generated every 10 mins" — the
//! aggregator keeps one M-length sketch per data center and folds each
//! window's deltas in with O(M) work, re-running recovery per window. The
//! scripted anomalies (key 404 turning hot at window 3, key 1200 regressing
//! at window 6) surface exactly when their cumulative deviation clears the
//! drifting mode.
//!
//! Run with: `cargo run --release --example monitoring`

use cs_outlier::core::BompConfig;
use cs_outlier::distributed::{
    Cluster, CsProtocol, FaultPlan, RetryPolicy, SketchAggregator, SketchEncoding,
};
use cs_outlier::obs::{Recorder, RunReport};
use cs_outlier::workloads::{Anomaly, TimeSeriesConfig, TimeSeriesData};

fn main() {
    let n = 2000;
    let config = TimeSeriesConfig {
        keys: n,
        data_centers: 4,
        batches: 8,
        base_rate: 250.0,
        camouflage: 900.0,
        anomalies: vec![
            Anomaly { from_batch: 3, key: 404, magnitude: 4000.0, data_center: 1 },
            Anomaly { from_batch: 6, key: 1200, magnitude: -6000.0, data_center: 2 },
        ],
    };
    let stream = TimeSeriesData::generate(&config, 2026).expect("generate stream");

    let spec = cs_outlier::core::MeasurementSpec::new(140, n, 777).expect("spec");
    let mut agg = SketchAggregator::new(spec);
    for dc in 0..config.data_centers {
        agg.join(dc, cs_outlier::linalg::Vector::zeros(spec.m)).expect("join");
    }

    println!(
        "monitoring {} keys across {} data centers, sketch M = {}\n",
        n, config.data_centers, spec.m
    );
    let alert_threshold = 1500.0;
    for window in 0..stream.batches() {
        // Each data center ships its O(M) sketch update for this window.
        for dc in 0..config.data_centers {
            agg.update(dc, stream.delta(window, dc)).expect("update");
        }
        let recovered = agg.recover(&BompConfig::default()).expect("recover");
        let alerts: Vec<String> = recovered
            .top_k(5)
            .iter()
            .filter(|o| o.deviation.abs() > alert_threshold)
            .map(|o| format!("key {} ({:+.0})", o.index, o.deviation))
            .collect();
        println!(
            "window {window}: mode {:>7.1} (expected {:>7.1})  alerts: {}",
            recovered.mode,
            stream.expected_mode_after(window + 1),
            if alerts.is_empty() { "none".to_string() } else { alerts.join(", ") }
        );
    }
    println!(
        "\nkey 404 turns hot at window 3; key 1200 regresses from window 6 —\n\
         both surface as soon as their cumulative deviation clears {alert_threshold}."
    );

    // The same monitoring pipeline under transport faults: one data center
    // down, a lossy corrupting network, retransmission with backoff. The
    // aggregator degrades to the surviving subset instead of stalling.
    println!("\n--- degraded window: dc 2 down, 10% loss, 5% corruption ---");
    let cumulative: Vec<Vec<f64>> = (0..config.data_centers)
        .map(|dc| {
            let mut slice = vec![0.0; n];
            for window in 0..stream.batches() {
                for &(key, d) in stream.delta(window, dc) {
                    slice[key] += d;
                }
            }
            slice
        })
        .collect();
    let cluster = Cluster::new(cumulative).expect("cluster");
    let plan = FaultPlan::new(2026).fail_nodes(&[2]).drop_rate(0.10).corrupt_rate(0.05);
    // Trace the degraded execution: the recorder collects the transport
    // span (per-node attempt events), retry/fault counters, and BOMP's
    // per-iteration recovery events, all on the same virtual tick clock
    // the retry policy runs on.
    let rec = Recorder::new();
    let degraded = CsProtocol::new(140, 777)
        .with_recorder(rec.clone())
        .run_degraded(&cluster, 5, SketchEncoding::F64, &plan, &RetryPolicy::default())
        .expect("at least one data center must survive");
    println!(
        "surviving data centers: {:?} ({:.0}% of the fleet); dropped: {:?}",
        degraded.surviving_nodes,
        100.0 * degraded.surviving_fraction(),
        degraded.dropped_nodes
    );
    println!(
        "retransmissions: {} ({} corrupt frames rejected by checksum, {} duplicates ignored)",
        degraded.retransmissions, degraded.corrupt_rejected, degraded.duplicates_ignored
    );
    println!(
        "recovery on the partial aggregate: mode {:.1}, top outlier key {} — \
         cost {} bytes incl. retries over {} virtual ticks",
        degraded.run.mode,
        degraded.run.estimate.first().map(|o| o.index).unwrap_or(0),
        degraded.run.cost.bytes(),
        degraded.elapsed_ticks
    );

    let report = RunReport::from_recorder("monitoring", &rec)
        .with_param("n", n as u64)
        .with_param("m", 140u64)
        .with_param("data_centers", config.data_centers as u64)
        .with_param("seed", 777u64);
    let path = report.write_jsonl("results/monitoring_report.jsonl").expect("write report");
    println!("\nfull degraded-run report (trace + fault/retry metrics): {}", path.display());
}
