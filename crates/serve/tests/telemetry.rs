//! Live-telemetry e2e (PR 7 tentpole proof).
//!
//! A running server must be observable from the outside without being
//! perturbed: a client polling `Introspect` mid-sweep reads monotone
//! counters and composable windowed histograms while the data plane's
//! recovery stays bit-identical to the never-watched run; slow requests
//! carry the client's trace context into the server's flight recorder;
//! and a graceful shutdown leaves a parseable `flight.jsonl` ending with
//! the shutdown marker.

use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_obs::{json, MetricsSnapshot, Recorder};
use cso_serve::{
    run_cs_over_server, spawn, MetricsPoller, ServeClient, ServeRunConfig, ServerConfig,
    TelemetryConfig,
};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const M: usize = 96;
const SEED: u64 = 7;
const K: usize = 6;

/// Counters the serve data plane only ever increments: between two polls
/// of the same process, none of these may move backwards.
const MONOTONE: [&str; 6] = [
    "serve.sketches_accepted",
    "serve.frames_handled",
    "serve.introspects",
    "serve.epochs_opened",
    "serve.epochs_sealed",
    "serve.epochs_recovered",
];

fn majority_cluster() -> Cluster {
    let data =
        MajorityData::generate(&MajorityConfig { n: 300, s: 6, ..MajorityConfig::default() }, 42)
            .unwrap();
    let slices = split(&data.values, 4, SliceStrategy::RandomProportions, 43).unwrap();
    Cluster::new(slices).unwrap()
}

fn proto() -> CsProtocol {
    CsProtocol::new(M, SEED)
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("cso-telemetry-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts `later` is a plausible successor snapshot of `earlier`: the
/// sequence number advanced, no monotone counter went backwards, and the
/// ingest window only grew — so `later.delta(earlier)` is a well-formed
/// window whose percentiles compute without underflow.
fn assert_monotone(later: &MetricsSnapshot, earlier: &MetricsSnapshot) {
    assert!(later.seq > earlier.seq, "snapshot seq must advance: {} -> {}", earlier.seq, later.seq);
    for name in MONOTONE {
        let (a, b) = (earlier.counter(name).unwrap_or(0), later.counter(name).unwrap_or(0));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    let d = later.delta(earlier);
    if let Some(h) = d.histogram("serve.ingest_ns") {
        let (p50, p99) = (h.percentile(0.50), h.percentile(0.99));
        assert!(p99 >= p50, "windowed percentiles inverted: p50={p50} p99={p99}");
    }
}

/// Tentpole acceptance: a poller hammering `Introspect` for the whole
/// sweep reads monotone counters and well-formed windows, and the sweep
/// itself still recovers bit-identically to the in-process reference.
#[test]
fn polling_mid_sweep_is_monotone_and_does_not_perturb_recovery() {
    let cluster = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    let dir = temp_dir("poll");
    let flight_path = dir.join("flight.jsonl");
    let server = spawn(ServerConfig {
        telemetry: TelemetryConfig {
            flight_path: Some(flight_path.clone()),
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut poller = MetricsPoller::connect(addr, &RetryPolicy::default()).unwrap();
            let mut prev: Option<MetricsSnapshot> = None;
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = poller.poll().expect("introspect poll");
                if let Some(earlier) = &prev {
                    assert_monotone(&snap, earlier);
                }
                prev = Some(snap);
                polls += 1;
            }
            polls
        })
    };

    let run = run_cs_over_server(&proto(), &cluster, K, addr, &ServeRunConfig::default()).unwrap();
    stop.store(true, Ordering::Relaxed);
    let polls = watcher.join().expect("watcher thread");
    assert!(polls > 1, "the poller must have sampled the sweep");

    // Bit-identical despite continuous introspection load.
    assert_eq!(run.mode.to_bits(), reference.mode.to_bits(), "mode bits");
    assert_eq!(run.outliers.len(), reference.estimate.len(), "outlier count");
    for (got, want) in run.outliers.iter().zip(&reference.estimate) {
        assert_eq!(got.0 as usize, want.index, "outlier index");
        assert_eq!(got.1.to_bits(), want.value.to_bits(), "outlier value bits");
    }

    // The whole-run window is populated and self-consistent.
    let last = server.recorder().metrics_snapshot();
    let h = last.histogram("serve.ingest_ns").expect("ingest latency recorded");
    assert_eq!(h.count, last.counter("serve.frames_handled").unwrap() - polls);
    assert!(h.percentile(0.99) >= h.percentile(0.50));
    assert_eq!(last.counter("serve.introspects"), Some(polls));
    assert_eq!(last.counter("serve.sketches_accepted"), Some(cluster.l() as u64));

    server.shutdown();

    // Graceful shutdown dumps the flight ring: parseable JSONL, ending
    // with the shutdown marker.
    let dump = std::fs::read_to_string(&flight_path).expect("flight.jsonl on shutdown");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        json::validate(line).expect("flight line parses");
    }
    assert!(lines.last().unwrap().contains("\"kind\":\"shutdown\""));
    assert!(dump.contains("\"kind\":\"sealed\""));
    assert!(dump.contains("\"kind\":\"recovered\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace propagation e2e: with the slow-request threshold at zero every
/// request is slow, so each client request span's (trace_id, span_id)
/// must cross the wire and land in the server's flight recorder, while
/// the client's own telemetry counts the same requests.
#[test]
fn slow_requests_carry_client_trace_context_into_the_flight_recorder() {
    let cluster = majority_cluster();
    let proto = proto();
    let sketches = proto.node_sketches(&cluster).unwrap();

    let dir = temp_dir("slow");
    let flight_path = dir.join("flight.jsonl");
    let server = spawn(ServerConfig {
        telemetry: TelemetryConfig {
            slow_request: Duration::ZERO,
            flight_path: Some(flight_path.clone()),
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();

    const TRACE_ID: u64 = 0xC0FFEE;
    let rec = Recorder::new();
    let retry = RetryPolicy::default();
    let (mut client, _) = ServeClient::open_with_backend(
        server.addr(),
        &retry,
        1,
        0,
        proto.m as u32,
        cluster.n() as u64,
        proto.seed,
        SketchBackend::dense(),
    )
    .unwrap();
    client.enable_telemetry(&rec, TRACE_ID, Duration::ZERO);
    for (node, sketch) in sketches.iter().enumerate() {
        client.send_sketch(node as u32, sketch, SketchEncoding::F64).unwrap();
    }
    assert_eq!(client.seal().unwrap(), cluster.l() as u64);
    client.recover(K as u32).unwrap();
    drop(client);

    // Server side: every traced request crossed the threshold.
    let snap = server.recorder().metrics_snapshot();
    let slow = snap.counter("serve.slow_requests").unwrap_or(0);
    assert!(
        slow >= sketches.len() as u64,
        "every ingest must be a slow request at threshold zero (got {slow})"
    );

    // Client side: the request spans were counted and flagged slow too.
    let csnap = rec.metrics_snapshot();
    assert!(csnap.counter("client.requests").unwrap_or(0) >= sketches.len() as u64);
    assert_eq!(csnap.counter("client.requests"), csnap.counter("client.slow_requests"));
    assert!(csnap.histogram("client.request_ns").is_some_and(|h| h.count > 0));

    server.shutdown();

    // The flight dump holds slow_request events carrying the client's
    // trace id and a nonzero per-request span id — the cross-process
    // stitch point.
    let dump = std::fs::read_to_string(&flight_path).expect("flight.jsonl on shutdown");
    let traced: Vec<&str> = dump
        .lines()
        .filter(|l| {
            l.contains("\"kind\":\"slow_request\"")
                && l.contains(&format!("\"trace_id\":{TRACE_ID}"))
        })
        .collect();
    assert!(!traced.is_empty(), "no slow_request flight event carried the client trace id");
    assert!(
        traced.iter().any(|l| !l.contains("\"span_id\":0")),
        "traced slow requests must carry the client's span id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server spawned with `metrics: false` runs dark: `Introspect` still
/// answers (the protocol must not break when unobserved) but the
/// snapshot is empty, and nothing accumulates server-side.
#[test]
fn disabled_telemetry_serves_but_records_nothing() {
    let cluster = majority_cluster();
    let server = spawn(ServerConfig {
        telemetry: TelemetryConfig {
            metrics: false,
            flight_slots: 0,
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();

    let run = run_cs_over_server(&proto(), &cluster, K, server.addr(), &ServeRunConfig::default())
        .unwrap();
    assert_eq!(run.nodes, cluster.l() as u64);

    let mut poller = MetricsPoller::connect(server.addr(), &RetryPolicy::default()).unwrap();
    let snap = poller.poll().expect("introspect answers even when dark");
    assert!(snap.counters.is_empty(), "disabled registry must stay empty: {:?}", snap.counters);
    assert!(snap.histograms.is_empty());
    assert!(server.recorder().metrics_snapshot().is_empty());
    server.shutdown();
}
