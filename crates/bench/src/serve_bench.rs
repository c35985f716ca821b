//! Serving-layer throughput sweep (PR 5).
//!
//! Drives a live loopback `cso-serve` server with an increasing number of
//! concurrent ingest connections and reports, per connection count:
//!
//! - **sketches/sec** — wall-clock ingest throughput over the whole
//!   fan-out (open + every sketch ack'd);
//! - **p50/p99 ingest latency** — client-observed round-trip time of a
//!   single `Sketch` frame (write + server dispatch + ack), measured per
//!   request so the percentiles are exact rather than bucketed;
//! - the server's own `serve.*` accounting as a cross-check (every sent
//!   sketch must be accepted exactly once).
//!
//! Every sweep point seals and recovers its epoch afterwards (untimed), so
//! the path under test is the same open → ingest → seal → recover → report
//! lifecycle the protocol uses, not an ingest-only synthetic. With CSV
//! output enabled the table mirrors to `results/serve.csv` and a
//! machine-readable summary is written to `BENCH_pr5.json` (validated with
//! [`cso_obs::json::validate`]).
//!
//! The companion `serve_durable` sweep (PR 6) holds the fan-out fixed and
//! varies the durability configuration instead — no WAL at all (the PR 5
//! baseline), then `fsync=off`, `per-seal`, and `per-record` — quantifying
//! what journaling and each fsync policy cost on the ingest path
//! (`results/serve_durable.csv`, `BENCH_pr6.json`).

use crate::common::{Opts, Table};
use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_obs::json;
use cso_serve::{
    spawn, Durability, FsyncPolicy, MetricsPoller, ServeClient, ServerConfig, TelemetryConfig,
};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::time::Instant;

/// One row of the sweep.
struct Sample {
    connections: usize,
    nodes: usize,
    wall_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    sketches_per_s: f64,
}

/// Exact percentile of a sorted sample set (nearest-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Ingests `sketches` over `connections` concurrent clients against a
/// fresh epoch, then seals and recovers. Returns (wall ns of the timed
/// ingest fan-out, per-request RTT samples).
fn run_ingest(
    addr: std::net::SocketAddr,
    proto: &CsProtocol,
    n: usize,
    sketches: &[cso_linalg::Vector],
    connections: usize,
    epoch: u64,
    k: u32,
) -> (f64, Vec<u64>) {
    let retry = RetryPolicy::default();
    let m = proto.m as u32;
    let started = Instant::now();
    let all_rtts: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for c in 0..connections {
            handles.push(scope.spawn(move || {
                let (mut client, _) = ServeClient::open_with_backend(
                    addr,
                    &retry,
                    1,
                    epoch,
                    m,
                    n as u64,
                    proto.seed,
                    SketchBackend::dense(),
                )
                .expect("open epoch");
                let mut rtts = Vec::new();
                for (node, sketch) in sketches.iter().enumerate().skip(c).step_by(connections) {
                    let t = Instant::now();
                    client
                        .send_sketch(node as u32, sketch, SketchEncoding::F64)
                        .expect("sketch accepted");
                    rtts.push(t.elapsed().as_nanos() as u64);
                }
                rtts
            }));
        }
        handles.into_iter().map(|h| h.join().expect("ingest thread")).collect()
    });
    let wall_ns = started.elapsed().as_nanos() as f64;

    // Untimed: complete the lifecycle so the epoch is recovered, not
    // abandoned.
    let (mut control, _) = ServeClient::open_with_backend(
        addr,
        &retry,
        1,
        epoch,
        m,
        n as u64,
        proto.seed,
        SketchBackend::dense(),
    )
    .expect("control");
    assert_eq!(control.seal().expect("seal"), sketches.len() as u64);
    control.recover(k).expect("recover");

    (wall_ns, all_rtts.into_iter().flatten().collect())
}

/// The `serve_throughput` experiment: ingest throughput and latency versus
/// concurrent connection count against a live loopback server.
pub fn serve_throughput(opts: &Opts) {
    // Fast mode keeps the CI smoke quick; the default is sized so each
    // sweep point ships a few hundred frames.
    let (nodes, n, m, k) = if opts.trials <= 4 { (32, 256, 48, 4) } else { (192, 1024, 96, 8) };
    let connection_counts = [1usize, 2, 4, 8];

    let data =
        MajorityData::generate(&MajorityConfig { n, s: k, ..MajorityConfig::default() }, 2024)
            .expect("workload");
    let slices = split(&data.values, nodes, SliceStrategy::RandomProportions, 2025).expect("split");
    let cluster = Cluster::new(slices).expect("cluster");
    let proto = CsProtocol::new(m, 77);
    let sketches = proto.node_sketches(&cluster).expect("sketches");

    let server = spawn(ServerConfig {
        handlers: connection_counts.iter().copied().max().unwrap() + 1,
        queue_depth: 32,
        ..ServerConfig::default()
    })
    .expect("server");

    let mut samples = Vec::new();
    for (epoch, &connections) in connection_counts.iter().enumerate() {
        let (wall_ns, mut rtts) =
            run_ingest(server.addr(), &proto, n, &sketches, connections, epoch as u64, k as u32);
        rtts.sort_unstable();
        samples.push(Sample {
            connections,
            nodes,
            wall_ns,
            p50_ns: percentile(&rtts, 0.50),
            p99_ns: percentile(&rtts, 0.99),
            sketches_per_s: nodes as f64 / (wall_ns / 1e9),
        });
    }

    // Cross-check the server's own accounting before tearing it down.
    let metrics = server.recorder().metrics_snapshot();
    let expected = (nodes * connection_counts.len()) as u64;
    assert_eq!(
        metrics.counter("serve.sketches_accepted"),
        Some(expected),
        "server must have accepted every sketch exactly once"
    );
    assert_eq!(
        metrics.counter("serve.epochs_recovered"),
        Some(connection_counts.len() as u64),
        "every sweep epoch must have recovered"
    );
    server.shutdown();

    let mut table = Table::new(
        "serve",
        &["connections", "sketches", "wall_ms", "sketches_per_s", "p50_us", "p99_us"],
    );
    for s in &samples {
        table.row(&[
            &s.connections,
            &s.nodes,
            &format!("{:.2}", s.wall_ns / 1e6),
            &format!("{:.0}", s.sketches_per_s),
            &format!("{:.1}", s.p50_ns as f64 / 1e3),
            &format!("{:.1}", s.p99_ns as f64 / 1e3),
        ]);
    }
    table.finish(opts);

    if opts.write_csv {
        write_bench_json(&samples, n, m, k);
    }
}

/// One row of the durability sweep: an fsync policy (or no WAL at all)
/// and what the ingest path cost under it.
struct DurableSample {
    policy: &'static str,
    nodes: usize,
    wall_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    sketches_per_s: f64,
}

/// The `serve_durable` experiment: ingest cost versus durability policy at
/// a fixed connection fan-out. The `none` row is the PR 5 baseline (no
/// journal); every other row journals to a scratch WAL directory under the
/// named fsync policy. The JSON summary quantifies the per-seal policy's
/// ingest overhead against the baseline — the number the durability model
/// in DESIGN.md §11 budgets for.
pub fn serve_durable(opts: &Opts) {
    let (nodes, n, m, k) = if opts.trials <= 4 { (32, 256, 48, 4) } else { (192, 1024, 96, 8) };
    let connections = 4usize;
    let policies: [(&'static str, Option<FsyncPolicy>); 4] = [
        ("none", None),
        ("off", Some(FsyncPolicy::Off)),
        ("per-seal", Some(FsyncPolicy::PerSeal)),
        ("per-record", Some(FsyncPolicy::PerRecord)),
    ];

    let data =
        MajorityData::generate(&MajorityConfig { n, s: k, ..MajorityConfig::default() }, 2024)
            .expect("workload");
    let slices = split(&data.values, nodes, SliceStrategy::RandomProportions, 2025).expect("split");
    let cluster = Cluster::new(slices).expect("cluster");
    let proto = CsProtocol::new(m, 77);
    let sketches = proto.node_sketches(&cluster).expect("sketches");

    let mut samples = Vec::new();
    for (name, fsync) in policies {
        let wal_dir =
            std::env::temp_dir().join(format!("cso-bench-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let durability = fsync.map(|policy| {
            let mut d = Durability::at(&wal_dir);
            d.fsync = policy;
            d
        });
        let server = spawn(ServerConfig {
            handlers: connections + 1,
            queue_depth: 32,
            durability,
            ..ServerConfig::default()
        })
        .expect("server");

        let (wall_ns, mut rtts) =
            run_ingest(server.addr(), &proto, n, &sketches, connections, 0, k as u32);
        rtts.sort_unstable();

        let metrics = server.recorder().metrics_snapshot();
        assert_eq!(
            metrics.counter("serve.sketches_accepted"),
            Some(nodes as u64),
            "{name}: every sketch accepted exactly once"
        );
        if fsync.is_some() {
            assert!(
                metrics.counter("serve.wal_records").unwrap_or(0) >= nodes as u64,
                "{name}: every ingest must have been journaled"
            );
            assert_eq!(metrics.counter("serve.wal_errors"), None, "{name}: journal stayed healthy");
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);

        samples.push(DurableSample {
            policy: name,
            nodes,
            wall_ns,
            p50_ns: percentile(&rtts, 0.50),
            p99_ns: percentile(&rtts, 0.99),
            sketches_per_s: nodes as f64 / (wall_ns / 1e9),
        });
    }

    let baseline_ns = samples[0].wall_ns;
    let overhead_pct = |s: &DurableSample| (s.wall_ns / baseline_ns - 1.0) * 100.0;

    let mut table = Table::new(
        "serve_durable",
        &["fsync", "sketches", "wall_ms", "sketches_per_s", "p50_us", "p99_us", "overhead_pct"],
    );
    for s in &samples {
        table.row(&[
            &s.policy,
            &s.nodes,
            &format!("{:.2}", s.wall_ns / 1e6),
            &format!("{:.0}", s.sketches_per_s),
            &format!("{:.1}", s.p50_ns as f64 / 1e3),
            &format!("{:.1}", s.p99_ns as f64 / 1e3),
            &format!("{:+.1}", overhead_pct(s)),
        ]);
    }
    table.finish(opts);

    if opts.write_csv {
        write_durable_json(&samples, n, m, k, connections);
    }
}

/// One row of the telemetry sweep: a telemetry configuration and what the
/// ingest path cost under it.
struct TelemetrySample {
    config: &'static str,
    nodes: usize,
    wall_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    sketches_per_s: f64,
}

/// The `serve_telemetry` experiment (PR 7): ingest cost versus telemetry
/// configuration at a fixed connection fan-out.
///
/// Four rows, all identical except for observability:
///
/// - **off** — metrics registry disabled, flight recorder off. The
///   baseline every overhead number is relative to.
/// - **off-rerun** — the same configuration run again; its "overhead" is
///   the run-to-run noise floor, the yardstick for "≈ noise".
/// - **metrics** — the PR 5/6 status quo: counters + histograms on,
///   flight recorder off, nobody polling.
/// - **full** — metrics on, flight recorder on, slow-request tracking
///   armed, and a live [`MetricsPoller`] driving `Introspect` at
///   millisecond cadence for the whole ingest — a monitored production
///   server (`cso-top` itself polls three orders of magnitude slower).
///
/// The JSON summary headlines the `metrics` row's p50 ingest overhead
/// (target: < 5%) next to the measured noise floor.
pub fn serve_telemetry(opts: &Opts) {
    let (nodes, n, m, k) = if opts.trials <= 4 { (32, 256, 48, 4) } else { (192, 1024, 96, 8) };
    let connections = 4usize;

    let data =
        MajorityData::generate(&MajorityConfig { n, s: k, ..MajorityConfig::default() }, 2024)
            .expect("workload");
    let slices = split(&data.values, nodes, SliceStrategy::RandomProportions, 2025).expect("split");
    let cluster = Cluster::new(slices).expect("cluster");
    let proto = CsProtocol::new(m, 77);
    let sketches = proto.node_sketches(&cluster).expect("sketches");

    let configs: [&'static str; 4] = ["off", "off-rerun", "metrics", "full"];
    // Interleaved repetitions decorrelate slow host drift from the
    // config under test; RTT samples pool across reps so the p50 is
    // stable enough to price a percent-level overhead.
    let reps = if opts.trials <= 4 { 1 } else { 3 };
    let flight_dir =
        std::env::temp_dir().join(format!("cso-bench-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    std::fs::create_dir_all(&flight_dir).expect("flight dir");

    let mut pooled: Vec<(f64, Vec<u64>)> = configs.iter().map(|_| (0.0, Vec::new())).collect();
    for _rep in 0..reps {
        for (ci, name) in configs.iter().copied().enumerate() {
            let telemetry = match name {
                "off" | "off-rerun" => TelemetryConfig {
                    metrics: false,
                    flight_slots: 0,
                    flight_path: None,
                    ..TelemetryConfig::default()
                },
                "metrics" => TelemetryConfig { flight_slots: 0, ..TelemetryConfig::default() },
                _ => TelemetryConfig {
                    flight_path: Some(flight_dir.join("flight.jsonl")),
                    ..TelemetryConfig::default()
                },
            };
            let server = spawn(ServerConfig {
                handlers: connections + 2,
                queue_depth: 32,
                telemetry,
                ..ServerConfig::default()
            })
            .expect("server");

            // The `full` row runs under live introspection load: a poller
            // driving Introspect at millisecond cadence — already ~1000×
            // denser than cso-top's one-second default.
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let poller = (name == "full").then(|| {
                let addr = server.addr();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut poller =
                        MetricsPoller::connect(addr, &RetryPolicy::default()).expect("poller");
                    let mut polls = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        poller.poll().expect("introspect");
                        polls += 1;
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    polls
                })
            });

            let (wall_ns, rtts) =
                run_ingest(server.addr(), &proto, n, &sketches, connections, 0, k as u32);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let polls = poller.map(|h| h.join().expect("poller thread"));

            let metrics = server.recorder().metrics_snapshot();
            if name == "off" || name == "off-rerun" {
                assert!(
                    metrics.counter("serve.sketches_accepted").is_none(),
                    "{name}: disabled telemetry must record nothing"
                );
            } else {
                assert_eq!(
                    metrics.counter("serve.sketches_accepted"),
                    Some(nodes as u64),
                    "{name}: every sketch accepted exactly once"
                );
            }
            if let Some(polls) = polls {
                assert!(polls > 0, "full: the live poller must have completed polls");
                assert_eq!(
                    metrics.counter("serve.introspects"),
                    Some(polls),
                    "full: every poll answered exactly once"
                );
            }
            server.shutdown();

            pooled[ci].0 += wall_ns;
            pooled[ci].1.extend(rtts);
        }
    }
    let _ = std::fs::remove_dir_all(&flight_dir);

    let mut samples = Vec::new();
    for (ci, name) in configs.iter().copied().enumerate() {
        let (wall_ns, rtts) = &mut pooled[ci];
        rtts.sort_unstable();
        samples.push(TelemetrySample {
            config: name,
            nodes,
            wall_ns: *wall_ns / reps as f64,
            p50_ns: percentile(rtts, 0.50),
            p99_ns: percentile(rtts, 0.99),
            sketches_per_s: (nodes * reps) as f64 / (*wall_ns / 1e9),
        });
    }

    let baseline_p50 = samples[0].p50_ns.max(1) as f64;
    let overhead_pct = |s: &TelemetrySample| (s.p50_ns as f64 / baseline_p50 - 1.0) * 100.0;

    let mut table = Table::new(
        "serve_telemetry",
        &[
            "telemetry",
            "sketches",
            "wall_ms",
            "sketches_per_s",
            "p50_us",
            "p99_us",
            "p50_overhead_pct",
        ],
    );
    for s in &samples {
        table.row(&[
            &s.config,
            &s.nodes,
            &format!("{:.2}", s.wall_ns / 1e6),
            &format!("{:.0}", s.sketches_per_s),
            &format!("{:.1}", s.p50_ns as f64 / 1e3),
            &format!("{:.1}", s.p99_ns as f64 / 1e3),
            &format!("{:+.1}", overhead_pct(s)),
        ]);
    }
    table.finish(opts);

    if opts.write_csv {
        write_telemetry_json(&samples, n, m, k, connections);
    }
}

/// Writes the machine-readable telemetry sweep to `BENCH_pr7.json` (repo
/// root), headlined by the metrics-enabled p50 ingest overhead versus the
/// disabled baseline, next to the measured run-to-run noise floor.
fn write_telemetry_json(samples: &[TelemetrySample], n: usize, m: usize, k: usize, conns: usize) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let baseline_p50 = samples[0].p50_ns.max(1) as f64;
    let pct = |name: &str| {
        samples
            .iter()
            .find(|s| s.config == name)
            .map_or(0.0, |s| (s.p50_ns as f64 / baseline_p50 - 1.0) * 100.0)
    };
    let mut out = String::new();
    out.push_str("{\"bench\":\"serve_telemetry\",\"params\":{");
    out.push_str(&format!(
        "\"nodes\":{},\"n\":{n},\"m\":{m},\"k\":{k},\"connections\":{conns},\
         \"encoding\":\"f64\",\"host_cpus\":{cores}",
        samples.first().map_or(0, |s| s.nodes)
    ));
    out.push_str(&format!(
        "}},\"noise_floor_p50_pct\":{:.3},\"metrics_p50_overhead_pct\":{:.3},\
         \"full_p50_overhead_pct\":{:.3},\"sweep\":[",
        pct("off-rerun"),
        pct("metrics"),
        pct("full")
    ));
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"telemetry\":\"{}\",\"wall_ns\":{},\"sketches_per_s\":{},\
             \"p50_ingest_ns\":{},\"p99_ingest_ns\":{},\"p50_overhead_pct\":{:.3}}}",
            s.config,
            s.wall_ns,
            s.sketches_per_s,
            s.p50_ns,
            s.p99_ns,
            (s.p50_ns as f64 / baseline_p50 - 1.0) * 100.0
        ));
    }
    out.push_str("]}");
    json::validate(&out).expect("BENCH_pr7.json must be valid JSON");
    std::fs::write("BENCH_pr7.json", format!("{out}\n")).expect("write BENCH_pr7.json");
    println!("wrote BENCH_pr7.json");
}

/// Writes the machine-readable durability sweep to `BENCH_pr6.json` (repo
/// root), headlined by the per-seal policy's ingest overhead versus the
/// no-WAL baseline.
fn write_durable_json(samples: &[DurableSample], n: usize, m: usize, k: usize, conns: usize) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let baseline_ns = samples[0].wall_ns;
    let per_seal_overhead_pct = samples
        .iter()
        .find(|s| s.policy == "per-seal")
        .map_or(0.0, |s| (s.wall_ns / baseline_ns - 1.0) * 100.0);
    let mut out = String::new();
    out.push_str("{\"bench\":\"serve_durable\",\"params\":{");
    out.push_str(&format!(
        "\"nodes\":{},\"n\":{n},\"m\":{m},\"k\":{k},\"connections\":{conns},\
         \"encoding\":\"f64\",\"host_cpus\":{cores}",
        samples.first().map_or(0, |s| s.nodes)
    ));
    out.push_str(&format!(
        "}},\"per_seal_ingest_overhead_pct\":{per_seal_overhead_pct:.3},\"sweep\":["
    ));
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"fsync\":\"{}\",\"wall_ns\":{},\"sketches_per_s\":{},\
             \"p50_ingest_ns\":{},\"p99_ingest_ns\":{},\"ingest_overhead_pct\":{:.3}}}",
            s.policy,
            s.wall_ns,
            s.sketches_per_s,
            s.p50_ns,
            s.p99_ns,
            (s.wall_ns / baseline_ns - 1.0) * 100.0
        ));
    }
    out.push_str("]}");
    json::validate(&out).expect("BENCH_pr6.json must be valid JSON");
    std::fs::write("BENCH_pr6.json", format!("{out}\n")).expect("write BENCH_pr6.json");
    println!("wrote BENCH_pr6.json");
}

/// Simulated off-wire time per sketch per remote node: the order of a
/// same-region network RTT, and >> the server's per-frame cost.
const NODE_THINK: std::time::Duration = std::time::Duration::from_micros(300);

/// Like [`run_ingest`], but each client models a *remote node*: after
/// every acked sketch it spends [`NODE_THINK`] off the wire (the link RTT
/// plus local sketch work a WAN node would pay between frames). Used by
/// the sharded sweep so the fan-out axis measures connection multiplexing
/// — the readiness loop's job — rather than loopback syscall throughput,
/// which on a single-core host is already saturated by one ping-pong
/// connection.
fn run_ingest_remote(
    addr: std::net::SocketAddr,
    proto: &CsProtocol,
    n: usize,
    sketches: &[cso_linalg::Vector],
    connections: usize,
    epoch: u64,
    k: u32,
) -> (f64, Vec<u64>) {
    let retry = RetryPolicy::default();
    let m = proto.m as u32;
    let started = Instant::now();
    let all_rtts: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for c in 0..connections {
            handles.push(scope.spawn(move || {
                let (mut client, _) = ServeClient::open_with_backend(
                    addr,
                    &retry,
                    1,
                    epoch,
                    m,
                    n as u64,
                    proto.seed,
                    SketchBackend::dense(),
                )
                .expect("open epoch");
                let mut rtts = Vec::new();
                for (node, sketch) in sketches.iter().enumerate().skip(c).step_by(connections) {
                    let t = Instant::now();
                    client
                        .send_sketch(node as u32, sketch, SketchEncoding::F64)
                        .expect("sketch accepted");
                    rtts.push(t.elapsed().as_nanos() as u64);
                    std::thread::sleep(NODE_THINK);
                }
                rtts
            }));
        }
        handles.into_iter().map(|h| h.join().expect("ingest thread")).collect()
    });
    let wall_ns = started.elapsed().as_nanos() as f64;

    let (mut control, _) = ServeClient::open_with_backend(
        addr,
        &retry,
        1,
        epoch,
        m,
        n as u64,
        proto.seed,
        SketchBackend::dense(),
    )
    .expect("control");
    assert_eq!(control.seal().expect("seal"), sketches.len() as u64);
    control.recover(k).expect("recover");

    (wall_ns, all_rtts.into_iter().flatten().collect())
}

/// The `serve_sharded` experiment (PR 8): connection-scaling sweep on the
/// epoll engine with lock-free ingest pads, plus an overload soak.
///
/// **Sweep** — each connection is a simulated remote node: strict
/// request/response (one in-flight sketch), with a fixed think interval
/// between sketches standing in for the WAN RTT + local sketch work a
/// real node pays off the wire. One such connection leaves the server
/// almost entirely idle; the fan-out axis measures how well the
/// readiness loop and the lock-free ingest pads *multiplex* concurrent
/// connections — the property the epoll rewrite exists for. (A pure
/// loopback ping-pong sweep without think time is the `serve_throughput`
/// experiment; on a single-core container it saturates the CPU at one
/// connection and cannot show connection scaling.) The headline number is
/// `scaling_x_at_8` = throughput(8 conns) / throughput(1 conn).
///
/// **Overload** — the same traffic shoved through a server with a tiny
/// admission cap (`handlers + queue_depth` ≪ clients). The engine must
/// shed load with typed `Busy` rejects (counted), keep the accepted
/// traffic's p99 bounded, and finish the epoch lifecycle normally — the
/// "stays live under overload" guarantee OPERATIONS.md documents.
///
/// With CSV output enabled the sweep mirrors to `results/serve_sharded.csv`
/// and the machine-readable summary (sweep + overload + scaling headline)
/// is written to `BENCH_pr8.json`.
pub fn serve_sharded(opts: &Opts) {
    let (nodes, n, m, k) = if opts.trials <= 4 { (64, 256, 48, 4) } else { (768, 2048, 96, 8) };
    let connection_counts = [1usize, 2, 4, 8, 12];

    let data =
        MajorityData::generate(&MajorityConfig { n, s: k, ..MajorityConfig::default() }, 2024)
            .expect("workload");
    let slices = split(&data.values, nodes, SliceStrategy::RandomProportions, 2025).expect("split");
    let cluster = Cluster::new(slices).expect("cluster");
    let proto = CsProtocol::new(m, 77);
    let sketches = proto.node_sketches(&cluster).expect("sketches");

    // Two readiness-loop workers: the scaling must come from batched
    // wakeups and lock-free pads, not from a worker thread per
    // connection.
    let server = spawn(ServerConfig {
        handlers: 2,
        queue_depth: connection_counts.iter().copied().max().unwrap() + 2,
        ..ServerConfig::default()
    })
    .expect("server");

    let mut samples = Vec::new();
    for (epoch, &connections) in connection_counts.iter().enumerate() {
        let (wall_ns, mut rtts) = run_ingest_remote(
            server.addr(),
            &proto,
            n,
            &sketches,
            connections,
            epoch as u64,
            k as u32,
        );
        rtts.sort_unstable();
        samples.push(Sample {
            connections,
            nodes,
            wall_ns,
            p50_ns: percentile(&rtts, 0.50),
            p99_ns: percentile(&rtts, 0.99),
            sketches_per_s: nodes as f64 / (wall_ns / 1e9),
        });
    }

    let metrics = server.recorder().metrics_snapshot();
    let expected = (nodes * connection_counts.len()) as u64;
    assert_eq!(
        metrics.counter("serve.sketches_accepted"),
        Some(expected),
        "server must have accepted every sketch exactly once"
    );
    assert!(
        metrics.counter("serve.shard_lockfree_ingests").unwrap_or(0) > 0,
        "the sweep must exercise the lock-free ingest fast path"
    );
    assert!(
        metrics.counter("serve.shard_locked_dispatches").unwrap_or(0) > 0,
        "opens/seals/recovers go through the store-locked path"
    );
    server.shutdown();

    // Overload soak: 12 strict clients against an admission cap of 3.
    // Rejected opens retry with backoff; every sketch must still land
    // exactly once and the lifecycle must complete.
    let overload_conns = 12usize;
    let overload_cap = 3u64; // handlers + queue_depth below
    let over_server = spawn(ServerConfig {
        handlers: 1,
        queue_depth: 2,
        retry_after_ms: 1,
        ..ServerConfig::default()
    })
    .expect("overload server");
    let patient = cso_distributed::RetryPolicy {
        max_attempts: 400,
        base_backoff_ticks: 1,
        max_backoff_ticks: 4,
        ..cso_distributed::RetryPolicy::default()
    };
    let over_started = Instant::now();
    let over_rtts: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(overload_conns);
        for c in 0..overload_conns {
            let (addr, proto, patient, sketches) =
                (over_server.addr(), &proto, &patient, &sketches);
            handles.push(scope.spawn(move || {
                let mut rtts = Vec::new();
                for (node, sketch) in sketches.iter().enumerate().skip(c).step_by(overload_conns) {
                    // Open per stripe chunk so admission churns: each
                    // client repeatedly competes for one of the 3 seats.
                    let (mut client, _) = ServeClient::open_with_backend(
                        addr,
                        patient,
                        1,
                        0,
                        proto.m as u32,
                        n as u64,
                        proto.seed,
                        SketchBackend::dense(),
                    )
                    .expect("open under overload (patient retry)");
                    let t = Instant::now();
                    client
                        .send_sketch(node as u32, sketch, SketchEncoding::F64)
                        .expect("sketch accepted under overload");
                    rtts.push(t.elapsed().as_nanos() as u64);
                }
                rtts
            }));
        }
        handles.into_iter().map(|h| h.join().expect("overload thread")).collect()
    });
    let over_wall_ns = over_started.elapsed().as_nanos() as f64;
    let mut over_rtts: Vec<u64> = over_rtts.into_iter().flatten().collect();
    over_rtts.sort_unstable();

    let over_metrics = over_server.recorder().metrics_snapshot();
    let busy_rejects = over_metrics.counter("serve.conns_rejected_busy").unwrap_or(0);
    assert!(busy_rejects > 0, "the overload soak must actually trip admission control");
    assert_eq!(
        over_metrics.counter("serve.sketches_accepted"),
        Some(nodes as u64),
        "overload: every sketch accepted exactly once despite Busy churn"
    );
    // Liveness after the storm: the same server completes the lifecycle.
    let (mut control, _) = ServeClient::open_with_backend(
        over_server.addr(),
        &patient,
        1,
        0,
        proto.m as u32,
        n as u64,
        proto.seed,
        SketchBackend::dense(),
    )
    .expect("control after overload");
    assert_eq!(control.seal().expect("seal after overload"), nodes as u64);
    control.recover(k as u32).expect("recover after overload");
    drop(control);
    over_server.shutdown();

    let over = Sample {
        connections: overload_conns,
        nodes,
        wall_ns: over_wall_ns,
        p50_ns: percentile(&over_rtts, 0.50),
        p99_ns: percentile(&over_rtts, 0.99),
        sketches_per_s: nodes as f64 / (over_wall_ns / 1e9),
    };

    let thpt =
        |c: usize| samples.iter().find(|s| s.connections == c).map_or(0.0, |s| s.sketches_per_s);
    let scaling_x_at_8 = if thpt(1) > 0.0 { thpt(8) / thpt(1) } else { 0.0 };

    let mut table = Table::new(
        "serve_sharded",
        &["connections", "sketches", "wall_ms", "sketches_per_s", "p50_us", "p99_us", "row"],
    );
    for s in &samples {
        table.row(&[
            &s.connections,
            &s.nodes,
            &format!("{:.2}", s.wall_ns / 1e6),
            &format!("{:.0}", s.sketches_per_s),
            &format!("{:.1}", s.p50_ns as f64 / 1e3),
            &format!("{:.1}", s.p99_ns as f64 / 1e3),
            &"sweep",
        ]);
    }
    table.row(&[
        &over.connections,
        &over.nodes,
        &format!("{:.2}", over.wall_ns / 1e6),
        &format!("{:.0}", over.sketches_per_s),
        &format!("{:.1}", over.p50_ns as f64 / 1e3),
        &format!("{:.1}", over.p99_ns as f64 / 1e3),
        &format!("overload(cap={overload_cap},busy={busy_rejects})"),
    ]);
    table.finish(opts);
    println!("serve_sharded: scaling at 8 connections = {scaling_x_at_8:.2}x");

    if opts.write_csv {
        write_sharded_json(&samples, &over, scaling_x_at_8, busy_rejects, overload_cap, n, m, k);
    }
}

/// Writes the machine-readable sharded sweep to `BENCH_pr8.json` (repo
/// root), headlined by the 8-connection throughput scaling factor and the
/// overload soak's bounded p99 + Busy-reject count.
#[allow(clippy::too_many_arguments)]
fn write_sharded_json(
    samples: &[Sample],
    over: &Sample,
    scaling_x_at_8: f64,
    busy_rejects: u64,
    overload_cap: u64,
    n: usize,
    m: usize,
    k: usize,
) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\"bench\":\"serve_sharded\",\"params\":{");
    out.push_str(&format!(
        "\"nodes\":{},\"n\":{n},\"m\":{m},\"k\":{k},\"encoding\":\"f64\",\
         \"workers\":2,\"node_think_us\":{},\"host_cpus\":{cores}",
        samples.first().map_or(0, |s| s.nodes),
        NODE_THINK.as_micros()
    ));
    out.push_str(&format!("}},\"scaling_x_at_8\":{scaling_x_at_8:.3},\"sweep\":["));
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"connections\":{},\"wall_ns\":{},\"sketches_per_s\":{},\
             \"p50_ingest_ns\":{},\"p99_ingest_ns\":{}}}",
            s.connections, s.wall_ns, s.sketches_per_s, s.p50_ns, s.p99_ns
        ));
    }
    out.push_str(&format!(
        "],\"overload\":{{\"connections\":{},\"admission_cap\":{overload_cap},\
         \"busy_rejects\":{busy_rejects},\"wall_ns\":{},\"sketches_per_s\":{},\
         \"p50_ingest_ns\":{},\"p99_ingest_ns\":{}}}}}",
        over.connections, over.wall_ns, over.sketches_per_s, over.p50_ns, over.p99_ns
    ));
    json::validate(&out).expect("BENCH_pr8.json must be valid JSON");
    std::fs::write("BENCH_pr8.json", format!("{out}\n")).expect("write BENCH_pr8.json");
    println!("wrote BENCH_pr8.json");
}

/// Writes the machine-readable sweep to `BENCH_pr5.json` (repo root).
fn write_bench_json(samples: &[Sample], n: usize, m: usize, k: usize) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\"bench\":\"serve_throughput\",\"params\":{");
    out.push_str(&format!(
        "\"nodes\":{},\"n\":{n},\"m\":{m},\"k\":{k},\"encoding\":\"f64\",\"host_cpus\":{cores}",
        samples.first().map_or(0, |s| s.nodes)
    ));
    out.push_str("},\"sweep\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"connections\":{},\"wall_ns\":{},\"sketches_per_s\":{},\
             \"p50_ingest_ns\":{},\"p99_ingest_ns\":{}}}",
            s.connections, s.wall_ns, s.sketches_per_s, s.p50_ns, s.p99_ns
        ));
    }
    out.push_str("]}");
    json::validate(&out).expect("BENCH_pr5.json must be valid JSON");
    std::fs::write("BENCH_pr5.json", format!("{out}\n")).expect("write BENCH_pr5.json");
    println!("wrote BENCH_pr5.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.0), 10);
        assert_eq!(percentile(&sorted, 0.5), 30);
        assert_eq!(percentile(&sorted, 1.0), 40);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn serve_throughput_smoke_runs_without_artifacts() {
        serve_throughput(&Opts { trials: 1, write_csv: false });
    }

    #[test]
    fn serve_durable_smoke_runs_without_artifacts() {
        serve_durable(&Opts { trials: 1, write_csv: false });
    }

    #[test]
    fn serve_telemetry_smoke_runs_without_artifacts() {
        serve_telemetry(&Opts { trials: 1, write_csv: false });
    }

    #[test]
    fn serve_sharded_smoke_runs_without_artifacts() {
        serve_sharded(&Opts { trials: 1, write_csv: false });
    }
}
