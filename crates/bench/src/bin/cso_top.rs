//! `cso-top` — a live, one-line-per-interval view of a running
//! `cso-serve` server, built on the in-band `Introspect` protocol.
//!
//! Usage:
//! ```text
//! cso-top 127.0.0.1:7070                 # poll once a second, forever
//! cso-top 127.0.0.1:7070 --interval-ms 250 --count 20
//! cso-top --self-test                    # spawn a server + sweep, poll it,
//!                                        # verify the numbers, exit 0
//! ```
//!
//! Each line is the delta between two consecutive
//! [`MetricsSnapshot`]s: ingest rate, windowed
//! p50/p99 ingest latency, WAL fsync p99, busy rejects, and the current
//! queue/session/epoch occupancy gauges. The server answers `Introspect`
//! off the registry and occupancy atomics — polling never touches the
//! store lock, so watching a server does not perturb it.
//!
//! When the polled process is a **relay** (it publishes `relay.*`
//! metrics next to the `serve.*` rows), the view grows the relay-role
//! columns automatically: region id, upstream link state, forwarded
//! seals, the per-subtree ingest rate the parent sees (leaf
//! sketches/s folded into forwarded pre-sums), and upstream reconnects.
//!
//! `--self-test` is the CI smoke: it spawns its own loopback server with
//! the flight recorder armed, drives a three-epoch ingest sweep in the
//! background, renders the live view against it while checking that every
//! polled counter is monotone, then verifies the final totals and the
//! flight-recorder dump left by graceful shutdown.

use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_obs::{json, Histogram, MetricsSnapshot};
use cso_serve::{spawn, MetricsPoller, ServeClient, ServerConfig, TelemetryConfig};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How often the column header reprints in the live view.
const HEADER_EVERY: u64 = 20;

fn usage() -> ! {
    eprintln!("usage: cso-top <addr> [--interval-ms N] [--count N] | --self-test");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<SocketAddr> = None;
    let mut interval = Duration::from_millis(1000);
    let mut count = 0u64; // 0 = forever
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self-test" => self_test = true,
            "--interval-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                interval = Duration::from_millis(v.parse().unwrap_or_else(|_| usage()));
            }
            "--count" => {
                let v = it.next().unwrap_or_else(|| usage());
                count = v.parse().unwrap_or_else(|_| usage());
            }
            other if other.starts_with('-') => usage(),
            other => addr = Some(other.parse().unwrap_or_else(|_| usage())),
        }
    }

    if self_test {
        run_self_test(interval.min(Duration::from_millis(50)));
        println!("cso-top self-test: ok");
        return;
    }
    let Some(addr) = addr else { usage() };
    let mut poller = match MetricsPoller::connect(addr, &RetryPolicy::default()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cso-top: cannot reach {addr}: {e:?}");
            std::process::exit(1);
        }
    };
    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    let mut lines = 0u64;
    loop {
        let snap = match poller.poll() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cso-top: poll failed: {e:?}");
                std::process::exit(1);
            }
        };
        let now = Instant::now();
        if let Some((earlier, t0)) = prev.take() {
            if lines.is_multiple_of(HEADER_EVERY) {
                println!("{}", header(is_relay(&snap)));
            }
            println!("{}", render(&snap, &earlier, now - t0));
            lines += 1;
            if count > 0 && lines >= count {
                return;
            }
        }
        prev = Some((snap, now));
        std::thread::sleep(interval);
    }
}

/// A relay publishes its region id as a gauge at spawn; its presence in
/// a snapshot is what flips the view into relay mode.
fn is_relay(snap: &MetricsSnapshot) -> bool {
    snap.gauge("relay.region").is_some()
}

fn header(relay: bool) -> String {
    let mut line = format!(
        "{:>10} {:>9} {:>9} {:>10} {:>6} {:>5} {:>6} {:>6}",
        "sk/s", "p50_us", "p99_us", "wal99_us", "rej", "q", "sess", "epochs"
    );
    if relay {
        line.push_str(&format!(
            " {:>5} {:>4} {:>6} {:>9} {:>5}",
            "regn", "link", "fwd", "fwd_nd/s", "recon"
        ));
    }
    line
}

/// Formats one interval: rates and windowed percentiles from the delta,
/// occupancy from the newer snapshot's gauges. Relay columns (if the
/// process is one) come from the same snapshot pair: link state is the
/// current gauge, forwarded seals are cumulative, and the per-subtree
/// ingest rate is the interval's forwarded-leaf-sketch delta.
fn render(snap: &MetricsSnapshot, earlier: &MetricsSnapshot, dt: Duration) -> String {
    let d = snap.delta(earlier);
    let secs = dt.as_secs_f64().max(1e-9);
    let rate = d.counter("serve.sketches_accepted").unwrap_or(0) as f64 / secs;
    let ingest = d.histogram("serve.ingest_ns");
    let us = |h: Option<&Histogram>, p: f64| {
        h.map_or_else(|| "-".to_string(), |h| format!("{:.1}", h.percentile(p) as f64 / 1e3))
    };
    let rejects = d.counter("serve.conns_rejected_busy").unwrap_or(0)
        + d.counter("serve.conns_rejected_shutdown").unwrap_or(0);
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0) as u64;
    let mut line = format!(
        "{:>10.0} {:>9} {:>9} {:>10} {:>6} {:>5} {:>6} {:>6}",
        rate,
        us(ingest, 0.50),
        us(ingest, 0.99),
        us(d.histogram("serve.wal_fsync_ns"), 0.99),
        rejects,
        gauge("serve.queue_depth"),
        gauge("serve.sessions"),
        gauge("serve.epochs"),
    );
    if is_relay(snap) {
        let link =
            if snap.gauge("relay.upstream_link_up").unwrap_or(0.0) >= 1.0 { "up" } else { "down" };
        line.push_str(&format!(
            " {:>5} {:>4} {:>6} {:>9.0} {:>5}",
            gauge("relay.region"),
            link,
            snap.counter("relay.forwards").unwrap_or(0),
            d.counter("relay.forwarded_nodes").unwrap_or(0) as f64 / secs,
            snap.counter("relay.upstream_reconnects").unwrap_or(0),
        ));
    }
    line
}

/// Spawns a telemetry-armed loopback server plus a background ingest
/// sweep, renders the live view against it while asserting monotone
/// counters, then checks the final totals and the shutdown flight dump.
fn run_self_test(interval: Duration) {
    let (nodes, n, m, k) = (24usize, 128usize, 32usize, 4usize);
    let epochs = 3u64;
    let dir = std::env::temp_dir().join(format!("cso-top-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flight_path = dir.join("flight.jsonl");

    let server = spawn(ServerConfig {
        handlers: 4,
        queue_depth: 16,
        telemetry: TelemetryConfig {
            flight_path: Some(flight_path.clone()),
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("self-test server");
    let addr = server.addr();

    // Background sweep: three full open → ingest → seal → recover epochs.
    let sweep = std::thread::spawn(move || {
        let data =
            MajorityData::generate(&MajorityConfig { n, s: k, ..MajorityConfig::default() }, 2024)
                .expect("workload");
        let slices =
            split(&data.values, nodes, SliceStrategy::RandomProportions, 2025).expect("split");
        let cluster = Cluster::new(slices).expect("cluster");
        let proto = CsProtocol::new(m, 77);
        let sketches = proto.node_sketches(&cluster).expect("sketches");
        let retry = RetryPolicy::default();
        for epoch in 0..epochs {
            let (mut client, _) = ServeClient::open_with_backend(
                addr,
                &retry,
                1,
                epoch,
                m as u32,
                n as u64,
                proto.seed,
                SketchBackend::dense(),
            )
            .expect("open epoch");
            for (node, sketch) in sketches.iter().enumerate() {
                client.send_sketch(node as u32, sketch, SketchEncoding::F64).expect("sketch");
            }
            assert_eq!(client.seal().expect("seal"), nodes as u64);
            client.recover(k as u32).expect("recover");
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    // Live view: poll until the sweep lands, asserting monotonicity on
    // every interval. Counters a server only increments must never move
    // backwards between two polls of the same process.
    let mut poller = MetricsPoller::connect(addr, &RetryPolicy::default()).expect("poller");
    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    let mut rendered = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = poller.poll().expect("introspect poll");
        let now = Instant::now();
        if let Some((earlier, t0)) = &prev {
            for name in ["serve.sketches_accepted", "serve.frames_handled", "serve.introspects"] {
                let (a, b) = (earlier.counter(name).unwrap_or(0), snap.counter(name).unwrap_or(0));
                assert!(b >= a, "{name} went backwards: {a} -> {b}");
            }
            if rendered.is_multiple_of(HEADER_EVERY) {
                println!("{}", header(is_relay(&snap)));
            }
            println!("{}", render(&snap, earlier, now - *t0));
            rendered += 1;
        }
        let done = snap.counter("serve.epochs_recovered") == Some(epochs);
        prev = Some((snap, now));
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "self-test sweep did not finish in 30s");
        std::thread::sleep(interval);
    }
    sweep.join().expect("sweep thread");

    // Final totals: every sketch of every epoch accepted exactly once,
    // with the live poller counted in-band.
    let last = poller.poll().expect("final poll");
    assert_eq!(last.counter("serve.sketches_accepted"), Some(nodes as u64 * epochs));
    assert_eq!(last.counter("serve.epochs_recovered"), Some(epochs));
    assert!(last.counter("serve.introspects").unwrap_or(0) >= rendered);
    assert!(rendered > 0, "the live view must have rendered at least one line");
    assert!(
        last.histogram("serve.ingest_ns").is_some_and(|h| h.count > 0),
        "windowed ingest latency must be populated"
    );
    drop(poller);
    server.shutdown();

    // Graceful shutdown dumps the flight recorder: the file must exist,
    // parse line-by-line, and end with the shutdown marker.
    let dump = std::fs::read_to_string(&flight_path).expect("flight.jsonl written on shutdown");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty(), "flight dump must not be empty");
    for line in &lines {
        json::validate(line).expect("flight dump line must be valid JSON");
    }
    assert!(
        lines.last().is_some_and(|l| l.contains("\"kind\":\"shutdown\"")),
        "flight dump must end with the shutdown event"
    );
    let _ = std::fs::remove_dir_all(&dir);

    run_relay_leg(interval);
}

/// The relay leg of the self-test: the same binary pointed at a relay
/// must flip into relay mode — detect the role, render the extra
/// columns, and report link state, forwarded seals and the per-subtree
/// ingest rate from the `relay.*` metrics.
fn run_relay_leg(interval: Duration) {
    use cso_distributed::TopologySpec;
    use cso_linalg::Vector;
    use cso_serve::{spawn_relay, RelayConfig};

    let (m, n, fan_in) = (16usize, 64u64, 4u64);
    let root = spawn(ServerConfig::default()).expect("relay-leg root");
    let topology = TopologySpec::new(2 * fan_in, fan_in).expect("topology");
    let relay = spawn_relay(RelayConfig::new(root.addr(), 0, topology)).expect("relay");

    // One region epoch: ingest the region's leaves at their absolute ids
    // and seal, which arms the forwarder.
    let retry = RetryPolicy::default();
    let (mut leaf, _) = ServeClient::open_with_backend(
        relay.addr(),
        &retry,
        7,
        0,
        m as u32,
        n,
        99,
        SketchBackend::dense(),
    )
    .expect("open via relay");
    for l in 0..fan_in {
        let sketch = Vector::from_vec((0..m).map(|i| l as f64 + 0.25 * i as f64).collect());
        leaf.send_sketch(l as u32, &sketch, SketchEncoding::F64).expect("leaf sketch");
    }
    assert_eq!(leaf.seal().expect("seal region"), fan_in);
    drop(leaf);

    // Poll the relay until the forward lands upstream, rendering the
    // relay-mode view along the way.
    let mut poller = MetricsPoller::connect(relay.addr(), &retry).expect("relay poller");
    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    let last = loop {
        let snap = poller.poll().expect("relay introspect");
        assert!(is_relay(&snap), "a relay must be detected from its relay.* metrics");
        let now = Instant::now();
        if let Some((earlier, t0)) = &prev {
            println!("{}", header(true));
            let line = render(&snap, earlier, now - *t0);
            println!("{line}");
            assert!(line.contains(" up") || line.contains(" down"), "link column missing");
        }
        if snap.counter("relay.forwards") == Some(1) {
            break snap;
        }
        prev = Some((snap, now));
        assert!(Instant::now() < deadline, "relay never forwarded its sealed epoch");
        std::thread::sleep(interval);
    };

    // The forwarded seal carried the whole subtree exactly once, over a
    // live upstream link.
    assert_eq!(last.counter("relay.forwarded_nodes"), Some(fan_in));
    assert_eq!(last.gauge("relay.upstream_link_up"), Some(1.0));
    assert_eq!(last.gauge("relay.region"), Some(0.0));
    let mut root_poller = MetricsPoller::connect(root.addr(), &retry).expect("root poller");
    let root_snap = root_poller.poll().expect("root introspect");
    assert!(!is_relay(&root_snap), "the flat root must not render relay columns");
    assert_eq!(
        root_snap.counter("serve.sketches_accepted"),
        Some(1),
        "the root must see exactly one super-node ingest for the region"
    );
    drop(poller);
    drop(root_poller);
    relay.shutdown();
    root.shutdown();
}
