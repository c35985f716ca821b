//! Hierarchical relay-tier sweep (PR 10).
//!
//! Runs the same workload through a flat topology (every leaf ingests
//! straight into the root) and through a two-level tree (leaves → one
//! relay per region → root) for fan-in ∈ {2, 4, 8}, and reports, per
//! fan-in:
//!
//! - **cross-DC bytes** — the relay→root traffic as metered by the
//!   relays' own `relay.upstream_bytes_sent` ledger, against the flat
//!   topology's leaf→root ingest bytes, and the reduction factor between
//!   them (the tree's reason to exist: one pre-sum crosses the boundary
//!   where the flat topology ships `fan_in` leaf sketches);
//! - **root ingest rate** — super-node sketches/s absorbed at the root
//!   during the tree ingest, alongside the root's total sketch count
//!   (exactly `leaves / fan_in`);
//! - a **bit-identity cross-check** — every tree run's recovered mode and
//!   outlier set must carry exactly the bits of the flat run's, asserted
//!   before any row is reported (DESIGN.md §14's composition law, live).
//!
//! With CSV output enabled the table mirrors to
//! `results/tree_topology.csv` and a machine-readable summary is written
//! to `BENCH_pr10.json` (validated with [`cso_obs::json::validate`]).

use crate::common::{Opts, Table};
use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy, TopologySpec};
use cso_obs::json;
use cso_serve::{spawn, spawn_relay, EpochPhase, RelayConfig, ServeClient, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SESSION: u64 = 1;
const EPOCH: u64 = 0;
const SEED: u64 = 11;

/// One row of the sweep.
struct TreeSample {
    fan_in: u64,
    regions: u64,
    leaves: usize,
    flat_ingest_bytes: u64,
    cross_dc_bytes: u64,
    byte_reduction: f64,
    root_sketches: u64,
    root_ingest_per_s: f64,
    wall_ns: f64,
}

/// A deterministic per-leaf workload whose values differ enough between
/// leaves that any mis-parenthesized fold changes low-order bits — the
/// bit-identity cross-check has teeth.
fn cluster(leaves: usize, n: usize) -> Cluster {
    let slices: Vec<Vec<f64>> = (0..leaves)
        .map(|l| {
            (0..n)
                .map(|i| {
                    let base = 40.0 + (i as f64) * 0.01 + (l as f64) * 0.37;
                    if i % 53 == l % 53 {
                        base + 900.0
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect();
    Cluster::new(slices).expect("cluster")
}

fn open(addr: SocketAddr, m: u32, n: u64) -> ServeClient {
    let retry = RetryPolicy { max_attempts: 100, ..RetryPolicy::default() };
    let (client, _) = ServeClient::open_with_backend(
        addr,
        &retry,
        SESSION,
        EPOCH,
        m,
        n,
        SEED,
        SketchBackend::dense(),
    )
    .expect("open epoch");
    client
}

/// Flat baseline: every leaf ingests straight into a fresh root.
/// Returns `(mode, outliers, ingest_bytes)`.
fn run_flat(
    proto: &CsProtocol,
    sketches: &[cso_linalg::Vector],
    n: u64,
    k: u32,
) -> (f64, Vec<(u32, f64)>, u64) {
    let server = spawn(ServerConfig::default()).expect("flat server");
    let mut client = open(server.addr(), proto.m as u32, n);
    for (leaf, sketch) in sketches.iter().enumerate() {
        client.send_sketch(leaf as u32, sketch, SketchEncoding::F64).expect("flat ingest");
    }
    assert_eq!(client.seal().expect("flat seal"), sketches.len() as u64);
    let (mode, outliers) = client.recover(k).expect("flat recover");
    let bytes = client.bytes_sent();
    server.shutdown();
    (mode, outliers, bytes)
}

/// Tree run: one relay per region, leaves ingesting at absolute ids,
/// forwarders pushing pre-sums upstream. Returns the sweep row plus the
/// recovered `(mode, outliers)` for the bit-identity cross-check.
fn run_tree(
    proto: &CsProtocol,
    topology: TopologySpec,
    sketches: &[cso_linalg::Vector],
    n: u64,
    k: u32,
) -> (f64, Vec<(u32, f64)>, u64, u64, f64) {
    let m = proto.m as u32;
    let regions = topology.region_count();
    let root = spawn(ServerConfig::default()).expect("root");
    let relays: Vec<_> = (0..regions)
        .map(|g| spawn_relay(RelayConfig::new(root.addr(), g as u32, topology)).expect("relay"))
        .collect();

    let started = Instant::now();
    for (g, relay) in relays.iter().enumerate() {
        let (lo, hi) = topology.leaf_range(g as u64).expect("region range");
        let mut client = open(relay.addr(), m, n);
        for leaf in lo..hi {
            client
                .send_sketch(leaf as u32, &sketches[leaf as usize], SketchEncoding::F64)
                .expect("leaf ingest");
        }
        assert_eq!(client.seal().expect("region seal"), hi - lo);
    }

    // The tree ingest is done when every region's pre-sum landed at the
    // root — that window (leaf ingest + forward) is the timed section.
    let mut control = open(root.addr(), m, n);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (phase, nodes) = control.status().expect("root status");
        assert_eq!(phase, EpochPhase::Ingest, "root epoch sealed early");
        if nodes == regions {
            break;
        }
        assert!(Instant::now() < deadline, "only {nodes}/{regions} regions forwarded");
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall_ns = started.elapsed().as_nanos() as f64;

    // The root counts a pre-sum on arrival, a beat before the relay
    // journals the ack and bumps its ledger — wait out that window
    // rather than racing it.
    let cross_dc: u64 = relays
        .iter()
        .map(|r| {
            let ledger_deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let snap = r.server().recorder().metrics_snapshot();
                if snap.counter("relay.forwards") == Some(1) {
                    break snap.counter("relay.upstream_bytes_sent").expect("cross-DC ledger");
                }
                assert!(Instant::now() < ledger_deadline, "relay never journaled its forward");
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .sum();

    assert_eq!(control.seal().expect("root seal"), regions);
    let (mode, outliers) = control.recover(k).expect("root recover");
    let root_sketches = root
        .recorder()
        .metrics_snapshot()
        .counter("serve.sketches_accepted")
        .expect("root ingest count");
    for relay in relays {
        relay.shutdown();
    }
    root.shutdown();
    (mode, outliers, cross_dc, root_sketches, wall_ns)
}

/// The `tree_topology` experiment: flat-vs-tree cost and bit-identity
/// across fan-ins.
pub fn tree_topology(opts: &Opts) {
    let (leaves, n_per_leaf, m, k) =
        if opts.trials <= 4 { (16usize, 160usize, 48, 4u32) } else { (64, 320, 96, 6) };
    let fan_ins = [2u64, 4, 8];

    let cluster = cluster(leaves, n_per_leaf);
    let n = cluster.n() as u64;
    let proto = CsProtocol::new(m, SEED);
    let sketches = proto.node_sketches(&cluster).expect("sketches");

    let (flat_mode, flat_outliers, flat_bytes) = run_flat(&proto, &sketches, n, k);

    let mut samples = Vec::new();
    for &fan_in in &fan_ins {
        let topology = TopologySpec::new(leaves as u64, fan_in).expect("topology");
        let (mode, outliers, cross_dc, root_sketches, wall_ns) =
            run_tree(&proto, topology, &sketches, n, k);

        // The topology change must be invisible in the output — exact
        // bits, checked before the row is allowed into the table.
        assert_eq!(mode.to_bits(), flat_mode.to_bits(), "fan_in={fan_in}: mode bits");
        assert_eq!(outliers.len(), flat_outliers.len(), "fan_in={fan_in}: outlier count");
        for (got, want) in outliers.iter().zip(&flat_outliers) {
            assert_eq!(got.0, want.0, "fan_in={fan_in}: outlier index");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "fan_in={fan_in}: outlier bits");
        }
        assert_eq!(root_sketches, leaves as u64 / fan_in, "fan_in={fan_in}: root ingest count");

        samples.push(TreeSample {
            fan_in,
            regions: topology.region_count(),
            leaves,
            flat_ingest_bytes: flat_bytes,
            cross_dc_bytes: cross_dc,
            byte_reduction: flat_bytes as f64 / cross_dc as f64,
            root_sketches,
            root_ingest_per_s: root_sketches as f64 / (wall_ns / 1e9),
            wall_ns,
        });
    }

    let mut table = Table::new(
        "tree_topology",
        &[
            "fan_in",
            "regions",
            "leaves",
            "flat_bytes",
            "cross_dc_bytes",
            "byte_reduction",
            "root_sketches",
            "root_ingest_per_s",
            "wall_ms",
        ],
    );
    for s in &samples {
        table.row(&[
            &s.fan_in,
            &s.regions,
            &s.leaves,
            &s.flat_ingest_bytes,
            &s.cross_dc_bytes,
            &format!("{:.2}", s.byte_reduction),
            &s.root_sketches,
            &format!("{:.0}", s.root_ingest_per_s),
            &format!("{:.2}", s.wall_ns / 1e6),
        ]);
    }
    table.finish(opts);

    if opts.write_csv {
        write_bench_json(&samples, n_per_leaf, m, k as usize);
    }
}

fn write_bench_json(samples: &[TreeSample], n_per_leaf: usize, m: usize, k: usize) {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\"bench\":\"tree_topology\",\"params\":{");
    out.push_str(&format!(
        "\"leaves\":{},\"n_per_leaf\":{n_per_leaf},\"m\":{m},\"k\":{k},\
         \"encoding\":\"f64\",\"levels\":2,\"host_cpus\":{cores}",
        samples.first().map_or(0, |s| s.leaves)
    ));
    out.push_str("},\"sweep\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"fan_in\":{},\"regions\":{},\"flat_ingest_bytes\":{},\
             \"cross_dc_bytes\":{},\"cross_dc_byte_reduction\":{:.4},\
             \"root_sketches\":{},\"root_ingest_per_s\":{:.2},\"wall_ns\":{}}}",
            s.fan_in,
            s.regions,
            s.flat_ingest_bytes,
            s.cross_dc_bytes,
            s.byte_reduction,
            s.root_sketches,
            s.root_ingest_per_s,
            s.wall_ns
        ));
    }
    out.push_str("]}");
    json::validate(&out).expect("BENCH_pr10.json must be valid JSON");
    std::fs::write("BENCH_pr10.json", format!("{out}\n")).expect("write BENCH_pr10.json");
    println!("wrote BENCH_pr10.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_topology_smoke_runs_without_artifacts() {
        tree_topology(&Opts { trials: 1, write_csv: false });
    }
}
