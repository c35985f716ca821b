//! Two-level relay-tier acceptance (PR 10 tentpole proof).
//!
//! A root server plus one relay per region forms the aggregation tree;
//! the leaves of each region ingest into their relay at their **absolute**
//! leaf ids, the relay seals and forwards one pre-summed super-node
//! sketch upstream, and the root recovers. The contracts under test:
//!
//! - **Bit-identity**: the tree run's report carries exactly the bits of
//!   the flat [`CsProtocol::run_over_wire`] reference — the canonical
//!   dyadic fold makes region pre-sums equal to the flat fold's subtree
//!   values, so the topology change is invisible in the output.
//! - **Subtree-granular degradation**: dropping a whole region degrades
//!   the root to the surviving subtrees, bit-identical to a flat run over
//!   the surviving leaves.
//! - **Cross-DC economy**: the relay→root link carries one pre-sum where
//!   the flat topology ships `fan_in` leaf sketches — the root's ingest
//!   count shrinks by exactly the fan-in factor, its ingest bytes by
//!   nearly that.

use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy, TopologySpec};
use cso_serve::{
    spawn, spawn_relay, EpochPhase, RelayConfig, RelayHandle, ServeClient, ServerConfig,
    ServerHandle,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const M: usize = 96;
const SEED: u64 = 11;
const K: usize = 6;
const SESSION: u64 = 3;
const EPOCH: u64 = 0;

/// Eight leaves, one slice each, with a camouflaged outlier pattern: the
/// per-leaf values differ enough that any mis-parenthesized fold changes
/// low-order bits.
fn cluster(leaves: usize) -> Cluster {
    let n = 160usize;
    let slices: Vec<Vec<f64>> = (0..leaves)
        .map(|l| {
            (0..n)
                .map(|i| {
                    let base = 40.0 + (i as f64) * 0.01 + (l as f64) * 0.37;
                    if i % 53 == l {
                        base + 900.0
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect();
    Cluster::new(slices).unwrap()
}

fn proto() -> CsProtocol {
    CsProtocol::new(M, SEED)
}

fn retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 100, base_backoff_ticks: 2, ..RetryPolicy::default() }
}

/// Opens a client bound to the shared `(SESSION, EPOCH)` epoch.
fn open(addr: SocketAddr, n: u64) -> ServeClient {
    let (client, _) = ServeClient::open_with_backend(
        addr,
        &retry(),
        SESSION,
        EPOCH,
        M as u32,
        n,
        SEED,
        SketchBackend::dense(),
    )
    .expect("open");
    client
}

/// Spawns the root and one relay per listed region.
fn spawn_tree(topology: TopologySpec, regions: &[u32]) -> (ServerHandle, Vec<RelayHandle>) {
    let root = spawn(ServerConfig::default()).expect("root");
    let relays = regions
        .iter()
        .map(|&g| spawn_relay(RelayConfig::new(root.addr(), g, topology)).expect("relay"))
        .collect();
    (root, relays)
}

/// Ingests each leaf's sketch into its region's relay (at the absolute
/// leaf id) and seals every relay's epoch, which arms the forwarders.
fn ingest_and_seal_regions(
    topology: &TopologySpec,
    relays: &[(u32, SocketAddr)],
    sketches: &[cso_linalg::Vector],
    n: u64,
) {
    for &(region, addr) in relays {
        let (lo, hi) = topology.leaf_range(u64::from(region)).unwrap();
        let mut client = open(addr, n);
        for leaf in lo..hi.min(sketches.len() as u64) {
            client
                .send_sketch(leaf as u32, &sketches[leaf as usize], SketchEncoding::F64)
                .expect("leaf ingest");
        }
        let sealed = client.seal().expect("region seal");
        assert_eq!(sealed, hi.min(sketches.len() as u64) - lo, "region {region} leaf count");
    }
}

/// Polls the root's epoch until every expected region pre-sum arrived.
fn wait_for_forwards(root: &mut ServeClient, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (phase, nodes) = root.status().expect("root status");
        assert_eq!(phase, EpochPhase::Ingest, "root epoch sealed early");
        if nodes == want {
            return;
        }
        assert!(nodes < want, "root saw {nodes} super-nodes, expected at most {want}");
        assert!(Instant::now() < deadline, "only {nodes}/{want} regions forwarded in time");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drives a full two-level run: leaves → relays → root → recover.
/// Returns `(mode, outliers, root_nodes)`.
fn run_tree(
    topology: TopologySpec,
    regions: &[u32],
    cluster: &Cluster,
) -> (f64, Vec<(u32, f64)>, u64, ServerHandle) {
    let sketches = proto().node_sketches(cluster).expect("sketches");
    let (root, relays) = spawn_tree(topology, regions);
    let relay_addrs: Vec<(u32, SocketAddr)> =
        regions.iter().zip(&relays).map(|(&g, r)| (g, r.addr())).collect();
    ingest_and_seal_regions(&topology, &relay_addrs, &sketches, cluster.n() as u64);

    let mut control = open(root.addr(), cluster.n() as u64);
    wait_for_forwards(&mut control, regions.len() as u64);
    let nodes = control.seal().expect("root seal");
    let (mode, outliers) = control.recover(K as u32).expect("root recover");
    for relay in relays {
        relay.shutdown();
    }
    (mode, outliers, nodes, root)
}

/// Flat reference over a live server: every listed leaf ingests directly
/// at its absolute id, then seal + recover. (The `run_cs_over_server`
/// driver always ships the whole cluster; this harness supports subsets.)
fn run_flat(cluster: &Cluster, leaves: &[usize]) -> (f64, Vec<(u32, f64)>, u64, u64) {
    let sketches = proto().node_sketches(cluster).expect("sketches");
    let server = spawn(ServerConfig::default()).expect("flat server");
    let mut client = open(server.addr(), cluster.n() as u64);
    for &leaf in leaves {
        client.send_sketch(leaf as u32, &sketches[leaf], SketchEncoding::F64).expect("ingest");
    }
    let nodes = client.seal().expect("seal");
    let (mode, outliers) = client.recover(K as u32).expect("recover");
    let ingest_bytes = client.bytes_sent();
    server.shutdown();
    (mode, outliers, nodes, ingest_bytes)
}

fn assert_same_bits(got: (f64, &[(u32, f64)]), want: (f64, &[(u32, f64)]), what: &str) {
    assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: mode bits");
    assert_eq!(got.1.len(), want.1.len(), "{what}: outlier count");
    for (g, w) in got.1.iter().zip(want.1) {
        assert_eq!(g.0, w.0, "{what}: outlier index");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: outlier value bits");
    }
}

/// Tentpole acceptance: 8 leaves × fan-in 4 through two relays recovers
/// bit-identically to the flat topology — against both the in-process
/// `run_over_wire` reference and a live flat server.
#[test]
fn two_level_tree_recovers_bit_identically_to_flat() {
    let cluster = cluster(8);
    let topology = TopologySpec::new(8, 4).unwrap();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    let (flat_mode, flat_outliers, flat_nodes, _) = run_flat(&cluster, &(0..8).collect::<Vec<_>>());
    assert_eq!(flat_nodes, 8);
    let flat_ref: Vec<(u32, f64)> =
        reference.estimate.iter().map(|c| (c.index as u32, c.value)).collect();
    assert_same_bits((flat_mode, &flat_outliers), (reference.mode, &flat_ref), "flat vs in-proc");

    let (mode, outliers, nodes, root) = run_tree(topology, &[0, 1], &cluster);
    assert_eq!(nodes, 2, "root aggregates one super-node per region");
    assert_same_bits((mode, &outliers), (flat_mode, &flat_outliers), "tree vs flat");

    // One pre-sum per region — the root never saw a leaf sketch.
    let snap = root.recorder().metrics_snapshot();
    assert_eq!(snap.counter("serve.sketches_accepted"), Some(2));
    root.shutdown();
}

/// Degraded acceptance: a whole region (relay and all its leaves) drops
/// out; the root seals what forwarded and recovery runs at subtree
/// granularity — bit-identical to a flat run over the surviving leaves.
#[test]
fn region_drop_degrades_to_surviving_subtree_recovery() {
    let cluster = cluster(8);
    let topology = TopologySpec::new(8, 4).unwrap();

    // Region 1 (leaves 4..8) is gone: only region 0 is ever spawned.
    let (mode, outliers, nodes, root) = run_tree(topology, &[0], &cluster);
    assert_eq!(nodes, 1, "only the surviving region forwarded");
    root.shutdown();

    let (flat_mode, flat_outliers, flat_nodes, _) = run_flat(&cluster, &[0, 1, 2, 3]);
    assert_eq!(flat_nodes, 4);
    assert_same_bits(
        (mode, &outliers),
        (flat_mode, &flat_outliers),
        "degraded tree vs flat survivors",
    );
}

/// Cost acceptance: with fan-in 4 the root ingests exactly 1/4 the
/// sketches, and the measured relay→root bytes (the cross-DC ledger kept
/// by `relay.upstream_bytes_sent`) come in well under the flat ingest
/// traffic — approaching the fan-in factor as `m` grows.
#[test]
fn tree_cuts_cross_dc_traffic_by_the_fan_in_factor() {
    let cluster = cluster(8);
    let topology = TopologySpec::new(8, 4).unwrap();

    let (_, _, _, flat_ingest_bytes) = run_flat(&cluster, &(0..8).collect::<Vec<_>>());

    let sketches = proto().node_sketches(&cluster).expect("sketches");
    let (root, relays) = spawn_tree(topology, &[0, 1]);
    let relay_addrs: Vec<(u32, SocketAddr)> =
        relays.iter().enumerate().map(|(g, r)| (g as u32, r.addr())).collect();
    ingest_and_seal_regions(&topology, &relay_addrs, &sketches, cluster.n() as u64);

    let mut control = open(root.addr(), cluster.n() as u64);
    wait_for_forwards(&mut control, 2);

    // The root counts a pre-sum on arrival, a beat before the relay
    // journals the ack and bumps its counters — wait out that window.
    let cross_dc: u64 = relays
        .iter()
        .map(|r| {
            let deadline = Instant::now() + Duration::from_secs(10);
            let snap = loop {
                let snap = r.server().recorder().metrics_snapshot();
                if snap.counter("relay.forwards") == Some(1) {
                    break snap;
                }
                assert!(Instant::now() < deadline, "relay never journaled its forward");
                std::thread::sleep(Duration::from_millis(2));
            };
            assert_eq!(snap.counter("relay.forwarded_nodes"), Some(4), "fan-in leaves folded");
            snap.counter("relay.upstream_bytes_sent").expect("cross-DC ledger")
        })
        .sum();

    // Flat ships 8 leaf sketches across the boundary; the tree ships 2
    // pre-sums plus per-epoch overhead (open + manifest frames). The
    // sketch payload dominates at m=96, so the reduction must clear half
    // the ideal fan-in factor with lots of room.
    assert!(
        cross_dc * 2 < flat_ingest_bytes,
        "cross-DC bytes {cross_dc} not reduced vs flat {flat_ingest_bytes}"
    );

    let snap = root.recorder().metrics_snapshot();
    assert_eq!(snap.counter("serve.sketches_accepted"), Some(2), "8 leaves → 2 super-nodes");
    for relay in relays {
        relay.shutdown();
    }
    root.shutdown();
}

/// Topology hygiene: a relay region must agree with the epoch's declared
/// fan-in and own its aligned block — disagreements are the typed rejects
/// 19/20, and an identical redeclaration (relay resume) is acked.
#[test]
fn conflicting_manifests_are_typed_rejects() {
    use cso_distributed::wire::{Message, TAG_RELAY_MANIFEST};

    let root = spawn(ServerConfig::default()).expect("root");
    let n = 160u64;
    let mut client = open(root.addr(), n);

    let manifest = |region: u32, leaf_lo: u64, leaf_hi: u64, fan_in: u64| Message::RelayManifest {
        session: SESSION,
        epoch: EPOCH,
        region,
        leaf_lo,
        leaf_hi,
        fan_in,
    };

    // First declaration fixes the shape; redeclaring identically is fine.
    for _ in 0..2 {
        match client.request(&manifest(0, 0, 4, 4)).expect("manifest") {
            Message::Ack { of: TAG_RELAY_MANIFEST, .. } => {}
            other => panic!("manifest not acked: {other:?}"),
        }
    }
    // Disagreeing fan-in → TopologyMismatch (19).
    match client.request(&manifest(1, 2, 4, 2)).expect("send") {
        Message::Reject { code: 19, .. } => {}
        other => panic!("fan-in mismatch not rejected: {other:?}"),
    }
    // Misaligned block for the declared fan-in → TopologyMismatch (19).
    match client.request(&manifest(1, 6, 8, 4)).expect("send") {
        Message::Reject { code: 19, .. } => {}
        other => panic!("misaligned block not rejected: {other:?}"),
    }
    // Same region, different range → RegionConflict (20).
    match client.request(&manifest(0, 0, 3, 4)).expect("send") {
        Message::Reject { code: 20, .. } => {}
        other => panic!("region conflict not rejected: {other:?}"),
    }
    root.shutdown();
}
