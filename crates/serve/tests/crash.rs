//! Kill-9 crash harness (PR 6 tentpole proof).
//!
//! The durable server's contract: after **any** crash and restart, the
//! recovered output on the replayed node subset is bit-identical to a
//! never-crashed run — no panics, no wrong bits, and the client resumes
//! idempotent ingest mid-epoch on its own.
//!
//! The server under test runs as a *child process* (a re-exec of this
//! test binary filtered to [`child_server`]) so a crash really is a
//! process death — page cache survives, user-space buffers do not. Two
//! kill mechanisms are exercised:
//!
//! - **Seeded injection points** (`CSO_SERVE_CRASH_POINT`): the WAL layer
//!   calls `std::process::abort()` at mid-ingest, pre-seal-fsync,
//!   post-seal, mid-recover and mid-snapshot — deterministic worst-case
//!   placements.
//! - **Raw SIGKILL** (`Child::kill`) at arbitrary parent-chosen times —
//!   no cooperation from the victim at all.
//!
//! In both shapes the parent restarts the server on the same port and
//! WAL directory, and the in-flight client run — armed with a generous
//! retry policy — must complete bit-identically to
//! [`CsProtocol::run_over_wire`] on the full cluster.

use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_serve::{run_cs_over_server, ServeRunConfig};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

const M: usize = 120;
const SEED: u64 = 7;
const K: usize = 8;

/// The seeded abort placements the WAL layer honors (see `wal.rs`).
const CRASH_POINTS: [&str; 4] = ["mid-ingest", "pre-seal-fsync", "post-seal", "mid-recover"];

fn majority_cluster() -> (Cluster, MajorityData) {
    let data =
        MajorityData::generate(&MajorityConfig { n: 400, s: 8, ..MajorityConfig::default() }, 42)
            .unwrap();
    let slices =
        split(&data.values, 4, SliceStrategy::Camouflaged { offset: 2000.0, fraction: 0.2 }, 43)
            .unwrap();
    (Cluster::new(slices).unwrap(), data)
}

fn proto() -> CsProtocol {
    CsProtocol::new(M, SEED)
}

/// A retry policy sized for a server restart window (seconds), not a
/// transient hiccup: many attempts, ~50 ms capped backoff.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 400,
        base_backoff_ticks: 5,
        max_backoff_ticks: 50,
        ..RetryPolicy::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("cso-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Picks a free loopback port by binding ephemeral and letting it go. The
/// child re-binds it; the tiny race window is absorbed by its bind-retry.
fn pick_port() -> u16 {
    TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port()
}

/// Re-execs this test binary filtered down to [`child_server`], which
/// spawns the durable server on `port` over `dir` and parks forever. When
/// `crash` names a seeded point, the child aborts on its first hit.
fn spawn_child(port: u16, dir: &Path, crash: Option<&str>) -> Child {
    spawn_child_with_flight(port, dir, crash, None)
}

/// [`spawn_child`] with the flight recorder armed: the child dumps its
/// ring to `flight` on every journaled seal/recover waypoint, so a later
/// SIGKILL leaves a postmortem on disk.
fn spawn_child_with_flight(
    port: u16,
    dir: &Path,
    crash: Option<&str>,
    flight: Option<&PathBuf>,
) -> Child {
    let mut cmd = child_command(port, dir, crash);
    if let Some(path) = flight {
        cmd.env("CSO_SERVE_FLIGHT_PATH", path.display().to_string());
    }
    cmd.spawn().expect("spawn child server")
}

/// The command that re-execs this binary as [`child_server`].
fn child_command(port: u16, dir: &Path, crash: Option<&str>) -> Command {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg("child_server")
        .arg("--exact")
        .arg("--nocapture")
        .env("CSO_SERVE_CHILD", "1")
        .env("CSO_SERVE_PORT", port.to_string())
        .env("CSO_SERVE_WAL_DIR", dir.display().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(point) = crash {
        cmd.env("CSO_SERVE_CRASH_POINT", point).env("CSO_SERVE_CRASH_COUNT", "1");
    }
    cmd
}

/// Blocks until the child's listener answers connects (then drops the
/// probe connection — the server treats that as a clean close).
fn wait_listening(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("server at {addr} never came up: {e}"),
        }
    }
}

/// Waits for the child to exit (it is expected to die — by seeded abort
/// or by our SIGKILL) within a generous deadline.
fn wait_exit(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(!status.success(), "{what}: child exited cleanly instead of crashing");
                return;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{what}: child never crashed — injection point not reached?");
            }
        }
    }
}

fn kill(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Asserts a completed run carries exactly the reference's bits.
fn assert_bit_identical(
    run: &cso_serve::ServeRun,
    reference: &cso_distributed::ProtocolRun,
    cluster: &Cluster,
    what: &str,
) {
    assert_eq!(run.nodes, cluster.l() as u64, "{what}: node count");
    assert_eq!(run.mode.to_bits(), reference.mode.to_bits(), "{what}: mode bits");
    assert_eq!(run.outliers.len(), reference.estimate.len(), "{what}: outlier count");
    for (got, want) in run.outliers.iter().zip(&reference.estimate) {
        assert_eq!(got.0 as usize, want.index, "{what}: outlier index");
        assert_eq!(got.1.to_bits(), want.value.to_bits(), "{what}: outlier value bits");
    }
}

/// CHILD MODE — not a test when run by the parent harness (the env guard
/// makes it an immediate no-op there). Re-executed with `CSO_SERVE_CHILD=1`
/// it becomes the server process: bind the fixed port (with retry — the
/// predecessor's sockets may linger for a moment), journal to the shared
/// WAL directory, and park until killed.
#[test]
fn child_server() {
    if std::env::var("CSO_SERVE_CHILD").as_deref() != Ok("1") {
        return;
    }
    let port: u16 = std::env::var("CSO_SERVE_PORT").unwrap().parse().unwrap();
    let dir = PathBuf::from(std::env::var("CSO_SERVE_WAL_DIR").unwrap());
    let mut telemetry = cso_serve::TelemetryConfig::default();
    if let Ok(path) = std::env::var("CSO_SERVE_FLIGHT_PATH") {
        telemetry.flight_path = Some(PathBuf::from(path));
    }
    let mut durability = cso_serve::Durability::at(&dir);
    if let Ok(every) = std::env::var("CSO_SERVE_SNAPSHOT_EVERY") {
        durability.snapshot_every_records = every.parse().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match cso_serve::spawn(cso_serve::ServerConfig {
            port,
            durability: Some(durability.clone()),
            telemetry: telemetry.clone(),
            ..cso_serve::ServerConfig::default()
        }) {
            Ok(_server) => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
                let _ = e;
            }
            Err(e) => panic!("child could not bind port {port}: {e}"),
        }
    }
}

/// CHILD MODE (relay flavor) — a leaf relay for one region of a two-level
/// tree: embedded durable server on `port` over `dir`, forwarding sealed
/// pre-sums upstream to the parent process's root server. Parked until
/// killed; with a crash point armed, the forwarder aborts mid-push.
#[test]
fn child_relay() {
    if std::env::var("CSO_SERVE_RELAY_CHILD").as_deref() != Ok("1") {
        return;
    }
    let port: u16 = std::env::var("CSO_SERVE_PORT").unwrap().parse().unwrap();
    let dir = PathBuf::from(std::env::var("CSO_SERVE_WAL_DIR").unwrap());
    let upstream: SocketAddr = std::env::var("CSO_SERVE_UPSTREAM").unwrap().parse().unwrap();
    let region: u32 = std::env::var("CSO_SERVE_REGION").unwrap().parse().unwrap();
    let leaves: u64 = std::env::var("CSO_SERVE_LEAVES").unwrap().parse().unwrap();
    let fan_in: u64 = std::env::var("CSO_SERVE_FAN_IN").unwrap().parse().unwrap();
    let topology = cso_distributed::TopologySpec::new(leaves, fan_in).unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let config = cso_serve::RelayConfig {
            server: cso_serve::ServerConfig {
                port,
                durability: Some(cso_serve::Durability::at(&dir)),
                ..cso_serve::ServerConfig::default()
            },
            retry: patient(),
            ..cso_serve::RelayConfig::new(upstream, region, topology)
        };
        match cso_serve::spawn_relay(config) {
            Ok(_relay) => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
                let _ = e;
            }
            Err(e) => panic!("child relay could not bind port {port}: {e}"),
        }
    }
}

/// Re-execs this binary as [`child_relay`] for `region`, forwarding to
/// `upstream`, journaling to `dir`.
fn spawn_child_relay(
    port: u16,
    dir: &Path,
    upstream: SocketAddr,
    region: u32,
    leaves: u64,
    fan_in: u64,
    crash: Option<&str>,
) -> Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg("child_relay")
        .arg("--exact")
        .arg("--nocapture")
        .env("CSO_SERVE_RELAY_CHILD", "1")
        .env("CSO_SERVE_PORT", port.to_string())
        .env("CSO_SERVE_WAL_DIR", dir.display().to_string())
        .env("CSO_SERVE_UPSTREAM", upstream.to_string())
        .env("CSO_SERVE_REGION", region.to_string())
        .env("CSO_SERVE_LEAVES", leaves.to_string())
        .env("CSO_SERVE_FAN_IN", fan_in.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(point) = crash {
        cmd.env("CSO_SERVE_CRASH_POINT", point).env("CSO_SERVE_CRASH_COUNT", "1");
    }
    cmd.spawn().expect("spawn child relay")
}

/// Relay-tier crash acceptance (PR 10 satellite): a leaf relay is
/// SIGKILL'd at each seeded point inside its upstream push — after the
/// manifest lands ("mid-forward") and after the upstream ack but before
/// the forward-done journal record ("pre-forward-journal"). Restarted on
/// the same journal, the relay must resume the push on its own, the
/// finished tree run must be bit-identical to the flat
/// `run_over_wire` reference, and the root must count each region's
/// pre-sum exactly once (the second point *must* surface as an upstream
/// dedup hit, proving the re-push happened and was absorbed).
#[test]
fn relay_kill9_mid_forward_resumes_without_double_count() {
    const LEAVES: u64 = 8;
    const FAN_IN: u64 = 4;
    let topology = cso_distributed::TopologySpec::new(LEAVES, FAN_IN).unwrap();
    let slices: Vec<Vec<f64>> = (0..LEAVES)
        .map(|l| {
            (0..200)
                .map(|i| {
                    let base = 30.0 + (i as f64) * 0.013 + (l as f64) * 0.41;
                    if i % 31 == l {
                        base + 700.0
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect();
    let cluster = Cluster::new(slices).unwrap();
    let n = cluster.n() as u64;
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
    let sketches = proto().node_sketches(&cluster).unwrap();

    for point in ["mid-forward", "pre-forward-journal"] {
        let dir = temp_dir(&format!("relay-{point}"));
        let root = cso_serve::spawn(cso_serve::ServerConfig::default()).expect("root");

        // Region 0 runs in-process (never crashes); region 1 is the
        // doomed child.
        let relay0 = cso_serve::spawn_relay(cso_serve::RelayConfig {
            retry: patient(),
            ..cso_serve::RelayConfig::new(root.addr(), 0, topology)
        })
        .expect("relay 0");
        let child_port = pick_port();
        let child_addr = SocketAddr::from(([127, 0, 0, 1], child_port));
        let mut doomed =
            spawn_child_relay(child_port, &dir, root.addr(), 1, LEAVES, FAN_IN, Some(point));
        wait_listening(child_addr);

        let open = |addr: SocketAddr| {
            cso_serve::ServeClient::open_with_backend(
                addr,
                &patient(),
                5,
                0,
                M as u32,
                n,
                SEED,
                cso_core::SketchBackend::dense(),
            )
            .map(|(c, _)| c)
            .expect("open")
        };
        // Region 0's leaves ingest and seal normally.
        let mut c0 = open(relay0.addr());
        for leaf in 0..FAN_IN {
            c0.send_sketch(leaf as u32, &sketches[leaf as usize], SketchEncoding::F64).unwrap();
        }
        assert_eq!(c0.seal().unwrap(), FAN_IN);

        // Region 1's leaves ingest into the doomed child; every ack below
        // is a durability promise the resumed relay must keep.
        let mut c1 = open(child_addr);
        for leaf in FAN_IN..LEAVES {
            c1.send_sketch(leaf as u32, &sketches[leaf as usize], SketchEncoding::F64).unwrap();
        }
        assert_eq!(c1.seal().unwrap(), FAN_IN);

        // The seal arms the forwarder, which walks into the crash point.
        wait_exit(&mut doomed, point);
        let fresh = spawn_child_relay(child_port, &dir, root.addr(), 1, LEAVES, FAN_IN, None);

        // The resumed forwarder pushes on its own — no client involved.
        let mut control = open(root.addr());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, nodes) = control.status().expect("root status");
            if nodes == 2 {
                break;
            }
            assert!(nodes < 2, "{point}: root double-counted ({nodes} super-nodes)");
            assert!(Instant::now() < deadline, "{point}: region 1 never resumed its push");
            std::thread::sleep(Duration::from_millis(10));
        }
        if point == "pre-forward-journal" {
            // The crash landed after the upstream ack: the pre-crash push
            // already satisfied nodes == 2, and the *resumed* relay —
            // whose journal has no forward-done record — must re-push
            // into the dedup. Hold the seal until that lands.
            loop {
                let snap = root.recorder().metrics_snapshot();
                if snap.counter("serve.sketches_duplicate") == Some(1) {
                    break;
                }
                assert!(Instant::now() < deadline, "{point}: resumed relay never re-pushed");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        assert_eq!(control.seal().unwrap(), 2, "{point}: one pre-sum per region, exactly");
        let (mode, outliers) = control.recover(K as u32).expect("root recover");
        assert_eq!(mode.to_bits(), reference.mode.to_bits(), "{point}: mode bits");
        assert_eq!(outliers.len(), reference.estimate.len(), "{point}: outlier count");
        for (got, want) in outliers.iter().zip(&reference.estimate) {
            assert_eq!(got.0 as usize, want.index, "{point}: outlier index");
            assert_eq!(got.1.to_bits(), want.value.to_bits(), "{point}: outlier value bits");
        }

        // Root-side dedup ledger: crashing after the upstream ack forces
        // a duplicate re-push on resume; crashing before it must not.
        let snap = root.recorder().metrics_snapshot();
        assert_eq!(snap.counter("serve.sketches_accepted"), Some(2), "{point}: accepted");
        let dups = snap.counter("serve.sketches_duplicate").unwrap_or(0);
        match point {
            "pre-forward-journal" => {
                assert_eq!(dups, 1, "{point}: the re-push must hit the dedup exactly once")
            }
            _ => assert_eq!(dups, 0, "{point}: no re-push should have been needed"),
        }

        kill(fresh);
        relay0.shutdown();
        root.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Tentpole acceptance, seeded half: for every injection point, the
/// server is aborted at that exact placement mid-run, restarted on the
/// same journal, and the resumed client run is bit-identical to the
/// never-crashed reference.
#[test]
fn kill9_at_every_seeded_point_recovers_bit_identically() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    for point in CRASH_POINTS {
        let dir = temp_dir(point);
        let port = pick_port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut doomed = spawn_child(port, &dir, Some(point));
        wait_listening(addr);

        std::thread::scope(|scope| {
            let cluster = &cluster;
            let runner = scope.spawn(move || {
                let cfg = ServeRunConfig { retry: patient(), ..ServeRunConfig::default() };
                run_cs_over_server(&proto(), cluster, K, addr, &cfg)
            });

            // The run drives the server into the armed point; the child
            // aborts there. Restart it clean on the same port + journal.
            wait_exit(&mut doomed, point);
            let fresh = spawn_child(port, &dir, None);

            let run = runner.join().expect("runner thread").unwrap_or_else(|e| {
                panic!("{point}: resumed run failed: {e}");
            });
            assert_bit_identical(&run, &reference, cluster, point);
            kill(fresh);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The snapshot's write step runs outside every lock, so a crash can land
/// between its temp file and the rename. A child snapshotting every 3
/// records aborts there on its first snapshot; restarted on the same
/// journal, it deletes the stale temp file, the resumed run is
/// bit-identical to the never-crashed reference, and no temp file is left.
#[test]
fn kill9_mid_snapshot_recovers_bit_identically_and_leaves_no_temp_file() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
    let point = "mid-snapshot";
    let dir = temp_dir(point);
    let port = pick_port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let spawn = |crash| {
        let mut cmd = child_command(port, &dir, crash);
        cmd.env("CSO_SERVE_SNAPSHOT_EVERY", "3").spawn().expect("spawn child server")
    };
    let temp_files = || {
        std::fs::read_dir(&dir)
            .expect("wal dir")
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "tmp"))
            .count()
    };
    let mut doomed = spawn(Some(point));
    wait_listening(addr);

    std::thread::scope(|scope| {
        let cluster = &cluster;
        let runner = scope.spawn(move || {
            let cfg = ServeRunConfig { retry: patient(), ..ServeRunConfig::default() };
            run_cs_over_server(&proto(), cluster, K, addr, &cfg)
        });

        wait_exit(&mut doomed, point);
        assert_eq!(temp_files(), 1, "the crash left the snapshot's temp file");
        let fresh = spawn(None);

        let run = runner.join().expect("runner thread").unwrap_or_else(|e| {
            panic!("{point}: resumed run failed: {e}");
        });
        assert_bit_identical(&run, &reference, cluster, point);
        // Every snapshot a request triggers is written before its reply.
        assert_eq!(temp_files(), 0, "a snapshot temp file outlived the restart");
        kill(fresh);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Matrix-free operators survive kill-9 (PR 9 satellite): for each
/// wire-addressable backend, the epoch's operator descriptor rides the
/// journal — a crash at the seal record (descriptor persisted) and one
/// mid-recover (operator rebuilt during replay) must both resume to a
/// run bit-identical to that backend's never-crashed reference.
#[test]
fn kill9_replay_rebuilds_the_same_operator_per_backend() {
    let (cluster, _) = majority_cluster();
    let backends = [cso_core::SketchBackend::srht(), cso_core::SketchBackend::seeded_sparse(12)];

    for backend in backends {
        let proto = proto().with_backend(backend);
        let reference = proto.run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

        for point in ["post-seal", "mid-recover"] {
            let tag = format!("{}-{point}", backend.label());
            let dir = temp_dir(&tag);
            let port = pick_port();
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let mut doomed = spawn_child(port, &dir, Some(point));
            wait_listening(addr);

            std::thread::scope(|scope| {
                let cluster = &cluster;
                let proto = &proto;
                let runner = scope.spawn(move || {
                    let cfg = ServeRunConfig { retry: patient(), ..ServeRunConfig::default() };
                    run_cs_over_server(proto, cluster, K, addr, &cfg)
                });

                wait_exit(&mut doomed, &tag);
                let fresh = spawn_child(port, &dir, None);

                let run = runner.join().expect("runner thread").unwrap_or_else(|e| {
                    panic!("{tag}: resumed run failed: {e}");
                });
                assert_bit_identical(&run, &reference, cluster, &tag);
                kill(fresh);
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Tentpole acceptance, fan-out half: the mid-ingest kill survives 1, 2
/// and 8 concurrent ingest connections — every connection thread rides
/// out the restart through the shared retry policy and the sealed epoch
/// still aggregates the full cluster.
#[test]
fn kill9_mid_ingest_recovers_at_1_2_8_connections() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    for connections in [1usize, 2, 8] {
        let tag = format!("conns{connections}");
        let dir = temp_dir(&tag);
        let port = pick_port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut doomed = spawn_child(port, &dir, Some("mid-ingest"));
        wait_listening(addr);

        std::thread::scope(|scope| {
            let cluster = &cluster;
            let runner = scope.spawn(move || {
                let cfg =
                    ServeRunConfig { connections, retry: patient(), ..ServeRunConfig::default() };
                run_cs_over_server(&proto(), cluster, K, addr, &cfg)
            });

            wait_exit(&mut doomed, &tag);
            let fresh = spawn_child(port, &dir, None);

            let run = runner.join().expect("runner thread").unwrap_or_else(|e| {
                panic!("connections={connections}: resumed run failed: {e}");
            });
            assert_bit_identical(&run, &reference, cluster, &tag);
            kill(fresh);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Metrics↔state consistency (PR 7 satellite): after a kill-9 and an
/// in-parent respawn over the same journal, the startup counters must
/// mirror the returned [`cso_serve::RecoveryReport`] field-for-field —
/// and the same numbers must be readable in-band through `Introspect`.
#[test]
fn post_restart_counters_equal_recovery_report_exactly() {
    let (cluster, _) = majority_cluster();
    let dir = temp_dir("counters");
    let port = pick_port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let victim = spawn_child(port, &dir, None);
    wait_listening(addr);

    // A full run populates the journal, then SIGKILL: no clean-shutdown
    // marker can reach the segment.
    let cfg = ServeRunConfig { retry: patient(), ..ServeRunConfig::default() };
    run_cs_over_server(&proto(), &cluster, K, addr, &cfg).expect("pre-crash run");
    kill(victim);

    let server = cso_serve::spawn(cso_serve::ServerConfig {
        durability: Some(cso_serve::Durability::at(&dir)),
        ..cso_serve::ServerConfig::default()
    })
    .expect("respawn over the journal");
    let report = server.recovery_report().expect("durable server reports recovery").clone();
    assert!(report.had_prior_state, "the pre-crash run must have journaled state");
    assert!(report.replayed_records > 0);
    assert!(!report.clean_shutdown, "SIGKILL must read as an unclean shutdown");

    let check = |snap: &cso_obs::MetricsSnapshot, what: &str| {
        assert_eq!(snap.counter("serve.restarts"), Some(1), "{what}: serve.restarts");
        assert_eq!(
            snap.counter("serve.replayed_records"),
            Some(report.replayed_records),
            "{what}: serve.replayed_records"
        );
        assert_eq!(
            snap.counter("serve.wal_torn_tails"),
            report.torn_tail.then_some(1),
            "{what}: serve.wal_torn_tails"
        );
        assert_eq!(
            snap.counter("serve.unclean_shutdowns"),
            Some(1),
            "{what}: serve.unclean_shutdowns"
        );
    };
    check(&server.recorder().metrics_snapshot(), "in-process");
    let mut poller = cso_serve::MetricsPoller::connect(server.addr(), &RetryPolicy::default())
        .expect("introspect poller");
    check(&poller.poll().expect("introspect"), "in-band");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls `"name":<u64>` out of one flight JSONL line.
fn flight_field(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Flight↔WAL consistency (PR 7 acceptance): kill-9 leaves a parseable
/// `flight.jsonl`, and because every seal/recover waypoint dumps only
/// *after* its WAL append, each sealed/recovered event in the dump must
/// be visible at that phase (or later) in the journal's replayed view.
#[test]
fn kill9_flight_dump_matches_wal_replay_view() {
    let (cluster, _) = majority_cluster();
    let dir = temp_dir("flight");
    let flight_path = dir.join("flight.jsonl");
    let port = pick_port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let victim = spawn_child_with_flight(port, &dir, None, Some(&flight_path));
    wait_listening(addr);

    let cfg = ServeRunConfig { session: 9, retry: patient(), ..ServeRunConfig::default() };
    run_cs_over_server(&proto(), &cluster, K, addr, &cfg).expect("run");
    kill(victim);

    let dump = std::fs::read_to_string(&flight_path).expect("flight.jsonl survives kill-9");
    let (store, report) =
        cso_serve::SessionStore::recover_from(&dir, cso_serve::StoreLimits::default())
            .expect("journal replays");
    assert!(report.had_prior_state && !report.clean_shutdown);

    let mut waypoints = 0usize;
    for line in dump.lines() {
        cso_obs::json::validate(line).expect("flight line parses");
        let floor = if line.contains("\"kind\":\"recovered\"") {
            cso_serve::EpochPhase::Recovered
        } else if line.contains("\"kind\":\"sealed\"") {
            cso_serve::EpochPhase::Sealed
        } else {
            continue;
        };
        waypoints += 1;
        let session = flight_field(line, "session").expect("session field");
        let epoch = flight_field(line, "epoch").expect("epoch field");
        let phase = store.epoch_phase(session, epoch).unwrap_or_else(|| {
            panic!("flight saw {session}/{epoch} at {floor:?} but replay has no such epoch")
        });
        assert!(phase >= floor, "{session}/{epoch}: flight says {floor:?}, replay says {phase:?}");
    }
    assert!(waypoints >= 2, "the run must have dumped seal and recover waypoints");
    assert_eq!(
        store.epoch_phase(9, 0),
        Some(cso_serve::EpochPhase::Recovered),
        "replay's terminal view matches the completed run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw SIGKILL half: no seeded point, no cooperation — the parent kills
/// the server at arbitrary wall-clock offsets into the run. Whatever the
/// journal caught, the resumed run must still complete with the full
/// cluster's bits (ingest is idempotent, so the client re-ships
/// everything the crash may have swallowed).
#[test]
fn raw_sigkill_at_arbitrary_times_is_survivable() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    for delay_ms in [1u64, 8, 25] {
        let tag = format!("sigkill{delay_ms}");
        let dir = temp_dir(&tag);
        let port = pick_port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut victim = spawn_child(port, &dir, None);
        wait_listening(addr);

        std::thread::scope(|scope| {
            let cluster = &cluster;
            let runner = scope.spawn(move || {
                let cfg = ServeRunConfig { retry: patient(), ..ServeRunConfig::default() };
                run_cs_over_server(&proto(), cluster, K, addr, &cfg)
            });

            std::thread::sleep(Duration::from_millis(delay_ms));
            victim.kill().expect("SIGKILL");
            victim.wait().expect("reap");
            let fresh = spawn_child(port, &dir, None);

            let run = runner.join().expect("runner thread").unwrap_or_else(|e| {
                panic!("{tag}: resumed run failed: {e}");
            });
            assert_bit_identical(&run, &reference, cluster, &tag);
            kill(fresh);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
