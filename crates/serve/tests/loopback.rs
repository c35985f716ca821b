//! End-to-end tests against a live loopback server: bit-identity with the
//! in-process protocol paths, backpressure, and socket fault injection.

use cso_core::{BompConfig, SketchBackend};
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::wire::{self, Message};
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_exec::ExecConfig;
use cso_serve::{
    read_frame, run_cs_over_server, spawn, write_frame, Durability, RecoveryPolicy, RejectCode,
    ServeClient, ServeRunConfig, ServerConfig,
};
use cso_workloads::{split, MajorityConfig, MajorityData, SliceStrategy};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

const M: usize = 120;
const SEED: u64 = 7;
const K: usize = 8;

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

/// The acceptance bar: a run against the real server recovers the same
/// bits as `run_over_wire`, for 1, 2 and 8 concurrent ingest connections
/// and a multi-worker recovery executor on the server side.
#[test]
fn loopback_run_is_bit_identical_to_run_over_wire() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();

    let report_path = std::env::temp_dir()
        .join(format!("cso_serve_test_{}", std::process::id()))
        .join("epochs.jsonl");
    let _ = std::fs::remove_file(&report_path);
    let server = spawn(ServerConfig {
        policy: RecoveryPolicy {
            recovery: BompConfig::default(),
            exec: ExecConfig::with_workers(8),
        },
        report_path: Some(report_path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();

    for (epoch, connections) in [(0u64, 1usize), (1, 2), (2, 8)] {
        let cfg = ServeRunConfig { connections, epoch, ..ServeRunConfig::default() };
        let run = run_cs_over_server(&proto(), &cluster, K, server.addr(), &cfg).unwrap();

        assert_eq!(run.nodes, cluster.l() as u64, "connections={connections}");
        assert_eq!(
            run.mode.to_bits(),
            reference.mode.to_bits(),
            "mode differs at connections={connections}"
        );
        assert_eq!(run.outliers.len(), reference.estimate.len());
        for (got, want) in run.outliers.iter().zip(&reference.estimate) {
            assert_eq!(got.0 as usize, want.index, "connections={connections}");
            assert_eq!(
                got.1.to_bits(),
                want.value.to_bits(),
                "value bits differ at index {} connections={connections}",
                want.index
            );
        }
    }

    let metrics = server.recorder().metrics_snapshot();
    assert_eq!(metrics.counter("serve.epochs_opened"), Some(3));
    assert_eq!(metrics.counter("serve.epochs_sealed"), Some(3));
    assert_eq!(metrics.counter("serve.epochs_recovered"), Some(3));
    assert_eq!(metrics.counter("serve.sketches_accepted"), Some(3 * cluster.l() as u64));
    assert!(metrics.histograms.contains_key("serve.ingest_ns"));
    server.shutdown();

    let report = std::fs::read_to_string(&report_path).unwrap();
    let lines: Vec<&str> = report.lines().collect();
    assert_eq!(lines.len(), 3, "one JSONL line per recovered epoch");
    assert!(lines.iter().all(|l| l.contains("serve_epoch")));
}

/// Matrix-free operators over the wire: for each backend the loopback run
/// is bit-identical to `run_over_wire` under the same backend, and the
/// recovered keys match the planted outliers — the server rebuilds the
/// epoch's operator from the `OpenEpoch` descriptor, never materializing
/// `Φ0`.
#[test]
fn loopback_run_is_bit_identical_for_every_operator_backend() {
    let (cluster, data) = majority_cluster();
    let server = spawn(ServerConfig::default()).unwrap();

    for (epoch, backend) in [(0u64, SketchBackend::srht()), (1, SketchBackend::seeded_sparse(12))] {
        let proto = proto().with_backend(backend);
        let reference = proto.run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
        let cfg = ServeRunConfig { connections: 2, epoch, ..ServeRunConfig::default() };
        let run = run_cs_over_server(&proto, &cluster, K, server.addr(), &cfg).unwrap();

        assert_eq!(
            run.mode.to_bits(),
            reference.mode.to_bits(),
            "mode differs under {}",
            backend.label()
        );
        assert_eq!(run.outliers.len(), reference.estimate.len(), "{}", backend.label());
        for (got, want) in run.outliers.iter().zip(&reference.estimate) {
            assert_eq!(got.0 as usize, want.index, "{}", backend.label());
            assert_eq!(got.1.to_bits(), want.value.to_bits(), "{}", backend.label());
        }
        // Quality, not just self-consistency: the recovered keys are the
        // planted outliers.
        let recovered: std::collections::BTreeSet<usize> =
            run.outliers.iter().map(|&(i, _)| i as usize).collect();
        for &planted in &data.outlier_indices {
            assert!(
                recovered.contains(&planted),
                "{} missed planted outlier {planted}",
                backend.label()
            );
        }
    }
    server.shutdown();
}

/// A full admission queue answers `Busy` with a retry hint, and the
/// client's backoff loop gets in once capacity frees up.
#[test]
fn busy_rejection_carries_retry_hint_and_retry_succeeds() {
    let server = spawn(ServerConfig {
        handlers: 1,
        queue_depth: 1,
        retry_after_ms: 25,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let retry = RetryPolicy::no_retry();

    // Occupy the only handler, then fill the queue with a raw connection.
    let (holder, _) =
        ServeClient::open_with_backend(addr, &retry, 1, 0, 16, 64, SEED, SketchBackend::dense())
            .unwrap();
    let filler = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the acceptor queue it

    // The next arrival must be turned away with the configured hint.
    let mut turned_away = TcpStream::connect(addr).unwrap();
    let (reply, _, _) = read_frame(&mut turned_away).unwrap();
    assert_eq!(reply, Message::Reject { code: RejectCode::Busy.as_u16(), retry_after_ms: 25 });

    // A patient client keeps retrying and succeeds once the holder leaves.
    let patient = std::thread::spawn(move || {
        let patient_retry = RetryPolicy::default().with_max_attempts(40);
        ServeClient::open_with_backend(
            addr,
            &patient_retry,
            2,
            0,
            16,
            64,
            SEED,
            SketchBackend::dense(),
        )
        .map(|(_, info)| info)
    });
    std::thread::sleep(Duration::from_millis(60));
    drop(holder);
    drop(filler);
    assert_eq!(patient.join().unwrap().unwrap(), 0);

    let metrics = server.recorder().metrics_snapshot();
    assert!(metrics.counter("serve.conns_rejected_busy").unwrap_or(0) >= 1);
    server.shutdown();
}

/// A CRC-corrupt but well-framed message is rejected in place: the stream
/// stays synchronized and the connection keeps working.
#[test]
fn corrupt_frame_is_rejected_without_dropping_the_connection() {
    let server = spawn(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A valid frame with one payload bit flipped, behind an intact prefix.
    let mut body = wire::encode(&Message::SealEpoch { session: 1, epoch: 0 });
    let mid = body.len() / 2;
    body[mid] ^= 0x10;
    stream.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    stream.write_all(&body).unwrap();
    let (reply, _, _) = read_frame(&mut stream).unwrap();
    assert_eq!(
        reply,
        Message::Reject { code: RejectCode::CorruptFrame.as_u16(), retry_after_ms: 0 }
    );

    // The very same connection still speaks the protocol.
    write_frame(
        &mut stream,
        &Message::OpenEpoch {
            session: 1,
            epoch: 0,
            m: 16,
            n: 64,
            seed: 3,
            op_kind: 0,
            op_param: 0,
        },
        None,
    )
    .unwrap();
    let (reply, _, _) = read_frame(&mut stream).unwrap();
    assert!(matches!(reply, Message::Ack { .. }), "got {reply:?}");

    let metrics = server.recorder().metrics_snapshot();
    assert_eq!(metrics.counter("serve.frames_corrupt"), Some(1));
    server.shutdown();
}

/// Connections killed mid-frame and stragglers past the read deadline are
/// dropped; the epoch recovers from the surviving subset instead of
/// wedging, and the metrics account for every casualty.
#[test]
fn epoch_survives_killed_and_straggling_connections() {
    let (cluster, _) = majority_cluster();
    let sketches = proto().node_sketches(&cluster).unwrap();
    let server =
        spawn(ServerConfig { read_timeout: Duration::from_millis(100), ..ServerConfig::default() })
            .unwrap();
    let addr = server.addr();
    let retry = RetryPolicy::no_retry();
    let n = cluster.n() as u64;

    // Healthy connection ships nodes 0 and 1.
    let (mut healthy, _) = ServeClient::open_with_backend(
        addr,
        &retry,
        1,
        0,
        M as u32,
        n,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    healthy.send_sketch(0, &sketches[0], SketchEncoding::F64).unwrap();
    healthy.send_sketch(1, &sketches[1], SketchEncoding::F64).unwrap();

    // Node 2's connection dies mid-frame: prefix promises 256 bytes, the
    // socket delivers 10 and is killed.
    let mut killed = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut killed,
        &Message::OpenEpoch {
            session: 1,
            epoch: 0,
            m: M as u32,
            n,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        },
        None,
    )
    .unwrap();
    let _ = read_frame(&mut killed).unwrap();
    killed.write_all(&256u32.to_le_bytes()).unwrap();
    killed.write_all(&[0xAB; 10]).unwrap();
    drop(killed);

    // Node 3's connection opens and then stalls past the read deadline
    // (so does `healthy`, idle since its last sketch — ingested sketches
    // live in the epoch, not the connection).
    let (straggler, _) = ServeClient::open_with_backend(
        addr,
        &retry,
        1,
        0,
        M as u32,
        n,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    drop(straggler);
    drop(healthy);

    // A fresh control connection seals and recovers: only the two
    // surviving sketches count.
    let (mut control, already) = ServeClient::open_with_backend(
        addr,
        &retry,
        1,
        0,
        M as u32,
        n,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    assert_eq!(already, 2, "the epoch kept the sketches of dropped connections");
    let sealed = control.seal().unwrap();
    assert_eq!(sealed, 2, "only the surviving subset is aggregated");
    let (mode, outliers) = control.recover(K as u32).unwrap();
    assert!(mode.is_finite());
    assert!(outliers.len() <= K);

    // The degraded result equals an in-process aggregation of the same
    // surviving subset, bit for bit.
    let mut agg = cso_distributed::SketchAggregator::new(
        cso_core::MeasurementSpec::new(M, cluster.n(), SEED).unwrap(),
    );
    agg.join(0, sketches[0].clone()).unwrap();
    agg.join(1, sketches[1].clone()).unwrap();
    let expect = agg.recover(&proto().effective_recovery(K)).unwrap();
    assert_eq!(mode.to_bits(), expect.mode.to_bits());
    for (got, want) in outliers.iter().zip(expect.top_k(K)) {
        assert_eq!(got.0 as usize, want.index);
        assert_eq!(got.1.to_bits(), want.value.to_bits());
    }

    let metrics = server.recorder().metrics_snapshot();
    assert!(metrics.counter("serve.conns_died_mid_frame").unwrap_or(0) >= 1, "{metrics:?}");
    assert!(metrics.counter("serve.conns_straggler_dropped").unwrap_or(0) >= 1, "{metrics:?}");
    assert_eq!(metrics.counter("serve.sketches_accepted"), Some(2));
    assert_eq!(metrics.counter("serve.epochs_recovered"), Some(1));
    server.shutdown();
}

/// The high-severity regression: a hostile `OpenEpoch` (astronomical `n`,
/// which would make recovery allocate an `m·n` dense matrix) gets a typed
/// `BadSpec` reject over the wire, and the server keeps serving everyone
/// else — one frame must never be able to abort the process.
#[test]
fn hostile_open_is_rejected_and_the_server_survives() {
    let (cluster, _) = majority_cluster();
    let server = spawn(ServerConfig::default()).unwrap();
    let mut hostile = TcpStream::connect(server.addr()).unwrap();

    for n in [1u64 << 40, u64::MAX, 0] {
        write_frame(
            &mut hostile,
            &Message::OpenEpoch {
                session: 66,
                epoch: 0,
                m: 8,
                n,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            },
            None,
        )
        .unwrap();
        let (reply, _, _) = read_frame(&mut hostile).unwrap();
        assert_eq!(
            reply,
            Message::Reject { code: RejectCode::BadSpec.as_u16(), retry_after_ms: 0 },
            "n={n}"
        );
    }
    // Even a hostile recover path is inert: open a tiny epoch, seal it
    // empty-adjacent, and keep the connection usable.
    write_frame(
        &mut hostile,
        &Message::OpenEpoch {
            session: 66,
            epoch: 0,
            m: 8,
            n: 64,
            seed: 1,
            op_kind: 0,
            op_param: 0,
        },
        None,
    )
    .unwrap();
    assert!(matches!(read_frame(&mut hostile).unwrap().0, Message::Ack { .. }));
    drop(hostile);

    // The same server still runs a full protocol round, bit-correct.
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
    let run = run_cs_over_server(&proto(), &cluster, K, server.addr(), &ServeRunConfig::default())
        .unwrap();
    assert_eq!(run.mode.to_bits(), reference.mode.to_bits());
    server.shutdown();
}

/// The client matches replies to requests by the echoed tag: an `Ack`
/// carrying the wrong `of` is surfaced as `UnexpectedReply`, not taken as
/// success.
#[test]
fn mismatched_ack_tag_is_an_unexpected_reply() {
    use cso_serve::ClientError;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // Swallow the OpenEpoch and reply with an Ack echoing the wrong
        // request tag.
        let _ = read_frame(&mut sock).unwrap();
        write_frame(&mut sock, &Message::Ack { of: wire::TAG_SKETCH, info: 0 }, None).unwrap();
    });

    let err = match ServeClient::open_with_backend(
        addr,
        &RetryPolicy::no_retry(),
        1,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    ) {
        Ok(_) => panic!("a mismatched ack must not be accepted"),
        Err(e) => e,
    };
    assert!(
        matches!(err, ClientError::UnexpectedReply(tag) if tag == wire::TAG_SKETCH),
        "got {err:?}"
    );
    fake.join().unwrap();
}

/// A `Status` reply whose phase byte is out of range is surfaced as
/// `MalformedReply` naming the bad field — not mislabeled as a
/// wrong-frame-type `UnexpectedReply` (the frame type was right).
#[test]
fn out_of_range_phase_in_status_is_a_malformed_reply() {
    use cso_serve::ClientError;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let _ = read_frame(&mut sock).unwrap(); // OpenEpoch
        write_frame(&mut sock, &Message::Ack { of: wire::TAG_OPEN_EPOCH, info: 0 }, None).unwrap();
        let _ = read_frame(&mut sock).unwrap(); // EpochStatus
        write_frame(&mut sock, &Message::Status { epoch: 0, phase: 9, nodes: 0 }, None).unwrap();
    });

    let (mut client, _) = ServeClient::open_with_backend(
        addr,
        &RetryPolicy::no_retry(),
        1,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    let err = client.status().expect_err("phase 9 must not decode");
    assert!(
        matches!(err, ClientError::MalformedReply { field: "epoch phase", value: 9 }),
        "got {err:?}"
    );
    fake.join().unwrap();
}

/// Durability across a *clean* restart: three epochs are ingested over 1,
/// 2 and 8 concurrent connections and the server shuts down before any
/// seal. A fresh server over the same WAL directory replays the journal
/// and every epoch seals + recovers the full cluster's bits — identical
/// to the never-restarted wire reference.
#[test]
fn clean_restart_replays_the_journal_bit_identically() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
    let sketches = proto().node_sketches(&cluster).unwrap();
    let n = cluster.n() as u64;
    let l = cluster.l() as u64;
    let dir = std::env::temp_dir().join(format!("cso-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let retry = RetryPolicy::default();

    // First life: ingest only, then drain cleanly mid-protocol.
    let server =
        spawn(ServerConfig { durability: Some(Durability::at(&dir)), ..ServerConfig::default() })
            .unwrap();
    let addr = server.addr();
    for (epoch, connections) in [(0u64, 1usize), (1, 2), (2, 8)] {
        std::thread::scope(|scope| {
            for c in 0..connections {
                let sketches = &sketches;
                let retry = &retry;
                scope.spawn(move || {
                    let (mut client, _) = ServeClient::open_with_backend(
                        addr,
                        retry,
                        1,
                        epoch,
                        M as u32,
                        n,
                        SEED,
                        SketchBackend::dense(),
                    )
                    .unwrap();
                    for (node, sketch) in sketches.iter().enumerate().skip(c).step_by(connections) {
                        client.send_sketch(node as u32, sketch, SketchEncoding::F64).unwrap();
                    }
                });
            }
        });
    }
    server.shutdown();

    // Second life: same directory, fresh everything else.
    let server =
        spawn(ServerConfig { durability: Some(Durability::at(&dir)), ..ServerConfig::default() })
            .unwrap();
    let metrics = server.recorder().metrics_snapshot();
    assert_eq!(metrics.counter("serve.restarts"), Some(1));
    assert!(
        metrics.counter("serve.replayed_records").unwrap_or(0) >= 3 * (1 + l),
        "3 opens + {l} ingests each must have been replayed: {metrics:?}"
    );
    assert_eq!(metrics.counter("serve.unclean_shutdowns"), None, "the drain was graceful");
    assert_eq!(metrics.counter("serve.wal_torn_tails"), None);

    for epoch in 0..3u64 {
        let (mut control, already) = ServeClient::open_with_backend(
            server.addr(),
            &retry,
            1,
            epoch,
            M as u32,
            n,
            SEED,
            SketchBackend::dense(),
        )
        .unwrap();
        assert_eq!(already, l, "epoch {epoch}: replay lost ingested nodes");
        assert_eq!(control.seal().unwrap(), l, "epoch {epoch}");
        let (mode, outliers) = control.recover(K as u32).unwrap();
        assert_eq!(mode.to_bits(), reference.mode.to_bits(), "epoch {epoch}: mode bits");
        for (got, want) in outliers.iter().zip(&reference.estimate) {
            assert_eq!(got.0 as usize, want.index, "epoch {epoch}");
            assert_eq!(got.1.to_bits(), want.value.to_bits(), "epoch {epoch}");
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A draining server answers queued-but-unstarted connections with a
/// typed `ShuttingDown` reject instead of a silent close, so their
/// clients fail over immediately.
#[test]
fn shutdown_rejects_queued_connections_with_a_typed_frame() {
    let server = spawn(ServerConfig {
        handlers: 1,
        queue_depth: 8,
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let rec = server.recorder().clone();

    // Occupy the only handler, then park two connections in the queue.
    let (holder, _) = ServeClient::open_with_backend(
        addr,
        &RetryPolicy::no_retry(),
        1,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    let mut queued: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(50)); // let the acceptor queue them

    // The drain joins the busy handler (it notices at its read deadline)
    // and then must write the typed reject to everything still queued.
    server.shutdown();
    drop(holder);
    for (i, s) in queued.iter_mut().enumerate() {
        let (reply, _, _) = read_frame(s).unwrap();
        assert_eq!(
            reply,
            Message::Reject { code: RejectCode::ShuttingDown.as_u16(), retry_after_ms: 0 },
            "queued connection {i}"
        );
    }
    assert!(
        rec.metrics_snapshot().counter("serve.conns_rejected_shutdown").unwrap_or(0) >= 2,
        "both queued connections must be accounted"
    );
}

/// Narrow encodings flow through the server exactly like the in-process
/// wire path: same quantization, same recovered bits.
#[test]
fn f32_encoding_matches_run_over_wire() {
    let (cluster, _) = majority_cluster();
    let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F32).unwrap();
    let server = spawn(ServerConfig::default()).unwrap();
    let cfg = ServeRunConfig { encoding: SketchEncoding::F32, ..ServeRunConfig::default() };
    let run = run_cs_over_server(&proto(), &cluster, K, server.addr(), &cfg).unwrap();
    assert_eq!(run.mode.to_bits(), reference.mode.to_bits());
    for (got, want) in run.outliers.iter().zip(&reference.estimate) {
        assert_eq!(got.0 as usize, want.index);
        assert_eq!(got.1.to_bits(), want.value.to_bits());
    }
    server.shutdown();
}

/// A wedged server — one that accepts the connect but never answers the
/// open probe — must not hang the client forever. The policy's
/// `timeout_ticks` bounds the wait, the stalled attempt is retried on a
/// fresh connection, and the answered retry succeeds.
#[test]
fn open_times_out_on_a_wedged_server_and_retries() {
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // First connection: accept, read the probe, say nothing.
        let (mut wedged, _) = listener.accept().unwrap();
        let _ = read_frame(&mut wedged).unwrap();
        // Second connection (the client's retry): answer properly. The
        // wedged socket stays open throughout — the client must abandon
        // it on its own, not be rescued by a close.
        let (mut live, _) = listener.accept().unwrap();
        let _ = read_frame(&mut live).unwrap();
        write_frame(&mut live, &Message::Ack { of: wire::TAG_OPEN_EPOCH, info: 5 }, None).unwrap();
        drop(wedged);
    });

    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff_ticks: 1,
        max_backoff_ticks: 2,
        timeout_ticks: 80,
        ..RetryPolicy::default()
    };
    let (client, info) =
        ServeClient::open_with_backend(addr, &retry, 9, 0, 16, 64, SEED, SketchBackend::dense())
            .unwrap();
    assert_eq!(info, 5, "the answered retry's ack must be the one returned");
    drop(client);
    fake.join().unwrap();
}

/// `Busy { retry_after_ms }` is honored between attempts but never after
/// the last one: with two attempts and a large server hint the client
/// sleeps exactly once, so exhaustion surfaces promptly.
#[test]
fn open_exhaustion_does_not_sleep_after_the_final_attempt() {
    use cso_serve::ClientError;
    use std::net::TcpListener;
    use std::time::Instant;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const HINT_MS: u32 = 300;
    let fake = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut sock, _) = listener.accept().unwrap();
            let _ = read_frame(&mut sock).unwrap();
            write_frame(
                &mut sock,
                &Message::Reject { code: RejectCode::Busy.as_u16(), retry_after_ms: HINT_MS },
                None,
            )
            .unwrap();
        }
    });

    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff_ticks: 1,
        max_backoff_ticks: 2,
        ..RetryPolicy::default()
    };
    let started = Instant::now();
    let err = match ServeClient::open_with_backend(
        addr,
        &retry,
        9,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    ) {
        Ok(_) => panic!("two Busy rejects through two attempts must exhaust"),
        Err(e) => e,
    };
    let elapsed = started.elapsed();
    assert!(matches!(err, ClientError::BusyExhausted), "got {err:?}");
    // One inter-attempt sleep of ~HINT_MS, and nothing after the final
    // reject. Sleeping after both attempts would put this at 2×HINT_MS.
    assert!(elapsed >= Duration::from_millis(u64::from(HINT_MS) - 20), "slept {elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(u64::from(HINT_MS) * 2 - 50),
        "must not sleep the server hint after the final attempt (took {elapsed:?})"
    );
    fake.join().unwrap();
}

/// The session cap is server-wide: with room for two live sessions, a
/// third session's open is `StoreFull` while the first two hold unsealed
/// epochs, whatever their ids.
#[test]
fn session_cap_is_server_wide() {
    use cso_serve::{ClientError, StoreLimits};
    let limits = StoreLimits { max_sessions: 2, ..StoreLimits::default() };
    let server = spawn(ServerConfig { limits, ..ServerConfig::default() }).unwrap();
    let retry = RetryPolicy::no_retry();
    let _first = ServeClient::open_with_backend(
        server.addr(),
        &retry,
        1,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    let _second = ServeClient::open_with_backend(
        server.addr(),
        &retry,
        2,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    )
    .unwrap();
    match ServeClient::open_with_backend(
        server.addr(),
        &retry,
        3,
        0,
        16,
        64,
        SEED,
        SketchBackend::dense(),
    ) {
        Err(ClientError::Rejected(RejectCode::StoreFull)) => {}
        Err(e) => panic!("third session: expected StoreFull, got {e:?}"),
        Ok(_) => panic!("third session admitted past a two-session cap"),
    }
    server.shutdown();
}

/// Eight sessions run at once against one durable server, one thread per
/// session and two ingest connections each, with snapshots landing
/// mid-run. Each session carries its own data, so a sketch folded into
/// the wrong session changes its bits: every report must equal its own
/// `run_over_wire`, and after a restart on the same journal every epoch
/// must re-recover the same bits.
#[test]
fn concurrent_sessions_match_run_over_wire_across_snapshots_and_restart() {
    const SESSIONS: u64 = 8;
    let runs: Vec<(Cluster, cso_distributed::ProtocolRun)> = (0..SESSIONS)
        .map(|s| {
            let cfg = MajorityConfig { n: 400, s: 8, ..MajorityConfig::default() };
            let data = MajorityData::generate(&cfg, 100 + s).unwrap();
            let strategy = SliceStrategy::Camouflaged { offset: 2000.0, fraction: 0.2 };
            let cluster =
                Cluster::new(split(&data.values, 16, strategy, 200 + s).unwrap()).unwrap();
            let reference = proto().run_over_wire(&cluster, K, SketchEncoding::F64).unwrap();
            (cluster, reference)
        })
        .collect();
    let distinct: std::collections::BTreeSet<String> =
        runs.iter().map(|(_, r)| format!("{:?} {:?}", r.mode.to_bits(), r.estimate)).collect();
    assert_eq!(distinct.len(), SESSIONS as usize, "every session's reference differs");
    let assert_bits = |s: u64, mode: f64, outliers: &[(u32, f64)], when: &str| {
        let want = &runs[s as usize].1;
        assert_eq!(mode.to_bits(), want.mode.to_bits(), "session {s} {when}: mode bits");
        assert_eq!(outliers.len(), want.estimate.len(), "session {s} {when}");
        for (got, want) in outliers.iter().zip(&want.estimate) {
            assert_eq!(got.0 as usize, want.index, "session {s} {when}");
            assert_eq!(got.1.to_bits(), want.value.to_bits(), "session {s} {when}");
        }
    };
    let dir = std::env::temp_dir().join(format!("cso-serve-sessions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        durability: Some(Durability { snapshot_every_records: 16, ..Durability::at(&dir) }),
        ..ServerConfig::default()
    };

    let server = spawn(durable()).unwrap();
    let start = std::sync::Barrier::new(SESSIONS as usize);
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let (addr, runs, start) = (server.addr(), &runs, &start);
            let assert_bits = &assert_bits;
            scope.spawn(move || {
                start.wait();
                let cfg =
                    ServeRunConfig { connections: 2, session: s, ..ServeRunConfig::default() };
                let run = run_cs_over_server(&proto(), &runs[s as usize].0, K, addr, &cfg).unwrap();
                assert_eq!(run.nodes, 16, "session {s}");
                assert_bits(s, run.mode, &run.outliers, "live");
            });
        }
    });
    let metrics = server.recorder().metrics_snapshot();
    assert!(metrics.counter("serve.wal_snapshots").unwrap_or(0) >= 2, "{metrics:?}");
    assert_eq!(metrics.counter("serve.epochs_recovered"), Some(SESSIONS));
    server.shutdown();

    let server = spawn(durable()).unwrap();
    assert!(server.recovery_report().is_some_and(|r| r.snapshot_loaded));
    let retry = RetryPolicy::default();
    for s in 0..SESSIONS {
        let (mut control, nodes) = ServeClient::open_with_backend(
            server.addr(),
            &retry,
            s,
            0,
            M as u32,
            400,
            SEED,
            SketchBackend::dense(),
        )
        .unwrap();
        assert_eq!(nodes, 16, "session {s}: restart lost sealed nodes");
        let (mode, outliers) = control.recover(K as u32).unwrap();
        assert_bits(s, mode, &outliers, "after restart");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
