//! The hierarchical relay tier: a mid-tree aggregation node that is a
//! **server to its region and a client to its parent** (DESIGN.md §14).
//!
//! A relay embeds a full [`crate::server`] instance — same wire protocol,
//! same epoll engine, same ingest pads, same WAL durability — so the
//! leaves of its region talk to it exactly as they would talk to a flat
//! root. The one addition is the **forwarder**: a thread that polls the
//! embedded store for sealed epochs whose pre-summed measurement has not
//! yet been acked upstream, and pushes each one to the parent as a single
//! super-node ingest (`node` = this relay's region id) preceded by a
//! [`RelayManifest`](cso_distributed::wire::Message::RelayManifest)
//! declaring which aligned block of the leaf space the pre-sum covers.
//!
//! # Bit-identity
//!
//! The embedded store folds its region's sketches with the same canonical
//! dyadic fold ([`cso_distributed::fold`]) the flat path uses, over
//! *absolute* leaf ids. Because a region is an aligned power-of-two block
//! `[region·fan_in, (region+1)·fan_in)` of that id space, the region
//! pre-sum **is** the flat fold's subtree value — and the root, folding
//! region pre-sums over region-id space, reproduces the flat sum
//! bit-for-bit. No tolerance, no reordering window.
//!
//! # Exactly-once forwarding
//!
//! Forwarding survives kill-9 without double-counting through two
//! independent mechanisms:
//!
//! 1. the upstream's `(node, seed)` ingest dedup makes a re-push of the
//!    same region pre-sum a no-op (acked with the duplicate flag);
//! 2. after the upstream ack, the relay journals a forward-done record
//!    ([`crate::wal::WalRecord::ForwardDone`]) — on restart, WAL replay
//!    restores the flag and the forwarder skips the epoch entirely.
//!
//! A crash *between* ack and journal re-pushes once and is absorbed by
//! (1); a crash after the journal is skipped by (2). Either way the
//! region's measurement is counted exactly once at the root.
//!
//! # Metrics
//!
//! The forwarder publishes `relay.*` on the embedded server's recorder,
//! next to the `serve.*` rows, so the existing introspection plane (and
//! `cso-top`) exports them with no new plumbing: `relay.region` and
//! `relay.upstream_link_up` gauges; `relay.forwards`,
//! `relay.forwarded_nodes`, `relay.forward_duplicates`,
//! `relay.forward_errors`, `relay.forward_after_seal`,
//! `relay.manifest_rejects` and `relay.upstream_reconnects` counters.

use crate::client::{ClientError, ServeClient};
use crate::server::{spawn, ServerConfig, ServerHandle};
use crate::session::PendingForward;
use crate::wal::crash_point;
use cso_core::SketchBackend;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::wire::{Message, TAG_RELAY_MANIFEST};
use cso_distributed::{RetryPolicy, TopologySpec};
use cso_obs::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for one relay: where its embedded region server listens
/// (and journals), which parent it reports to, and which region of the
/// topology it owns.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// The embedded region-facing server (port, limits, durability, …).
    /// Leaves of this region connect here exactly as to a flat root.
    pub server: ServerConfig,
    /// The parent tier's listen address.
    pub upstream: SocketAddr,
    /// This relay's region id; must satisfy
    /// `region < topology.region_count()`.
    pub region: u32,
    /// The shared tree shape. Every relay reporting to one root must
    /// declare the same `fan_in` — the root rejects a disagreeing
    /// manifest with `TopologyMismatch`.
    pub topology: TopologySpec,
    /// Backoff policy for upstream opens/pushes.
    pub retry: RetryPolicy,
}

/// How often the forwarder re-scans for sealed-unforwarded epochs.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

impl RelayConfig {
    /// A relay for `region` of `topology`, reporting to `upstream`, with
    /// default server/retry settings.
    pub fn new(upstream: SocketAddr, region: u32, topology: TopologySpec) -> Self {
        RelayConfig {
            server: ServerConfig::default(),
            upstream,
            region,
            topology,
            retry: RetryPolicy::default(),
        }
    }
}

/// A running relay. Dropping (or [`RelayHandle::shutdown`]) stops the
/// forwarder first, then drains the embedded server.
pub struct RelayHandle {
    server: Option<Arc<ServerHandle>>,
    forwarder: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl RelayHandle {
    /// The loopback address the embedded region server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    /// The embedded server handle (recorder, recovery report, forward
    /// state) — what tests and the introspection plane poke at.
    pub fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server present until shutdown")
    }

    /// Stops the forwarder, then shuts the embedded server down.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.forwarder.take() {
            let _ = t.join();
        }
        // The forwarder's Arc clone is gone after the join: this drop is
        // the last one and runs the server's drain.
        self.server = None;
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Spawns a relay: binds the embedded region server (recovering its WAL
/// first when durability is configured) and starts the forwarder thread.
/// Epochs that were sealed but not forward-done-journaled before a crash
/// are pushed upstream as soon as the forwarder starts — the resume path
/// is the steady-state path.
pub fn spawn_relay(config: RelayConfig) -> io::Result<RelayHandle> {
    if u64::from(config.region) >= config.topology.region_count() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "region {} out of range: topology has {} regions",
                config.region,
                config.topology.region_count()
            ),
        ));
    }
    let server = Arc::new(spawn(config.server.clone())?);
    server.recorder().gauge_set("relay.region", f64::from(config.region));
    server.recorder().gauge_set("relay.upstream_link_up", 0.0);
    let stop = Arc::new(AtomicBool::new(false));
    let forwarder = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let cfg = config.clone();
        std::thread::Builder::new()
            .name(format!("cso-relay-fwd-{}", config.region))
            .spawn(move || forwarder_loop(&server, &stop, &cfg))?
    };
    Ok(RelayHandle { server: Some(server), forwarder: Some(forwarder), stop })
}

/// The forwarder body: poll, push everything pending, sleep, repeat.
/// Failures leave the epoch unforwarded — the next scan retries it — and
/// drop the `relay.upstream_link_up` gauge so operators see the outage.
fn forwarder_loop(server: &ServerHandle, stop: &AtomicBool, cfg: &RelayConfig) {
    while !stop.load(Ordering::SeqCst) {
        for pending in server.sealed_unforwarded() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match forward_one(server, cfg, &pending) {
                Ok(()) => server.recorder().gauge_set("relay.upstream_link_up", 1.0),
                Err(e) => {
                    let rec = server.recorder();
                    rec.gauge_set("relay.upstream_link_up", 0.0);
                    rec.counter_add("relay.forward_errors", 1);
                    match e {
                        ForwardError::ManifestRejected => {
                            rec.counter_add("relay.manifest_rejects", 1);
                        }
                        ForwardError::Client(err) => rec.event(
                            "relay.forward_error",
                            &[
                                ("session", Value::U64(pending.session)),
                                ("epoch", Value::U64(pending.epoch)),
                                ("error", Value::Str(err.to_string())),
                            ],
                        ),
                    }
                }
            }
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Why one forward attempt failed (retried at the next scan).
enum ForwardError {
    /// The upstream rejected our manifest — a topology misconfiguration,
    /// visible as a climbing `relay.manifest_rejects` counter.
    ManifestRejected,
    /// Transport or protocol failure talking upstream.
    Client(ClientError),
}

impl From<ClientError> for ForwardError {
    fn from(e: ClientError) -> Self {
        ForwardError::Client(e)
    }
}

/// Pushes one sealed epoch's pre-sum upstream: open (or attach to) the
/// same `(session, epoch)` on the parent, declare our region's manifest,
/// ingest the pre-sum as super-node `region`, then journal forward-done.
fn forward_one(
    server: &ServerHandle,
    cfg: &RelayConfig,
    pending: &PendingForward,
) -> Result<(), ForwardError> {
    let rec = server.recorder();
    let (leaf_lo, leaf_hi) =
        cfg.topology.leaf_range(u64::from(cfg.region)).expect("region validated at spawn");
    let op = &pending.op;
    let (mut up, _) = ServeClient::open_with_backend(
        cfg.upstream,
        &cfg.retry,
        pending.session,
        pending.epoch,
        op.m as u32,
        op.n as u64,
        op.seed,
        SketchBackend { kind: op.kind, param: op.param },
    )?;
    let manifest = Message::RelayManifest {
        session: pending.session,
        epoch: pending.epoch,
        region: cfg.region,
        leaf_lo,
        leaf_hi,
        fan_in: cfg.topology.fan_in,
    };
    // Identical redeclaration is acked (relay resume), so the manifest is
    // idempotent and may ride the reconnecting request path.
    match up.request_idempotent(&manifest)? {
        Message::Ack { of: TAG_RELAY_MANIFEST, .. } => {}
        Message::Reject { .. } => return Err(ForwardError::ManifestRejected),
        other => return Err(ForwardError::Client(ClientError::UnexpectedReply(other.tag()))),
    }
    // Seeded kill-9 window: manifest landed, pre-sum not yet pushed. The
    // restarted relay re-opens, redeclares (acked), and pushes fresh.
    crash_point("mid-forward");
    match up.send_sketch(cfg.region, &pending.y, SketchEncoding::F64) {
        Ok(true) => rec.counter_add("relay.forward_duplicates", 1),
        Ok(false) => {}
        // Membership already froze upstream (the root sealed without us,
        // or our pre-crash push landed and the root moved on). Retrying
        // can never succeed — record the race and retire the epoch so the
        // scan loop does not spin on it.
        Err(ClientError::Rejected(crate::session::RejectCode::EpochSealed)) => {
            rec.counter_add("relay.forward_after_seal", 1);
        }
        Err(e) => return Err(e.into()),
    }
    // Second kill-9 window: upstream acked, forward-done not yet
    // journaled. The restarted relay re-pushes once; the upstream's
    // (node, seed) dedup answers with the duplicate flag — counted, not
    // double-summed.
    crash_point("pre-forward-journal");
    server.complete_forward(pending.session, pending.epoch);
    rec.counter_add("relay.forwards", 1);
    rec.counter_add("relay.forwarded_nodes", pending.nodes);
    rec.counter_add("relay.upstream_reconnects", up.reconnects());
    // The cross-DC ledger: every byte on the relay→parent link. A tree
    // with fan-in F ships one pre-sum where the flat topology ships F
    // leaf sketches, so this shrinks by ~F versus flat ingest traffic.
    rec.counter_add("relay.upstream_bytes_sent", up.bytes_sent());
    rec.counter_add("relay.upstream_bytes_received", up.bytes_received());
    Ok(())
}
