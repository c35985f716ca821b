//! Live topologies and the closed-loop epoch load.
//!
//! A topology is one root, plus one relay per region on a tree workload,
//! all `cso-serve` instances on loopback in this process, each journaling
//! to its own directory with the default `Durability::at` policy and
//! otherwise running `ServerConfig::default()`.
//!
//! One epoch: two client lanes (threads) each open a fresh `ServeClient`
//! per target, ship their share of leaf sketches one at a time (each
//! waits for its ack) and, on a tree, seal each region once its leaves are
//! in. After both lanes finish, the main lane seals the root epoch and
//! recovers it. Every lane holds at most one connection at a time.

use crate::trace::{Clock, Span, SpanLog};
use crate::workload::{Inputs, Spec};
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::RetryPolicy;
use cso_serve::{
    spawn, spawn_relay, ClientError, Durability, RelayConfig, RelayHandle, ServeClient,
    ServerConfig, ServerHandle,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client lanes: one per vCPU of the 2-vCPU host the benchmark was sized on.
pub const LANES: usize = 2;

/// Epochs per session: sessions roll over before the store's per-session
/// epoch cap, since relays keep sealed epochs that are never recovered.
const EPOCHS_PER_SESSION: u64 = 32;

/// How long the root may take to show every region's pre-sum.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause between root status polls while waiting for the relays.
const STATUS_POLL: Duration = Duration::from_micros(50);

/// The `(session, epoch)` ids epoch number `e` runs under.
fn epoch_ids(e: u64) -> (u64, u64) {
    (1 + e / EPOCHS_PER_SESSION, e % EPOCHS_PER_SESSION)
}

fn durable(dir: &Path) -> ServerConfig {
    ServerConfig { durability: Some(Durability::at(dir)), ..ServerConfig::default() }
}

/// A running root (and relays).
pub struct Topology {
    root: Option<ServerHandle>,
    relays: Vec<RelayHandle>,
    dir: PathBuf,
}

impl Topology {
    /// Spawns the root, then the relays, journaling under `dir`. Returns
    /// the topology and the time the root's `spawn` took (it reads the
    /// journal before binding).
    pub fn spawn(spec: &Spec, dir: &Path) -> Result<(Topology, Duration), String> {
        let started = Instant::now();
        let root = spawn(durable(&dir.join("root"))).map_err(|e| format!("root spawn: {e}"))?;
        let root_spawn = started.elapsed();
        let mut relays = Vec::new();
        if let Some(topology) = spec.topology() {
            for region in 0..topology.region_count() {
                let mut cfg = RelayConfig::new(root.addr(), region as u32, topology);
                cfg.server = durable(&dir.join(format!("relay-{region}")));
                relays.push(spawn_relay(cfg).map_err(|e| format!("relay spawn: {e}"))?);
            }
        }
        Ok((Topology { root: Some(root), relays, dir: dir.to_path_buf() }, root_spawn))
    }

    /// Shuts the root down and spawns it again on the same journal.
    /// Returns the time the new `spawn` took: the journal replay.
    pub fn restart_root(&mut self) -> Result<Duration, String> {
        assert!(self.relays.is_empty(), "relays would lose their upstream");
        if let Some(root) = self.root.take() {
            root.shutdown();
        }
        let started = Instant::now();
        let root = spawn(durable(&self.dir.join("root"))).map_err(|e| format!("respawn: {e}"))?;
        let replay = started.elapsed();
        self.root = Some(root);
        Ok(replay)
    }

    /// The root's address.
    pub fn root_addr(&self) -> SocketAddr {
        self.root.as_ref().expect("root runs until shutdown").addr()
    }

    /// Every server's address, root first.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        std::iter::once(self.root_addr()).chain(self.relays.iter().map(|r| r.addr())).collect()
    }

    /// Stops the relays, then the root, and waits for all their threads.
    pub fn shutdown(mut self) {
        for relay in self.relays.drain(..) {
            relay.shutdown();
        }
        if let Some(root) = self.root.take() {
            root.shutdown();
        }
    }
}

/// Everything one epoch needs.
pub struct EpochCtx<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The input pool and oracle.
    pub inputs: &'a Inputs,
    /// The live servers.
    pub topo: &'a Topology,
    /// The run's clock.
    pub clock: Clock,
    /// Client retry policy (the protocol's default).
    pub retry: RetryPolicy,
}

/// What one epoch did, as the client lanes saw it.
#[derive(Debug, Default)]
pub struct EpochResult {
    /// Epoch number.
    pub epoch: u64,
    /// Why the epoch failed, if it did.
    pub error: Option<String>,
    /// First open started (ns on the run clock).
    pub start_ns: u64,
    /// Last leaf sketch acked.
    pub ingest_end_ns: u64,
    /// Time some connection was ingesting: the union over connections of
    /// open start to last leaf ack (region seals fall outside it).
    pub ingest_ns: u64,
    /// Both lanes joined.
    pub join_ns: u64,
    /// Report in hand.
    pub report_ns: u64,
    /// Leaf sketches acked.
    pub sketches: u64,
    /// Per-sketch `send_sketch` round trips.
    pub rtts_ns: Vec<u64>,
    /// `open_with_backend` durations.
    pub opens_ns: Vec<u64>,
    /// Region seal round trips (tree only).
    pub region_seals_ns: Vec<u64>,
    /// Last region seal ack until the root shows every region (tree only).
    pub forward_ns: u64,
    /// Root seal round trip.
    pub seal_ns: u64,
    /// Recover round trip.
    pub recover_ns: u64,
    /// Bytes the lanes' root connections sent (status polls excluded).
    pub root_bytes: u64,
    /// Client reconnects.
    pub reconnects: u64,
    /// Requests the servers rejected.
    pub rejects: u64,
    /// Most heap bytes live at once during the epoch, MiB.
    pub peak_heap_mib: f64,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl EpochResult {
    /// Whether the epoch completed with a bit-exact report.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One lane's share of an epoch.
struct Lane {
    log: SpanLog,
    /// Lane 0 of a flat epoch keeps its root connection for seal/recover.
    kept: Option<ServeClient>,
    rtts_ns: Vec<u64>,
    opens_ns: Vec<u64>,
    region_seals_ns: Vec<u64>,
    /// Per connection: open start to last leaf ack.
    windows: Vec<(u64, u64)>,
    last_ack_ns: u64,
    last_region_seal_ns: u64,
    sketches: u64,
    root_bytes: u64,
    reconnects: u64,
    error: Option<ClientError>,
}

impl Lane {
    fn new(log: SpanLog) -> Lane {
        Lane {
            log,
            kept: None,
            rtts_ns: Vec::new(),
            opens_ns: Vec::new(),
            region_seals_ns: Vec::new(),
            windows: Vec::new(),
            last_ack_ns: 0,
            last_region_seal_ns: 0,
            sketches: 0,
            root_bytes: 0,
            reconnects: 0,
            error: None,
        }
    }
}

impl EpochCtx<'_> {
    fn open(&self, lane: &mut Lane, addr: SocketAddr, e: u64) -> Result<ServeClient, ClientError> {
        let (session, epoch) = epoch_ids(e);
        let spec = self.spec;
        let t0 = self.clock.now();
        let (client, _) = ServeClient::open_with_backend(
            addr,
            &self.retry,
            session,
            epoch,
            spec.m as u32,
            spec.n as u64,
            self.inputs.mseed,
            spec.backend,
        )?;
        let t1 = self.clock.now();
        lane.opens_ns.push(t1 - t0);
        lane.log.record("open", 1, t0, t1);
        Ok(client)
    }

    fn ship(
        &self,
        lane: &mut Lane,
        client: &mut ServeClient,
        e: u64,
        leaves: std::ops::Range<usize>,
        opened_ns: u64,
    ) -> Result<(), ClientError> {
        let input = &self.inputs.epochs[e as usize % self.inputs.epochs.len()];
        for leaf in leaves {
            let t0 = self.clock.now();
            let duplicate =
                client.send_sketch(leaf as u32, &input.sketches[leaf], SketchEncoding::F64)?;
            let t1 = self.clock.now();
            if duplicate {
                return Err(ClientError::Local(format!("leaf {leaf} acked as a duplicate")));
            }
            lane.rtts_ns.push(t1 - t0);
            lane.log.record("ingest", 1, t0, t1);
            lane.sketches += 1;
            lane.last_ack_ns = t1;
        }
        lane.windows.push((opened_ns, lane.last_ack_ns));
        Ok(())
    }

    /// Lane `id`'s leaves: half of a flat epoch's, or every other region.
    fn run_lane(&self, lane: &mut Lane, id: usize, e: u64) -> Result<(), ClientError> {
        let spec = self.spec;
        match spec.topology() {
            None => {
                let per = spec.leaves.div_ceil(LANES);
                let leaves = (id * per).min(spec.leaves)..((id + 1) * per).min(spec.leaves);
                let opened = self.clock.now();
                let mut client = self.open(lane, self.topo.root_addr(), e)?;
                let shipped = self.ship(lane, &mut client, e, leaves, opened);
                lane.reconnects += client.reconnects();
                if id == 0 {
                    lane.kept = Some(client);
                } else {
                    lane.root_bytes += client.bytes_sent();
                }
                shipped
            }
            Some(topology) => {
                for region in (id as u64..topology.region_count()).step_by(LANES) {
                    let (lo, hi) = topology.leaf_range(region).expect("region in range");
                    let opened = self.clock.now();
                    let mut client =
                        self.open(lane, self.topo.relays[region as usize].addr(), e)?;
                    self.ship(lane, &mut client, e, lo as usize..hi as usize, opened)?;
                    let t0 = self.clock.now();
                    let nodes = client.seal()?;
                    let t1 = self.clock.now();
                    lane.region_seals_ns.push(t1 - t0);
                    lane.log.record("region_seal", 1, t0, t1);
                    lane.last_region_seal_ns = t1;
                    lane.reconnects += client.reconnects();
                    if nodes != hi - lo {
                        return Err(ClientError::Local(format!(
                            "region {region} sealed {nodes} leaves"
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Runs epoch `e` end to end and checks its report against the oracle.
    pub fn run_epoch(&self, e: u64, traced: bool) -> EpochResult {
        let mut out =
            EpochResult { epoch: e, start_ns: self.clock.now(), ..EpochResult::default() };
        let (mut main, mut helper) = std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let mut lane = Lane::new(SpanLog::new(traced, e, 1, 1_000_000));
                lane.error = self.run_lane(&mut lane, 1, e).err();
                lane
            });
            let mut main = Lane::new(SpanLog::new(traced, e, 0, 1));
            main.error = self.run_lane(&mut main, 0, e).err();
            (main, helper.join().expect("client lane panicked"))
        });
        out.join_ns = self.clock.now();
        out.ingest_end_ns = main.last_ack_ns.max(helper.last_ack_ns);
        out.ingest_ns = crate::stats::union_len(main.windows.iter().chain(&helper.windows));
        let finished = match (main.error.take(), helper.error.take()) {
            (Some(err), _) | (None, Some(err)) => Err(err),
            (None, None) => self.finish(&mut main, &helper, e, &mut out),
        };
        out.report_ns = self.clock.now();
        if let Err(err) = finished {
            out.rejects += u64::from(matches!(err, ClientError::Rejected(_)));
            out.error = Some(err.to_string());
        }
        for lane in [&main, &helper] {
            out.sketches += lane.sketches;
            out.rtts_ns.extend(&lane.rtts_ns);
            out.opens_ns.extend(&lane.opens_ns);
            out.region_seals_ns.extend(&lane.region_seals_ns);
            out.root_bytes += lane.root_bytes;
            out.reconnects += lane.reconnects;
        }
        if traced {
            out.spans.push(Span {
                epoch: e,
                id: 1,
                parent: 0,
                lane: 0,
                name: "epoch".into(),
                start_ns: out.start_ns,
                end_ns: out.report_ns,
            });
            out.spans.extend(main.log.into_spans());
            out.spans.extend(helper.log.into_spans());
        }
        out
    }

    /// The main lane's part after the join: on a tree, open the root and
    /// wait for every region's pre-sum; then seal, recover and compare.
    fn finish(
        &self,
        main: &mut Lane,
        helper: &Lane,
        e: u64,
        out: &mut EpochResult,
    ) -> Result<(), ClientError> {
        let spec = self.spec;
        let mut polled = 0;
        let mut client = match main.kept.take() {
            Some(client) => client,
            None => {
                let mut client = self.open(main, self.topo.root_addr(), e)?;
                let t0 = self.clock.now();
                let before = client.bytes_sent();
                let regions = spec.root_nodes();
                loop {
                    let (_, nodes) = client.status()?;
                    if nodes >= regions {
                        break;
                    }
                    if Duration::from_nanos(self.clock.now() - t0) > FORWARD_TIMEOUT {
                        return Err(ClientError::Local(format!(
                            "root saw {nodes} of {regions} regions"
                        )));
                    }
                    std::thread::sleep(STATUS_POLL);
                }
                let t1 = self.clock.now();
                main.log.record("forward", 1, t0, t1);
                polled = client.bytes_sent() - before;
                out.forward_ns = t1 - main.last_region_seal_ns.max(helper.last_region_seal_ns);
                client
            }
        };
        let t0 = self.clock.now();
        let nodes = client.seal()?;
        let t1 = self.clock.now();
        let (mode, outliers) = client.recover(spec.k as u32)?;
        let t2 = self.clock.now();
        main.log.record("seal", 1, t0, t1);
        main.log.record("recover", 1, t1, t2);
        (out.seal_ns, out.recover_ns) = (t1 - t0, t2 - t1);
        main.root_bytes += client.bytes_sent() - polled;
        main.reconnects += client.reconnects();
        if nodes != spec.root_nodes() {
            return Err(ClientError::Local(format!("root sealed {nodes} nodes")));
        }
        let input = &self.inputs.epochs[e as usize % self.inputs.epochs.len()];
        if !input.expected.matches(mode, &outliers) {
            return Err(ClientError::Local("report differs from the oracle's".into()));
        }
        Ok(())
    }

    /// Re-opens epoch `e` on the root and recovers it again, requiring the
    /// oracle's bits: the check that a restarted root replayed its journal
    /// faithfully.
    pub fn rerecover(&self, e: u64) -> Result<(), String> {
        let mut lane = Lane::new(SpanLog::new(false, e, 0, 1));
        let mut client =
            self.open(&mut lane, self.topo.root_addr(), e).map_err(|err| err.to_string())?;
        let (mode, outliers) = client.recover(self.spec.k as u32).map_err(|err| err.to_string())?;
        let input = &self.inputs.epochs[e as usize % self.inputs.epochs.len()];
        if input.expected.matches(mode, &outliers) {
            Ok(())
        } else {
            Err(format!("epoch {e} recovered differently after the restart"))
        }
    }
}

/// One set-up: spawn, warm up, and (when the workload asks) restart the
/// root on its warm-up journal and re-recover a warm-up epoch.
pub struct Setup {
    /// The live topology.
    pub topo: Topology,
    /// Wall time of the whole set-up.
    pub elapsed: Duration,
    /// Time of the `spawn` that read the root's journal: the restart's on
    /// a restarting workload, the first spawn's otherwise.
    pub replay: Duration,
}

/// Builds one topology under `dir` and brings it to the timed state.
pub fn set_up(spec: &Spec, inputs: &Inputs, dir: &Path, clock: Clock) -> Result<Setup, String> {
    let started = Instant::now();
    let (mut topo, mut replay) = Topology::spawn(spec, dir)?;
    let retry = RetryPolicy::default();
    for e in 0..spec.warmup_epochs as u64 {
        let ctx = EpochCtx { spec, inputs, topo: &topo, clock, retry };
        if let Some(err) = ctx.run_epoch(e, false).error {
            topo.shutdown();
            return Err(format!("warm-up epoch {e}: {err}"));
        }
    }
    if spec.restart {
        replay = topo.restart_root()?;
        let ctx = EpochCtx { spec, inputs, topo: &topo, clock, retry };
        if let Err(err) = ctx.rerecover(spec.warmup_epochs as u64 - 1) {
            topo.shutdown();
            return Err(err);
        }
    }
    Ok(Setup { topo, elapsed: started.elapsed(), replay })
}
