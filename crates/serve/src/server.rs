//! The long-running TCP aggregation server: an epoll readiness loop over
//! one locked session store with a lock-free sketch ingest path.
//!
//! ## Engine (PR 8)
//!
//! A fixed pool of [`ServerConfig::handlers`] **worker threads**, each
//! running its own epoll loop (see [`crate::sys`]) over nonblocking
//! sockets. Worker 0 also owns the nonblocking listener; accepted
//! connections are spread round-robin across workers through per-worker
//! inboxes, with an eventfd doorbell pulling the target worker out of
//! `epoll_wait`. Each connection is a small state machine: a
//! [`FrameAssembler`] reassembles frames from arbitrary partial reads, a
//! write buffer absorbs partial writes (the worker re-arms `EPOLLOUT`
//! until it drains), and an idle deadline drops stragglers.
//!
//! **Admission** is a live-connection cap (`handlers + queue_depth`,
//! preserving the thread-pool engine's observable limit): connections
//! beyond it are answered `Reject { Busy, retry_after_ms }` and closed,
//! pushing backpressure into the client's retry loop instead of letting
//! memory grow.
//!
//! ## The store lock and the lock-free hot path
//!
//! Every session lives in one [`SessionStore`] behind one lock, whose
//! [`StoreLimits`] caps are server-wide. Non-sketch traffic (open/seal/
//! recover/status/manifest) dispatches under the store lock. An ingesting
//! epoch's members live in its [`IngestPad`], and sketch ingest takes a
//! **lock-free fast path**: after a successful open the connection caches
//! the pad, and each sketch claims its node's slot with a CAS and writes
//! its payload without touching the store lock — only the journal lock is
//! taken, to append the record before the ack (`serve.shard_lockfree_ingests`
//! vs `serve.shard_locked_dispatches` count the split). The locked path
//! and replay make the same claim, and a node id past
//! [`StoreLimits::max_nodes_per_epoch`] is a typed `NodeOutOfRange` on
//! all of them. Seal quiesces the pad under the store lock and folds its
//! sketches in ascending id order, so sealed measurements remain the
//! canonical dyadic fold over node ids — bit-identical to `run_over_wire`.
//!
//! One journal writer (one WAL behind one lock) records every transition.
//! Lock order: the store lock, then the journal lock; the hot path takes
//! only the journal lock, so journal order is application order. Every
//! store-locked transition (dispatch, `finish_recover`, `complete_forward`)
//! runs through one helper, `Shared::commit`: it journals the applied
//! record before the store guard drops, and flushes [`StoreStats`] and
//! runs the journal's follow-ups only after. A snapshot cuts at a
//! journal rotation: under the store lock it rotates the journal and
//! serializes the store, pads open; it writes the file after the lock
//! drops. A claim turns READY before its journal append, so a sketch
//! journaled before the rotation is in the snapshot, and one straddling
//! it replays as a duplicate.
//!
//! Fault containment per connection (see [`crate::frame`]):
//!
//! - a CRC-corrupt but well-framed message → `Reject { CorruptFrame }`,
//!   the stream stays synchronized and continues;
//! - an oversized prefix, a mid-frame kill, or a straggler past the read
//!   deadline → the connection is dropped. The epoch simply keeps the
//!   sketches it already ingested — recovery degrades to the surviving
//!   subset, the session is never wedged.
//!
//! ## Telemetry (PR 7)
//!
//! Workers record `serve.*` counters and latency histograms through a
//! shared [`Recorder`] — counters and histograms only, never spans. The
//! **lock-audit rule**: nothing under the store lock touches the
//! recorder. Store and WAL code buffer into a [`StoreStats`] (they cannot
//! reach a recorder by construction) and the worker flushes after the
//! guard drops; occupancy gauges are published to two atomics while the
//! guard is still held and turned into gauge values only on the
//! introspection path. An [`Message::Introspect`] frame is answered from
//! the recorder's own registry — a metrics poll never touches the store
//! lock. The readiness loop itself is observable through
//! `serve.loop_wakeups` / `serve.loop_events`.
//!
//! Each worker owns a lane of the crash [`FlightRecorder`]: a fixed-size
//! lock-free ring of recent request events, dumped to `flight.jsonl` on
//! worker panic, on the WAL failure-latch transition, on graceful
//! shutdown, and after each journaled seal/recover — the last write
//! points mean a SIGKILL'd process leaves a flight dump that is always
//! *behind or equal to* what WAL replay reconstructs.
//!
//! Each completed recovery appends one JSONL line (a [`RunReport`]) to
//! the configured report path.

use crate::frame::{encode_frame, write_frame, FrameAssembler, FrameError, TraceContext};
use crate::session::{
    ConnState, Dispatch, Effect, IngestPad, PendingForward, RecoveredEpoch, RecoveryPolicy,
    RejectCode, SessionStore, StoreLimits, StoreStats,
};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wal::{crash_point, Durability, RecoveryReport, Wal, WalRecord};
use cso_distributed::wire::Message;
use cso_obs::{FlightKind, FlightRecorder, MetricsSnapshot, Recorder, RunReport};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flight-recorder event schema, indexed by the `FK_*` constants.
const FLIGHT_KINDS: &[FlightKind] = &[
    FlightKind { name: "frame", fields: &["tag", "session", "epoch", "dur_us"] },
    FlightKind { name: "slow_request", fields: &["tag", "dur_us", "trace_id", "span_id"] },
    FlightKind { name: "sealed", fields: &["session", "epoch", "nodes"] },
    FlightKind { name: "recovered", fields: &["session", "epoch", "outliers", "dur_us"] },
    FlightKind { name: "handler_panic", fields: &["lane"] },
    FlightKind { name: "wal_latched", fields: &["lane"] },
    FlightKind { name: "shutdown", fields: &[] },
];
const FK_FRAME: usize = 0;
const FK_SLOW: usize = 1;
const FK_SEALED: usize = 2;
const FK_RECOVERED: usize = 3;
const FK_PANIC: usize = 4;
const FK_WAL_LATCHED: usize = 5;
const FK_SHUTDOWN: usize = 6;

/// Epoll token of the listener (worker 0 only).
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the worker's inbox doorbell.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Telemetry knobs: the crash flight recorder and the slow-request
/// threshold.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch for the metrics registry. When false the server runs
    /// with a disabled [`Recorder`] — every counter/histogram call is a
    /// no-op and `Introspect` answers with an empty snapshot — which is
    /// the baseline the telemetry-overhead bench compares against.
    pub metrics: bool,
    /// Ring slots per worker lane in the flight recorder (`0` disables
    /// flight recording entirely).
    pub flight_slots: usize,
    /// When set, the flight recorder is dumped to this path (JSONL) on
    /// worker panic, WAL failure-latch, graceful shutdown, and after
    /// each journaled seal/recover.
    pub flight_path: Option<PathBuf>,
    /// Requests slower than this get a `slow_request` flight event and a
    /// `serve.slow_requests` count, carrying the client's trace context
    /// when one was attached to the frame.
    pub slow_request: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            metrics: true,
            flight_slots: 256,
            flight_path: None,
            slow_request: Duration::from_millis(250),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each running its own epoll readiness loop. One
    /// worker serves many connections; more workers spread CPU-bound
    /// dispatch (and recovery) across cores.
    pub handlers: usize,
    /// Admission headroom beyond `handlers`: the server holds at most
    /// `handlers + queue_depth` live connections before answering `Busy`.
    pub queue_depth: usize,
    /// Idle deadline per connection: a connection silent this long is a
    /// straggler and is dropped (its epoch degrades to the sketches
    /// already ingested).
    pub read_timeout: Duration,
    /// Retry hint carried in `Busy` rejects.
    pub retry_after_ms: u32,
    /// Recovery configuration applied at epoch recover.
    pub policy: RecoveryPolicy,
    /// Resource caps the session store enforces at `OpenEpoch` (hostile
    /// geometry, session/epoch counts), server-wide.
    pub limits: StoreLimits,
    /// When set, every recovered epoch appends one JSONL report line here.
    pub report_path: Option<PathBuf>,
    /// Loopback port to bind (`0` = OS-assigned ephemeral). A fixed port
    /// is what lets clients reconnect to a restarted server.
    pub port: u16,
    /// When set, the session store is recovered from this WAL directory at
    /// startup and every state transition is journaled before its ack.
    pub durability: Option<Durability>,
    /// Flight recorder and slow-request telemetry.
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handlers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(2),
            retry_after_ms: 10,
            policy: RecoveryPolicy::default(),
            limits: StoreLimits::default(),
            report_path: None,
            port: 0,
            durability: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A worker's cross-thread mailbox: accepted sockets handed over by the
/// accepting worker, plus the eventfd that pulls the owner out of
/// `epoll_wait` to collect them (and to notice shutdown).
struct WorkerLink {
    inbox: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// Everything the worker threads share.
struct Shared {
    // Lock order: the store lock, then the journal lock. The sketch fast
    // path takes only the journal lock.
    store: Mutex<SessionStore>,
    /// Occupancy mirrors of `store` (published while its guard is held,
    /// read lock-free by the introspection path).
    sessions: AtomicU64,
    epochs: AtomicU64,
    wal: Option<Mutex<Wal>>,
    links: Vec<Arc<WorkerLink>>,
    live_conns: AtomicU64,
    shutdown: AtomicBool,
    rec: Recorder,
    flight: FlightRecorder,
    recovery: Option<RecoveryReport>,
    config: ServerConfig,
}

impl Shared {
    /// The journal records of a dispatched message's effect, in
    /// application order. They are only built with durability on.
    fn records_of(&self, effect: &Effect, msg: &Message) -> Vec<WalRecord> {
        match (&self.wal, effect) {
            (None, _) => Vec::new(),
            (Some(_), Effect::Records(records)) => records.clone(),
            (Some(_), _) => WalRecord::of_effect(effect, msg).into_iter().collect(),
        }
    }

    /// Runs one store-locked transition: `transition` mutates the store
    /// and names the records to journal. Its two rules live here alone:
    /// the records are appended under the store lock, so journal order is
    /// application order (and a snapshot never sees a transition without
    /// its records); and the stats flush, and [`Shared::after_journal`]
    /// runs, only after the guard drops. The occupancy gauges' sources are
    /// published under the guard, consistent with the transition.
    fn commit<T>(
        &self,
        lane: Option<usize>,
        transition: impl FnOnce(&mut SessionStore, &mut StoreStats) -> (T, Vec<WalRecord>),
    ) -> T {
        let mut stats = StoreStats::new();
        let (out, journaled) = {
            let mut store = lock_unpoisoned(&self.store);
            let (out, records) = transition(&mut store, &mut stats);
            let journaled = self.append(&records, &mut stats);
            self.sessions.store(store.session_count() as u64, Ordering::Relaxed);
            self.epochs.store(store.epoch_count() as u64, Ordering::Relaxed);
            (out, journaled)
        };
        stats.flush(&self.rec);
        self.after_journal(lane, journaled);
        out
    }

    /// Appends `records`, in order, to the journal. Safe to call with or
    /// without the store lock held (it takes only the journal lock, which
    /// is ordered after the store lock); a no-op without durability or
    /// records. Returns `(latched, snapshot_due)`: `latched` when this
    /// append flipped the WAL into its failed state (the caller dumps the
    /// flight recorder after releasing its locks), `snapshot_due` when the
    /// caller should run [`Shared::snapshot_all`] — **after** releasing
    /// the store lock, because the snapshot takes it.
    fn append(&self, records: &[WalRecord], stats: &mut StoreStats) -> (bool, bool) {
        let (Some(wal), false) = (&self.wal, records.is_empty()) else { return (false, false) };
        let mut wal = lock_unpoisoned(wal);
        let was_failed = wal.failed();
        records.iter().for_each(|record| wal.append(record, stats));
        (!was_failed && wal.failed(), wal.should_snapshot())
    }

    /// The snapshot choreography (the cut argument is in the module docs):
    /// under one store guard, so no store-locked transition lands between
    /// them, rotate the journal and serialize the store; write the file
    /// after the guard drops. Callers must not hold the store lock.
    /// `should_snapshot` is re-checked under the journal lock so concurrent
    /// workers cannot double-snapshot.
    fn snapshot_all(&self, stats: &mut StoreStats) {
        let Some(wal) = &self.wal else { return };
        let (cut, bytes) = {
            let store = lock_unpoisoned(&self.store);
            let mut journal = lock_unpoisoned(wal);
            let cut = journal.should_snapshot().then(|| journal.cut_snapshot(stats)).flatten();
            let Some(cut) = cut else { return };
            drop(journal);
            (cut, store.snapshot_bytes())
        };
        cut.persist(&bytes, stats);
    }

    /// What follows a journal append, once the store lock is released:
    /// given [`Shared::append`]'s `(latched, snapshot_due)`, a WAL that
    /// latched failed is flight-recorded on the worker's `lane` (if the
    /// caller is a worker) and the flight recorder dumped, and a due
    /// snapshot is taken.
    fn after_journal(&self, lane: Option<usize>, (latched, snapshot_due): (bool, bool)) {
        if latched {
            if let Some(lane) = lane {
                self.flight.record(lane, FK_WAL_LATCHED, &[lane as u64]);
            }
            self.dump_flight();
        }
        if snapshot_due {
            let mut snap_stats = StoreStats::new();
            self.snapshot_all(&mut snap_stats);
            snap_stats.flush(&self.rec);
        }
    }

    /// The live metrics snapshot the introspection plane serves: the
    /// recorder's registry plus the occupancy gauges derived from the
    /// lock-free store mirrors and the inbox backlogs. Never touches the
    /// store lock.
    fn introspect_snapshot(&self) -> MetricsSnapshot {
        let backlog: u64 = self.links.iter().map(|l| lock_unpoisoned(&l.inbox).len() as u64).sum();
        self.rec.gauge_set("serve.sessions", self.sessions.load(Ordering::Relaxed) as f64);
        self.rec.gauge_set("serve.epochs", self.epochs.load(Ordering::Relaxed) as f64);
        self.rec.gauge_set("serve.queue_depth", backlog as f64);
        self.rec.metrics_snapshot()
    }

    /// Dumps the flight recorder to the configured path (best-effort; a
    /// failed dump is counted, never fatal).
    fn dump_flight(&self) {
        let Some(path) = &self.config.telemetry.flight_path else { return };
        if !self.flight.is_enabled() {
            return;
        }
        if self.flight.dump_to(path).is_err() {
            self.rec.counter_add("serve.flight_dump_errors", 1);
        }
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The loopback address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder collecting `serve.*` metrics.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.rec
    }

    /// What WAL recovery found at startup, when durability is configured
    /// and prior state existed — the ground truth the `serve.restarts`,
    /// `serve.replayed_records` and `serve.wal_torn_tails` counters must
    /// agree with.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.shared.recovery.as_ref()
    }

    /// Sealed epochs whose pre-summed measurement has not yet been acked
    /// by the upstream tier. The relay forwarder polls this after each
    /// seal and after recovery — WAL replay restores both the sealed
    /// measurement and the forwarded flag, so a restarted relay resumes
    /// exactly the pushes that were never acked. Deterministic order:
    /// ascending `(session, epoch)`.
    pub fn sealed_unforwarded(&self) -> Vec<PendingForward> {
        lock_unpoisoned(&self.shared.store).sealed_unforwarded()
    }

    /// Records that an epoch's pre-sum was acked upstream: marks the
    /// epoch forwarded and journals a forward-done record so the mark
    /// survives kill-9. Returns `false` (and journals nothing) when the
    /// epoch is unknown or already marked — the idempotent no-op a
    /// duplicated ack resolves to.
    pub fn complete_forward(&self, session: u64, epoch: u64) -> bool {
        self.shared.commit(None, |store, _| match store.mark_forwarded(session, epoch) {
            Effect::Records(records) => (true, records),
            _ => (false, Vec::new()),
        })
    }

    /// Stops accepting, drains workers, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every worker is either in epoll_wait (the doorbell wakes it) or
        // mid-iteration (it re-checks the flag before waiting again).
        for link in &self.shared.links {
            link.wake.signal();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Handed-over-but-uncollected connections get a typed reject
        // instead of a silent close, so their clients fail over
        // immediately rather than burning their read deadline.
        // Best-effort: the peer may be gone.
        for link in &self.shared.links {
            let mut inbox = lock_unpoisoned(&link.inbox);
            while let Some(mut s) = inbox.pop() {
                self.shared.rec.counter_add("serve.conns_rejected_shutdown", 1);
                self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut s,
                    &Message::Reject { code: RejectCode::ShuttingDown.as_u16(), retry_after_ms: 0 },
                    None,
                );
            }
        }
        // Mark the drain graceful: the next startup's recovery sees this
        // as the journal's final record and knows it is not rebuilding
        // after a crash. Always fsynced, whatever the policy.
        if let Some(wal) = &self.shared.wal {
            let mut stats = StoreStats::new();
            lock_unpoisoned(wal).append(&WalRecord::CleanShutdown, &mut stats);
            stats.flush(&self.shared.rec);
        }
        self.shared.flight.record(0, FK_SHUTDOWN, &[]);
        self.shared.dump_flight();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds a nonblocking loopback listener and spawns the worker threads.
/// With [`ServerConfig::durability`] set, the session store is first
/// recovered from the WAL directory (`serve.restarts`,
/// `serve.replayed_records`, and — for a prior process that did not drain
/// cleanly — `serve.unclean_shutdowns` record what was found).
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let rec = if config.telemetry.metrics { Recorder::new() } else { Recorder::disabled() };
    let mut recovery = None;
    let (store, wal) = match &config.durability {
        Some(d) => {
            let (store, report) = SessionStore::recover_from(&d.dir, config.limits)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            if report.had_prior_state {
                rec.counter_add("serve.restarts", 1);
                rec.counter_add("serve.replayed_records", report.replayed_records);
                if !report.clean_shutdown {
                    rec.counter_add("serve.unclean_shutdowns", 1);
                }
                if report.torn_tail {
                    rec.counter_add("serve.wal_torn_tails", 1);
                }
            }
            recovery = Some(report);
            let wal = Wal::open(d).map_err(|e| std::io::Error::other(e.to_string()))?;
            (store, Some(Mutex::new(wal)))
        }
        None => (SessionStore::with_limits(config.limits), None),
    };
    let workers = config.handlers.max(1);
    let links: Vec<Arc<WorkerLink>> = (0..workers)
        .map(|_| Ok(Arc::new(WorkerLink { inbox: Mutex::new(Vec::new()), wake: EventFd::new()? })))
        .collect::<std::io::Result<_>>()?;
    let flight = FlightRecorder::new(FLIGHT_KINDS.to_vec(), workers, config.telemetry.flight_slots);
    let shared = Arc::new(Shared {
        sessions: AtomicU64::new(store.session_count() as u64),
        epochs: AtomicU64::new(store.epoch_count() as u64),
        store: Mutex::new(store),
        wal,
        links,
        live_conns: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        rec,
        flight,
        recovery,
        config,
    });
    let mut threads = Vec::with_capacity(workers);
    let mut listener = Some(listener);
    for lane in 0..workers {
        // Fallible setup (epoll, registrations) happens here so spawn can
        // surface the error; the loop itself runs on the thread.
        let epoll = Epoll::new()?;
        epoll.add(shared.links[lane].wake.raw(), EPOLLIN, TOKEN_WAKE)?;
        let l = if lane == 0 { listener.take() } else { None };
        if let Some(listener) = &l {
            epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        }
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cso-serve-{lane}"))
                .spawn(move || Worker::new(sh, lane, epoll, l).run())?,
        );
    }
    Ok(ServerHandle { addr, shared, threads })
}

/// Locks a mutex tolerating poisoning: a worker that panicked mid-update
/// must not turn every later `lock()` into a cascading panic that kills
/// the whole server — the guarded state is a plain state machine, so the
/// surviving threads continue with whatever it holds.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connection's event-loop state.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    state: ConnState,
    /// Reply bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Frames dispatched on this connection (0 ⇒ the peer gets a
    /// `ShuttingDown` reject rather than a silent close at shutdown).
    frames: u64,
    last_activity: Instant,
    /// Currently registered epoll interest set.
    interest: u32,
    /// The peer sent EOF; once `out` drains, close and bump this counter.
    eof_counter: Option<&'static str>,
    /// Cached lock-free fast path: the `(session, epoch)` this connection
    /// is bound to and its ingest pad. Invalidated by rebinds (checked
    /// against [`ConnState::bound`]) and by the pad going unavailable.
    pad: Option<(u64, u64, Arc<IngestPad>)>,
}

/// One epoll worker: owns a slab of connections (and, on lane 0, the
/// listener), and runs the readiness loop until shutdown.
struct Worker {
    sh: Arc<Shared>,
    lane: usize,
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped at close so a stale event queued for a
    /// closed connection can never act on the slot's next occupant.
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Round-robin cursor for handing accepted sockets to workers.
    next_worker: usize,
}

impl Worker {
    fn new(sh: Arc<Shared>, lane: usize, epoll: Epoll, listener: Option<TcpListener>) -> Worker {
        Worker {
            sh,
            lane,
            epoll,
            listener,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            next_worker: 0,
        }
    }

    fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); 64];
        let mut buf = vec![0u8; 16 * 1024];
        loop {
            let timeout = self.poll_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => {
                    self.sh.rec.counter_add("serve.loop_errors", 1);
                    0
                }
            };
            self.sh.rec.counter_add("serve.loop_wakeups", 1);
            self.sh.rec.counter_add("serve.loop_events", n as u64);
            for ev in &events[..n] {
                if self.sh.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match ev.token() {
                    TOKEN_WAKE => self.drain_inbox(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => {
                        let slot = (token & 0xffff_ffff) as usize;
                        let gen = (token >> 32) as u32;
                        if slot >= self.gens.len()
                            || self.gens[slot] != gen
                            || self.conns[slot].is_none()
                        {
                            continue;
                        }
                        // A panic while serving one connection must not
                        // take the worker (and its whole slab) down:
                        // count it, preserve the flight ring, close the
                        // one connection, keep polling.
                        let revents = ev.events();
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            self.conn_event(slot, revents, &mut buf)
                        }));
                        if caught.is_err() {
                            self.sh.rec.counter_add("serve.handler_panics", 1);
                            self.sh.flight.record(self.lane, FK_PANIC, &[self.lane as u64]);
                            self.sh.dump_flight();
                            self.close_conn(slot, None);
                        }
                    }
                }
            }
            if self.sh.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.sweep_stragglers();
        }
        self.shutdown_cleanup();
    }

    /// Epoll timeout: the nearest straggler deadline, clamped to [0, 500]
    /// ms so shutdown and sweeps are never starved.
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        let timeout = self.sh.config.read_timeout;
        self.conns
            .iter()
            .flatten()
            .map(|c| {
                let deadline = c.last_activity + timeout;
                deadline.saturating_duration_since(now).as_millis().min(500) as i32
            })
            .min()
            .unwrap_or(500)
    }

    fn sweep_stragglers(&mut self) {
        let timeout = self.sh.config.read_timeout;
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = self.conns[slot]
                .as_ref()
                .is_some_and(|c| now.saturating_duration_since(c.last_activity) > timeout);
            if expired {
                self.close_conn(slot, Some("serve.conns_straggler_dropped"));
            }
        }
    }

    /// Collects connections other workers handed over through the inbox.
    fn drain_inbox(&mut self) {
        let sh = Arc::clone(&self.sh);
        let link = &sh.links[self.lane];
        link.wake.drain();
        loop {
            let Some(stream) = lock_unpoisoned(&link.inbox).pop() else { break };
            self.register_conn(stream);
        }
    }

    /// Accepts until the listener runs dry, applying the admission cap
    /// and spreading admitted sockets round-robin across workers.
    fn accept_ready(&mut self) {
        let sh = Arc::clone(&self.sh);
        let Some(listener) = self.listener.take() else { return };
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    sh.rec.counter_add("serve.accept_errors", 1);
                    break;
                }
            };
            let cap = (sh.config.handlers.max(1) + sh.config.queue_depth) as u64;
            if sh.live_conns.load(Ordering::Relaxed) >= cap {
                // Admission control: tell the client when to come back,
                // then close. The socket is still blocking here and the
                // reject frame is tiny, so the write is effectively
                // immediate; best-effort — the client may be gone.
                sh.rec.counter_add("serve.conns_rejected_busy", 1);
                let mut s = stream;
                let _ = write_frame(
                    &mut s,
                    &Message::Reject {
                        code: RejectCode::Busy.as_u16(),
                        retry_after_ms: sh.config.retry_after_ms,
                    },
                    None,
                );
                continue;
            }
            sh.live_conns.fetch_add(1, Ordering::Relaxed);
            sh.rec.counter_add("serve.conns_accepted", 1);
            let target = self.next_worker % sh.links.len();
            self.next_worker = self.next_worker.wrapping_add(1);
            if target == self.lane {
                self.register_conn(stream);
            } else {
                lock_unpoisoned(&sh.links[target].inbox).push(stream);
                sh.links[target].wake.signal();
            }
        }
        self.listener = Some(listener);
    }

    /// Binds an admitted socket into the slab and the epoll set.
    /// A Linux `accept` does **not** inherit the listener's nonblocking
    /// flag, so it is set explicitly here.
    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.sh.rec.counter_add("serve.conns_errored", 1);
            self.sh.live_conns.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = (u64::from(self.gens[slot]) << 32) | slot as u64;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            self.sh.rec.counter_add("serve.conns_errored", 1);
            self.sh.live_conns.fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            asm: FrameAssembler::new(),
            state: ConnState::new(),
            out: Vec::new(),
            out_pos: 0,
            frames: 0,
            last_activity: Instant::now(),
            interest,
            eof_counter: None,
            pad: None,
        });
    }

    /// Drops a connection, optionally bumping a close-reason counter.
    /// Closing the socket removes it from the epoll set (it is never
    /// duplicated); the generation bump retires the slot's token.
    fn close_conn(&mut self, slot: usize, counter: Option<&'static str>) {
        if let Some(conn) = self.conns[slot].take() {
            if let Some(c) = counter {
                self.sh.rec.counter_add(c, 1);
            }
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
            self.sh.live_conns.fetch_sub(1, Ordering::Relaxed);
            drop(conn);
        }
    }

    /// One readiness notification for one connection: flush pending
    /// writes, pull newly readable bytes through the frame assembler,
    /// dispatch every completed frame, then re-arm interest.
    fn conn_event(&mut self, slot: usize, revents: u32, buf: &mut [u8]) {
        let sh = Arc::clone(&self.sh);
        if revents & EPOLLOUT != 0 && !self.flush_out(slot) {
            return;
        }
        let readable = revents & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        if readable && self.conns[slot].as_ref().is_some_and(|c| c.eof_counter.is_none()) {
            let mut saw_eof = false;
            loop {
                let conn = self.conns[slot].as_mut().expect("checked above");
                match (&conn.stream).read(buf) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.asm.push(&buf[..n]);
                        if n < buf.len() {
                            break; // drained; level-triggered epoll re-arms otherwise
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_conn(slot, Some("serve.conns_errored"));
                        return;
                    }
                }
            }
            if !self.process_frames(slot) {
                return;
            }
            if saw_eof {
                let conn = self.conns[slot].as_mut().expect("process_frames kept it");
                // Classify now, close once the pending replies flush: a
                // mid-frame death and a clean close are different faults.
                conn.eof_counter = Some(if conn.asm.has_partial() {
                    "serve.conns_died_mid_frame"
                } else {
                    "serve.conns_closed"
                });
            }
        }
        if !self.flush_out(slot) {
            return;
        }
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if conn.out.is_empty() {
            if let Some(counter) = conn.eof_counter {
                self.close_conn(slot, Some(counter));
                return;
            }
        }
        // Re-arm: EPOLLOUT only while replies are backed up.
        let want = if conn.out.is_empty() {
            EPOLLIN | EPOLLRDHUP
        } else {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        };
        if want != conn.interest {
            let token = (u64::from(self.gens[slot]) << 32) | slot as u64;
            if self.epoll.modify(conn.stream.as_raw_fd(), want, token).is_err() {
                self.close_conn(slot, Some("serve.conns_errored"));
                return;
            }
            self.conns[slot].as_mut().expect("still open").interest = want;
        }
        drop(sh);
    }

    /// Dispatches every fully assembled frame. Returns `false` when the
    /// connection was closed (desynchronizing fault).
    fn process_frames(&mut self, slot: usize) -> bool {
        let sh = Arc::clone(&self.sh);
        loop {
            let conn = self.conns[slot].as_mut().expect("open while processing");
            match conn.asm.next_frame() {
                Ok(Some((msg, _, ctx))) => {
                    conn.frames += 1;
                    handle_frame(&sh, self.lane, conn, &msg, ctx);
                }
                Ok(None) => return true,
                Err(FrameError::Wire(_) | FrameError::BadExtension) => {
                    // The length prefix was intact and the whole body was
                    // consumed, so the stream is still frame-synchronized:
                    // reject the corrupt frame and go on.
                    sh.rec.counter_add("serve.frames_corrupt", 1);
                    let reject = Message::Reject {
                        code: RejectCode::CorruptFrame.as_u16(),
                        retry_after_ms: 0,
                    };
                    conn.out.extend_from_slice(&encode_frame(&reject));
                }
                Err(_) => {
                    // TooLarge (a hostile or desynchronized length
                    // prefix) — the stream cannot be re-synchronized.
                    self.close_conn(slot, Some("serve.conns_errored"));
                    return false;
                }
            }
        }
    }

    /// Writes as much buffered reply as the socket accepts. Returns
    /// `false` when the connection was closed on a write error.
    fn flush_out(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        while conn.out_pos < conn.out.len() {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(slot, Some("serve.conns_errored"));
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, Some("serve.conns_errored"));
                    return false;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        true
    }

    /// On shutdown: connections that never got a frame dispatched are
    /// told `ShuttingDown` (their clients fail over immediately instead
    /// of burning their read deadline); mid-conversation connections are
    /// closed silently, exactly like the thread-pool engine drained.
    fn shutdown_cleanup(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(mut conn) = self.conns[slot].take() {
                self.sh.live_conns.fetch_sub(1, Ordering::Relaxed);
                if conn.frames == 0 {
                    self.sh.rec.counter_add("serve.conns_rejected_shutdown", 1);
                    let _ = write_frame(
                        &mut conn.stream,
                        &Message::Reject {
                            code: RejectCode::ShuttingDown.as_u16(),
                            retry_after_ms: 0,
                        },
                        None,
                    );
                }
            }
        }
        let sh = Arc::clone(&self.sh);
        let mut inbox = lock_unpoisoned(&sh.links[self.lane].inbox);
        while let Some(mut s) = inbox.pop() {
            sh.rec.counter_add("serve.conns_rejected_shutdown", 1);
            sh.live_conns.fetch_sub(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut s,
                &Message::Reject { code: RejectCode::ShuttingDown.as_u16(), retry_after_ms: 0 },
                None,
            );
        }
        drop(inbox);
        self.listener.take();
    }
}

/// Dispatches one assembled frame and queues its reply: the introspection
/// plane first (never touches the store lock), then the lock-free sketch
/// fast path, then the store-locked dispatch path.
fn handle_frame(
    sh: &Shared,
    lane: usize,
    conn: &mut Conn,
    msg: &Message,
    ctx: Option<TraceContext>,
) {
    // The introspection plane: answered from the recorder's registry and
    // the lock-free occupancy mirrors — a poller can never stall (or be
    // stalled by) ingest dispatch. Not counted into serve.ingest_ns: the
    // histogram measures the data plane.
    if matches!(msg, Message::Introspect) {
        sh.rec.counter_add("serve.introspects", 1);
        sh.rec.counter_add("serve.frames_handled", 1);
        let reply = Message::MetricsReply { snapshot: sh.introspect_snapshot() };
        conn.out.extend_from_slice(&encode_frame(&reply));
        return;
    }
    let started = Instant::now();
    let reply = 'reply: {
        // The lock-free fast path: a sketch for the epoch this connection
        // is bound to, with a live ingest pad. Claim a slot (CAS), write
        // the payload, journal **while holding the pad permit** (so a
        // seal's quiesce cannot fold the sketch before it is journaled),
        // ack. No store lock anywhere.
        if let Message::Sketch { node, seed, payload } = msg {
            let cached = conn.pad.as_ref().and_then(|(s, e, p)| {
                (conn.state.bound() == Some((*s, *e))).then(|| (*s, *e, Arc::clone(p)))
            });
            if let Some((session, epoch, pad)) = cached {
                let mut stats = StoreStats::new();
                let outcome = pad.ingest(*node, *seed, payload);
                if let Some((reply, effect)) = outcome.reply(session, epoch, &mut stats) {
                    if matches!(effect, Effect::Ingested { .. }) {
                        stats.add("serve.shard_lockfree_ingests", 1);
                    }
                    let journaled = sh.append(&sh.records_of(&effect, msg), &mut stats);
                    drop(outcome);
                    stats.flush(&sh.rec);
                    sh.after_journal(Some(lane), journaled);
                    break 'reply reply;
                }
                // Pad sealed: the store-locked path resolves it (and
                // re-caches).
                conn.pad = None;
            }
        }
        slow_path(sh, lane, conn, msg)
    };
    sh.rec.counter_add("serve.frames_handled", 1);
    let elapsed = started.elapsed();
    sh.rec.histogram_record("serve.ingest_ns", elapsed.as_nanos() as u64);
    let (session, epoch) = conn.state.bound().unwrap_or((0, 0));
    sh.flight.record(
        lane,
        FK_FRAME,
        &[u64::from(msg.tag()), session, epoch, elapsed.as_micros() as u64],
    );
    if elapsed >= sh.config.telemetry.slow_request {
        sh.rec.counter_add("serve.slow_requests", 1);
        let (trace_id, span_id) = ctx.map_or((0, 0), |c| (c.trace_id, c.span_id));
        sh.flight.record(
            lane,
            FK_SLOW,
            &[u64::from(msg.tag()), elapsed.as_micros() as u64, trace_id, span_id],
        );
    }
    conn.out.extend_from_slice(&encode_frame(&reply));
}

/// The store-locked dispatch path: dispatch through [`Shared::commit`],
/// which journals before the ack leaves the process, and run any recovery
/// outside every lock.
fn slow_path(sh: &Shared, lane: usize, conn: &mut Conn, msg: &Message) -> Message {
    let dispatched = sh.commit(Some(lane), |store, stats| {
        stats.add("serve.shard_locked_dispatches", 1);
        let d = store.dispatch(&mut conn.state, msg, &sh.config.policy, stats);
        // Refresh the fast-path pad after binding-shaped messages: a
        // successful open/attach binds the connection, and a sketch that
        // fell through here may have raced a seal or an eviction.
        if matches!(msg, Message::OpenEpoch { .. } | Message::Sketch { .. }) {
            conn.pad = conn.state.bound().and_then(|(s, e)| Some((s, e, store.pad_for(s, e)?)));
        }
        let records = match &d {
            Dispatch::Reply(_, effect) => sh.records_of(effect, msg),
            Dispatch::Recover(_) => Vec::new(),
        };
        (d, records)
    });
    match dispatched {
        Dispatch::Reply(reply, effect) => {
            // A journaled seal is a flight waypoint: the WAL append (and
            // its fsync, per policy) happened above, so dumping here
            // keeps flight.jsonl always at-or-behind what replay
            // reconstructs — even through SIGKILL.
            if let Effect::Records(records) = &effect {
                if let [WalRecord::Seal { session, epoch, nodes, .. }] = &records[..] {
                    sh.flight.record(lane, FK_SEALED, &[*session, *epoch, *nodes]);
                    sh.dump_flight();
                }
            }
            reply
        }
        Dispatch::Recover(job) => {
            // BOMP, the Φ0 materialization of a recover that missed the
            // operator cache and the freeing of the operator it displaced
            // run outside every lock: a recovery must never stall ingest
            // or any other session's control plane. It does occupy this
            // worker, which is the same trade the thread-per-connection
            // engine made per handler.
            let (session, epoch) = job.target();
            let recover_started = Instant::now();
            let (reply, summary) = job.run();
            sh.rec
                .histogram_record("serve.recover_ns", recover_started.elapsed().as_nanos() as u64);
            if let Some(ep) = &summary {
                crash_point("mid-recover");
                sh.commit(Some(lane), |store, stats| {
                    match store.finish_recover(session, epoch, stats) {
                        Effect::Records(records) => ((), records),
                        _ => ((), Vec::new()),
                    }
                });
                sh.flight.record(
                    lane,
                    FK_RECOVERED,
                    &[session, epoch, ep.outliers, recover_started.elapsed().as_micros() as u64],
                );
                sh.dump_flight();
                report_epoch(sh, ep);
            }
            reply
        }
    }
}

/// Appends one JSONL [`RunReport`] line for a recovered epoch.
fn report_epoch(sh: &Shared, ep: &RecoveredEpoch) {
    let Some(path) = &sh.config.report_path else { return };
    let report = RunReport::new("serve_epoch")
        .with_param("session", ep.session)
        .with_param("epoch", ep.epoch)
        .with_param("k", ep.k)
        .with_param("mode", ep.mode)
        .with_param("nodes", ep.nodes)
        .with_param("duplicates", ep.duplicates)
        .with_param("iterations", ep.iterations)
        .with_param("outliers", ep.outliers);
    let line = report.to_json();
    let written = (|| -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{line}")
    })();
    if written.is_err() {
        sh.rec.counter_add("serve.report_write_errors", 1);
    }
}

#[cfg(test)]
mod tests {
    /// The lock-audit regression guard (PR 7 satellite, re-pinned on the
    /// sharded engine): the shard-lock critical sections in this file
    /// must never touch the recorder — recordings buffer through
    /// `StoreStats` and flush after the guard drops. The state-machine
    /// and WAL layers enforce this structurally (their signatures cannot
    /// reach a `Recorder`); this test pins the same rule for the lock
    /// scopes spelled out in `Shared::commit` and `snapshot_all`. The
    /// snapshot's write step (`SnapshotCut::persist`: the file's write,
    /// fsync, rename, directory fsync and prune) must likewise run after
    /// the store guard drops.
    #[test]
    fn no_recorder_calls_inside_shard_lock_sections() {
        let src = include_str!("server.rs");
        let mut depth: i64 = 0;
        // Brace depths at which a shard guard was taken; the guard lives
        // until its enclosing block closes (depth drops below the level
        // the lock line started at).
        let mut guard_scopes: Vec<i64> = Vec::new();
        let (mut sections, mut persists) = (0usize, 0usize);
        for (i, line) in src.lines().enumerate() {
            // Scan only the product code: the test's own body quotes the
            // marker strings.
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            let start_depth = depth;
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if line.contains("lock_unpoisoned(&sh.store)")
                || line.contains("lock_unpoisoned(&self.store)")
            {
                guard_scopes.push(start_depth);
                sections += 1;
                continue;
            }
            guard_scopes.retain(|&s| depth >= s);
            persists += usize::from(line.contains(".persist("));
            if !guard_scopes.is_empty() {
                assert!(
                    !line.contains("sh.rec.") && !line.contains("self.rec."),
                    "server.rs:{}: recorder call inside a shard-lock section: {}",
                    i + 1,
                    line.trim()
                );
                assert!(
                    !line.contains(".persist("),
                    "server.rs:{}: snapshot write inside a shard-lock section: {}",
                    i + 1,
                    line.trim()
                );
            }
        }
        assert!(sections >= 2, "expected to find the shard-lock sections, found {sections}");
        assert_eq!(persists, 1, "expected to find the snapshot's one write step");
    }
}
