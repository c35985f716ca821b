//! Blocking client for the aggregation server, plus the end-to-end driver
//! that runs the full CS protocol of a [`CsProtocol`] against a live
//! server.
//!
//! Every connection starts with an `OpenEpoch` — that frame doubles as
//! the admission probe: a server under backpressure answers it (or the
//! raw accept) with `Reject { Busy, retry_after_ms }` and closes, and
//! [`ServeClient::open_with_backend`] reconnects after waiting out the
//! larger of the server's hint and its own exponential backoff (reusing
//! [`RetryPolicy`], one virtual tick ≈ one millisecond). All other
//! rejects are surfaced as typed [`ClientError::Rejected`] values.
//!
//! # Quickstart: one epoch, end to end
//!
//! [`ServeClient`] drives the full lifecycle — open → ingest → seal →
//! recover — against a live server:
//!
//! ```
//! use cso_core::SketchBackend;
//! use cso_distributed::quantize::SketchEncoding;
//! use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
//! use cso_serve::{spawn, ServeClient, ServerConfig};
//!
//! let server = spawn(ServerConfig::default()).unwrap();
//! let retry = RetryPolicy::default();
//!
//! // One node holding a 3-dimensional slice; m = 3 measurements.
//! let cluster = Cluster::new(vec![vec![5.0, 5.0, 9.0]]).unwrap();
//! let proto = CsProtocol::new(3, 42);
//! let sketches = proto.node_sketches(&cluster).unwrap();
//!
//! // Open epoch 0 of session 7 under the dense operator (a second open
//! // would attach instead).
//! let (m, dense) = (proto.m as u32, SketchBackend::dense());
//! let (mut client, nodes_already) =
//!     ServeClient::open_with_backend(server.addr(), &retry, 7, 0, m, 3, proto.seed, dense)
//!         .unwrap();
//! assert_eq!(nodes_already, 0);
//!
//! // Ingest node 0's sketch, seal the epoch, recover the top outlier.
//! client.send_sketch(0, &sketches[0], SketchEncoding::F64).unwrap();
//! assert_eq!(client.seal().unwrap(), 1);
//! let (_mode, outliers) = client.recover(1).unwrap();
//! assert_eq!(outliers.len(), 1);
//! server.shutdown();
//! ```
//!
//! # Quickstart: polling live metrics
//!
//! [`MetricsPoller`] holds a dedicated connection to the introspection
//! plane (never queued behind ingest dispatch) and returns a
//! [`MetricsSnapshot`] per poll — the loop `cso-top` runs once a second:
//!
//! ```
//! use cso_distributed::RetryPolicy;
//! use cso_serve::{spawn, MetricsPoller, ServerConfig};
//!
//! let server = spawn(ServerConfig::default()).unwrap();
//! let mut poller = MetricsPoller::connect(server.addr(), &RetryPolicy::default()).unwrap();
//! for _ in 0..3 {
//!     let snapshot = poller.poll().unwrap();
//!     // Gauges and counters are fresh as of this poll.
//!     assert_eq!(snapshot.gauge("serve.sessions"), Some(0.0));
//!     assert!(snapshot.counter("serve.introspects").unwrap_or(0) >= 1);
//! }
//! server.shutdown();
//! ```

use crate::frame::{read_frame, write_frame, FrameError, TraceContext};
use crate::session::{EpochPhase, RejectCode};
use cso_core::SketchBackend;
use cso_distributed::quantize::{self, SketchEncoding};
use cso_distributed::wire::{Message, TAG_OPEN_EPOCH, TAG_SEAL_EPOCH, TAG_SKETCH};
use cso_distributed::{Cluster, CsProtocol, RetryPolicy};
use cso_linalg::Vector;
use cso_obs::{MetricsSnapshot, Recorder, Value};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Typed client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed.
    Connect(io::ErrorKind),
    /// The connection was lost mid-conversation — a close, a mid-frame
    /// cut, or a reset-class socket error (see
    /// [`FrameError::is_connection_lost`]). Idempotent requests (ingest,
    /// status, recover) retry these through the shared [`RetryPolicy`] by
    /// reconnecting; this surfaces only once retries are exhausted.
    ConnectionLost,
    /// Reading or writing a frame failed in a non-connection-lost way.
    Frame(FrameError),
    /// The server rejected the request (never `Busy` — that is retried).
    Rejected(RejectCode),
    /// The server rejected with a code this client does not know.
    RejectedUnknown(u16),
    /// The server replied with a frame the request does not expect —
    /// carries the reply's frame tag, or, for an `Ack` echoing a tag the
    /// request did not send, that mismatched `of` value.
    UnexpectedReply(u8),
    /// The reply's frame type matched the request, but a field held a
    /// value this client cannot decode (e.g. an out-of-range epoch-phase
    /// byte in a `Status` reply) — distinct from [`Self::UnexpectedReply`]
    /// so diagnostics point at the malformed field, not the frame type.
    MalformedReply {
        /// Which reply field was undecodable.
        field: &'static str,
        /// The raw value received.
        value: u64,
    },
    /// The server stayed busy through every connection attempt.
    BusyExhausted,
    /// Local sketch construction failed before anything hit the wire.
    Local(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(kind) => write!(f, "connect failed: {kind:?}"),
            ClientError::ConnectionLost => write!(f, "connection lost mid-request"),
            ClientError::Frame(e) => write!(f, "transport failed: {e}"),
            ClientError::Rejected(code) => write!(f, "server rejected: {code}"),
            ClientError::RejectedUnknown(v) => write!(f, "server rejected with unknown code {v}"),
            ClientError::UnexpectedReply(tag) => write!(f, "unexpected reply frame (tag {tag})"),
            ClientError::MalformedReply { field, value } => {
                write!(f, "malformed reply: undecodable {field} value {value}")
            }
            ClientError::BusyExhausted => write!(f, "server busy through all retries"),
            ClientError::Local(msg) => write!(f, "local failure: {msg}"),
        }
    }
}

/// Connect failures a server restart can produce — refused before the
/// listener rebinds, reset/aborted while the old socket drains, timed out
/// under SYN backlog pressure. All worth waiting out; anything else
/// (unroutable address, permission) will not heal with time.
fn connect_is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
    )
}

/// Collapses reset-class frame errors into [`ClientError::ConnectionLost`];
/// everything else keeps its identity.
fn conn_err(e: FrameError) -> ClientError {
    if e.is_connection_lost() {
        ClientError::ConnectionLost
    } else {
        ClientError::Frame(e)
    }
}

/// [`conn_err`] of a failed frame write: a write deadline (`WouldBlock` or
/// `TimedOut`) is [`FrameError::TimedOut`], any other kind is its
/// [`FrameError::Io`].
fn write_err(e: io::Error) -> ClientError {
    conn_err(match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
        kind => FrameError::Io(kind),
    })
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Client-side request telemetry, attached via
/// [`ServeClient::enable_telemetry`].
struct ClientTelemetry {
    rec: Recorder,
    trace_id: u64,
    slow_request: Duration,
}

/// A blocking connection bound to one `(session, epoch)` on the server.
/// Remembers how it opened, so a lost connection can be re-dialed and
/// re-attached transparently for idempotent requests.
pub struct ServeClient {
    stream: TcpStream,
    addr: SocketAddr,
    retry: RetryPolicy,
    session: u64,
    epoch: u64,
    m: u32,
    n: u64,
    seed: u64,
    backend: SketchBackend,
    bytes_sent: u64,
    bytes_received: u64,
    reconnects: u64,
    telemetry: Option<ClientTelemetry>,
}

impl ServeClient {
    /// Connects and opens (or attaches to) `(session, epoch)` with the
    /// given measurement configuration, retrying `Busy` admission rejects,
    /// transient connect failures (a server mid-restart), and reset races
    /// with backoff. Returns the bound client and the number of nodes
    /// already in the epoch (0 for a fresh one).
    ///
    /// `backend` is the epoch's measurement operator
    /// ([`SketchBackend::dense`] for the paper's Gaussian `Φ0`). Every node
    /// attaching to the epoch must declare the same backend — the server
    /// rejects a disagreeing open with `SpecMismatch`, because sketches
    /// made with different operators must never be summed.
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_backend(
        addr: SocketAddr,
        retry: &RetryPolicy,
        session: u64,
        epoch: u64,
        m: u32,
        n: u64,
        seed: u64,
        backend: SketchBackend,
    ) -> Result<(Self, u64), ClientError> {
        let (op_kind, op_param) = backend.wire();
        let open = Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param };
        let mut bytes_sent = 0u64;
        let mut bytes_received = 0u64;
        for attempt in 1..=retry.max_attempts {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                // A restarting server refuses, resets, or times out
                // connects until its listener rebinds: all three are the
                // same transient, waited out like a Busy reject. Anything
                // else (unroutable address, permission) is permanent.
                Err(e) if connect_is_transient(e.kind()) && attempt < retry.max_attempts => {
                    backoff_sleep(retry, session, attempt, 0);
                    continue;
                }
                Err(e) => return Err(ClientError::Connect(e.kind())),
            };
            // Request/reply framing stalls badly under Nagle + delayed
            // ACK (~40 ms per round trip); flush frames immediately.
            let _ = stream.set_nodelay(true);
            // A wedged server — accepted the connect but never answers —
            // must not hang the open probe forever: bound the reply wait
            // by the policy's timeout (1 tick ≈ 1 ms). The deadline is
            // cleared once the epoch is bound; steady-state requests keep
            // their blocking semantics.
            let _ =
                stream.set_read_timeout(Some(Duration::from_millis(retry.timeout_ticks.max(1))));
            let mut client = ServeClient {
                stream,
                addr,
                retry: *retry,
                session,
                epoch,
                m,
                n,
                seed,
                backend,
                bytes_sent,
                bytes_received,
                reconnects: 0,
                telemetry: None,
            };
            match client.request(&open) {
                // The Ack must echo the request's tag: replies are
                // request/reply matched, not taken on faith.
                Ok(Message::Ack { of: TAG_OPEN_EPOCH, info }) => {
                    let _ = client.stream.set_read_timeout(None);
                    return Ok((client, info));
                }
                Ok(Message::Reject { code, retry_after_ms })
                    if code == RejectCode::Busy.as_u16() =>
                {
                    // Honor the server's retry_after_ms hint — but never
                    // sleep after the last attempt: nothing follows it,
                    // so the wait would only delay the BusyExhausted.
                    if attempt < retry.max_attempts {
                        client.backoff(attempt, retry_after_ms);
                    }
                }
                Ok(Message::Reject { code, .. }) if code == RejectCode::ShuttingDown.as_u16() => {
                    // A draining server answers queued connections with
                    // this instead of a silent close: fail over (here,
                    // retry — the restart harness brings it right back).
                    if attempt < retry.max_attempts {
                        client.backoff(attempt, 0);
                    }
                }
                Ok(reply) => return Err(reply_error(reply)),
                // A busy server closes right after writing its reject, so
                // depending on timing the raced request sees a clean close,
                // a cut-off reply, or a reset/broken pipe: all retryable.
                // A request that *timed out* on a socket mid-restart is
                // the same transient wearing a different error — a fresh
                // connect is the only way forward for either.
                Err(ClientError::ConnectionLost | ClientError::Frame(FrameError::TimedOut)) => {
                    if attempt < retry.max_attempts {
                        client.backoff(attempt, 0);
                    }
                }
                Err(e) => return Err(e),
            }
            bytes_sent = client.bytes_sent;
            bytes_received = client.bytes_received;
        }
        Err(ClientError::BusyExhausted)
    }

    /// Waits out the larger of the server's hint and the policy backoff
    /// (1 virtual tick ≈ 1 ms).
    fn backoff(&self, attempt: u32, server_hint_ms: u32) {
        backoff_sleep(&self.retry, self.session, attempt, server_hint_ms);
    }

    /// Re-dials the server and re-attaches to the bound epoch, folding the
    /// fresh connection's transfer into this client's byte counters.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (fresh, _) = ServeClient::open_with_backend(
            self.addr,
            &self.retry,
            self.session,
            self.epoch,
            self.m,
            self.n,
            self.seed,
            self.backend,
        )?;
        self.bytes_sent += fresh.bytes_sent;
        self.bytes_received += fresh.bytes_received;
        self.stream = fresh.stream;
        self.reconnects += 1;
        if let Some(t) = &self.telemetry {
            t.rec.counter_add("client.reconnects", 1);
        }
        Ok(())
    }

    /// Attaches request telemetry: every request runs under a
    /// `client.request` span on `rec`, its trace context (`trace_id` plus
    /// the span's id) travels in the frame header so server-side flight
    /// events stitch back to it, and `client.requests`,
    /// `client.request_ns` and `client.slow_requests` (requests at or
    /// above `slow_request`, which also emit a `client.slow_request`
    /// event) are recorded.
    pub fn enable_telemetry(&mut self, rec: &Recorder, trace_id: u64, slow_request: Duration) {
        self.telemetry = Some(ClientTelemetry { rec: rec.clone(), trace_id, slow_request });
    }

    /// Sends one frame and reads one reply. Reset-class failures surface
    /// as [`ClientError::ConnectionLost`].
    pub fn request(&mut self, msg: &Message) -> Result<Message, ClientError> {
        // Open the request span first so its id can travel with the frame.
        let span = self.telemetry.as_ref().map(|t| (t.rec.span("client.request"), Instant::now()));
        let ctx = self
            .telemetry
            .as_ref()
            .zip(span.as_ref())
            .map(|(t, (guard, _))| TraceContext { trace_id: t.trace_id, span_id: guard.id() });
        self.bytes_sent +=
            write_frame(&mut self.stream, msg, ctx.as_ref()).map_err(write_err)? as u64;
        let (reply, bytes, _) = read_frame(&mut self.stream).map_err(conn_err)?;
        self.bytes_received += bytes as u64;
        if let (Some(t), Some((_, started))) = (&self.telemetry, &span) {
            let elapsed = started.elapsed();
            t.rec.counter_add("client.requests", 1);
            t.rec.histogram_record("client.request_ns", elapsed.as_nanos() as u64);
            if elapsed >= t.slow_request {
                t.rec.counter_add("client.slow_requests", 1);
                t.rec.event(
                    "client.slow_request",
                    &[
                        ("tag", Value::U64(u64::from(msg.tag()))),
                        ("dur_us", Value::U64(elapsed.as_micros() as u64)),
                        ("trace_id", Value::U64(t.trace_id)),
                    ],
                );
            }
        }
        Ok(reply)
    }

    /// Polls the server's live [`MetricsSnapshot`] in-band. Read-only and
    /// answered server-side without the store lock, so it is safe to call
    /// mid-sweep; retried across connection loss.
    pub fn introspect(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.request_idempotent(&Message::Introspect)? {
            Message::MetricsReply { snapshot } => Ok(snapshot),
            reply => Err(reply_error(reply)),
        }
    }

    /// As [`ServeClient::request`], but retries [`ClientError::ConnectionLost`]
    /// by reconnecting with backoff. Only for **idempotent** requests —
    /// ingest (duplicates are acked), status (read-only), recover
    /// (repeatable) — where re-sending after an ambiguous failure cannot
    /// double-apply.
    pub fn request_idempotent(&mut self, msg: &Message) -> Result<Message, ClientError> {
        let retry = self.retry;
        for attempt in 1..=retry.max_attempts {
            match self.request(msg) {
                Err(ClientError::ConnectionLost) if attempt < retry.max_attempts => {
                    self.backoff(attempt, 0);
                    match self.reconnect() {
                        Ok(()) => {}
                        // Still restarting: loop — the next request on the
                        // dead stream fails straight back here.
                        Err(
                            ClientError::Connect(_)
                            | ClientError::ConnectionLost
                            | ClientError::BusyExhausted,
                        ) => {}
                        Err(e) => return Err(e),
                    }
                }
                other => return other,
            }
        }
        Err(ClientError::ConnectionLost)
    }

    /// Queries the bound epoch's lifecycle state: `(phase, node count)`.
    /// Read-only and retried across connection loss — the probe a client
    /// uses to find out what survived a server restart.
    pub fn status(&mut self) -> Result<(EpochPhase, u64), ClientError> {
        let msg = Message::EpochStatus { session: self.session, epoch: self.epoch };
        match self.request_idempotent(&msg)? {
            Message::Status { phase, nodes, .. } => {
                EpochPhase::from_u8(phase).map(|p| (p, nodes)).ok_or(ClientError::MalformedReply {
                    field: "epoch phase",
                    value: u64::from(phase),
                })
            }
            reply => Err(reply_error(reply)),
        }
    }

    /// Ships one node's sketch, reconnecting and re-sending across
    /// connection loss (ingest is idempotent per `(node, seed)`). Returns
    /// `true` when the server had already seen this node.
    pub fn send_sketch(
        &mut self,
        node: u32,
        sketch: &Vector,
        encoding: SketchEncoding,
    ) -> Result<bool, ClientError> {
        let msg =
            Message::Sketch { node, seed: self.seed, payload: quantize::encode(sketch, encoding) };
        match self.request_idempotent(&msg)? {
            Message::Ack { of: TAG_SKETCH, info } => Ok(info == 1),
            reply => Err(reply_error(reply)),
        }
    }

    /// Seals the bound epoch. Returns the number of contributing nodes.
    ///
    /// Seal is *not* blindly re-sendable (a duplicate seal is a typed
    /// reject), so after a connection loss the client asks via
    /// [`ServeClient::status`] whether its seal landed before the crash:
    /// already sealed → success; still ingesting → re-send the seal.
    pub fn seal(&mut self) -> Result<u64, ClientError> {
        let msg = Message::SealEpoch { session: self.session, epoch: self.epoch };
        let retry = self.retry;
        for attempt in 1..=retry.max_attempts {
            match self.request(&msg) {
                Ok(Message::Ack { of: TAG_SEAL_EPOCH, info }) => return Ok(info),
                Ok(reply) => return Err(reply_error(reply)),
                Err(ClientError::ConnectionLost) if attempt < retry.max_attempts => {
                    self.backoff(attempt, 0);
                    match self.reconnect() {
                        Ok(()) => match self.status()? {
                            (phase, nodes) if phase >= EpochPhase::Sealed => return Ok(nodes),
                            _ => {} // seal was lost with the crash: re-send
                        },
                        Err(
                            ClientError::Connect(_)
                            | ClientError::ConnectionLost
                            | ClientError::BusyExhausted,
                        ) => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::ConnectionLost)
    }

    /// Recovers the sealed epoch with outlier budget `k`. Returns the
    /// recovered mode and the outliers as `(index, value)` pairs.
    /// Recovery is repeatable, so connection loss is retried.
    pub fn recover(&mut self, k: u32) -> Result<(f64, Vec<(u32, f64)>), ClientError> {
        let msg = Message::RecoverEpoch { session: self.session, epoch: self.epoch, k };
        match self.request_idempotent(&msg)? {
            Message::Report { mode, outliers, .. } => Ok((mode, outliers)),
            reply => Err(reply_error(reply)),
        }
    }

    /// Bytes this client has written to the socket (prefixes included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes this client has read off the socket (prefixes included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Times this client re-dialed after losing its connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

/// Exponential-backoff sleep: the larger of the server's hint and the
/// policy's jittered tick count (1 virtual tick ≈ 1 ms).
fn backoff_sleep(retry: &RetryPolicy, session: u64, attempt: u32, server_hint_ms: u32) {
    let ticks = retry.backoff_ticks(session as usize, attempt);
    std::thread::sleep(Duration::from_millis(ticks.max(u64::from(server_hint_ms))));
}

/// A standalone introspection connection: polls [`Message::Introspect`]
/// without opening (or touching) any epoch — the connection `cso-top` and
/// monitoring scripts hold. Reconnects transparently across server
/// restarts and `Busy` admission rejects.
pub struct MetricsPoller {
    stream: TcpStream,
    addr: SocketAddr,
    retry: RetryPolicy,
}

impl MetricsPoller {
    /// Dials the server, waiting out transient connect failures (a server
    /// mid-restart) with the policy's backoff.
    pub fn connect(addr: SocketAddr, retry: &RetryPolicy) -> Result<Self, ClientError> {
        Ok(MetricsPoller { stream: dial(addr, retry)?, addr, retry: *retry })
    }

    /// One introspection round trip: the server's current cumulative
    /// [`MetricsSnapshot`]. Callers window with
    /// [`MetricsSnapshot::delta`] to turn two polls into rates.
    pub fn poll(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let retry = self.retry;
        for attempt in 1..=retry.max_attempts {
            let round_trip = (|| -> Result<Message, ClientError> {
                write_frame(&mut self.stream, &Message::Introspect, None).map_err(write_err)?;
                read_frame(&mut self.stream).map(|(m, ..)| m).map_err(conn_err)
            })();
            match round_trip {
                Ok(Message::MetricsReply { snapshot }) => return Ok(snapshot),
                Ok(Message::Reject { code, retry_after_ms })
                    if code == RejectCode::Busy.as_u16()
                        || code == RejectCode::ShuttingDown.as_u16() =>
                {
                    // The reject was written at accept time and the socket
                    // closed behind it: wait, then re-dial.
                    backoff_sleep(&retry, 0, attempt, retry_after_ms);
                    self.stream = dial(self.addr, &retry)?;
                }
                Ok(reply) => return Err(reply_error(reply)),
                Err(ClientError::ConnectionLost) if attempt < retry.max_attempts => {
                    backoff_sleep(&retry, 0, attempt, 0);
                    self.stream = dial(self.addr, &retry)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::BusyExhausted)
    }
}

/// Dials `addr`, retrying [`connect_is_transient`] failures with backoff.
fn dial(addr: SocketAddr, retry: &RetryPolicy) -> Result<TcpStream, ClientError> {
    for attempt in 1..=retry.max_attempts {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) if connect_is_transient(e.kind()) && attempt < retry.max_attempts => {
                backoff_sleep(retry, 0, attempt, 0);
            }
            Err(e) => return Err(ClientError::Connect(e.kind())),
        }
    }
    Err(ClientError::BusyExhausted)
}

/// Maps a reply that is not the one the request expects to the matching
/// typed error. An `Ack` reaching this function echoed the wrong request
/// tag, so the mismatched `of` is what the error carries.
fn reply_error(reply: Message) -> ClientError {
    match reply {
        Message::Reject { code, .. } => match RejectCode::from_u16(code) {
            Some(c) => ClientError::Rejected(c),
            None => ClientError::RejectedUnknown(code),
        },
        Message::Ack { of, .. } => ClientError::UnexpectedReply(of),
        other => ClientError::UnexpectedReply(other.tag()),
    }
}

/// Result of one full protocol run against a live server.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Recovered mode.
    pub mode: f64,
    /// Recovered outliers as `(index, value)`, ordered by decreasing
    /// deviation from the mode (ties by index).
    pub outliers: Vec<(u32, f64)>,
    /// Total bytes all connections wrote (length prefixes included).
    pub bytes_sent: u64,
    /// Total bytes all connections read.
    pub bytes_received: u64,
    /// Nodes the sealed epoch actually aggregated.
    pub nodes: u64,
}

/// Tuning for [`run_cs_over_server`].
#[derive(Debug, Clone)]
pub struct ServeRunConfig {
    /// Concurrent ingest connections to fan the nodes out over.
    pub connections: usize,
    /// Sketch payload encoding.
    pub encoding: SketchEncoding,
    /// Session id the run lives in.
    pub session: u64,
    /// Epoch number within the session.
    pub epoch: u64,
    /// Busy-retry policy for every connection.
    pub retry: RetryPolicy,
}

impl Default for ServeRunConfig {
    fn default() -> Self {
        ServeRunConfig {
            connections: 2,
            encoding: SketchEncoding::F64,
            session: 1,
            epoch: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// Runs the complete CS protocol against a server at `addr`: builds every
/// node's sketch locally (the node side), fans them out over
/// `cfg.connections` concurrent TCP connections in round-robin node order,
/// seals, recovers, and returns the server's report.
///
/// With `SketchEncoding::F64` the result is **bit-identical** to
/// [`CsProtocol::run_over_wire`] — the server's canonical dyadic fold
/// over node ids makes the aggregate independent of arrival
/// interleaving, and recovery runs the same
/// [`CsProtocol::effective_recovery`] configuration.
pub fn run_cs_over_server(
    proto: &CsProtocol,
    cluster: &Cluster,
    k: usize,
    addr: SocketAddr,
    cfg: &ServeRunConfig,
) -> Result<ServeRun, ClientError> {
    let sketches = proto
        .node_sketches(cluster)
        .map_err(|e| ClientError::Local(format!("sketch build failed: {e:?}")))?;
    let m = proto.m as u32;
    let n = cluster.n() as u64;
    let connections = cfg.connections.max(1);

    // Fan out ingest: connection c ships nodes c, c+C, c+2C, ...
    let mut transferred: Vec<(u64, u64)> = Vec::with_capacity(connections);
    let results: Vec<Result<(u64, u64), ClientError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for c in 0..connections {
            let sketches = &sketches;
            handles.push(scope.spawn(move || {
                let (mut client, _) = ServeClient::open_with_backend(
                    addr,
                    &cfg.retry,
                    cfg.session,
                    cfg.epoch,
                    m,
                    n,
                    proto.seed,
                    proto.backend,
                )?;
                for (node, sketch) in sketches.iter().enumerate().skip(c).step_by(connections) {
                    client.send_sketch(node as u32, sketch, cfg.encoding)?;
                }
                Ok((client.bytes_sent(), client.bytes_received()))
            }));
        }
        handles.into_iter().map(|h| h.join().expect("ingest thread panicked")).collect()
    });
    for r in results {
        transferred.push(r?);
    }

    // Control connection: attach, seal, recover.
    let (mut control, _) = ServeClient::open_with_backend(
        addr,
        &cfg.retry,
        cfg.session,
        cfg.epoch,
        m,
        n,
        proto.seed,
        proto.backend,
    )?;
    let nodes = control.seal()?;
    let (mode, outliers) = control.recover(k as u32)?;
    transferred.push((control.bytes_sent(), control.bytes_received()));

    let (bytes_sent, bytes_received) =
        transferred.iter().fold((0, 0), |(s, r), &(ds, dr)| (s + ds, r + dr));
    Ok(ServeRun { mode, outliers, bytes_sent, bytes_received, nodes })
}
