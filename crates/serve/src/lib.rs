//! `cso-serve` — a long-running TCP sketch-aggregation server.
//!
//! The simulation crates run the paper's CS protocol in-process; this
//! crate hosts the aggregator side as a real service so the protocol can
//! execute over actual sockets (DESIGN.md §10). Zero external
//! dependencies: `std::net` TCP, the existing CRC-sealed v2
//! [`wire::Message`](cso_distributed::wire) frames behind a 4-byte length
//! prefix, and the workspace's own exec/obs infrastructure.
//!
//! The pieces:
//!
//! - [`frame`] — length-prefixed framing with typed failure modes;
//! - [`session`] — sessioned epoch lifecycle (open → ingest → seal →
//!   recover → report) as a pure, testable state machine;
//! - [`sys`] — zero-dependency epoll/eventfd bindings (four `extern "C"`
//!   declarations; `std` already links libc, so nothing is added to
//!   `Cargo.toml`);
//! - [`server`] — the epoll readiness-loop runtime: worker threads each
//!   polling many nonblocking connections, one locked session store
//!   with a lock-free sketch ingest fast path, bounded admission, straggler
//!   deadlines, `serve.*` metrics and per-epoch JSONL reports;
//! - [`client`] — a blocking client plus [`run_cs_over_server`], which
//!   drives the whole protocol against a live server and (with f64
//!   payloads) recovers **bit-identically** to the in-process
//!   [`CsProtocol::run_over_wire`](cso_distributed::CsProtocol) path;
//! - [`wal`] — the write-ahead epoch journal: every store transition is
//!   CRC-framed and appended before its ack, snapshots bound replay
//!   length, and [`SessionStore::recover_from`] rebuilds the store after a
//!   crash (torn tails are truncated off the journal in place,
//!   wrong-version segments and gapped histories are typed errors), so
//!   a restarted server recovers bit-identically on the replayed node
//!   subset.
//!
//! ```no_run
//! use cso_distributed::{Cluster, CsProtocol};
//! use cso_serve::{run_cs_over_server, ServeRunConfig, ServerConfig};
//!
//! let server = cso_serve::spawn(ServerConfig::default()).unwrap();
//! let cluster = Cluster::new(vec![vec![5.0, 5.0, 9.0], vec![5.0, 5.0, 9.0]]).unwrap();
//! let proto = CsProtocol::new(3, 42);
//! let run = run_cs_over_server(
//!     &proto, &cluster, 1, server.addr(), &ServeRunConfig::default(),
//! ).unwrap();
//! println!("mode {} outliers {:?}", run.mode, run.outliers);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod relay;
pub mod server;
pub mod session;
pub mod sys;
pub mod wal;

pub use client::{
    run_cs_over_server, ClientError, MetricsPoller, ServeClient, ServeRun, ServeRunConfig,
};
pub use frame::{
    encode_frame, read_frame, write_frame, AssembledFrame, FrameAssembler, FrameError,
    TraceContext, EXT_TRACE_CONTEXT, LEN_PREFIX_BYTES, MAX_FRAME_BYTES,
};
pub use relay::{spawn_relay, RelayConfig, RelayHandle};
pub use server::{spawn, ServerConfig, ServerHandle, TelemetryConfig};
pub use session::{
    ConnState, Dispatch, Effect, EpochPhase, EpochTopology, IngestPad, PadIngest, PadPermit,
    PendingForward, RecoverJob, RecoveredEpoch, RecoveryPolicy, RejectCode, SessionStore,
    StoreLimits, StoreStats,
};
pub use wal::{
    Durability, FsyncPolicy, RecoveryReport, ReplayError, SegmentFault, SnapshotCut, Wal, WalError,
    WalRecord,
};
