//! Write-ahead epoch journal and crash recovery for the serve layer.
//!
//! PR 5's server keeps every session in memory, so one process crash
//! throws away all ingested sketches and forces every node to re-vectorize
//! and retransmit — exactly the cross-DC cost the compressive-sensing
//! scheme exists to avoid. This module makes the [`SessionStore`]'s state
//! transitions durable:
//!
//! - **Journal** — every store mutation ([`WalRecord`]) is appended to a
//!   CRC-framed, length-prefixed segment file *before* the client's ack is
//!   written, under the same store lock that applied it, so record order
//!   always equals application order.
//! - **Snapshots** — every [`Durability::snapshot_every_records`] records
//!   the journal rotates ([`Wal::cut_snapshot`]) and the store as of that
//!   rotation is written as the compacted record stream that rebuilds it
//!   (see [`SessionStore::snapshot_bytes`]), atomically (temp + rename),
//!   and older segments are pruned, so replay length stays bounded no
//!   matter how long the server runs.
//! - **Recovery** — [`SessionStore::recover_from`] loads the newest valid
//!   snapshot and replays the segment tail through the same typed state
//!   machine the live path uses. A torn tail (the partially written record
//!   a crash leaves behind) is truncated at the first bad length or CRC —
//!   and the truncation is written back (**self-healing**), so the torn
//!   bytes never linger to shadow records a later restart appends after
//!   them. Because healing runs before [`Wal::open`] ever starts a
//!   follow-on segment, a torn record in a *non-final* segment can only
//!   mean power-loss reordering or external damage, and is refused as a
//!   typed [`WalError::TornMiddle`] instead of silently dropping the
//!   later segments' acked records. A wrong-magic or wrong-version
//!   segment is a typed [`WalError`] — never a panic, never silently
//!   wrong bits.
//!
//! ## What each fsync policy buys
//!
//! A `write(2)` that returned before a **process** crash (SIGKILL, abort)
//! survives in the OS page cache — replay sees it without any fsync. Fsync
//! only matters for **machine** crashes (power loss, kernel panic):
//! [`FsyncPolicy::PerRecord`] makes every ack machine-durable,
//! [`FsyncPolicy::PerSeal`] makes sealed epochs machine-durable while
//! unsealed ingest rides the page cache (nodes can re-send it — ingest is
//! idempotent), and [`FsyncPolicy::Off`] relies on the page cache alone.
//!
//! ## Consistency model
//!
//! The journal is **prefix-consistent**: recovery reconstructs exactly the
//! state produced by some prefix of the acknowledged transitions, and the
//! canonical dyadic fold over node ids guarantees that recovering that
//! prefix's epoch yields bit-identical output to a never-crashed server
//! holding the same node subset. Seal records are self-contained (they
//! carry the compacted canonical measurement), so a sealed epoch's bits
//! never depend on its per-node ingest records surviving. The
//! `duplicates` statistic is restored from the seal record and is
//! otherwise non-durable — replaying a duplicated ingest record is a
//! silent no-op, which is what makes replay idempotent.
//!
//! Segments and snapshots share one record codec and framing, and every
//! record, from either, is applied by [`WalRecord::replay`] through the
//! store's one mutation body, the body every live transition goes through.

use crate::session::{Effect, RejectCode, SessionStore, StoreLimits, StoreStats};
use cso_distributed::quantize::EncodedSketch;
use cso_distributed::wire::{self, Message, Reader, WireError, Writer};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CSOWAL01";
/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CSOSNAP1";
/// Current segment/snapshot format version. Version 2 added the
/// measurement-operator descriptor (`op_kind`, `op_param`) to open and
/// seal records. Version 3 added the relay tier: manifest (kind 7) and
/// forward-done (kind 6) records. Version 4 made the snapshot body a
/// compacted record stream. Version 5 added the evict record (kind 8), so
/// admission's evictions replay; a version 4 file is a version 5 one
/// without them and still reads. Older journals are refused, never
/// half-replayed.
pub const WAL_VERSION: u32 = 5;

/// The oldest format version this build reads.
const OLDEST_READ_VERSION: u32 = 4;

/// Hard cap on one record's encoded length — a flipped length prefix must
/// never drive an allocation. Generous: the largest legitimate record is a
/// seal carrying an `M`-length measurement, far below a frame.
pub const MAX_RECORD_BYTES: u32 = 1 << 25;

/// Environment variable naming a seeded crash-injection point; when the
/// process reaches that point it aborts (no cleanup — equivalent to
/// SIGKILL for everything except the kernel's signal accounting). Used by
/// the kill-9 crash harness; unset in production.
pub const ENV_CRASH_POINT: &str = "CSO_SERVE_CRASH_POINT";
/// Companion to [`ENV_CRASH_POINT`]: abort on the n-th hit (default 1).
pub const ENV_CRASH_COUNT: &str = "CSO_SERVE_CRASH_COUNT";

/// Aborts the process if the seeded injection point `name` is armed via
/// [`ENV_CRASH_POINT`]. A no-op (one relaxed atomic read) when unarmed.
pub(crate) fn crash_point(name: &str) {
    static ARMED: OnceLock<Option<(String, u64)>> = OnceLock::new();
    static HITS: AtomicU64 = AtomicU64::new(0);
    let armed = ARMED.get_or_init(|| {
        let point = std::env::var(ENV_CRASH_POINT).ok()?;
        let count = std::env::var(ENV_CRASH_COUNT).ok().and_then(|v| v.parse().ok()).unwrap_or(1);
        Some((point, count.max(1)))
    });
    if let Some((point, count)) = armed {
        if point == name && HITS.fetch_add(1, Ordering::SeqCst) + 1 == *count {
            std::process::abort();
        }
    }
}

/// When the journal is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync: process-crash durable (page cache), not power-loss
    /// durable. The fastest policy.
    Off,
    /// Fsync at seal records (and the clean-shutdown marker): sealed
    /// epochs are power-loss durable, in-flight ingest is re-sendable.
    PerSeal,
    /// Fsync every record: every acked transition is power-loss durable.
    PerRecord,
}

impl FsyncPolicy {
    /// Stable lowercase name, used in bench CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Off => "off",
            FsyncPolicy::PerSeal => "per-seal",
            FsyncPolicy::PerRecord => "per-record",
        }
    }
}

/// Durability configuration for [`crate::server::ServerConfig`].
#[derive(Debug, Clone)]
pub struct Durability {
    /// Directory holding segments and snapshots (created if absent).
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Snapshot the store (and prune replayed segments) after this many
    /// journaled records, bounding replay length.
    pub snapshot_every_records: u64,
}

impl Durability {
    /// Default policy (`PerSeal`, 8 MiB segments, snapshot every 4096
    /// records) rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Durability {
            dir: dir.into(),
            fsync: FsyncPolicy::PerSeal,
            segment_bytes: 8 << 20,
            snapshot_every_records: 4096,
        }
    }
}

/// Typed failures of the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem operation failed.
    Io {
        /// What the layer was doing.
        context: String,
        /// The error kind.
        kind: io::ErrorKind,
    },
    /// A segment file's header is not a format this build reads (wrong
    /// magic or wrong version). Unlike a torn tail this is never
    /// self-inflicted by a crash — the header is written in one call — so
    /// it is surfaced instead of truncated.
    BadSegment {
        /// The offending file.
        path: PathBuf,
        /// Why the header was rejected.
        reason: SegmentFault,
    },
    /// An intact record did not decode, or was inconsistent with the
    /// store built so far (e.g. a seal whose seed disagrees with its open).
    Replay(ReplayError),
    /// A **non-final** segment ends in a torn record. Recovery heals the
    /// final segment's torn tail in place (truncating it before the
    /// writer ever starts a follow-on segment), so this state only
    /// arises from power-loss writeback reordering or external damage —
    /// and replaying past it would silently drop every acked record in
    /// the segments that follow, so recovery refuses instead.
    TornMiddle {
        /// The segment with the torn record.
        path: PathBuf,
        /// Byte offset where the torn record starts.
        offset: u64,
    },
    /// The newest snapshot failed to load and the segments it superseded
    /// were already pruned: the surviving files cannot rebuild any
    /// consistent prefix (an older snapshot plus the post-prune segments
    /// is a *gapped* history), so recovery refuses rather than serve
    /// silently wrong state.
    SnapshotGap {
        /// The unreadable snapshot.
        path: PathBuf,
        /// Why it failed to load.
        reason: ReplayError,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { context, kind } => write!(f, "wal i/o failed ({context}): {kind:?}"),
            WalError::BadSegment { path, reason } => {
                write!(f, "unreadable wal segment {}: {reason}", path.display())
            }
            WalError::Replay(msg) => write!(f, "wal replay failed: {msg}"),
            WalError::TornMiddle { path, offset } => write!(
                f,
                "torn record at offset {offset} in non-final segment {} — replaying past it \
                 would drop the acked records in later segments",
                path.display()
            ),
            WalError::SnapshotGap { path, reason } => write!(
                f,
                "snapshot {} is unreadable ({reason}) and the segments it covered were pruned — \
                 no consistent prefix remains",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Why a segment header was rejected ([`WalError::BadSegment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFault {
    /// The file is shorter than the header and is not a prefix of it (a
    /// rotation stub is).
    Short {
        /// The file's length in bytes.
        len: usize,
    },
    /// The first eight bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// The header names a format version this build does not read.
    Version {
        /// The version word the header carries.
        found: u32,
    },
}

impl std::fmt::Display for SegmentFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentFault::Short { len } => write!(f, "{len} bytes is shorter than the header"),
            SegmentFault::BadMagic => write!(f, "bad magic"),
            SegmentFault::Version { found } => {
                write!(
                    f,
                    "version {found} (this build reads {OLDEST_READ_VERSION} to {WAL_VERSION})"
                )
            }
        }
    }
}

fn io_err(context: &str, e: &io::Error) -> WalError {
    WalError::Io { context: context.to_string(), kind: e.kind() }
}

/// Why a record or a snapshot could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The bytes did not decode: a record body, a snapshot header, or a
    /// torn record inside a snapshot (where any tear is fatal).
    Decode(WireError),
    /// The record is one the live state machine refuses; `code` is the
    /// reject the live path returns for the same transition.
    Rejected {
        /// The record's kind byte.
        kind: u8,
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// The live path's reject.
        code: RejectCode,
    },
    /// Reading the snapshot file failed.
    Io(io::ErrorKind),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Decode(e) => write!(f, "undecodable: {e}"),
            ReplayError::Rejected { kind, session, epoch, code } => {
                write!(f, "kind-{kind} record for ({session}, {epoch}) rejected: {code}")
            }
            ReplayError::Io(kind) => write!(f, "read failed: {kind:?}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Decode(e)
    }
}

/// One journaled state transition, applied by `SessionStore::apply` on
/// the live path and, through [`WalRecord::replay`], on replay alike;
/// [`WalRecord::CleanShutdown`] is the marker
/// [`crate::server::ServerHandle::shutdown`] appends after a graceful
/// drain, distinguishing it from a crash at the next startup.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A fresh epoch was created (kind 1; body is the v2-encoded
    /// `OpenEpoch` frame).
    Open {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Sketch length `M`.
        m: u32,
        /// Key-space size `N`.
        n: u64,
        /// Shared measurement seed.
        seed: u64,
        /// Measurement-operator kind (0 = dense, 1 = SRHT, 2 = sparse).
        op_kind: u8,
        /// Operator parameter (density `s` for seeded-sparse; 0 otherwise).
        op_param: u64,
    },
    /// A node's sketch joined the epoch (kind 2; the payload reuses the v2
    /// wire encoding of the `Sketch` frame).
    Ingest {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Node id.
        node: u32,
        /// The sketch's measurement seed.
        seed: u64,
        /// The encoded sketch exactly as it arrived.
        payload: EncodedSketch,
    },
    /// The epoch sealed (kind 3). Self-contained: carries the compacted
    /// canonical measurement, so replay never depends on the per-node
    /// ingest records surviving.
    Seal {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Shared measurement seed.
        seed: u64,
        /// Sketch length `M`.
        m: u32,
        /// Key-space size `N`.
        n: u64,
        /// Frozen membership count.
        nodes: u64,
        /// Duplicate sketches ignored during ingest.
        duplicates: u64,
        /// Measurement-operator kind (0 = dense, 1 = SRHT, 2 = sparse).
        op_kind: u8,
        /// Operator parameter (density `s` for seeded-sparse; 0 otherwise).
        op_param: u64,
        /// IEEE-754 bit patterns of the canonical `M`-length measurement.
        y_bits: Vec<u64>,
    },
    /// The epoch's recovery completed (kind 4) — after restart the epoch
    /// is evictable again.
    RecoverDone {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
    /// Graceful-drain marker (kind 5): when this is the journal's final
    /// record, the previous process exited cleanly.
    CleanShutdown,
    /// A relay's pre-summed seal was acked by its upstream (kind 6).
    /// Journaled *after* the upstream ack, so a crash between the ack and
    /// this record re-forwards — which the root's `(node, seed)` dedup
    /// absorbs — while a crash after it skips the epoch on resume. Either
    /// way the forwarded measurement is counted exactly once.
    ForwardDone {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
    /// A downstream relay declared its region of the leaf space (kind 7;
    /// body is the v2-encoded `RelayManifest` frame). Replay re-validates
    /// through the same alignment rules as the live path.
    Manifest {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Region (aggregation-tree child slot) id.
        region: u32,
        /// First absolute leaf id the region covers.
        leaf_lo: u64,
        /// One past the last absolute leaf id (tail regions may be short).
        leaf_hi: u64,
        /// Declared tree fan-in (power of two; uniform across regions).
        fan_in: u64,
    },
    /// Admission evicted a finished epoch (kind 8) to make room for the
    /// `Open` before it; the session goes with its last epoch.
    Evict {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
}

impl WalRecord {
    /// Builds the journal record for a dispatched message's [`Effect`]
    /// when it is one record, or `None` for effect-free messages (and an
    /// evicting open's several records). `msg` is the original request —
    /// an ingest effect journals its sketch payload verbatim from there.
    pub fn of_effect(effect: &Effect, msg: &Message) -> Option<WalRecord> {
        match (effect, msg) {
            (Effect::Ingested { session, epoch }, Message::Sketch { node, seed, payload }) => {
                let (session, epoch, node, seed) = (*session, *epoch, *node, *seed);
                Some(WalRecord::Ingest { session, epoch, node, seed, payload: payload.clone() })
            }
            (Effect::Records(records), _) if records.len() == 1 => records.first().cloned(),
            _ => None,
        }
    }

    /// Applies the record to a store through its one mutation body
    /// (`SessionStore::apply`). Duplicated records are no-ops; a record the
    /// live path would refuse is a [`ReplayError::Rejected`] with its code.
    pub fn replay(&self, store: &mut SessionStore) -> Result<(), ReplayError> {
        store.apply(self).map_err(|code| {
            let (session, epoch) = self.target().unwrap_or_default();
            ReplayError::Rejected { kind: self.kind(), session, epoch, code }
        })
    }
}

const KIND_OPEN: u8 = 1;
const KIND_INGEST: u8 = 2;
const KIND_SEAL: u8 = 3;
const KIND_RECOVER_DONE: u8 = 4;
const KIND_CLEAN_SHUTDOWN: u8 = 5;
const KIND_FORWARD_DONE: u8 = 6;
const KIND_MANIFEST: u8 = 7;
const KIND_EVICT: u8 = 8;

impl WalRecord {
    /// The record's kind byte, the first byte of its encoding.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            WalRecord::Open { .. } => KIND_OPEN,
            WalRecord::Ingest { .. } => KIND_INGEST,
            WalRecord::Seal { .. } => KIND_SEAL,
            WalRecord::RecoverDone { .. } => KIND_RECOVER_DONE,
            WalRecord::CleanShutdown => KIND_CLEAN_SHUTDOWN,
            WalRecord::ForwardDone { .. } => KIND_FORWARD_DONE,
            WalRecord::Manifest { .. } => KIND_MANIFEST,
            WalRecord::Evict { .. } => KIND_EVICT,
        }
    }

    /// The `(session, epoch)` the record addresses; `None` for the
    /// clean-shutdown marker.
    pub(crate) fn target(&self) -> Option<(u64, u64)> {
        match *self {
            WalRecord::Open { session, epoch, .. }
            | WalRecord::Ingest { session, epoch, .. }
            | WalRecord::Seal { session, epoch, .. }
            | WalRecord::RecoverDone { session, epoch }
            | WalRecord::ForwardDone { session, epoch }
            | WalRecord::Evict { session, epoch }
            | WalRecord::Manifest { session, epoch, .. } => Some((session, epoch)),
            WalRecord::CleanShutdown => None,
        }
    }

    /// Encodes the record as `[kind][body]` (the framing CRC and length
    /// prefix are added by the segment and snapshot writers).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.kind());
        match *self {
            WalRecord::Open { session, epoch, m, n, seed, op_kind, op_param } => {
                let msg = Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param };
                w.bytes(&wire::encode(&msg));
            }
            WalRecord::Ingest { session, epoch, node, seed, ref payload } => {
                w.u64(session);
                w.u64(epoch);
                let msg = Message::Sketch { node, seed, payload: payload.clone() };
                w.bytes(&wire::encode(&msg));
            }
            WalRecord::Seal {
                session,
                epoch,
                seed,
                m,
                n,
                nodes,
                duplicates,
                op_kind,
                op_param,
                ref y_bits,
            } => {
                w.u64(session);
                w.u64(epoch);
                w.u64(seed);
                w.u32(m);
                w.u64(n);
                w.u64(nodes);
                w.u64(duplicates);
                w.u8(op_kind);
                w.u64(op_param);
                y_bits.iter().for_each(|&bits| w.u64(bits));
            }
            WalRecord::RecoverDone { session, epoch }
            | WalRecord::ForwardDone { session, epoch }
            | WalRecord::Evict { session, epoch } => {
                w.u64(session);
                w.u64(epoch);
            }
            WalRecord::CleanShutdown => {}
            WalRecord::Manifest { session, epoch, region, leaf_lo, leaf_hi, fan_in } => {
                let msg =
                    Message::RelayManifest { session, epoch, region, leaf_lo, leaf_hi, fan_in };
                w.bytes(&wire::encode(&msg));
            }
        }
        w.into_bytes()
    }

    /// Decodes a `[kind][body]` record. Any malformation is a typed
    /// [`WireError`]: a nested frame of the wrong message kind or a seal
    /// whose measurement length disagrees with its `m` is a
    /// [`WireError::BadField`], trailing bytes are [`WireError::Truncated`]
    /// (as in [`wire::decode`]).
    pub fn decode(buf: &[u8]) -> Result<WalRecord, WireError> {
        let mut r = Reader::new(buf);
        let wrong_frame = |msg: Message| WireError::BadField {
            field: "record frame tag",
            value: u64::from(msg.tag()),
        };
        let record = match r.u8()? {
            KIND_OPEN => match wire::decode(r.rest())? {
                Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param } => {
                    WalRecord::Open { session, epoch, m, n, seed, op_kind, op_param }
                }
                other => return Err(wrong_frame(other)),
            },
            KIND_INGEST => {
                let (session, epoch) = (r.u64()?, r.u64()?);
                match wire::decode(r.rest())? {
                    Message::Sketch { node, seed, payload } => {
                        WalRecord::Ingest { session, epoch, node, seed, payload }
                    }
                    other => return Err(wrong_frame(other)),
                }
            }
            KIND_SEAL => {
                let (session, epoch, seed, m) = (r.u64()?, r.u64()?, r.u64()?, r.u32()?);
                let (n, nodes, duplicates) = (r.u64()?, r.u64()?, r.u64()?);
                let (op_kind, op_param) = (r.u8()?, r.u64()?);
                // Checked before allocating: `m` is untrusted.
                if r.remaining() != m as usize * 8 {
                    let value = r.remaining() as u64;
                    return Err(WireError::BadField { field: "seal measurement bytes", value });
                }
                let mut y_bits = Vec::with_capacity(m as usize);
                for _ in 0..m {
                    y_bits.push(r.u64()?);
                }
                WalRecord::Seal {
                    session,
                    epoch,
                    seed,
                    m,
                    n,
                    nodes,
                    duplicates,
                    op_kind,
                    op_param,
                    y_bits,
                }
            }
            KIND_RECOVER_DONE => WalRecord::RecoverDone { session: r.u64()?, epoch: r.u64()? },
            KIND_CLEAN_SHUTDOWN => WalRecord::CleanShutdown,
            KIND_FORWARD_DONE => WalRecord::ForwardDone { session: r.u64()?, epoch: r.u64()? },
            KIND_EVICT => WalRecord::Evict { session: r.u64()?, epoch: r.u64()? },
            KIND_MANIFEST => match wire::decode(r.rest())? {
                Message::RelayManifest { session, epoch, region, leaf_lo, leaf_hi, fan_in } => {
                    WalRecord::Manifest { session, epoch, region, leaf_lo, leaf_hi, fan_in }
                }
                other => return Err(wrong_frame(other)),
            },
            kind => return Err(WireError::UnknownTag(kind)),
        };
        if !r.finished() {
            return Err(WireError::Truncated);
        }
        Ok(record)
    }
}

/// Appends `payload` to `out` framed as `[len u32][crc32 u32][payload]` —
/// the framing of segment and snapshot records alike.
pub(crate) fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&wire::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits the first framed record off `buf`: its payload and framed
/// length, or why the framing is torn (short, bad length, bad CRC).
fn next_record(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    let mut r = Reader::new(buf);
    let (len, crc) = (r.u32()?, r.u32()?);
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(WireError::BadField { field: "record length", value: u64::from(len) });
    }
    let payload = buf.get(8..8 + len as usize).ok_or(WireError::Truncated)?;
    let computed = wire::crc32(payload);
    if computed != crc {
        return Err(WireError::ChecksumMismatch { stored: crc, computed });
    }
    Ok((payload, 8 + len as usize))
}

/// What [`replay_records`] applied.
struct Replayed {
    records: u64,
    last_kind: Option<u8>,
    /// Where replay stopped at a torn record, and why it is torn.
    torn: Option<(usize, WireError)>,
}

/// The framing loop shared by segments and snapshots: decodes and
/// replays every record framed in `buf[pos..]` into `store`. A record
/// that frames intact but fails to decode or replay is an inconsistency —
/// surfaced, never skipped. A torn record stops the loop: it ends a
/// segment (everything before it stands) but fails a snapshot.
fn replay_records(
    buf: &[u8],
    mut pos: usize,
    store: &mut SessionStore,
) -> Result<Replayed, ReplayError> {
    let mut done = Replayed { records: 0, last_kind: None, torn: None };
    while pos < buf.len() {
        let (payload, framed) = match next_record(&buf[pos..]) {
            Ok(next) => next,
            Err(e) => {
                done.torn = Some((pos, e));
                break;
            }
        };
        WalRecord::decode(payload)?.replay(store)?;
        done.last_kind = Some(payload[0]);
        done.records += 1;
        pos += framed;
    }
    Ok(done)
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:08}.bin"))
}

/// Lists `(seq, path)` of files named `prefix-XXXXXXXX.suffix`, ascending.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read_dir", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read_dir entry", &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(mid) = name.strip_prefix(prefix).and_then(|r| r.strip_suffix(suffix)) else {
            continue;
        };
        if let Ok(seq) = mid.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

fn segment_header() -> [u8; 12] {
    let mut h = [0u8; 12];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Fsyncs the WAL directory itself. File data fsyncs do not make the
/// directory *entry* durable: without this, power loss can lose a
/// freshly created (and fully fsynced) segment, or un-do a snapshot's
/// rename after the segments it covers were already unlinked.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The append side of the journal. Owned by the server behind a mutex;
/// every method is infallible at the call site — an I/O failure latches
/// [`Wal::failed`], counts `serve.wal_errors`, and stops journaling for
/// the process lifetime (recovery then replays the prefix written so far,
/// which is exactly the fsync-off consistency model).
#[derive(Debug)]
pub struct Wal {
    cfg: Durability,
    seg: File,
    seg_seq: u64,
    seg_bytes: u64,
    records_since_snapshot: u64,
    failed: bool,
}

impl Wal {
    /// Opens the journal for appending: creates `cfg.dir` if needed and
    /// starts a fresh segment after the highest existing one (earlier
    /// segments are never appended to — their tail may be torn).
    pub fn open(cfg: &Durability) -> Result<Wal, WalError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create wal dir", &e))?;
        // A crash mid-snapshot leaves its temp file behind. No snapshot
        // write is in flight before the journal opens, so each is stale.
        for (_, tmp) in list_numbered(&cfg.dir, "snapshot-", ".tmp")? {
            let _ = fs::remove_file(tmp);
        }
        let next_seq = list_numbered(&cfg.dir, "wal-", ".log")?
            .last()
            .map(|(seq, _)| seq + 1)
            .unwrap_or(0)
            .max(
                list_numbered(&cfg.dir, "snapshot-", ".bin")?
                    .last()
                    .map(|(seq, _)| seq + 1)
                    .unwrap_or(0),
            );
        let wal = Wal {
            cfg: cfg.clone(),
            seg: open_segment(&cfg.dir, next_seq)?,
            seg_seq: next_seq,
            seg_bytes: 12,
            records_since_snapshot: 0,
            failed: false,
        };
        // The header — and the directory entry naming it — must be
        // durable before any record claims to be.
        if cfg.fsync != FsyncPolicy::Off {
            wal.seg.sync_all().map_err(|e| io_err("fsync segment header", &e))?;
            sync_dir(&cfg.dir).map_err(|e| io_err("fsync wal dir", &e))?;
        }
        Ok(wal)
    }

    /// Whether an earlier append failed and journaling is disabled.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Appends one record (and fsyncs it per the configured policy) before
    /// the caller acks the client. Must be called under the store lock so
    /// journal order equals application order.
    pub fn append(&mut self, record: &WalRecord, stats: &mut StoreStats) {
        if self.failed {
            return;
        }
        let payload = record.encode();
        let kind = payload[0];
        let mut framed = Vec::with_capacity(8 + payload.len());
        frame_record(&mut framed, &payload);
        // One write syscall per record: a SIGKILL after this point leaves
        // the full record in the page cache, so process-crash durability
        // never depends on user-space buffering.
        if self.seg.write_all(&framed).is_err() {
            self.fail(stats);
            return;
        }
        self.seg_bytes += framed.len() as u64;
        self.records_since_snapshot += 1;
        stats.add("serve.wal_records", 1);
        stats.add("serve.wal_bytes", framed.len() as u64);
        if kind == KIND_INGEST {
            crash_point("mid-ingest");
        }
        if kind == KIND_SEAL {
            crash_point("pre-seal-fsync");
        }
        let want_sync = match self.cfg.fsync {
            FsyncPolicy::PerRecord => true,
            FsyncPolicy::PerSeal => kind == KIND_SEAL || kind == KIND_CLEAN_SHUTDOWN,
            FsyncPolicy::Off => kind == KIND_CLEAN_SHUTDOWN,
        };
        if want_sync {
            self.sync(stats);
        }
        if kind == KIND_SEAL {
            crash_point("post-seal");
        }
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate(stats);
        }
    }

    /// Flushes the segment to stable storage, recording `serve.wal_fsync_ns`.
    fn sync(&mut self, stats: &mut StoreStats) {
        let started = Instant::now();
        if self.seg.sync_all().is_err() {
            self.fail(stats);
            return;
        }
        stats.observe("serve.wal_fsync_ns", started.elapsed().as_nanos() as u64);
    }

    fn fail(&mut self, stats: &mut StoreStats) {
        self.failed = true;
        stats.add("serve.wal_errors", 1);
    }

    /// Ends the current segment, fsynced unless the policy is `Off` (so
    /// power loss can tear only the final segment), and starts the next.
    fn rotate(&mut self, stats: &mut StoreStats) {
        if self.cfg.fsync != FsyncPolicy::Off {
            self.sync(stats);
            if self.failed {
                return;
            }
        }
        match open_segment(&self.cfg.dir, self.seg_seq + 1) {
            Ok(seg) => {
                // The first record fsync covers the header (sync_all is
                // whole-file), but only a directory fsync makes the new
                // segment's *name* survive power loss.
                if self.cfg.fsync != FsyncPolicy::Off && sync_dir(&self.cfg.dir).is_err() {
                    self.fail(stats);
                    return;
                }
                self.seg = seg;
                self.seg_seq += 1;
                self.seg_bytes = 12;
                stats.add("serve.wal_segments_rotated", 1);
            }
            Err(_) => self.fail(stats),
        }
    }

    /// Whether enough records accumulated since the last snapshot that the
    /// caller (holding the store lock) should cut one ([`Wal::cut_snapshot`]).
    pub fn should_snapshot(&self) -> bool {
        !self.failed && self.records_since_snapshot >= self.cfg.snapshot_every_records
    }

    /// A snapshot's rotate step, its consistency cut: ends the current
    /// segment, starts segment `S` and resets the snapshot counter. The
    /// caller serializes the store under the store guard it held across
    /// this call, for the returned cut's [`SnapshotCut::persist`] to write
    /// as `snapshot-S.bin`. `None` when the journal or the rotation failed.
    pub fn cut_snapshot(&mut self, stats: &mut StoreStats) -> Option<SnapshotCut> {
        if self.failed {
            return None;
        }
        self.rotate(stats);
        if self.failed {
            return None;
        }
        self.records_since_snapshot = 0;
        Some(SnapshotCut { dir: self.cfg.dir.clone(), seq: self.seg_seq })
    }
}

/// A journal rotated for a snapshot by [`Wal::cut_snapshot`]: segments
/// from `seq` on hold every record appended after the cut.
#[derive(Debug)]
#[must_use = "a cut that is never persisted leaves the journal unpruned"]
pub struct SnapshotCut {
    dir: PathBuf,
    seq: u64,
}

impl SnapshotCut {
    /// A snapshot's write step, under no lock: writes `snapshot-<seq>.bin`
    /// atomically (temp + fsync + rename + directory fsync), then deletes
    /// every segment and snapshot below `seq`. A failure prunes nothing, so
    /// recovery falls back to an older snapshot and a longer replay. Two
    /// cuts may persist at once: each prunes only below its own `seq`.
    pub fn persist(self, body: &[u8], stats: &mut StoreStats) {
        let mut out = Writer::new();
        out.bytes(SNAPSHOT_MAGIC);
        out.u32(WAL_VERSION);
        out.u32(wire::crc32(body));
        out.u64(body.len() as u64);
        out.bytes(body);
        let out = out.into_bytes();
        let path = snapshot_path(&self.dir, self.seq);
        let tmp = path.with_extension("tmp");
        let written = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
            crash_point("mid-snapshot");
            fs::rename(&tmp, &path)?;
            Ok(())
        })();
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
            stats.add("serve.wal_errors", 1);
            return;
        }
        // The rename must be durable *before* any covered segment is
        // unlinked — otherwise power loss can keep the unlinks but drop
        // the rename, leaving neither snapshot nor journal. If the
        // directory fsync fails, skip pruning: the old snapshot plus the
        // unpruned segments still recover.
        if sync_dir(&self.dir).is_err() {
            stats.add("serve.wal_errors", 1);
            return;
        }
        stats.add("serve.wal_snapshots", 1);
        // Prune: everything before the cut's segment is now redundant.
        // Temp files are left alone: another cut may be writing one.
        for kind in [("wal-", ".log"), ("snapshot-", ".bin")] {
            if let Ok(files) = list_numbered(&self.dir, kind.0, kind.1) {
                for (seq, p) in files {
                    if seq < self.seq {
                        let _ = fs::remove_file(p);
                    }
                }
            }
        }
        // Unlink durability is tidiness, not correctness (recovery
        // ignores files below the newest snapshot's seq) — best effort.
        let _ = sync_dir(&self.dir);
    }
}

fn open_segment(dir: &Path, seq: u64) -> Result<File, WalError> {
    let path = segment_path(dir, seq);
    let mut f = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &e))?;
    f.write_all(&segment_header()).map_err(|e| io_err("write segment header", &e))?;
    Ok(f)
}

/// What [`SessionStore::recover_from`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether any prior state (segments or snapshot) existed at all.
    pub had_prior_state: bool,
    /// Whether a snapshot was loaded (vs. replay from an empty store).
    pub snapshot_loaded: bool,
    /// Records replayed from the segment tail (markers included).
    pub replayed_records: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Whether replay found a torn/corrupt record at the journal's tail
    /// (everything before it was applied; the torn bytes were truncated
    /// off the segment on disk so they cannot resurface).
    pub torn_tail: bool,
    /// Whether the journal's final record was the clean-shutdown marker —
    /// `false` means the previous process crashed.
    pub clean_shutdown: bool,
}

/// How a segment's byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentEnd {
    /// Every byte framed and replayed.
    Clean,
    /// A partial or CRC-failing record starts at `offset`; the bytes
    /// before it replayed, the bytes from it on have no trustworthy
    /// framing. Healed by truncating the file at `offset`.
    Torn {
        /// Byte offset of the first untrustworthy record.
        offset: u64,
    },
    /// The file holds only a (possibly empty) prefix of the 12-byte
    /// header — the stub a crash leaves mid-rotation, before the header
    /// write completed. Contains zero records by construction. Healed by
    /// rewriting the full header.
    Stub,
}

/// Reads one segment, replaying records into `store`. Returns
/// `(records_replayed, last_record_kind, end)`.
fn replay_segment(
    path: &Path,
    store: &mut SessionStore,
) -> Result<(u64, Option<u8>, SegmentEnd), WalError> {
    let buf = fs::read(path).map_err(|e| io_err("read segment", &e))?;
    if buf.len() < 12 {
        // A short file that is a strict prefix of the canonical header is
        // the stub a crash leaves mid-rotation: the header never finished,
        // so no record was ever appended. Anything else that short means
        // the directory was damaged.
        if segment_header().starts_with(&buf) {
            return Ok((0, None, SegmentEnd::Stub));
        }
        let reason = SegmentFault::Short { len: buf.len() };
        return Err(WalError::BadSegment { path: path.to_path_buf(), reason });
    }
    if &buf[..8] != SEGMENT_MAGIC {
        let reason = SegmentFault::BadMagic;
        return Err(WalError::BadSegment { path: path.to_path_buf(), reason });
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if !(OLDEST_READ_VERSION..=WAL_VERSION).contains(&version) {
        let reason = SegmentFault::Version { found: version };
        return Err(WalError::BadSegment { path: path.to_path_buf(), reason });
    }
    let done = replay_records(&buf, 12, store).map_err(WalError::Replay)?;
    let end = done.torn.map_or(SegmentEnd::Clean, |(at, _)| SegmentEnd::Torn { offset: at as u64 });
    Ok((done.records, done.last_kind, end))
}

/// Truncates a torn segment at `keep` bytes and fsyncs it, so the next
/// recovery (and the writer's next segment) see a clean prefix.
fn heal_truncate(path: &Path, keep: u64) -> Result<(), WalError> {
    let f =
        OpenOptions::new().write(true).open(path).map_err(|e| io_err("open torn segment", &e))?;
    f.set_len(keep).map_err(|e| io_err("truncate torn tail", &e))?;
    f.sync_all().map_err(|e| io_err("fsync healed segment", &e))
}

/// Rewrites a mid-rotation stub as a valid empty segment (full header).
fn heal_stub(path: &Path) -> Result<(), WalError> {
    let mut f = File::create(path).map_err(|e| io_err("open stub segment", &e))?;
    f.write_all(&segment_header()).map_err(|e| io_err("rewrite stub header", &e))?;
    f.sync_all().map_err(|e| io_err("fsync healed stub", &e))
}

/// Loads a snapshot file, or says why it is unreadable — a fault that
/// [`SessionStore::recover_from`] falls back from where it can. A foreign
/// format version is one such fault: the header CRC covers only the body,
/// so a damaged version word looks the same.
fn read_snapshot(path: &Path, limits: StoreLimits) -> Result<SessionStore, ReplayError> {
    let buf = fs::read(path).map_err(|e| ReplayError::Io(e.kind()))?;
    let mut r = Reader::new(&buf);
    let (magic, version, crc, len) = (r.u64()?, r.u32()?, r.u32()?, r.u64()?);
    let bad = |field, value| Err(WireError::BadField { field, value }.into());
    if magic != u64::from_le_bytes(*SNAPSHOT_MAGIC) {
        return bad("snapshot magic", magic);
    }
    if !(OLDEST_READ_VERSION..=WAL_VERSION).contains(&version) {
        return bad("snapshot version", u64::from(version));
    }
    // The header's length and whole-body CRC catch a cut at a record
    // boundary, which the record framing alone cannot see.
    if len != r.remaining() as u64 {
        return bad("snapshot body length", len);
    }
    let body = r.rest();
    let computed = wire::crc32(body);
    if computed != crc {
        return Err(WireError::ChecksumMismatch { stored: crc, computed }.into());
    }
    SessionStore::from_snapshot_bytes(body, limits)
}

impl SessionStore {
    /// Rebuilds a store from [`SessionStore::snapshot_bytes`] output: a
    /// `u64` record count, then framed records replayed through
    /// [`WalRecord::replay`] into an empty store with `limits`. Any torn
    /// record, and a count the body does not hold (so every strict prefix
    /// of a snapshot), is a typed error.
    pub fn from_snapshot_bytes(
        buf: &[u8],
        limits: StoreLimits,
    ) -> Result<SessionStore, ReplayError> {
        let declared = Reader::new(buf).u64()?;
        let mut store = SessionStore::with_limits(limits);
        let done = replay_records(buf, 8, &mut store)?;
        if let Some((_, torn)) = done.torn {
            return Err(torn.into());
        }
        if done.records != declared {
            let value = done.records;
            return Err(WireError::BadField { field: "snapshot record count", value }.into());
        }
        Ok(store)
    }

    /// Rebuilds a store from a WAL directory: loads the newest valid
    /// snapshot, then replays the segment tail through the typed state
    /// machine. An absent or empty directory yields an empty store. A torn
    /// tail — the partial record a crash leaves — truncates replay at the
    /// first bad length or CRC **and heals the file in place** (the torn
    /// bytes are cut off and the truncation fsynced), so the journal a
    /// later restart sees is always a clean prefix. A torn record in a
    /// non-final segment, a wrong-magic or wrong-version segment, and an
    /// unreadable newest snapshot whose covered segments were pruned are
    /// all typed [`WalError`]s — recovery refuses to replay a gapped
    /// history.
    pub fn recover_from(
        dir: &Path,
        limits: StoreLimits,
    ) -> Result<(SessionStore, RecoveryReport), WalError> {
        let mut report = RecoveryReport::default();
        if !dir.exists() {
            return Ok((SessionStore::with_limits(limits), report));
        }
        let segments = list_numbered(dir, "wal-", ".log")?;
        let snapshots = list_numbered(dir, "snapshot-", ".bin")?;
        report.had_prior_state = !segments.is_empty() || !snapshots.is_empty();

        // Newest structurally valid snapshot wins; a damaged one falls
        // back to an older snapshot (or empty + full replay) — but only
        // if the segments the damaged snapshot superseded still exist,
        // because writing it pruned them. Falling back across pruned
        // segments would replay a *gapped* history, not a prefix.
        let mut store = SessionStore::with_limits(limits);
        let mut from_seq = 0u64;
        let mut newest_failed: Option<(u64, &PathBuf, ReplayError)> = None;
        for (seq, path) in snapshots.iter().rev() {
            match read_snapshot(path, limits) {
                Ok(s) => {
                    store = s;
                    from_seq = *seq;
                    report.snapshot_loaded = true;
                    break;
                }
                Err(reason) => {
                    newest_failed.get_or_insert((*seq, path, reason));
                }
            }
        }
        if let Some((failed_seq, path, reason)) = newest_failed {
            if failed_seq > from_seq
                && (from_seq..failed_seq).any(|s| !segments.iter().any(|(seq, _)| *seq == s))
            {
                return Err(WalError::SnapshotGap { path: path.clone(), reason });
            }
        }

        let tail: Vec<&(u64, PathBuf)> =
            segments.iter().filter(|(seq, _)| *seq >= from_seq).collect();
        let mut last_kind = None;
        for (i, (_, path)) in tail.iter().enumerate() {
            let is_last = i + 1 == tail.len();
            let (n, kind, end) = replay_segment(path, &mut store)?;
            report.replayed_records += n;
            report.segments += 1;
            if kind.is_some() {
                last_kind = kind;
            }
            match end {
                SegmentEnd::Clean => {}
                // A mid-rotation stub holds zero records wherever it sits
                // (its header never completed, so nothing was appended);
                // heal it into a valid empty segment and keep going.
                SegmentEnd::Stub => {
                    heal_stub(path)?;
                    if is_last {
                        report.torn_tail = true;
                    }
                }
                // The final segment's torn tail is the partial record a
                // crash leaves: truncate it away *now*, before `Wal::open`
                // starts a follow-on segment — otherwise the next restart
                // would stop here and silently drop that segment's acked
                // records. In a non-final segment the same pattern cannot
                // be a crash artifact (recovery healed the tail before the
                // next segment ever existed), so it is damage: refuse
                // rather than replay a gapped history.
                SegmentEnd::Torn { offset } => {
                    if !is_last {
                        return Err(WalError::TornMiddle { path: (*path).clone(), offset });
                    }
                    heal_truncate(path, offset)?;
                    report.torn_tail = true;
                }
            }
        }
        report.clean_shutdown = last_kind == Some(KIND_CLEAN_SHUTDOWN);
        Ok((store, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_distributed::quantize::{self, SketchEncoding};
    use cso_linalg::Vector;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("cso-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let y = Vector::from_vec((0..4).map(|i| i as f64).collect());
        vec![
            WalRecord::Open { session: 1, epoch: 0, m: 4, n: 32, seed: 7, op_kind: 0, op_param: 0 },
            WalRecord::Ingest {
                session: 1,
                epoch: 0,
                node: 3,
                seed: 7,
                payload: quantize::encode(&y, SketchEncoding::F64),
            },
            WalRecord::Seal {
                session: 1,
                epoch: 0,
                seed: 7,
                m: 4,
                n: 32,
                nodes: 1,
                duplicates: 2,
                op_kind: 0,
                op_param: 0,
                y_bits: y.as_slice().iter().map(|v| v.to_bits()).collect(),
            },
            WalRecord::RecoverDone { session: 1, epoch: 0 },
            WalRecord::CleanShutdown,
        ]
    }

    #[test]
    fn records_round_trip() {
        for r in sample_records().into_iter().chain([WalRecord::Evict { session: 1, epoch: 0 }]) {
            let enc = r.encode();
            assert_eq!(WalRecord::decode(&enc).expect("decodes"), r);
            // Truncations decode to typed errors, never panics.
            for cut in 0..enc.len() {
                let _ = WalRecord::decode(&enc[..cut]);
            }
        }
        assert!(WalRecord::decode(&[99]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
    }

    #[test]
    fn append_then_recover_round_trips_the_store() {
        let dir = temp_dir("roundtrip");
        let mut stats = StoreStats::new();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        for r in sample_records() {
            wal.append(&r, &mut stats);
        }
        assert!(!wal.failed());
        drop(wal);

        let (store, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
        assert!(report.had_prior_state);
        assert_eq!(report.replayed_records, 5);
        assert!(report.clean_shutdown);
        assert!(!report.torn_tail);
        assert_eq!(store.epoch_phase(1, 0), Some(crate::session::EpochPhase::Recovered));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_at_every_offset() {
        let dir = temp_dir("torn");
        let mut stats = StoreStats::new();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        for r in sample_records() {
            wal.append(&r, &mut stats);
        }
        drop(wal);
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).expect("segment bytes");

        for cut in 0..full.len() {
            fs::write(&seg, &full[..cut]).expect("truncate");
            let out = SessionStore::recover_from(&dir, StoreLimits::default());
            match out {
                Ok((_, report)) => assert!(
                    cut == full.len() || report.torn_tail || report.replayed_records < 5,
                    "cut {cut}: truncation unnoticed"
                ),
                Err(WalError::BadSegment { .. }) => {
                    assert!(cut < 12, "cut {cut}: only header cuts may be BadSegment");
                }
                Err(e) => panic!("cut {cut}: unexpected error {e}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The reviewer scenario that motivated self-healing: a crash tears
    /// segment 0's tail, the restarted server appends acked records to
    /// segment 1, and a *second* restart must replay both — the torn
    /// bytes must not linger and shadow segment 1.
    #[test]
    fn torn_tail_heals_so_later_segments_survive_the_next_restart() {
        let dir = temp_dir("heal");
        let mut stats = StoreStats::new();
        let records = sample_records();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&records[0], &mut stats);
        wal.append(&records[1], &mut stats);
        drop(wal);
        let seg0 = segment_path(&dir, 0);
        let full = fs::read(&seg0).expect("segment");
        fs::write(&seg0, &full[..full.len() - 3]).expect("tear");

        // Restart 1: the tear is truncated off the file itself.
        let (_, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover 1");
        assert!(report.torn_tail);
        assert_eq!(report.replayed_records, 1, "only the open survives the tear");
        assert!(
            fs::metadata(&seg0).expect("meta").len() < (full.len() - 3) as u64,
            "torn bytes must be gone from disk"
        );

        // The restarted server journals the re-sent records in segment 1.
        let mut wal = Wal::open(&Durability::at(&dir)).expect("reopen");
        for r in &records[1..] {
            wal.append(r, &mut stats);
        }
        assert!(!wal.failed());
        drop(wal);

        // Restart 2: segment 0's healed prefix AND all of segment 1
        // replay — nothing acked after the first restart is dropped.
        let (store, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover 2");
        assert!(!report.torn_tail);
        assert!(report.clean_shutdown);
        assert_eq!(report.replayed_records, 5);
        assert_eq!(store.epoch_phase(1, 0), Some(crate::session::EpochPhase::Recovered));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn record in a non-final segment cannot be a healed-over crash
    /// artifact — it means writeback reordering or external damage, and
    /// replaying past it would drop the later segments' acked records.
    #[test]
    fn torn_record_in_a_non_final_segment_is_a_typed_error() {
        let dir = temp_dir("torn-middle");
        let mut stats = StoreStats::new();
        let records = sample_records();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&records[0], &mut stats);
        wal.append(&records[1], &mut stats);
        drop(wal);
        let mut wal = Wal::open(&Durability::at(&dir)).expect("reopen");
        wal.append(&records[2], &mut stats);
        drop(wal);
        // Power loss persisted segment 1 but lost segment 0's tail.
        let seg0 = segment_path(&dir, 0);
        let full = fs::read(&seg0).expect("segment");
        fs::write(&seg0, &full[..full.len() - 3]).expect("tear");
        assert!(matches!(
            SessionStore::recover_from(&dir, StoreLimits::default()),
            Err(WalError::TornMiddle { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A header-less stub left by a crash mid-rotation must not become a
    /// permanent startup failure once later segments exist behind it: it
    /// holds zero records, is skipped, and is healed into a valid empty
    /// segment.
    #[test]
    fn stale_headerless_stub_is_healed_and_skipped() {
        let dir = temp_dir("stub");
        let mut stats = StoreStats::new();
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(segment_path(&dir, 0), &segment_header()[..5]).expect("stub");
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open"); // segment 1
        for r in sample_records() {
            wal.append(&r, &mut stats);
        }
        drop(wal);

        let (_, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
        assert_eq!(report.replayed_records, 5, "stub must not shadow segment 1");
        assert!(report.clean_shutdown);
        assert_eq!(
            fs::read(segment_path(&dir, 0)).expect("stub bytes"),
            segment_header(),
            "stub healed into a valid empty segment"
        );
        let (_, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover 2");
        assert_eq!(report.replayed_records, 5);
        assert!(!report.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// When the newest snapshot rots and the segments it superseded were
    /// pruned, no consistent prefix remains — recovery must refuse with a
    /// typed error, not replay a gapped history.
    #[test]
    fn unreadable_snapshot_over_pruned_segments_is_a_typed_error() {
        let dir = temp_dir("snap-gap");
        let mut stats = StoreStats::new();
        let mut cfg = Durability::at(&dir);
        cfg.snapshot_every_records = 2;
        let mut wal = Wal::open(&cfg).expect("open");
        let mut store = SessionStore::new();
        for r in &sample_records()[..3] {
            r.replay(&mut store).expect("mirror replay");
            wal.append(r, &mut stats);
        }
        wal.cut_snapshot(&mut stats).expect("cut").persist(&store.snapshot_bytes(), &mut stats);
        assert!(!wal.failed());
        drop(wal);

        let snap = snapshot_path(&dir, 1);
        let mut bytes = fs::read(&snap).expect("snapshot");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // bit rot in the body: CRC now fails
        fs::write(&snap, &bytes).expect("rot");
        assert!(matches!(
            SessionStore::recover_from(&dir, StoreLimits::default()),
            Err(WalError::SnapshotGap { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A seal that creates its epoch passes `open`'s checks: one with
    /// `m > n`, which its own snapshot could not reload, is a typed replay
    /// error in recovery and in the in-memory mirror alike.
    #[test]
    fn lone_seal_that_open_rejects_is_a_typed_replay_error() {
        let dir = temp_dir("lone-seal");
        let seal = WalRecord::Seal {
            session: 1,
            epoch: 0,
            seed: 7,
            m: 8,
            n: 4,
            nodes: 1,
            duplicates: 0,
            op_kind: 0,
            op_param: 0,
            y_bits: vec![0; 8],
        };
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&seal, &mut StoreStats::new());
        drop(wal);
        let code = RejectCode::BadSpec;
        let rejected = ReplayError::Rejected { kind: KIND_SEAL, session: 1, epoch: 0, code };
        assert!(matches!(
            SessionStore::recover_from(&dir, StoreLimits::default()),
            Err(WalError::Replay(e)) if e == rejected
        ));
        assert_eq!(seal.replay(&mut SessionStore::new()), Err(rejected));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_segment_is_a_typed_error() {
        let dir = temp_dir("version");
        let mut stats = StoreStats::new();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&sample_records()[0], &mut stats);
        drop(wal);
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("segment");
        bytes[8] = 0xEE; // version word
        fs::write(&seg, &bytes).expect("rewrite");
        assert!(matches!(
            SessionStore::recover_from(&dir, StoreLimits::default()),
            Err(WalError::BadSegment { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Each way a segment header can be unreadable is its own
    /// [`SegmentFault`], and the text names it.
    #[test]
    fn bad_segment_reasons_are_typed() {
        let dir = temp_dir("segfault");
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&sample_records()[0], &mut StoreStats::new());
        drop(wal);
        let seg = segment_path(&dir, 0);
        let good = fs::read(&seg).expect("segment");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let mut foreign = good.clone();
        foreign[8..12].copy_from_slice(&(WAL_VERSION + 7).to_le_bytes());
        let cases = [
            (b"XYZ".to_vec(), SegmentFault::Short { len: 3 }, "3 bytes is shorter".to_string()),
            (bad_magic, SegmentFault::BadMagic, "bad magic".to_string()),
            (
                foreign,
                SegmentFault::Version { found: WAL_VERSION + 7 },
                format!(
                    "version {} (this build reads {OLDEST_READ_VERSION} to {WAL_VERSION})",
                    WAL_VERSION + 7
                ),
            ),
        ];
        for (bytes, want, text) in cases {
            fs::write(&seg, &bytes).expect("rewrite");
            match SessionStore::recover_from(&dir, StoreLimits::default()) {
                Err(e @ WalError::BadSegment { reason, .. }) => {
                    assert_eq!(reason, want);
                    assert!(e.to_string().contains(&text), "{e}");
                }
                other => panic!("{want:?}: expected BadSegment, got {:?}", other.err()),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A size-triggered rotation fsyncs the segment it leaves, so under
    /// `PerSeal` an ingest-only stream records one `serve.wal_fsync_ns`
    /// observation per rotation — power loss can then tear only the final
    /// segment. Under `Off` a rotation syncs nothing.
    #[test]
    fn rotation_syncs_the_segment_it_leaves() {
        let ingest = sample_records().swap_remove(1);
        for (fsync, synced) in [(FsyncPolicy::PerSeal, true), (FsyncPolicy::Off, false)] {
            let dir = temp_dir("rotate-sync");
            let cfg = Durability { fsync, segment_bytes: 64, ..Durability::at(&dir) };
            let mut wal = Wal::open(&cfg).expect("open");
            let mut stats = StoreStats::new();
            for _ in 0..6 {
                wal.append(&ingest, &mut stats);
            }
            assert!(!wal.failed());
            let rotations = stats
                .pending()
                .iter()
                .filter(|(name, _)| *name == "serve.wal_segments_rotated")
                .count();
            assert_eq!(rotations, 6, "{fsync:?}: every ingest record fills a 64-byte segment");
            let rec = cso_obs::Recorder::new();
            stats.flush(&rec);
            let fsyncs =
                rec.metrics_snapshot().histogram("serve.wal_fsync_ns").map_or(0, |h| h.count);
            assert_eq!(fsyncs, if synced { rotations as u64 } else { 0 }, "{fsync:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A crash between a snapshot's temp-file write and its rename leaves
    /// `snapshot-<seq>.tmp` behind; the next open deletes it, and recovery
    /// never reads it.
    #[test]
    fn stale_snapshot_temp_files_are_removed_at_open() {
        let dir = temp_dir("snap-tmp");
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open");
        wal.append(&sample_records()[0], &mut StoreStats::new());
        drop(wal);
        let tmp = snapshot_path(&dir, 1).with_extension("tmp");
        fs::write(&tmp, b"half-written snapshot").expect("plant temp file");
        let (_, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed_records, 1);
        drop(Wal::open(&Durability::at(&dir)).expect("reopen"));
        assert!(!tmp.exists(), "the stale temp file is gone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_and_recovery_prefers_it() {
        let dir = temp_dir("snap");
        let mut stats = StoreStats::new();
        let mut cfg = Durability::at(&dir);
        cfg.snapshot_every_records = 2;
        let mut wal = Wal::open(&cfg).expect("open");

        let mut store = SessionStore::new();
        let records = sample_records();
        for r in &records[..3] {
            r.replay(&mut store).expect("mirror replay");
            wal.append(r, &mut stats);
        }
        assert!(wal.should_snapshot());
        wal.cut_snapshot(&mut stats).expect("cut").persist(&store.snapshot_bytes(), &mut stats);
        assert!(!wal.failed());
        // The pre-snapshot segment is pruned; the snapshot carries state.
        assert!(!segment_path(&dir, 0).exists(), "segment 0 pruned");
        for r in &records[3..] {
            r.replay(&mut store).expect("mirror replay");
            wal.append(r, &mut stats);
        }
        drop(wal);

        let (rebuilt, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
        assert!(report.snapshot_loaded);
        assert!(report.clean_shutdown);
        assert_eq!(rebuilt.snapshot_bytes(), store.snapshot_bytes(), "bit-identical");
        let _ = fs::remove_dir_all(&dir);
    }
}
