//! Sessioned epoch lifecycle — the server's pure state machine.
//!
//! A **session** (keyed by run id) is a sequence of **epochs**; each epoch
//! is one aggregation window whose members live in its [`IngestPad`] and
//! walks
//!
//! ```text
//! open ──► ingest ──► seal ──► recover (→ report)
//! ```
//!
//! [`SessionStore::handle`] maps every incoming [`Message`] to exactly one
//! reply — an `Ack`, a `Report`, or a `Reject` carrying a typed
//! [`RejectCode`] — and *never* tears state down on a protocol error: an
//! out-of-order message (sketch before open, duplicate seal, recover on an
//! empty epoch) is rejected and the session stays usable. All I/O lives in
//! `server.rs`; this module is deterministic and unit-testable.
//!
//! Ingest is **idempotent and order-free**: a re-sent sketch for a node
//! that already contributed is acknowledged as a duplicate (retransmits
//! are free), and because the seal folds the members canonically (the
//! dyadic fold over node ids, [`cso_distributed::dyadic_fold`]), any
//! arrival interleaving across concurrent connections yields bit-identical
//! recovery.

use crate::frame::MAX_FRAME_BYTES;
use crate::wal::{frame_record, WalRecord};
use cso_core::{BompConfig, MeasurementSpec, OpDescriptor, OpKind, ResidentOp, SketchBackend};
use cso_distributed::quantize::{self, EncodedSketch};
use cso_distributed::wire::{
    Message, TAG_OPEN_EPOCH, TAG_RELAY_MANIFEST, TAG_SEAL_EPOCH, TAG_SKETCH,
};
use cso_distributed::{dyadic_fold, CsProtocol};
use cso_exec::ExecConfig;
use cso_linalg::{LinalgError, Vector};
use cso_obs::Recorder;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Typed reject codes carried in [`Message::Reject`] frames. Wire values
/// are stable: new codes may be appended, existing ones never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum RejectCode {
    /// The admission queue is full; retry after the suggested delay.
    Busy = 1,
    /// The frame failed the CRC or did not parse.
    CorruptFrame = 2,
    /// A sketch arrived on a connection that never opened an epoch.
    SketchBeforeOpen = 3,
    /// The addressed session does not exist.
    UnknownSession = 4,
    /// The addressed epoch does not exist in the session.
    UnknownEpoch = 5,
    /// An open re-declared an existing epoch with a different `(M, N,
    /// seed)` configuration or measurement operator.
    SpecMismatch = 6,
    /// A sketch's seed disagrees with the epoch's seed.
    SeedMismatch = 7,
    /// A sketch arrived after the epoch was sealed.
    EpochSealed = 8,
    /// A seal arrived for an already-sealed epoch.
    DuplicateSeal = 9,
    /// A recover arrived before the epoch was sealed.
    NotSealed = 10,
    /// A recover arrived for an epoch with zero contributions.
    EmptyEpoch = 11,
    /// A sketch payload was malformed: the wrong length for the epoch's
    /// `M`, or a NaN or infinite value. Also the answer to a recover whose
    /// sealed measurement is not finite: the fold of the epoch's finite
    /// sketches overflowed.
    BadSketch = 12,
    /// The epoch configuration itself was invalid (e.g. `M > N`).
    BadSpec = 13,
    /// A message kind the server does not accept (e.g. a server-to-client
    /// reply sent at the server).
    Unexpected = 14,
    /// Recovery failed internally.
    Internal = 15,
    /// The store is at its session/epoch capacity and nothing was
    /// evictable; the client should recover (or abandon) finished work
    /// before opening more.
    StoreFull = 16,
    /// The server is draining for shutdown: queued connections are
    /// answered with this instead of a silent close, so clients fail over
    /// immediately rather than burning their read deadline.
    ShuttingDown = 17,
    /// The open named an unknown measurement-operator kind, or an operator
    /// parameter invalid for the epoch's geometry (e.g. a seeded-sparse
    /// density larger than `M`).
    BadOperator = 18,
    /// A relay manifest disagreed with the epoch's established topology:
    /// non-power-of-two fan-in, a leaf range that is not the region's
    /// aligned dyadic block, or a fan-in different from the one an earlier
    /// manifest established for this epoch.
    TopologyMismatch = 19,
    /// Two relays claimed the same region of an epoch with different leaf
    /// ranges — a deployment error the fold must not paper over.
    RegionConflict = 20,
    /// A sketch's node id is not below the epoch's
    /// [`StoreLimits::max_nodes_per_epoch`].
    NodeOutOfRange = 21,
}

impl RejectCode {
    /// The stable wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parses a wire value back into a code.
    pub fn from_u16(v: u16) -> Option<RejectCode> {
        use RejectCode::*;
        Some(match v {
            1 => Busy,
            2 => CorruptFrame,
            3 => SketchBeforeOpen,
            4 => UnknownSession,
            5 => UnknownEpoch,
            6 => SpecMismatch,
            7 => SeedMismatch,
            8 => EpochSealed,
            9 => DuplicateSeal,
            10 => NotSealed,
            11 => EmptyEpoch,
            12 => BadSketch,
            13 => BadSpec,
            14 => Unexpected,
            15 => Internal,
            16 => StoreFull,
            17 => ShuttingDown,
            18 => BadOperator,
            19 => TopologyMismatch,
            20 => RegionConflict,
            21 => NodeOutOfRange,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectCode::Busy => "server busy",
            RejectCode::CorruptFrame => "corrupt frame",
            RejectCode::SketchBeforeOpen => "sketch before open",
            RejectCode::UnknownSession => "unknown session",
            RejectCode::UnknownEpoch => "unknown epoch",
            RejectCode::SpecMismatch => "epoch spec mismatch",
            RejectCode::SeedMismatch => "sketch seed mismatch",
            RejectCode::EpochSealed => "epoch already sealed",
            RejectCode::DuplicateSeal => "duplicate seal",
            RejectCode::NotSealed => "epoch not sealed",
            RejectCode::EmptyEpoch => "empty epoch",
            RejectCode::BadSketch => "malformed sketch",
            RejectCode::BadSpec => "invalid epoch spec",
            RejectCode::Unexpected => "unexpected message",
            RejectCode::Internal => "internal recovery failure",
            RejectCode::StoreFull => "session/epoch capacity reached",
            RejectCode::ShuttingDown => "server shutting down",
            RejectCode::BadOperator => "unknown or invalid measurement operator",
            RejectCode::TopologyMismatch => "relay manifest disagrees with epoch topology",
            RejectCode::RegionConflict => "region already claimed with a different leaf range",
            RejectCode::NodeOutOfRange => "node id past the epoch's node bound",
        };
        write!(f, "{s}")
    }
}

/// Where an epoch is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochPhase {
    /// Accepting sketches.
    Ingest,
    /// Membership frozen; awaiting recovery.
    Sealed,
    /// Recovered at least once (recover is repeatable).
    Recovered,
}

impl EpochPhase {
    /// The stable wire value carried in [`Message::Status`] frames.
    pub fn as_u8(self) -> u8 {
        match self {
            EpochPhase::Ingest => 0,
            EpochPhase::Sealed => 1,
            EpochPhase::Recovered => 2,
        }
    }

    /// Parses a wire value back into a phase.
    pub fn from_u8(v: u8) -> Option<EpochPhase> {
        Some(match v {
            0 => EpochPhase::Ingest,
            1 => EpochPhase::Sealed,
            2 => EpochPhase::Recovered,
            _ => return None,
        })
    }
}

/// The relay-tier shape of an epoch, established by the first
/// [`Message::RelayManifest`] and grown by later ones. Each entry maps a
/// region id (= the super-node id its relay ingests under) to the aligned
/// leaf block `[lo, hi)` it pre-sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochTopology {
    /// Leaves per region (a power of two); every manifest must agree.
    pub fan_in: u64,
    /// Declared regions: region id → `(leaf_lo, leaf_hi)`.
    pub regions: BTreeMap<u32, (u64, u64)>,
}

/// One aggregation window of a session.
#[derive(Debug)]
struct Epoch {
    /// The measurement operator the epoch's nodes sketched with: geometry,
    /// seed and backend. Validated at open; recovery rebuilds the operator
    /// from it, so a replayed epoch recovers with the exact operator its
    /// sketches used.
    op: OpDescriptor,
    /// Subtree manifests, when this epoch is fed by a relay tier.
    topology: Option<EpochTopology>,
    /// True once a relay journaled the upstream ack of this epoch's
    /// forwarded pre-sum — the resume marker that keeps a kill-9'd relay
    /// from re-pushing (the upstream's dedup would absorb it, but the
    /// journal makes the no-double-count property local and provable).
    forwarded: bool,
    state: EpochState,
}

/// The storage backing an epoch, and its phase. While ingesting, the epoch
/// *is* its [`IngestPad`]: the one member table that every ingest path
/// claims slots in — the lock-free fast path, the store-locked dispatch
/// path and journal replay. Sealing **compacts**: membership is frozen at
/// seal, so the per-node sketches (the `O(L·M)` bulk of an epoch) are
/// folded and dropped, and only the canonical `M`-length measurement
/// recovery needs is retained. A long-running server therefore holds
/// `O(M)` per finished epoch, not `O(L·M)`.
#[derive(Debug)]
enum EpochState {
    /// Accepting sketches (phase `Ingest`).
    Ingest(Arc<IngestPad>),
    /// Sealed, or recovered once marked: the canonical measurement of
    /// `nodes` members, and the duplicate sketches ingest ignored.
    Sealed { y: Vector, nodes: u64, duplicates: u64, recovered: bool },
}

impl Epoch {
    /// Declares a relay's region. The manifest must describe the region's
    /// aligned dyadic block exactly — `fan_in` a power of two, `leaf_lo =
    /// region · fan_in`, `lo < hi ≤ lo + fan_in` — and agree with whatever
    /// earlier manifests established: one `fan_in` per epoch, one leaf
    /// range per region. Re-declaring an identical region is a no-op.
    fn declare_region(
        &mut self,
        region: u32,
        (lo, hi): (u64, u64),
        fan_in: u64,
    ) -> Result<(), RejectCode> {
        let aligned = fan_in.is_power_of_two()
            && u64::from(region).checked_mul(fan_in) == Some(lo)
            && hi > lo
            && hi - lo <= fan_in;
        let topo = match &mut self.topology {
            _ if !aligned => return Err(RejectCode::TopologyMismatch),
            Some(topo) if topo.fan_in != fan_in => return Err(RejectCode::TopologyMismatch),
            topo => topo.get_or_insert_with(|| EpochTopology { fan_in, ..Default::default() }),
        };
        if *topo.regions.entry(region).or_insert((lo, hi)) != (lo, hi) {
            return Err(RejectCode::RegionConflict);
        }
        Ok(())
    }

    fn node_count(&self) -> u64 {
        match &self.state {
            EpochState::Ingest(pad) => pad.accepted.load(Ordering::Relaxed),
            EpochState::Sealed { nodes, .. } => *nodes,
        }
    }

    fn phase(&self) -> EpochPhase {
        match self.state {
            EpochState::Ingest(_) => EpochPhase::Ingest,
            EpochState::Sealed { recovered: false, .. } => EpochPhase::Sealed,
            EpochState::Sealed { recovered: true, .. } => EpochPhase::Recovered,
        }
    }

    /// Whether this store is done with the epoch, so admission may evict
    /// it: recovered, or sealed with its pre-sum acked upstream — where a
    /// relay's epochs end, since a relay never recovers.
    fn finished(&self) -> bool {
        match self.state {
            EpochState::Ingest(_) => false,
            EpochState::Sealed { recovered, .. } => recovered || self.forwarded,
        }
    }
}

// ---- lock-free ingest pad ---------------------------------------------

const SLOT_EMPTY: u8 = 0;
const SLOT_BUSY: u8 = 1;
const SLOT_READY: u8 = 2;

/// One node's slot in an [`IngestPad`]: a three-state cell
/// (`EMPTY → BUSY → READY`) claimed by compare-and-swap. The `UnsafeCell`
/// is sound because the state machine gives exclusive access: only the
/// thread that won the `EMPTY → BUSY` CAS writes the cell, and a READY
/// cell is read, or taken by the seal, only through the store that owns
/// the pad.
struct PadSlot {
    state: AtomicU8,
    cell: UnsafeCell<Option<Vector>>,
}

// Safety: cross-thread access to `cell` is mediated by `state` — see
// [`PadSlot`]. The claim that won `EMPTY → BUSY` writes the cell strictly
// inside BUSY and publishes it with a Release store of READY; claims never
// touch a cell they did not win. Nothing writes a READY cell again except
// the seal's `take`, which runs after the sealed pad has quiesced (no
// claim in flight, none to come). Readers of READY cells — the seal and
// the snapshot — load the state with Acquire and run only through the one
// `SessionStore` that owns the pad: the seal through `&mut SessionStore`,
// the snapshot through `&SessionStore`, so a read never overlaps the take.
// In the server that store sits behind the store lock. The snapshot reads
// while claims run: they write only cells they won, never a READY one.
unsafe impl Sync for PadSlot {}

/// One ingesting epoch's member table, claimed lock-free.
///
/// The server's hot path: a worker that already knows its connection's
/// bound epoch claims the sketch's node slot with a single CAS and
/// deposits the decoded vector — no store lock, no map insert, no fold.
/// The store-locked dispatch path and journal replay make the same claim,
/// so first-wins arbitration has one owner: the slot CAS. The seal moves
/// the READY sketches out and folds them once, in ascending id order, into
/// the canonical `y = Σ y_l` (the dyadic fold over node ids — the
/// bit-identity invariant); a snapshot reads them in place.
///
/// Node ids `0..max_nodes_per_epoch` are legal ([`StoreLimits`]); any
/// other id is a typed [`PadIngest::NodeOutOfRange`], before the sketch is
/// decoded. Memory follows the nodes that arrive, not the id range: ids
/// map to fixed chunks of `PAD_CHUNK` (256) slots, and a chunk is
/// allocated by the first claim that lands in it. An epoch of `L` nodes
/// with dense ids holds about `L` slots plus one small `OnceLock` cell per
/// 256 ids of the range (256 cells at the default bound); the seal and
/// the snapshot walk only allocated chunks.
///
/// One flag coordinates with the store-locked seal through the `active`
/// permit counter: **sealed** is set at seal, the sealer waits for
/// in-flight permits to drop, then folds, and later claims bounce with
/// [`PadIngest::Unavailable`]. [`PadPermit`] is held across the caller's
/// WAL append, so a quiesced pad implies every accepted sketch is
/// journaled, ahead of the seal record. A snapshot needs no barrier: a
/// claim turns READY before its journal append, which is all the
/// journal-rotation cut relies on (`SessionStore::snapshot_bytes`).
#[derive(Debug)]
pub struct IngestPad {
    seed: u64,
    m: usize,
    sealed: AtomicBool,
    active: AtomicU64,
    /// Sketches deposited: the epoch's member count.
    accepted: AtomicU64,
    /// Duplicate sketches the live paths met.
    duplicates: AtomicU64,
    /// Node ids `0..capacity` are legal.
    capacity: usize,
    /// `capacity / PAD_CHUNK` (rounded up) chunk cells; a chunk's slots are
    /// allocated by the first claim that lands in it.
    chunks: Box<[OnceLock<Box<[PadSlot]>>]>,
}

impl fmt::Debug for PadSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PadSlot({})", self.state.load(Ordering::Relaxed))
    }
}

/// Outcome of one ingest attempt against an [`IngestPad`].
#[derive(Debug)]
pub enum PadIngest<'a> {
    /// The sketch was deposited. Hold the permit until the WAL append for
    /// this sketch completes (or immediately drop it when not journaling):
    /// the seal's quiescence waits on it.
    Accepted(PadPermit<'a>),
    /// The node already contributed.
    Duplicate,
    /// The node id is not below the epoch's bound.
    NodeOutOfRange,
    /// The sketch's seed disagrees with the epoch's.
    SeedMismatch,
    /// The payload does not decode to an `M`-length sketch of finite
    /// values.
    BadSketch,
    /// The pad is sealed. The lock-free caller retries on the store-locked
    /// path, which resolves it.
    Unavailable,
}

impl PadIngest<'_> {
    /// The typed reject of a refused sketch; `None` for an accepted or
    /// duplicate one. [`PadIngest::Unavailable`] answers as the sealed
    /// epoch it is.
    fn refusal(&self) -> Option<RejectCode> {
        match self {
            PadIngest::Accepted(_) | PadIngest::Duplicate => None,
            PadIngest::NodeOutOfRange => Some(RejectCode::NodeOutOfRange),
            PadIngest::SeedMismatch => Some(RejectCode::SeedMismatch),
            PadIngest::BadSketch => Some(RejectCode::BadSketch),
            PadIngest::Unavailable => Some(RejectCode::EpochSealed),
        }
    }

    /// The reply and effect an ingest outcome of `(session, epoch)` stands
    /// for, counting `serve.sketches_*` into `stats`; `None` for
    /// [`PadIngest::Unavailable`], which the lock-free caller resolves on
    /// the store-locked path. Borrows the outcome, so an accepted sketch's
    /// permit lives on until the caller drops it after journaling.
    pub(crate) fn reply(
        &self,
        session: u64,
        epoch: u64,
        stats: &mut StoreStats,
    ) -> Option<(Message, Effect)> {
        Some(match self {
            PadIngest::Accepted(_) => {
                stats.add("serve.sketches_accepted", 1);
                (Message::Ack { of: TAG_SKETCH, info: 0 }, Effect::Ingested { session, epoch })
            }
            PadIngest::Duplicate => {
                stats.add("serve.sketches_duplicate", 1);
                (Message::Ack { of: TAG_SKETCH, info: 1 }, Effect::None)
            }
            PadIngest::Unavailable => return None,
            refused => (reject(refused.refusal()?), Effect::None),
        })
    }
}

/// RAII guard keeping an [`IngestPad`]'s seal barrier open; see
/// [`PadIngest::Accepted`].
#[derive(Debug)]
pub struct PadPermit<'a> {
    pad: &'a IngestPad,
}

impl Drop for PadPermit<'_> {
    fn drop(&mut self) {
        self.pad.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Slots per [`IngestPad`] chunk: the pad's allocation granularity.
const PAD_CHUNK: usize = 256;

impl IngestPad {
    /// An empty pad for an epoch measured by `op`, taking node ids
    /// `0..capacity`. No chunk is allocated until a claim lands in it.
    fn new(op: &OpDescriptor, capacity: usize) -> IngestPad {
        #[cfg(test)]
        tests::PADS.with(|pads| pads.set(pads.get() + 1));
        IngestPad {
            seed: op.seed,
            m: op.m,
            sealed: AtomicBool::new(false),
            active: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            capacity,
            chunks: (0..capacity.div_ceil(PAD_CHUNK)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `node`'s slot, allocating its chunk on first use; `node` must be
    /// below the pad's capacity.
    fn slot(&self, node: usize) -> &PadSlot {
        let chunk = self.chunks[node / PAD_CHUNK].get_or_init(|| {
            (0..PAD_CHUNK)
                .map(|_| PadSlot { state: AtomicU8::new(SLOT_EMPTY), cell: UnsafeCell::new(None) })
                .collect()
        });
        &chunk[node % PAD_CHUNK]
    }

    /// Every allocated slot with its node id, ascending.
    fn allocated_slots(&self) -> impl Iterator<Item = (usize, &PadSlot)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c * PAD_CHUNK, chunk.get()?)))
            .flat_map(|(base, slots)| slots.iter().enumerate().map(move |(i, s)| (base + i, s)))
    }

    /// Every READY slot with its node id, ascending. Callers reach the pad
    /// through its owning store (see the `Sync` safety argument).
    fn ready_slots(&self) -> impl Iterator<Item = (usize, &PadSlot)> {
        self.allocated_slots().filter(|(_, slot)| slot.state.load(Ordering::Acquire) == SLOT_READY)
    }

    /// Attempts a lock-free ingest of `node`'s sketch, counting a duplicate
    /// into the epoch's tally. See [`PadIngest`] for the contract of each
    /// outcome.
    pub fn ingest(&self, node: u32, seed: u64, payload: &EncodedSketch) -> PadIngest<'_> {
        self.claim(node, seed, payload, true)
    }

    /// The one slot claim behind every ingest path; `tally` counts a
    /// duplicate into the epoch's `duplicates` (replay does not).
    fn claim(&self, node: u32, seed: u64, payload: &EncodedSketch, tally: bool) -> PadIngest<'_> {
        // Raise the permit before checking the barrier flag (Dekker-style
        // with the sealer, both sides SeqCst): either we see the flag and
        // bounce, or the sealer's quiescence wait sees us.
        self.active.fetch_add(1, Ordering::SeqCst);
        let permit = PadPermit { pad: self };
        // Barrier check precedes the range and seed checks: a sealed epoch
        // must answer `EpochSealed` (via the store-locked path) to every
        // sketch, matching the store's reject precedence.
        if self.sealed.load(Ordering::SeqCst) {
            return PadIngest::Unavailable;
        }
        if node as usize >= self.capacity {
            return PadIngest::NodeOutOfRange;
        }
        if seed != self.seed {
            return PadIngest::SeedMismatch;
        }
        let duplicate = || {
            if tally {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
            }
            PadIngest::Duplicate
        };
        // Allocated under the permit, so a quiesced pad has no chunk
        // half-built behind the seal's back.
        let slot = self.slot(node as usize);
        if slot.state.load(Ordering::Acquire) != SLOT_EMPTY {
            return duplicate();
        }
        let Some(sketch) = decode_sketch(payload, self.m) else {
            return PadIngest::BadSketch;
        };
        match slot.state.compare_exchange(
            SLOT_EMPTY,
            SLOT_BUSY,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Safety: the CAS gave this thread exclusive BUSY access.
                unsafe { *slot.cell.get() = Some(sketch) };
                slot.state.store(SLOT_READY, Ordering::Release);
                self.accepted.fetch_add(1, Ordering::Relaxed);
                PadIngest::Accepted(permit)
            }
            Err(_) => duplicate(),
        }
    }

    /// Permanently closes the pad, waits out in-flight claims — after
    /// which every accepted sketch is READY *and* its caller's WAL append
    /// has completed — and moves every READY sketch out of its slot: a
    /// pad still cached after the seal holds none. Returns the member
    /// count and their canonical measurement: the dyadic fold in
    /// ascending id order, the function the in-process aggregator runs,
    /// so the bits match it. Callers hold the owning store exclusively
    /// (`&mut SessionStore`).
    fn seal(&self) -> (u64, Vector) {
        self.sealed.store(true, Ordering::SeqCst);
        while self.active.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        let members: Vec<(usize, Vector)> = self
            .ready_slots()
            // Safety: the pad is sealed and quiesced, and the caller holds
            // the owning store exclusively: nothing else touches the cell.
            .filter_map(|(node, slot)| Some((node, unsafe { (*slot.cell.get()).take() }?)))
            .collect();
        let refs: Vec<(usize, &Vector)> = members.iter().map(|(node, s)| (*node, s)).collect();
        (members.len() as u64, dyadic_fold(self.m, &refs))
    }

    /// The READY sketches with their node ids, ascending — read in place
    /// for a snapshot while claims may still run. Callers reach the pad
    /// through its owning store.
    fn members(&self) -> impl Iterator<Item = (usize, &Vector)> {
        // Safety: a READY cell is written again only by the seal's take,
        // which needs the owning store exclusively (see the `Sync`
        // argument).
        self.ready_slots()
            .filter_map(|(node, slot)| Some((node, unsafe { &*slot.cell.get() }.as_ref()?)))
    }
}

/// One client run: a keyed sequence of epochs.
#[derive(Debug, Default)]
struct Session {
    epochs: BTreeMap<u64, Epoch>,
}

/// Resource caps the store enforces at `OpenEpoch`. Every limit maps to a
/// typed reject (`BadSpec` for a hostile geometry, `StoreFull` for
/// capacity), never a panic or an unbounded allocation: recovery builds
/// (and the store keeps) a dense `m × n` matrix, so an unvalidated
/// client-supplied `n` would otherwise let a single frame abort the
/// process.
#[derive(Debug, Clone, Copy)]
pub struct StoreLimits {
    /// Largest accepted ambient dimension `N` per epoch.
    pub max_n: u64,
    /// Cap on the `m·n·8` bytes of a dense epoch's `Φ0`, and so on the
    /// one shared operator the store keeps resident between recovers (the
    /// last recovered descriptor's): it never exceeds what one recovery
    /// may allocate. A dense recovery adds only the `m`-length bias
    /// column `φ0`: BOMP borrows `Φ0` and never builds the bias-extended
    /// `Φ̃ = [φ0, Φ0]`.
    pub max_matrix_bytes: u64,
    /// Live sessions the store holds before `OpenEpoch` of a new session
    /// is rejected (the lowest-id finished session is evicted to make
    /// room first). Server-wide: one store holds every session. Gates
    /// live opens; replay reproduces the evictions they journaled.
    pub max_sessions: usize,
    /// Live epochs per session before a new epoch is rejected (finished
    /// epochs are evicted to make room first), gating as `max_sessions`.
    pub max_epochs_per_session: usize,
    /// Node ids `0..max_nodes_per_epoch` are legal in an epoch; any other
    /// id is a typed `NodeOutOfRange` reject on every ingest path, replay
    /// included. It caps ids, not memory: the epoch's [`IngestPad`]
    /// allocates its slots in 256-slot chunks as nodes arrive.
    pub max_nodes_per_epoch: usize,
}

impl StoreLimits {
    /// Validates an open's wire fields into the operator they name, in the
    /// reject precedence every open meets: a hostile geometry is
    /// `BadSpec`, then an unknown operator kind `BadOperator`, then a dense
    /// matrix over the byte cap `BadSpec`.
    fn descriptor(
        &self,
        m: u32,
        n: u64,
        seed: u64,
        op_kind: u8,
        op_param: u64,
    ) -> Result<OpDescriptor, RejectCode> {
        // The epoch's sketches must fit a frame with headroom: M doubles
        // plus headers, capped at half the frame budget.
        if u64::from(m) * 8 > u64::from(MAX_FRAME_BYTES) / 2 {
            return Err(RejectCode::BadSpec);
        }
        // The dense m×n matrix recovery materializes is the epoch's real
        // allocation, so the client-supplied n is bounded exactly like m:
        // a hostile OpenEpoch must be a typed reject, never an abort.
        if n == 0 || u64::from(m) > n || n > self.max_n {
            return Err(RejectCode::BadSpec);
        }
        let op = OpDescriptor::from_wire(op_kind, op_param, m as usize, n as usize, seed)
            .ok_or(RejectCode::BadOperator)?;
        // Only the dense backend ever materializes the m×n matrix, so the
        // matrix-bytes cap gates dense epochs alone — matrix-free epochs
        // peak at O(N) scratch during recovery, already bounded by max_n.
        if op.kind == OpKind::Dense
            && u128::from(m) * u128::from(n) * 8 > u128::from(self.max_matrix_bytes)
        {
            return Err(RejectCode::BadSpec);
        }
        Ok(op)
    }
}

impl Default for StoreLimits {
    fn default() -> Self {
        StoreLimits {
            max_n: 1 << 22,
            max_matrix_bytes: 256 << 20,
            max_sessions: 512,
            max_epochs_per_session: 64,
            max_nodes_per_epoch: 1 << 16,
        }
    }
}

/// Deferred metric recordings from store and WAL operations.
///
/// The server holds the store mutex while dispatching and journaling, and
/// the lock-audit rule (DESIGN.md §7) is that **no code under the store
/// lock touches a [`Recorder`]** — the recorder's own registry mutex would
/// nest inside the store lock and every metrics poll would contend with
/// ingest. The rule is structural, not disciplinary: [`SessionStore::dispatch`]
/// and the WAL mutators simply cannot reach a recorder — they buffer
/// `(name, value)` increments and histogram observations here, and the
/// caller calls [`StoreStats::flush`] after the guard drops.
#[derive(Debug, Default)]
pub struct StoreStats {
    counters: Vec<(&'static str, u64)>,
    observations: Vec<(&'static str, u64)>,
}

impl StoreStats {
    /// An empty buffer.
    pub fn new() -> Self {
        StoreStats::default()
    }

    /// Buffers a counter increment.
    pub(crate) fn add(&mut self, name: &'static str, v: u64) {
        self.counters.push((name, v));
    }

    /// Buffers a histogram observation.
    pub(crate) fn observe(&mut self, name: &'static str, v: u64) {
        self.observations.push((name, v));
    }

    /// The buffered counter increments, for tests and callers that need
    /// to inspect what a critical section recorded.
    pub fn pending(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Drains every buffered recording into `rec`. Call this **after**
    /// releasing the store lock.
    pub fn flush(&mut self, rec: &Recorder) {
        for (name, v) in self.counters.drain(..) {
            rec.counter_add(name, v);
        }
        for (name, v) in self.observations.drain(..) {
            rec.histogram_record(name, v);
        }
    }
}

/// Per-connection protocol state: which epoch the connection's sketches
/// flow into (bound by its `OpenEpoch`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ConnState {
    bound: Option<(u64, u64)>,
}

impl ConnState {
    /// A fresh, unbound connection.
    pub fn new() -> Self {
        ConnState::default()
    }

    /// The `(session, epoch)` this connection ingests into, if opened.
    pub fn bound(&self) -> Option<(u64, u64)> {
        self.bound
    }
}

/// How recoveries are configured: the same knobs [`CsProtocol`] resolves —
/// a base [`BompConfig`] (defaulting to the paper's `R = f(k)` heuristic)
/// and the executor the OMP scans run on.
#[derive(Debug, Clone, Default)]
pub struct RecoveryPolicy {
    /// Base recovery configuration (iteration budget `usize::MAX` means
    /// "resolve the paper heuristic at recover time").
    pub recovery: BompConfig,
    /// Executor for epoch-seal BOMP recovery.
    pub exec: ExecConfig,
}

impl RecoveryPolicy {
    /// The exact configuration a recover of `(m, seed, k)` runs with —
    /// identical to [`CsProtocol::effective_recovery`], which is what makes
    /// server-side recovery bit-identical to the in-process paths. The
    /// serve path records no recovery trace.
    fn effective(&self, m: usize, seed: u64, k: u32) -> BompConfig {
        CsProtocol {
            m,
            seed,
            recovery: self.recovery.clone(),
            exec: self.exec,
            backend: SketchBackend::dense(),
            rec: Recorder::disabled(),
        }
        .effective_recovery(k as usize)
    }
}

/// Summary of one completed recovery, handed back so the server can emit
/// the per-epoch JSONL report.
#[derive(Debug, Clone)]
pub struct RecoveredEpoch {
    /// Session id.
    pub session: u64,
    /// Epoch number.
    pub epoch: u64,
    /// Outlier budget of the recover request.
    pub k: u32,
    /// Recovered mode.
    pub mode: f64,
    /// Number of contributing nodes.
    pub nodes: u64,
    /// Duplicate sketches ignored during ingest.
    pub duplicates: u64,
    /// BOMP iterations the recovery ran.
    pub iterations: u64,
    /// Outliers reported.
    pub outliers: u64,
}

/// One sealed-but-unforwarded epoch in a relay's store: the upstream
/// push's complete input, cloned out so the forwarder works without any
/// store lock.
#[derive(Debug, Clone)]
pub struct PendingForward {
    /// Session id.
    pub session: u64,
    /// Epoch number.
    pub epoch: u64,
    /// The epoch's measurement operator (geometry, seed and backend).
    pub op: OpDescriptor,
    /// Leaves frozen into the region's pre-sum.
    pub nodes: u64,
    /// The region's canonical pre-summed measurement.
    pub y: Vector,
}

/// The durable state transition (if any) a dispatched message applied —
/// what the write-ahead journal must persist before the reply is
/// acknowledgeable. Read-only messages, rejected messages, and idempotent
/// duplicates all produce [`Effect::None`]: only transitions that change
/// what a restarted server must reconstruct are journaled.
#[derive(Debug)]
pub enum Effect {
    /// Nothing changed (reject, duplicate, or read-only query).
    None,
    /// A new node's sketch joined the epoch (duplicates are not effects).
    /// Its record is the request's sketch payload; see
    /// [`WalRecord::of_effect`].
    Ingested {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
    /// Any other durable transition, as the journal records that the
    /// store applied through its one mutation body, `SessionStore::apply`,
    /// in application order: a fresh open (attaching is free) with an
    /// `Evict` per epoch its admission evicted, a seal, a completed
    /// recovery, a new relay manifest, or an upstream-acked forward.
    Records(Vec<WalRecord>),
}

/// The outcome of dispatching one message against the store: either the
/// reply frame itself (plus the state transition it applied, for the
/// durability layer), or a [`RecoverJob`] the caller runs *outside* any
/// store lock — BOMP, and building a shared operator the store does not
/// hold yet (materializing `Φ0`), are the only expensive operations in
/// the protocol, and running them under the store mutex would stall
/// every other connection for their duration.
#[derive(Debug)]
pub enum Dispatch {
    /// The reply to send back, and the journalable transition it applied.
    Reply(Message, Effect),
    /// A recovery to run lock-free; see [`RecoverJob::run`] and
    /// [`SessionStore::finish_recover`].
    Recover(RecoverJob),
}

/// Everything a recovery needs, detached from the store: the operator
/// descriptor with its slot in the store's operator cache, the canonical
/// measurement (an `M`-length clone), and the resolved BOMP
/// configuration. A job whose lookup missed also carries the slot it
/// displaced, so that operator is freed outside the store lock.
#[derive(Debug)]
pub struct RecoverJob {
    session: u64,
    epoch: u64,
    k: u32,
    op: OpDescriptor,
    shared: OpSlot,
    evicted: Option<OpSlot>,
    y: Vector,
    nodes: u64,
    duplicates: u64,
    config: BompConfig,
}

impl RecoverJob {
    /// The `(session, epoch)` this job recovers, for
    /// [`SessionStore::finish_recover`].
    pub fn target(&self) -> (u64, u64) {
        (self.session, self.epoch)
    }

    /// Runs the recovery against the epoch's shared operator, building it
    /// into the job's cache slot first when no recover of the descriptor
    /// has. The entry is a [`ResidentOp`]: a dense epoch's keeps the
    /// materialized `Φ0` — one `m × n` matrix the store keeps resident
    /// until a recover of another descriptor displaces it, bounded by
    /// [`StoreLimits::max_matrix_bytes`] — and a matrix-free one the built
    /// operator (an SRHT's sampled rows and sign words); either keeps the
    /// bias column its first recover computed. The bits equal a fresh
    /// [`cso_core::bomp()`] or [`cso_core::bomp_with_op`].
    pub fn run(mut self) -> (Message, Option<RecoveredEpoch>) {
        // Free the displaced operator (if no other recover still holds
        // it) before building this one, so the two never sit side by side.
        drop(self.evicted.take());
        let result = match self.shared_op().and_then(|op| op.recover(&self.y, &self.config)) {
            Ok(r) => r,
            Err(_) => return (reject(RejectCode::Internal), None),
        };
        let outliers: Vec<(u32, f64)> =
            result.top_k(self.k as usize).iter().map(|o| (o.index as u32, o.value)).collect();
        let summary = RecoveredEpoch {
            session: self.session,
            epoch: self.epoch,
            k: self.k,
            mode: result.mode,
            nodes: self.nodes,
            duplicates: self.duplicates,
            iterations: result.iterations as u64,
            outliers: outliers.len() as u64,
        };
        (Message::Report { epoch: self.epoch, mode: result.mode, outliers }, Some(summary))
    }

    /// The job's shared operator, built into its slot on first use, outside
    /// every lock. A recover holding the same slot waits for that one build
    /// instead of repeating it.
    fn shared_op(&self) -> Result<&ResidentOp, LinalgError> {
        if let Some(shared) = self.shared.get() {
            return Ok(shared);
        }
        let built = self.op.build()?;
        Ok(self.shared.get_or_init(|| {
            #[cfg(test)]
            tests::BUILDS.with(|builds| builds.set(builds.get() + 1));
            ResidentOp::new(built)
        }))
    }
}

/// The store's operator-cache entry: empty until the first recover that
/// holds it fills it, outside the store lock.
type OpSlot = Arc<OnceLock<ResidentOp>>;

/// All sessions the server currently holds.
#[derive(Debug, Default)]
pub struct SessionStore {
    sessions: BTreeMap<u64, Session>,
    limits: StoreLimits,
    /// The shared operator of the last recovered descriptor, built outside
    /// the lock by the recover that missed. One entry: every workload's
    /// epochs share one descriptor, and a dense entry is at most
    /// [`StoreLimits::max_matrix_bytes`]. Nothing here is journaled: a
    /// restarted store starts empty, and its first recover builds again.
    op_cache: Option<(OpDescriptor, OpSlot)>,
}

impl SessionStore {
    /// An empty store with default limits.
    pub fn new() -> Self {
        SessionStore::default()
    }

    /// An empty store with the given resource caps.
    pub fn with_limits(limits: StoreLimits) -> Self {
        SessionStore { limits, ..SessionStore::default() }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of live epochs across every session.
    pub fn epoch_count(&self) -> usize {
        self.sessions.values().map(|s| s.epochs.len()).sum()
    }

    /// The phase of `(session, epoch)`, if it exists.
    pub fn epoch_phase(&self, session: u64, epoch: u64) -> Option<EpochPhase> {
        self.sessions.get(&session)?.epochs.get(&epoch).map(Epoch::phase)
    }

    /// Applies one client message. Cheap messages produce their reply
    /// directly; a valid `RecoverEpoch` yields a [`RecoverJob`] the caller
    /// runs without holding the store, then reports back through
    /// [`SessionStore::finish_recover`]. Protocol errors reject the
    /// message but never tear down session state.
    ///
    /// Metric recordings are buffered into `stats` — this method is
    /// designed to run under the server's store lock, so it deliberately
    /// has no access to a [`Recorder`]; flush the stats after unlocking.
    pub fn dispatch(
        &mut self,
        conn: &mut ConnState,
        msg: &Message,
        policy: &RecoveryPolicy,
        stats: &mut StoreStats,
    ) -> Dispatch {
        let applied = match *msg {
            Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param } => {
                let record = WalRecord::Open { session, epoch, m, n, seed, op_kind, op_param };
                self.open(conn, session, epoch, record, stats)
            }
            Message::Sketch { node, seed, ref payload } => {
                self.ingest(conn, node, seed, payload, stats)
            }
            Message::SealEpoch { session, epoch } => self.seal(session, epoch, stats),
            Message::RecoverEpoch { session, epoch, k } => {
                match self.begin_recover(session, epoch, k, policy, stats) {
                    Ok(job) => return Dispatch::Recover(job),
                    Err(code) => Err(code),
                }
            }
            Message::EpochStatus { session, epoch } => {
                Ok((self.status(session, epoch), Effect::None))
            }
            Message::RelayManifest { session, epoch, region, leaf_lo, leaf_hi, fan_in } => {
                let record =
                    WalRecord::Manifest { session, epoch, region, leaf_lo, leaf_hi, fan_in };
                self.manifest(session, epoch, record, stats)
            }
            _ => Err(RejectCode::Unexpected),
        };
        let (reply, effect) = applied.unwrap_or_else(|code| (reject(code), Effect::None));
        Dispatch::Reply(reply, effect)
    }

    /// As [`SessionStore::dispatch`], but runs any recovery inline —
    /// the convenience path for single-threaded callers and tests.
    pub fn handle(
        &mut self,
        conn: &mut ConnState,
        msg: &Message,
        policy: &RecoveryPolicy,
        rec: &Recorder,
    ) -> (Message, Option<RecoveredEpoch>) {
        let mut stats = StoreStats::new();
        let out = match self.dispatch(conn, msg, policy, &mut stats) {
            Dispatch::Reply(reply, _) => (reply, None),
            Dispatch::Recover(job) => {
                let (session, epoch) = job.target();
                let (reply, summary) = job.run();
                if summary.is_some() {
                    self.finish_recover(session, epoch, &mut stats);
                }
                (reply, summary)
            }
        };
        stats.flush(rec);
        out
    }

    /// Applies one journal record: the one mutation body of every durable
    /// transition, live (open, seal, manifest, recover-done, forward-done)
    /// or replayed through [`WalRecord::replay`]. It is **idempotent**: a
    /// duplicated record is a no-op. A duplicate ingest skips the
    /// non-durable `duplicates` tally, and a `Seal` carries the canonical
    /// measurement, so it never depends on ingest records surviving a torn
    /// tail. A record the live path would refuse is that path's reject.
    ///
    /// `Open` and `Seal` name the epoch's operator. Precedence: a `Seal`
    /// whose measurement is not `M` long is `BadSketch`, then
    /// [`StoreLimits::descriptor`]'s rejects, then `SpecMismatch` against
    /// an existing epoch or, for a missing one, `BadSpec`/`BadOperator`
    /// from building its operator — after which the record inserts it in
    /// its first state: ingesting for an `Open`, sealed for a `Seal` whose
    /// `Open` was compacted or torn away. A fresh open builds its operator
    /// once; an attach builds none. An `Evict` removes its epoch, and the
    /// session with its last epoch. This is the only code that inserts
    /// into or removes from the store's sessions and epochs.
    pub(crate) fn apply(&mut self, record: &WalRecord) -> Result<(), RejectCode> {
        let Some((session, epoch)) = record.target() else { return Ok(()) };
        if matches!(*record, WalRecord::Seal { m, ref y_bits, .. } if y_bits.len() != m as usize) {
            return Err(RejectCode::BadSketch);
        }
        let named = match *record {
            WalRecord::Open { m, n, seed, op_kind, op_param, .. }
            | WalRecord::Seal { m, n, seed, op_kind, op_param, .. } => {
                Some(self.limits.descriptor(m, n, seed, op_kind, op_param)?)
            }
            _ => None,
        };
        let sealed = match *record {
            WalRecord::Seal { nodes, duplicates, ref y_bits, .. } => {
                let y = Vector::from_vec(y_bits.iter().map(|&b| f64::from_bits(b)).collect());
                Some(EpochState::Sealed { y, nodes, duplicates, recovered: false })
            }
            _ => None,
        };
        let ep = match self.epoch_mut(session, epoch) {
            Ok(ep) => ep,
            Err(code) => {
                let Some(op) = named else {
                    // A recover-done, forward-done or evict of an epoch
                    // gone (evicted before a snapshot or already) is a no-op.
                    return match record {
                        WalRecord::Ingest { .. } | WalRecord::Manifest { .. } => Err(code),
                        _ => Ok(()),
                    };
                };
                MeasurementSpec::new(op.m, op.n, op.seed).map_err(|_| RejectCode::BadSpec)?;
                // Any other construction failure is an operator-parameter
                // problem (dense with a nonzero param, sparse density out
                // of range, SRHT m over the padded width).
                op.build().map_err(|_| RejectCode::BadOperator)?;
                let cap = self.limits.max_nodes_per_epoch;
                let pad = || EpochState::Ingest(Arc::new(IngestPad::new(&op, cap)));
                let first = Epoch {
                    state: sealed.unwrap_or_else(pad),
                    op,
                    topology: None,
                    forwarded: false,
                };
                self.sessions.entry(session).or_default().epochs.insert(epoch, first);
                return Ok(());
            }
        };
        if let Some(op) = named {
            // Re-opening is how additional connections attach to the same
            // epoch — legal only when they agree on geometry, seed and
            // operator; sketches made under different operators must never
            // be summed.
            if ep.op != op {
                return Err(RejectCode::SpecMismatch);
            }
            // A seal compacts the epoch; a replayed recovered mark survives
            // a duplicated seal.
            if let Some(EpochState::Sealed { y, nodes, duplicates, .. }) = sealed {
                let recovered = ep.phase() == EpochPhase::Recovered;
                ep.state = EpochState::Sealed { y, nodes, duplicates, recovered };
            }
            return Ok(());
        }
        match *record {
            WalRecord::Ingest { node, seed, ref payload, .. } => match &ep.state {
                // The live paths' slot claim; a member's duplicate is
                // already counted, so it stays out of the tally.
                EpochState::Ingest(pad) => {
                    if let Some(code) = pad.claim(node, seed, payload, false).refusal() {
                        return Err(code);
                    }
                }
                EpochState::Sealed { .. } if seed != ep.op.seed => {
                    return Err(RejectCode::SeedMismatch);
                }
                // Replayed after the (authoritative) seal that froze it:
                // already counted.
                EpochState::Sealed { .. } => {}
            },
            // Against a still-ingesting epoch (a torn-reordered duplicate)
            // a recover-done is a no-op.
            WalRecord::RecoverDone { .. } => {
                if let EpochState::Sealed { recovered, .. } = &mut ep.state {
                    *recovered = true;
                }
            }
            WalRecord::ForwardDone { .. } => ep.forwarded = true,
            WalRecord::Evict { .. } => {
                let epochs = &mut self.sessions.get_mut(&session).expect("a live session").epochs;
                epochs.remove(&epoch);
                if epochs.is_empty() {
                    self.sessions.remove(&session);
                }
            }
            // After the seal the topology is frozen: a duplicate is a no-op.
            WalRecord::Manifest { region, leaf_lo, leaf_hi, fan_in, .. } => {
                if let EpochState::Ingest(_) = ep.state {
                    ep.declare_region(region, (leaf_lo, leaf_hi), fan_in)?;
                }
            }
            // Applied above, as the records that name the epoch's operator
            // (the clean-shutdown marker names no epoch).
            WalRecord::Open { .. } | WalRecord::Seal { .. } | WalRecord::CleanShutdown => {}
        }
        Ok(())
    }

    /// Applies a live transition's record through [`SessionStore::apply`]
    /// and hands it back as the effect to journal.
    fn applied(&mut self, record: WalRecord) -> Result<Effect, RejectCode> {
        self.apply(&record)?;
        Ok(Effect::Records(vec![record]))
    }

    /// Opens (or attaches to) an epoch: the mutation body validates its
    /// `Open` record and inserts a fresh epoch, which then meets the
    /// admission policy only live opens meet ([`SessionStore::admit`]).
    fn open(
        &mut self,
        conn: &mut ConnState,
        session: u64,
        epoch: u64,
        record: WalRecord,
        stats: &mut StoreStats,
    ) -> Result<(Message, Effect), RejectCode> {
        let attached = self.epoch_mut(session, epoch).map(|ep| ep.node_count()).ok();
        let new_session = !self.sessions.contains_key(&session);
        self.apply(&record)?;
        let (info, effect) = match attached {
            Some(nodes) => (nodes, Effect::None),
            None => {
                let evicted = self.admit(session, epoch, new_session, stats)?;
                stats.add("serve.epochs_opened", 1);
                (0, Effect::Records(std::iter::once(record).chain(evicted).collect()))
            }
        };
        conn.bound = Some((session, epoch));
        Ok((Message::Ack { of: TAG_OPEN_EPOCH, info }, effect))
    }

    /// The admission policy for the fresh epoch an open just inserted:
    /// past the epoch cap the session's lowest-id finished epoch is
    /// evicted, and past the session cap (when the open created the
    /// session) every epoch of the lowest-id session whose epochs are all
    /// finished. An epoch is finished once recovered or, on a relay, once
    /// sealed and forwarded ([`Epoch::finished`]). Each eviction is an
    /// `Evict` record applied through the mutation body, returned for the
    /// open to journal. With no such victim the open is `StoreFull`, and
    /// the unjournaled `Evict` of the fresh epoch undoes the insert.
    /// Mid-flight work — an ingesting epoch, or a sealed one not yet
    /// recovered or forwarded — is never evicted, and a refused open
    /// evicts nothing: a new session's one epoch is past the epoch cap only
    /// at a cap of zero, where nothing is evictable.
    fn admit(
        &mut self,
        session: u64,
        epoch: u64,
        new_session: bool,
        stats: &mut StoreStats,
    ) -> Result<Vec<WalRecord>, RejectCode> {
        let evict = |session, epoch| WalRecord::Evict { session, epoch };
        let sess = &self.sessions[&session];
        let (counter, victims) = if sess.epochs.len() > self.limits.max_epochs_per_session {
            let victim = sess.epochs.iter().find(|(_, e)| e.finished());
            ("serve.epochs_evicted", victim.map(|(&id, _)| vec![evict(session, id)]))
        } else if new_session && self.sessions.len() > self.limits.max_sessions {
            let finished = |s: &Session| s.epochs.values().all(Epoch::finished);
            let victim = self.sessions.iter().find(|(_, s)| finished(s));
            let victims = victim.map(|(&id, s)| s.epochs.keys().map(|&e| evict(id, e)).collect());
            ("serve.sessions_evicted", victims)
        } else {
            return Ok(Vec::new());
        };
        let Some(victims) = victims else {
            self.apply(&evict(session, epoch))?;
            return Err(RejectCode::StoreFull);
        };
        victims.iter().try_for_each(|record| self.apply(record))?;
        stats.add(counter, 1);
        Ok(victims)
    }

    /// Applies a relay's subtree declaration: its `Manifest` record goes
    /// through the mutation body, which validates it (see
    /// [`Epoch::declare_region`]). A sealed epoch's topology is frozen.
    /// Re-declaring an identical region acks without an effect (relay
    /// resume after reconnect).
    fn manifest(
        &mut self,
        session: u64,
        epoch: u64,
        record: WalRecord,
        stats: &mut StoreStats,
    ) -> Result<(Message, Effect), RejectCode> {
        if let EpochState::Sealed { .. } = self.epoch_mut(session, epoch)?.state {
            return Err(RejectCode::EpochSealed);
        }
        let declared =
            |store: &Self| store.topology_of(session, epoch).map_or(0, |t| t.regions.len() as u64);
        let before = declared(self);
        let effect = self.applied(record)?;
        let info = declared(self);
        if info == before {
            // Identical re-declaration: the relay resumed.
            return Ok((Message::Ack { of: TAG_RELAY_MANIFEST, info }, Effect::None));
        }
        stats.add("serve.manifests_accepted", 1);
        Ok((Message::Ack { of: TAG_RELAY_MANIFEST, info }, effect))
    }

    /// The relay-tier topology declared for `(session, epoch)`, if any.
    pub fn topology_of(&self, session: u64, epoch: u64) -> Option<&EpochTopology> {
        self.sessions.get(&session)?.epochs.get(&epoch)?.topology.as_ref()
    }

    /// Sealed epochs whose pre-sum has not yet been acked upstream — the
    /// relay forwarder's work queue, in deterministic `(session, epoch)`
    /// order. Each entry carries everything the upstream push needs.
    pub fn sealed_unforwarded(&self) -> Vec<PendingForward> {
        let mut out = Vec::new();
        for (&session, sess) in &self.sessions {
            for (&epoch, ep) in &sess.epochs {
                let EpochState::Sealed { y, nodes, .. } = &ep.state else { continue };
                if ep.forwarded {
                    continue;
                }
                out.push(PendingForward { session, epoch, op: ep.op, nodes: *nodes, y: y.clone() });
            }
        }
        out
    }

    /// Marks `(session, epoch)`'s pre-sum as acked upstream through the
    /// mutation body, returning the `ForwardDone` record to journal.
    /// [`Effect::None`] (nothing to journal) when the epoch is unknown or
    /// already marked: the no-op a duplicated ack resolves to.
    pub fn mark_forwarded(&mut self, session: u64, epoch: u64) -> Effect {
        match self.epoch_mut(session, epoch) {
            Ok(ep) if !ep.forwarded => {
                self.applied(WalRecord::ForwardDone { session, epoch }).unwrap_or(Effect::None)
            }
            _ => Effect::None,
        }
    }

    /// Answers an [`Message::EpochStatus`] query — read-only, so a client
    /// can probe lifecycle state after a reconnect without side effects.
    fn status(&self, session: u64, epoch: u64) -> Message {
        let Some(sess) = self.sessions.get(&session) else {
            return reject(RejectCode::UnknownSession);
        };
        let Some(ep) = sess.epochs.get(&epoch) else {
            return reject(RejectCode::UnknownEpoch);
        };
        Message::Status { epoch, phase: ep.phase().as_u8(), nodes: ep.node_count() }
    }

    fn ingest(
        &mut self,
        conn: &ConnState,
        node: u32,
        seed: u64,
        payload: &EncodedSketch,
        stats: &mut StoreStats,
    ) -> Result<(Message, Effect), RejectCode> {
        let (session, epoch) = conn.bound.ok_or(RejectCode::SketchBeforeOpen)?;
        let EpochState::Ingest(pad) = &self.epoch_mut(session, epoch)?.state else {
            return Err(RejectCode::EpochSealed);
        };
        // The lock-free path's slot claim. Under the store lock the pad is
        // not sealed (the seal swaps the state under it), so it never
        // answers `Unavailable` here. Dispatch callers journal under that
        // same lock, so an accepted claim's permit drops at once.
        let outcome = pad.ingest(node, seed, payload);
        outcome.reply(session, epoch, stats).ok_or(RejectCode::EpochSealed)
    }

    /// Seals an ingesting epoch: freezes its pad, then applies the
    /// self-contained seal record through the mutation body, which compacts
    /// the epoch to its canonical measurement.
    fn seal(
        &mut self,
        session: u64,
        epoch: u64,
        stats: &mut StoreStats,
    ) -> Result<(Message, Effect), RejectCode> {
        let ep = self.epoch_mut(session, epoch)?;
        let EpochState::Ingest(pad) = &ep.state else {
            return Err(RejectCode::DuplicateSeal);
        };
        // Close the pad, wait out in-flight claims, and fold every sketch
        // it holds, so the compacted measurement is the canonical sum over
        // *all* accepted nodes.
        let (nodes, y) = pad.seal();
        let duplicates = pad.duplicates.load(Ordering::Relaxed);
        let record = seal_record(session, epoch, &ep.op, nodes, duplicates, &y);
        let effect = self.applied(record)?;
        stats.add("serve.epochs_sealed", 1);
        Ok((Message::Ack { of: TAG_SEAL_EPOCH, info: nodes }, effect))
    }

    /// Detaches a recovery of a sealed, non-empty epoch: clones its
    /// measurement and hands the job its operator's cache slot
    /// ([`SessionStore::op_slot`]). A measurement BOMP would refuse — a
    /// fold can overflow finite sketches to infinity — is the clients'
    /// data at fault, so it is a `BadSketch` reject, answered before it
    /// touches the cache or allocates `Φ0`.
    fn begin_recover(
        &mut self,
        session: u64,
        epoch: u64,
        k: u32,
        policy: &RecoveryPolicy,
        stats: &mut StoreStats,
    ) -> Result<RecoverJob, RejectCode> {
        let ep = self.epoch_mut(session, epoch)?;
        let EpochState::Sealed { y, nodes, duplicates, .. } = &ep.state else {
            return Err(RejectCode::NotSealed);
        };
        if *nodes == 0 {
            return Err(RejectCode::EmptyEpoch);
        }
        if y.len() != ep.op.m || !y.iter().all(|v| v.is_finite()) {
            return Err(RejectCode::BadSketch);
        }
        let (op, y, nodes, duplicates) = (ep.op, y.clone(), *nodes, *duplicates);
        let (shared, evicted) = self.op_slot(&op, stats);
        Ok(RecoverJob {
            session,
            epoch,
            k,
            op,
            shared,
            evicted,
            y,
            nodes,
            duplicates,
            config: policy.effective(op.m, op.seed, k),
        })
    }

    /// The cache slot of `op`, counting the lookup as a hit or a miss. A
    /// miss swaps in an empty slot and hands back the one it displaced:
    /// that may hold the last reference to a resident `Φ0`, so the caller
    /// frees it after the store lock is released.
    fn op_slot(&mut self, op: &OpDescriptor, stats: &mut StoreStats) -> (OpSlot, Option<OpSlot>) {
        if let Some((cached, slot)) = &self.op_cache {
            if cached == op {
                stats.add("serve.op_cache_hits", 1);
                return (Arc::clone(slot), None);
            }
        }
        stats.add("serve.op_cache_misses", 1);
        let slot = OpSlot::default();
        let evicted = self.op_cache.replace((*op, Arc::clone(&slot)));
        (slot, evicted.map(|(_, slot)| slot))
    }

    /// Marks `(session, epoch)` recovered after a [`RecoverJob`] succeeded,
    /// through the mutation body, returning the `RecoverDone` record to
    /// journal. A no-op ([`Effect::None`]) when the epoch has been evicted
    /// in the meantime; repeatable (recover is repeatable).
    pub fn finish_recover(&mut self, session: u64, epoch: u64, stats: &mut StoreStats) -> Effect {
        if self.epoch_mut(session, epoch).is_err() {
            return Effect::None;
        }
        stats.add("serve.epochs_recovered", 1);
        self.applied(WalRecord::RecoverDone { session, epoch }).unwrap_or(Effect::None)
    }

    fn epoch_mut(&mut self, session: u64, epoch: u64) -> Result<&mut Epoch, RejectCode> {
        self.sessions
            .get_mut(&session)
            .ok_or(RejectCode::UnknownSession)?
            .epochs
            .get_mut(&epoch)
            .ok_or(RejectCode::UnknownEpoch)
    }

    // ---- lock-free ingest pads ----------------------------------------

    /// The [`IngestPad`] of `(session, epoch)` while it ingests, for the
    /// lock-free path to cache. `None` once the epoch is sealed (or if it
    /// never existed) — the caller's cue to fall back to
    /// [`SessionStore::dispatch`].
    pub fn pad_for(&self, session: u64, epoch: u64) -> Option<Arc<IngestPad>> {
        match &self.sessions.get(&session)?.epochs.get(&epoch)?.state {
            EpochState::Ingest(pad) => Some(Arc::clone(pad)),
            EpochState::Sealed { .. } => None,
        }
    }

    // ---- snapshot ------------------------------------------------------

    /// Serializes the store as the compacted journal that rebuilds it: a
    /// `u64` record count, then the framed records whose replay rebuilds
    /// each epoch, epochs in ascending `(session, epoch)` order. The
    /// inverse is [`SessionStore::from_snapshot_bytes`]. An ingesting
    /// epoch's members are read from its pad while claims may still run;
    /// serialized right after a journal rotation
    /// ([`Wal::cut_snapshot`](crate::wal::Wal::cut_snapshot)) under the
    /// same store guard, it holds every sketch journaled before the
    /// rotation, and a claim journaled after it replays as a duplicate.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let (mut out, mut count) = (vec![0u8; 8], 0u64);
        for (&session, sess) in &self.sessions {
            for (&epoch, ep) in &sess.epochs {
                ep.compacted(session, epoch, &mut |record| {
                    frame_record(&mut out, &record.encode());
                    count += 1;
                });
            }
        }
        out[..8].copy_from_slice(&count.to_le_bytes());
        out
    }
}

impl Epoch {
    /// Emits, in replay order, the records whose replay rebuilds this
    /// epoch: `Open`, each `Manifest`, then an `Ingest` per member while
    /// ingesting or the self-contained `Seal` (plus `RecoverDone` once
    /// recovered) after, and `ForwardDone` once acked upstream. A sealed
    /// epoch without manifests needs no `Open`: its `Seal` inserts it
    /// whole, with no ingest pad. An ingesting epoch's `duplicates` tally
    /// is not carried: as on journal replay, it restarts at zero.
    fn compacted(&self, session: u64, epoch: u64, emit: &mut impl FnMut(WalRecord)) {
        // Manifests apply only before the seal, so they keep the `Open`.
        if matches!(self.state, EpochState::Ingest(_)) || self.topology.is_some() {
            emit(open_record(session, epoch, &self.op));
        }
        if let Some(topo) = &self.topology {
            for (&region, &(leaf_lo, leaf_hi)) in &topo.regions {
                let fan_in = topo.fan_in;
                emit(WalRecord::Manifest { session, epoch, region, leaf_lo, leaf_hi, fan_in });
            }
        }
        match &self.state {
            EpochState::Ingest(pad) => {
                for (node, sketch) in pad.members() {
                    let payload = EncodedSketch::F64(sketch.as_slice().to_vec());
                    let (node, seed) = (node as u32, self.op.seed);
                    emit(WalRecord::Ingest { session, epoch, node, seed, payload });
                }
            }
            EpochState::Sealed { y, nodes, duplicates, recovered } => {
                emit(seal_record(session, epoch, &self.op, *nodes, *duplicates, y));
                if *recovered {
                    emit(WalRecord::RecoverDone { session, epoch });
                }
            }
        }
        if self.forwarded {
            emit(WalRecord::ForwardDone { session, epoch });
        }
    }
}

/// The `Open` record of an epoch measured by `op`.
fn open_record(session: u64, epoch: u64, op: &OpDescriptor) -> WalRecord {
    let (m, n, seed) = (op.m as u32, op.n as u64, op.seed);
    WalRecord::Open { session, epoch, m, n, seed, op_kind: op.kind.code(), op_param: op.param }
}

/// The self-contained `Seal` record of an epoch measured by `op`, whose
/// frozen membership of `nodes` folds to the canonical measurement `y`.
fn seal_record(
    session: u64,
    epoch: u64,
    op: &OpDescriptor,
    nodes: u64,
    duplicates: u64,
    y: &Vector,
) -> WalRecord {
    WalRecord::Seal {
        session,
        epoch,
        seed: op.seed,
        m: op.m as u32,
        n: op.n as u64,
        nodes,
        duplicates,
        op_kind: op.kind.code(),
        op_param: op.param,
        y_bits: y.iter().map(|v| v.to_bits()).collect(),
    }
}

/// Decodes an ingested sketch payload, or `None` unless it is an
/// `m`-length vector of finite values. The slot claim runs this one check
/// on every ingest path, before the WAL append: a NaN or infinite entry —
/// from an F64/F32 value or a Fixed16 `scale` — would otherwise be acked,
/// journaled, and fail the epoch's recovery.
fn decode_sketch(payload: &EncodedSketch, m: usize) -> Option<Vector> {
    let sketch = quantize::decode(payload);
    (sketch.len() == m && sketch.iter().all(|v| v.is_finite())).then_some(sketch)
}

/// A no-retry reject frame for a typed protocol error.
fn reject(code: RejectCode) -> Message {
    Message::Reject { code: code.as_u16(), retry_after_ms: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::ReplayError;
    use cso_core::{bomp_with_op, MeasurementOperator};
    use cso_distributed::quantize::SketchEncoding;
    use cso_linalg::Vector;

    const M: u32 = 8;
    const N: u64 = 64;
    const SEED: u64 = 7;

    fn sketch_msg(node: u32, seed: u64) -> Message {
        let y = Vector::from_vec((0..M as usize).map(|i| (node as f64) + i as f64).collect());
        Message::Sketch { node, seed, payload: quantize::encode(&y, SketchEncoding::F64) }
    }

    fn open_msg() -> Message {
        Message::OpenEpoch { session: 1, epoch: 0, m: M, n: N, seed: SEED, op_kind: 0, op_param: 0 }
    }

    struct Fixture {
        store: SessionStore,
        conn: ConnState,
        policy: RecoveryPolicy,
        rec: Recorder,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                store: SessionStore::new(),
                conn: ConnState::new(),
                policy: RecoveryPolicy::default(),
                rec: Recorder::disabled(),
            }
        }

        fn send(&mut self, msg: &Message) -> Message {
            self.store.handle(&mut self.conn, msg, &self.policy, &self.rec).0
        }
    }

    fn code_of(reply: &Message) -> RejectCode {
        match reply {
            Message::Reject { code, .. } => RejectCode::from_u16(*code).expect("known code"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_walks_the_lifecycle() {
        let mut fx = Fixture::new();
        assert_eq!(fx.send(&open_msg()), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        assert_eq!(fx.store.epoch_phase(1, 0), Some(EpochPhase::Ingest));
        for node in 0..4 {
            assert_eq!(fx.send(&sketch_msg(node, SEED)), Message::Ack { of: TAG_SKETCH, info: 0 });
        }
        assert_eq!(
            fx.send(&Message::SealEpoch { session: 1, epoch: 0 }),
            Message::Ack { of: TAG_SEAL_EPOCH, info: 4 }
        );
        assert_eq!(fx.store.epoch_phase(1, 0), Some(EpochPhase::Sealed));
        let reply = fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 2 });
        assert!(matches!(reply, Message::Report { epoch: 0, .. }), "got {reply:?}");
        assert_eq!(fx.store.epoch_phase(1, 0), Some(EpochPhase::Recovered));
    }

    #[test]
    fn sketch_before_open_is_rejected_and_session_stays_usable() {
        let mut fx = Fixture::new();
        assert_eq!(code_of(&fx.send(&sketch_msg(0, SEED))), RejectCode::SketchBeforeOpen);
        // The same connection recovers by opening properly.
        fx.send(&open_msg());
        assert_eq!(fx.send(&sketch_msg(0, SEED)), Message::Ack { of: TAG_SKETCH, info: 0 });
    }

    #[test]
    fn duplicate_sketch_is_idempotent() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        assert_eq!(fx.send(&sketch_msg(0, SEED)), Message::Ack { of: TAG_SKETCH, info: 0 });
        assert_eq!(fx.send(&sketch_msg(0, SEED)), Message::Ack { of: TAG_SKETCH, info: 1 });
        assert_eq!(
            fx.send(&Message::SealEpoch { session: 1, epoch: 0 }),
            Message::Ack { of: TAG_SEAL_EPOCH, info: 1 }
        );
    }

    #[test]
    fn duplicate_seal_and_late_sketch_are_typed_errors() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        fx.send(&sketch_msg(0, SEED));
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        assert_eq!(
            code_of(&fx.send(&Message::SealEpoch { session: 1, epoch: 0 })),
            RejectCode::DuplicateSeal
        );
        assert_eq!(code_of(&fx.send(&sketch_msg(1, SEED))), RejectCode::EpochSealed);
        // The epoch is still recoverable after both errors.
        let reply = fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });
        assert!(matches!(reply, Message::Report { .. }));
    }

    #[test]
    fn recover_before_seal_and_on_empty_epoch_are_typed_errors() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        assert_eq!(
            code_of(&fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 })),
            RejectCode::NotSealed
        );
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        assert_eq!(
            code_of(&fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 })),
            RejectCode::EmptyEpoch
        );
        // The session still accepts a fresh epoch afterwards.
        assert_eq!(
            fx.send(&Message::OpenEpoch {
                session: 1,
                epoch: 1,
                m: M,
                n: N,
                seed: SEED,
                op_kind: 0,
                op_param: 0
            }),
            Message::Ack { of: TAG_OPEN_EPOCH, info: 0 }
        );
    }

    #[test]
    fn unknown_addresses_and_spec_mismatch_are_rejected() {
        let mut fx = Fixture::new();
        assert_eq!(
            code_of(&fx.send(&Message::SealEpoch { session: 9, epoch: 0 })),
            RejectCode::UnknownSession
        );
        fx.send(&open_msg());
        assert_eq!(
            code_of(&fx.send(&Message::SealEpoch { session: 1, epoch: 5 })),
            RejectCode::UnknownEpoch
        );
        assert_eq!(
            code_of(&fx.send(&Message::OpenEpoch {
                session: 1,
                epoch: 0,
                m: M,
                n: N,
                seed: 99,
                op_kind: 0,
                op_param: 0
            })),
            RejectCode::SpecMismatch
        );
        assert_eq!(code_of(&fx.send(&sketch_msg(0, 99))), RejectCode::SeedMismatch);
    }

    #[test]
    fn second_connection_attaches_to_the_same_epoch() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        fx.send(&sketch_msg(0, SEED));

        let mut conn2 = ConnState::new();
        let (reply, _) = fx.store.handle(&mut conn2, &open_msg(), &fx.policy, &fx.rec);
        assert_eq!(reply, Message::Ack { of: TAG_OPEN_EPOCH, info: 1 });
        let (reply, _) = fx.store.handle(&mut conn2, &sketch_msg(1, SEED), &fx.policy, &fx.rec);
        assert_eq!(reply, Message::Ack { of: TAG_SKETCH, info: 0 });
        assert_eq!(
            fx.send(&Message::SealEpoch { session: 1, epoch: 0 }),
            Message::Ack { of: TAG_SEAL_EPOCH, info: 2 }
        );
    }

    #[test]
    fn server_to_client_frames_are_unexpected_at_the_server() {
        let mut fx = Fixture::new();
        for msg in [
            Message::Ack { of: TAG_SKETCH, info: 0 },
            Message::Reject { code: 1, retry_after_ms: 5 },
            Message::Report { epoch: 0, mode: 0.0, outliers: vec![] },
            Message::Status { epoch: 0, phase: 0, nodes: 0 },
        ] {
            assert_eq!(code_of(&fx.send(&msg)), RejectCode::Unexpected);
        }
    }

    #[test]
    fn reject_codes_round_trip_their_wire_values() {
        for v in 1..=21u16 {
            let code = RejectCode::from_u16(v).expect("all codes defined");
            assert_eq!(code.as_u16(), v);
        }
        assert_eq!(RejectCode::from_u16(0), None);
        assert_eq!(RejectCode::from_u16(22), None);
    }

    /// The high-severity regression: an `OpenEpoch` with a hostile
    /// geometry must be a typed `BadSpec` reject — never an `m·n`
    /// allocation (or overflow) at recover time — and the store must stay
    /// usable afterwards.
    #[test]
    fn hostile_open_dimensions_are_typed_rejects() {
        let mut fx = Fixture::new();
        for (m, n) in [
            (M, 1u64 << 40),       // n beyond any sane key space
            (M, u64::MAX),         // m*n would overflow usize
            (M, 0),                // zero-dimensional
            (M, u64::from(M) - 1), // more measurements than keys
        ] {
            let msg = Message::OpenEpoch {
                session: 1,
                epoch: 0,
                m,
                n,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            };
            assert_eq!(code_of(&fx.send(&msg)), RejectCode::BadSpec, "m={m} n={n}");
        }
        // A rejected open leaves nothing behind: the session map is empty
        // and a well-formed open still works.
        assert_eq!(fx.store.session_count(), 0);
        assert_eq!(fx.send(&open_msg()), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
    }

    #[test]
    fn matrix_byte_cap_bounds_m_times_n() {
        let mut fx = Fixture::new();
        fx.store = SessionStore::with_limits(StoreLimits {
            max_matrix_bytes: 8 * u64::from(M) * N, // exactly one M×N f64 matrix
            ..StoreLimits::default()
        });
        assert_eq!(fx.send(&open_msg()), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        let over = Message::OpenEpoch {
            session: 1,
            epoch: 1,
            m: M,
            n: N + 1,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        assert_eq!(code_of(&fx.send(&over)), RejectCode::BadSpec);
    }

    /// Matrix-free epochs never materialize `Φ0`, so the matrix-byte cap
    /// gates only dense opens — an SRHT epoch with the same geometry is
    /// admitted where the dense one rejects.
    #[test]
    fn matrix_byte_cap_is_dense_only() {
        let mut fx = Fixture::new();
        fx.store = SessionStore::with_limits(StoreLimits {
            max_matrix_bytes: 8, // one f64: no dense epoch fits
            ..StoreLimits::default()
        });
        assert_eq!(code_of(&fx.send(&open_msg())), RejectCode::BadSpec);
        let srht = Message::OpenEpoch {
            session: 1,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 1,
            op_param: 0,
        };
        assert_eq!(fx.send(&srht), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
    }

    /// Operator validation at open: an unknown kind, an out-of-range
    /// sparse density, and a dense open with a nonzero parameter are all
    /// typed `BadOperator` rejects that leave no state behind.
    #[test]
    fn invalid_operators_are_typed_rejects() {
        let mut fx = Fixture::new();
        for (op_kind, op_param) in [
            (9, 0),                // unknown kind
            (2, 0),                // sparse density zero
            (2, u64::from(M) + 1), // sparse density over M
            (0, 3),                // dense takes no parameter
        ] {
            let msg = Message::OpenEpoch {
                session: 1,
                epoch: 0,
                m: M,
                n: N,
                seed: SEED,
                op_kind,
                op_param,
            };
            assert_eq!(
                code_of(&fx.send(&msg)),
                RejectCode::BadOperator,
                "kind={op_kind} param={op_param}"
            );
        }
        assert_eq!(fx.store.session_count(), 0);
        assert_eq!(fx.send(&open_msg()), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
    }

    /// Re-opening an epoch under a different operator is a spec mismatch:
    /// sketches made with different operators must never be summed.
    #[test]
    fn reopen_with_a_different_operator_is_a_spec_mismatch() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        let srht = Message::OpenEpoch {
            session: 1,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 1,
            op_param: 0,
        };
        assert_eq!(code_of(&fx.send(&srht)), RejectCode::SpecMismatch);
        let sparse = Message::OpenEpoch {
            session: 1,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 2,
            op_param: 4,
        };
        assert_eq!(code_of(&fx.send(&sparse)), RejectCode::SpecMismatch);
    }

    /// End-to-end matrix-free lifecycle: nodes sketch through the epoch's
    /// operator, and server-side recovery (which builds the operator
    /// from the epoch's descriptor, never materializing `Φ0`) finds the
    /// planted outlier.
    #[test]
    fn matrix_free_epoch_recovers_with_its_operator() {
        for (op_kind, op_param) in [(1u8, 0u64), (2u8, 6u64)] {
            let mut fx = Fixture::new();
            let m = 32u32;
            let open =
                Message::OpenEpoch { session: 1, epoch: 0, m, n: N, seed: SEED, op_kind, op_param };
            assert_eq!(fx.send(&open), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
            let backend = SketchBackend::from_wire(op_kind, op_param).expect("valid backend");
            let op = backend.build(m as usize, N as usize, SEED).expect("operator builds");
            for node in 0..2u32 {
                let mut slice = vec![50.0; N as usize];
                if node == 0 {
                    slice[17] += 4000.0; // the planted global outlier
                }
                let y = cso_core::MeasurementOp::apply(&op, &slice).expect("sketch");
                let sketch = Message::Sketch {
                    node,
                    seed: SEED,
                    payload: quantize::encode(&y, SketchEncoding::F64),
                };
                assert_eq!(fx.send(&sketch), Message::Ack { of: TAG_SKETCH, info: 0 });
            }
            fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
            let reply = fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });
            let Message::Report { mode, outliers, .. } = reply else {
                panic!("kind {op_kind}: expected report, got {reply:?}");
            };
            assert!((mode - 100.0).abs() < 1.0, "kind {op_kind}: mode {mode}");
            assert_eq!(outliers.len(), 1, "kind {op_kind}");
            assert_eq!(outliers[0].0, 17, "kind {op_kind}: wrong outlier key");
        }
    }

    /// A manifest whose `region · fan_in` overflows `u64` names no aligned
    /// block: it is a typed `TopologyMismatch`, neither a debug-build
    /// overflow panic nor (wrapped to 0) a block accepted as aligned.
    #[test]
    fn manifest_with_an_overflowing_block_is_a_topology_mismatch() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        let manifest = |region, leaf_lo, leaf_hi, fan_in| Message::RelayManifest {
            session: 1,
            epoch: 0,
            region,
            leaf_lo,
            leaf_hi,
            fan_in,
        };
        assert_eq!(code_of(&fx.send(&manifest(2, 0, 1, 1 << 63))), RejectCode::TopologyMismatch);
        assert_eq!(fx.store.topology_of(1, 0), None, "a refused manifest declares nothing");
        assert!(matches!(fx.send(&manifest(1, 4, 8, 4)), Message::Ack { info: 1, .. }));
    }

    /// Capacity is bounded and typed: pending work fills the store to its
    /// caps, further opens reject with `StoreFull`, and finished
    /// (recovered) epochs/sessions are evicted to make room.
    #[test]
    fn store_capacity_rejects_then_evicts_finished_work() {
        let limits =
            StoreLimits { max_sessions: 2, max_epochs_per_session: 2, ..Default::default() };
        let mut fx = Fixture::new();
        fx.store = SessionStore::with_limits(limits);

        // Fill session 1 with two in-flight epochs; a third must reject.
        for epoch in 0..2 {
            let open = Message::OpenEpoch {
                session: 1,
                epoch,
                m: M,
                n: N,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            };
            assert!(matches!(fx.send(&open), Message::Ack { .. }));
        }
        let third = Message::OpenEpoch {
            session: 1,
            epoch: 2,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        assert_eq!(code_of(&fx.send(&third)), RejectCode::StoreFull);

        // Recover epoch 1 (the one this connection is bound to); its slot
        // becomes evictable and the open lands.
        fx.send(&sketch_msg(0, SEED));
        fx.send(&Message::SealEpoch { session: 1, epoch: 1 });
        assert!(matches!(
            fx.send(&Message::RecoverEpoch { session: 1, epoch: 1, k: 1 }),
            Message::Report { .. }
        ));
        assert_eq!(fx.send(&third), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        assert_eq!(fx.store.epoch_phase(1, 1), None, "recovered epoch was evicted");

        // Session capacity: sessions 1 and 2 exist, session 3 rejects
        // while both are mid-flight…
        fx.send(&Message::OpenEpoch {
            session: 2,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        });
        let s3 = Message::OpenEpoch {
            session: 3,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        assert_eq!(code_of(&fx.send(&s3)), RejectCode::StoreFull);

        // …then session 2 finishes entirely and is evicted to admit 3.
        fx.send(&sketch_msg(0, SEED)); // bound to (2, 0) by the open above
        fx.send(&Message::SealEpoch { session: 2, epoch: 0 });
        assert!(matches!(
            fx.send(&Message::RecoverEpoch { session: 2, epoch: 0, k: 1 }),
            Message::Report { .. }
        ));
        assert_eq!(fx.send(&s3), Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        assert_eq!(fx.store.epoch_phase(2, 0), None, "finished session was evicted");
    }

    /// Open precedence at a full store: both caps are reached, and a
    /// recovered epoch and a finished session could be evicted. An open
    /// with a bad geometry or operator answers its own code, not
    /// `StoreFull`, and evicts nothing and journals nothing, whether it
    /// names a new epoch of a full session (the epoch cap) or a new session
    /// (the session cap); a valid open then makes room and lands.
    #[test]
    fn a_refused_open_at_a_full_store_evicts_nothing() {
        let limits =
            StoreLimits { max_sessions: 2, max_epochs_per_session: 2, ..Default::default() };
        let mut store = SessionStore::with_limits(limits);
        let (policy, rec) = (RecoveryPolicy::default(), Recorder::disabled());
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        // Session 1: epoch 0 recovered, epoch 1 ingesting. Session 2: its
        // one epoch recovered.
        for (session, epoch) in [(1, 0), (2, 0)] {
            sealed_under(&mut store, (session, epoch), &op, 2);
            let recover = Message::RecoverEpoch { session, epoch, k: 1 };
            let reply = store.handle(&mut ConnState::new(), &recover, &policy, &rec).0;
            assert!(matches!(reply, Message::Report { .. }), "got {reply:?}");
        }
        let open = |session, epoch, n, op_kind, op_param| Message::OpenEpoch {
            session,
            epoch,
            m: M,
            n,
            seed: SEED,
            op_kind,
            op_param,
        };
        let reply = send(&mut store, &mut ConnState::new(), &open(1, 1, N, 0, 0)).0;
        assert_eq!(reply, Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        let refused = [
            (u64::from(M) - 1, 0, 0, RejectCode::BadSpec), // m > n
            (N, 9, 0, RejectCode::BadOperator),            // unknown kind
            (N, 2, u64::from(M) + 1, RejectCode::BadOperator), // sparse s = M + 1
        ];
        let dispatch = |store: &mut SessionStore, msg: &Message| {
            let mut stats = StoreStats::new();
            match store.dispatch(&mut ConnState::new(), msg, &policy, &mut stats) {
                Dispatch::Reply(reply, effect) => (reply, effect, stats),
                Dispatch::Recover(_) => panic!("an open is no recover"),
            }
        };
        for (session, epoch) in [(1, 2), (3, 0)] {
            for (n, op_kind, op_param, code) in refused {
                let (reply, effect, stats) =
                    dispatch(&mut store, &open(session, epoch, n, op_kind, op_param));
                let at = format!("({session}, {epoch}) n={n} kind={op_kind} param={op_param}");
                assert_eq!(code_of(&reply), code, "{at}");
                assert!(matches!(effect, Effect::None), "{at}");
                assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Recovered), "{at}");
                assert_eq!(store.epoch_phase(2, 0), Some(EpochPhase::Recovered), "{at}");
                assert_eq!(store.epoch_phase(session, epoch), None, "{at}");
                let evicted = stats.pending().iter().filter(|(name, _)| name.ends_with("_evicted"));
                assert_eq!(evicted.count(), 0, "{at}");
            }
        }
        let (reply, effect, stats) = dispatch(&mut store, &open(3, 0, N, 0, 0));
        assert_eq!(reply, Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        let Effect::Records(journaled) = effect else { panic!("{effect:?} journals nothing") };
        assert!(matches!(journaled[..], [WalRecord::Open { session: 3, epoch: 0, .. }, _]));
        assert_eq!(journaled[1], WalRecord::Evict { session: 2, epoch: 0 });
        assert!(stats.pending().contains(&("serve.sessions_evicted", 1)));
        assert_eq!(store.epoch_phase(2, 0), None, "the finished session made room");
        assert_eq!(store.epoch_phase(3, 0), Some(EpochPhase::Ingest));
        assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Recovered));
    }

    #[test]
    fn a_relay_evicts_its_forwarded_epochs_and_sessions() {
        // A relay never recovers: its epochs end sealed and forwarded.
        let limits =
            StoreLimits { max_sessions: 2, max_epochs_per_session: 2, ..Default::default() };
        let mut store = SessionStore::with_limits(limits);
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        let open = |session, epoch| Message::OpenEpoch {
            session,
            epoch,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        let ack = Message::Ack { of: TAG_OPEN_EPOCH, info: 0 };
        for epoch in 0..2 {
            sealed_under(&mut store, (1, epoch), &op, 2);
        }
        // Sealed but not yet forwarded is mid-flight: never evicted.
        let reply = send(&mut store, &mut ConnState::new(), &open(1, 2)).0;
        assert_eq!(code_of(&reply), RejectCode::StoreFull);
        for epoch in 0..2 {
            assert_eq!(store.epoch_phase(1, epoch), Some(EpochPhase::Sealed));
        }
        // Once forwarded, epoch 1 makes room; the unforwarded epoch 0
        // stays, lower id or not.
        assert!(matches!(store.mark_forwarded(1, 1), Effect::Records(_)));
        assert_eq!(send(&mut store, &mut ConnState::new(), &open(1, 2)).0, ack);
        assert_eq!(store.epoch_phase(1, 1), None, "the forwarded epoch was evicted");
        assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Sealed));
        // Session 2's one epoch is sealed, unforwarded: a third session
        // finds no finished session to evict (session 1 still ingests).
        sealed_under(&mut store, (2, 0), &op, 2);
        let reply = send(&mut store, &mut ConnState::new(), &open(3, 0)).0;
        assert_eq!(code_of(&reply), RejectCode::StoreFull);
        assert_eq!(store.epoch_phase(2, 0), Some(EpochPhase::Sealed));
        assert_eq!(store.epoch_phase(3, 0), None);
        // Once every epoch of session 2 is forwarded, it is finished.
        assert!(matches!(store.mark_forwarded(2, 0), Effect::Records(_)));
        let mut stats = StoreStats::new();
        let policy = RecoveryPolicy::default();
        let opened = store.dispatch(&mut ConnState::new(), &open(3, 0), &policy, &mut stats);
        assert!(matches!(opened, Dispatch::Reply(ref reply, _) if *reply == ack));
        assert!(stats.pending().contains(&("serve.sessions_evicted", 1)));
        assert_eq!(store.epoch_phase(2, 0), None, "the forwarded session was evicted");
        assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Sealed));
        assert_eq!(store.epoch_phase(3, 0), Some(EpochPhase::Ingest));
    }

    /// Sealing compacts the epoch to its canonical measurement; attach,
    /// repeat recovery, and the recovered bits all survive compaction.
    #[test]
    fn recover_is_repeatable_after_seal_compaction() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        for node in 0..3 {
            fx.send(&sketch_msg(node, SEED));
        }
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        let first = fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 2 });
        let second = fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 2 });
        assert_eq!(first, second, "recovery must be repeatable bit-for-bit");
        // A late attach still reports the frozen membership count.
        let mut conn2 = ConnState::new();
        let (reply, _) = fx.store.handle(&mut conn2, &open_msg(), &fx.policy, &fx.rec);
        assert_eq!(reply, Message::Ack { of: TAG_OPEN_EPOCH, info: 3 });
    }

    /// The two-phase dispatch: a valid recover yields a job runnable
    /// without the store, and `finish_recover` flips the phase after.
    #[test]
    fn dispatch_detaches_recovery_from_the_store() {
        let mut fx = Fixture::new();
        fx.send(&open_msg());
        fx.send(&sketch_msg(0, SEED));
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        let msg = Message::RecoverEpoch { session: 1, epoch: 0, k: 1 };
        let mut stats = StoreStats::new();
        let Dispatch::Recover(job) = fx.store.dispatch(&mut fx.conn, &msg, &fx.policy, &mut stats)
        else {
            panic!("expected a recover job");
        };
        assert_eq!(job.target(), (1, 0));
        // The store is untouched (and could serve other connections) while
        // the job runs.
        assert_eq!(fx.store.epoch_phase(1, 0), Some(EpochPhase::Sealed));
        let (reply, summary) = job.run();
        assert!(matches!(reply, Message::Report { .. }));
        assert_eq!(summary.expect("summary").nodes, 1);
        fx.store.finish_recover(1, 0, &mut stats);
        assert_eq!(fx.store.epoch_phase(1, 0), Some(EpochPhase::Recovered));
        // The deferred recordings carry exactly what the critical
        // sections observed, ready to flush outside any lock.
        assert!(stats.pending().contains(&("serve.epochs_recovered", 1)));
    }

    /// `EpochStatus` tracks the lifecycle without side effects, and its
    /// misses are the same typed rejects as every other addressed message.
    #[test]
    fn status_reports_phase_and_membership() {
        let mut fx = Fixture::new();
        let status = Message::EpochStatus { session: 1, epoch: 0 };
        assert_eq!(code_of(&fx.send(&status)), RejectCode::UnknownSession);
        fx.send(&open_msg());
        assert_eq!(
            code_of(&fx.send(&Message::EpochStatus { session: 1, epoch: 9 })),
            RejectCode::UnknownEpoch
        );
        assert_eq!(fx.send(&status), Message::Status { epoch: 0, phase: 0, nodes: 0 });
        fx.send(&sketch_msg(0, SEED));
        fx.send(&sketch_msg(1, SEED));
        assert_eq!(fx.send(&status), Message::Status { epoch: 0, phase: 0, nodes: 2 });
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        assert_eq!(fx.send(&status), Message::Status { epoch: 0, phase: 1, nodes: 2 });
        fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });
        assert_eq!(fx.send(&status), Message::Status { epoch: 0, phase: 2, nodes: 2 });
    }

    /// Snapshot round-trip: an ingesting epoch, a sealed epoch, and a
    /// recovered epoch all survive serialize → deserialize bit-for-bit
    /// (the re-encoded snapshot is byte-identical).
    #[test]
    fn snapshot_round_trips_every_phase() {
        let mut fx = Fixture::new();
        // Epoch 0: sealed + recovered. Epoch 1: sealed. Epoch 2: ingesting.
        for epoch in 0..3u64 {
            let open = Message::OpenEpoch {
                session: 1,
                epoch,
                m: M,
                n: N,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            };
            fx.send(&open);
            fx.send(&sketch_msg(epoch as u32, SEED)); // bound to latest open
            fx.send(&sketch_msg(epoch as u32 + 10, SEED));
        }
        fx.send(&Message::SealEpoch { session: 1, epoch: 0 });
        fx.send(&Message::SealEpoch { session: 1, epoch: 1 });
        fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });

        let bytes = fx.store.snapshot_bytes();
        let rebuilt = SessionStore::from_snapshot_bytes(&bytes, StoreLimits::default())
            .expect("valid snapshot");
        assert_eq!(rebuilt.snapshot_bytes(), bytes, "round-trip must be exact");
        assert_eq!(rebuilt.epoch_phase(1, 0), Some(EpochPhase::Recovered));
        assert_eq!(rebuilt.epoch_phase(1, 1), Some(EpochPhase::Sealed));
        assert_eq!(rebuilt.epoch_phase(1, 2), Some(EpochPhase::Ingest));

        // Truncations of a valid snapshot are typed errors, not panics.
        for cut in 0..bytes.len() {
            assert!(
                SessionStore::from_snapshot_bytes(&bytes[..cut], StoreLimits::default()).is_err()
            );
        }
    }

    /// A sealed epoch without manifests compacts to its lone `Seal`: a
    /// store holding sealed, recovered, forwarded, manifest-carrying and
    /// ingesting epochs reloads from its snapshot equal to the live store,
    /// building a pad only for the epochs whose `Open` the snapshot keeps.
    #[test]
    fn snapshot_restores_sealed_epochs_without_a_pad() {
        let mut fx = Fixture::new();
        for epoch in 0..4u64 {
            let open = Message::OpenEpoch {
                session: 1,
                epoch,
                m: M,
                n: N,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            };
            fx.send(&open);
            for node in [0, 1, 0] {
                fx.send(&sketch_msg(node + 2 * epoch as u32, SEED)); // one duplicate
            }
        }
        // Epoch 0: recovered. Epoch 1: sealed and forwarded. Epoch 2:
        // sealed with a relay manifest. Epoch 3: ingesting.
        let manifest = Message::RelayManifest {
            session: 1,
            epoch: 2,
            region: 0,
            leaf_lo: 0,
            leaf_hi: 2,
            fan_in: 2,
        };
        assert!(matches!(fx.send(&manifest), Message::Ack { .. }));
        for epoch in 0..3 {
            fx.send(&Message::SealEpoch { session: 1, epoch });
        }
        fx.send(&Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });
        fx.store.apply(&WalRecord::ForwardDone { session: 1, epoch: 1 }).unwrap();

        let marks = |store: &SessionStore| -> Vec<_> {
            let epochs = &store.sessions[&1].epochs;
            let marks = epochs.iter().map(|(&epoch, ep)| {
                let sealed = match ep.state {
                    EpochState::Sealed { nodes, duplicates, recovered, .. } => {
                        Some((nodes, duplicates, recovered))
                    }
                    EpochState::Ingest(_) => None,
                };
                let regions = ep.topology.as_ref().map(|t| t.regions.clone());
                (epoch, ep.op, ep.phase(), ep.node_count(), sealed, regions, ep.forwarded)
            });
            marks.collect()
        };
        let live = marks(&fx.store);
        assert_eq!(live[0].4, Some((2, 1, true)));
        assert_eq!(live[1].4, Some((2, 1, false)));
        assert!(live[1].6 && live[2].5.is_some());

        let bytes = fx.store.snapshot_bytes();
        PADS.with(|pads| pads.set(0));
        let rebuilt = SessionStore::from_snapshot_bytes(&bytes, StoreLimits::default())
            .expect("valid snapshot");
        assert_eq!(PADS.with(|pads| pads.get()), 2, "pads only for epochs 2 and 3");
        assert_eq!(marks(&rebuilt), live);
        assert_eq!(rebuilt.snapshot_bytes(), bytes);
    }

    /// Replayed records are idempotent: applying the same transition twice
    /// leaves the store byte-identical to applying it once.
    #[test]
    fn replay_is_idempotent() {
        let payload = {
            let y = Vector::from_vec((0..M as usize).map(|i| i as f64).collect());
            quantize::encode(&y, SketchEncoding::F64)
        };
        let open = WalRecord::Open {
            session: 1,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        let ingest = WalRecord::Ingest { session: 1, epoch: 0, node: 3, seed: SEED, payload };
        let nodes = |store: &SessionStore| match store.status(1, 0) {
            Message::Status { nodes, .. } => nodes,
            other => panic!("expected a status, got {other:?}"),
        };
        let mut store = SessionStore::new();
        open.replay(&mut store).unwrap();
        ingest.replay(&mut store).unwrap();
        assert_eq!(nodes(&store), 1, "the first ingest replay applies");
        let once = store.snapshot_bytes();

        open.replay(&mut store).unwrap();
        ingest.replay(&mut store).unwrap();
        assert_eq!(nodes(&store), 1, "the duplicate ingest replay does not");
        assert_eq!(store.snapshot_bytes(), once, "duplicate replay is a no-op");

        // Seal is self-contained: replaying it onto a store whose ingest
        // records were torn away still installs the canonical measurement.
        let seal = WalRecord::Seal {
            session: 1,
            epoch: 0,
            seed: SEED,
            m: M,
            n: N,
            nodes: 1,
            duplicates: 0,
            op_kind: 0,
            op_param: 0,
            y_bits: (0..M).map(|i| (2.0 * i as f64).to_bits()).collect(),
        };
        let recovered = WalRecord::RecoverDone { session: 1, epoch: 0 };
        let mut bare = SessionStore::new();
        seal.replay(&mut bare).unwrap();
        assert_eq!(bare.epoch_phase(1, 0), Some(EpochPhase::Sealed));
        recovered.replay(&mut bare).unwrap();
        assert_eq!(bare.epoch_phase(1, 0), Some(EpochPhase::Recovered));
        // Replaying the seal again preserves the recovered phase.
        seal.replay(&mut bare).unwrap();
        assert_eq!(bare.epoch_phase(1, 0), Some(EpochPhase::Recovered));
        // A recover replayed against a still-ingesting epoch is a no-op.
        let mut fresh = SessionStore::new();
        open.replay(&mut fresh).unwrap();
        recovered.replay(&mut fresh).unwrap();
        assert_eq!(fresh.epoch_phase(1, 0), Some(EpochPhase::Ingest));
    }

    /// A snapshot replays through `open`'s bounds, so a hostile geometry
    /// is a typed error before anything is sized by it.
    #[test]
    fn hostile_snapshot_geometry_is_a_typed_error() {
        let limits = StoreLimits::default();
        for (m, n) in [(u32::MAX, u64::MAX), (M, limits.max_n + 1)] {
            let open =
                WalRecord::Open { session: 1, epoch: 0, m, n, seed: SEED, op_kind: 0, op_param: 0 };
            let mut bytes = 1u64.to_le_bytes().to_vec();
            frame_record(&mut bytes, &open.encode());
            let code = RejectCode::BadSpec;
            assert_eq!(
                SessionStore::from_snapshot_bytes(&bytes, limits).err(),
                Some(ReplayError::Rejected { kind: open.kind(), session: 1, epoch: 0, code }),
                "m = {m}, n = {n}"
            );
        }
    }

    // ---- chunked ingest pad ---------------------------------------------

    /// An `M`-length sketch with irregular mantissas, so any change of
    /// summation order shows in the bits.
    fn irregular(id: u32) -> Vector {
        Vector::from_vec(
            (0..M as usize)
                .map(|i| ((id as f64 + 1.0) * 0.73 + i as f64 * 1.37).sin() * 1e3)
                .collect(),
        )
    }

    fn irregular_payload(id: u32) -> EncodedSketch {
        quantize::encode(&irregular(id), SketchEncoding::F64)
    }

    fn irregular_msg(node: u32) -> Message {
        Message::Sketch { node, seed: SEED, payload: irregular_payload(node) }
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The flat dyadic fold over `(node, sketch id)` pairs.
    fn fold_bits(members: impl IntoIterator<Item = (u32, u32)>) -> Vec<u64> {
        let sketches: Vec<(usize, Vector)> =
            members.into_iter().map(|(node, id)| (node as usize, irregular(id))).collect();
        let refs: Vec<(usize, &Vector)> = sketches.iter().map(|(n, s)| (*n, s)).collect();
        bits(&cso_distributed::dyadic_fold(M as usize, &refs))
    }

    /// Opens (or attaches to) epoch `(1, 0)` over `n` keys.
    fn open_over(n: u64) -> Message {
        Message::OpenEpoch { session: 1, epoch: 0, m: M, n, seed: SEED, op_kind: 0, op_param: 0 }
    }

    fn send(store: &mut SessionStore, conn: &mut ConnState, msg: &Message) -> (Message, Effect) {
        let mut stats = StoreStats::new();
        match store.dispatch(conn, msg, &RecoveryPolicy::default(), &mut stats) {
            Dispatch::Reply(reply, effect) => (reply, effect),
            Dispatch::Recover(_) => panic!("unexpected recover job"),
        }
    }

    /// A store whose epoch `(1, 0)` is open over `n` keys, bound to the
    /// returned connection.
    fn opened(n: u64, max_nodes_per_epoch: usize) -> (SessionStore, ConnState) {
        let mut store = SessionStore::with_limits(StoreLimits {
            max_nodes_per_epoch,
            ..StoreLimits::default()
        });
        let mut conn = ConnState::new();
        assert!(matches!(send(&mut store, &mut conn, &open_over(n)).0, Message::Ack { .. }));
        (store, conn)
    }

    /// Seals `(1, 0)`; returns the journaled node count, duplicate count
    /// and measurement bits.
    fn seal_bits(store: &mut SessionStore) -> (u64, u64, Vec<u64>) {
        let seal = Message::SealEpoch { session: 1, epoch: 0 };
        match WalRecord::of_effect(&send(store, &mut ConnState::new(), &seal).1, &seal) {
            Some(WalRecord::Seal { nodes, duplicates, y_bits, .. }) => (nodes, duplicates, y_bits),
            other => panic!("expected a seal effect, got {other:?}"),
        }
    }

    /// A report's mode and outlier bits.
    type ReportBits = (u64, Vec<(u32, u64)>);

    fn report_bits(reply: &Message) -> ReportBits {
        let Message::Report { mode, outliers, .. } = reply else {
            panic!("expected a report, got {reply:?}");
        };
        (mode.to_bits(), outliers.iter().map(|&(i, v)| (i, v.to_bits())).collect())
    }

    /// The report a fresh, uncached recovery of `y` under `op` gives:
    /// `bomp(spec)` for the dense backend, `bomp_with_op(op.build())` for
    /// the matrix-free ones.
    fn fresh_report(op: &OpDescriptor, y: &Vector, k: u32) -> ReportBits {
        let config = RecoveryPolicy::default().effective(op.m, op.seed, k);
        let result = match op.build().expect("operator builds") {
            MeasurementOperator::Dense(dense) => cso_core::bomp(&dense, y, &config),
            built => bomp_with_op(&built, y, &config),
        }
        .expect("bomp");
        let top = result.top_k(k as usize);
        (result.mode.to_bits(), top.iter().map(|o| (o.index as u32, o.value.to_bits())).collect())
    }

    /// Claims at both edges of a chunk and at the last legal id land in
    /// the pad; the first id past the bound is a typed reject on the pad
    /// and on the locked path alike, and the seal holds none of it.
    #[test]
    fn pad_claims_at_chunk_edges_and_past_capacity_are_typed_rejects() {
        let cap = 600;
        let (mut store, mut conn) = opened(1024, cap);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        let edges = [0, PAD_CHUNK - 1, PAD_CHUNK, cap - 1].map(|n| n as u32);
        for node in edges {
            assert!(matches!(
                pad.ingest(node, SEED, &irregular_payload(node)),
                PadIngest::Accepted(_)
            ));
            assert!(matches!(
                pad.ingest(node, SEED, &irregular_payload(node)),
                PadIngest::Duplicate
            ));
        }
        let past = cap as u32;
        let outcome = pad.ingest(past, SEED, &irregular_payload(past));
        assert!(matches!(outcome, PadIngest::NodeOutOfRange));
        let (reply, effect) = send(&mut store, &mut conn, &irregular_msg(past));
        assert_eq!(code_of(&reply), RejectCode::NodeOutOfRange);
        assert!(matches!(effect, Effect::None));
        let (nodes, duplicates, y) = seal_bits(&mut store);
        assert_eq!((nodes, duplicates), (4, 4));
        assert_eq!(y, fold_bits(edges.map(|n| (n, n))));
    }

    /// Members ingested on the store-locked path sit in the pad's slots:
    /// their retransmits to the pad are duplicates, a pad member's
    /// retransmit to the locked path is one too, and their neighbours claim
    /// the same chunks normally.
    #[test]
    fn pad_members_from_the_locked_path_are_duplicates_on_the_pad() {
        let (mut store, mut conn) = opened(1024, 1 << 16);
        let members = [5u32, 300, 700];
        for node in members {
            let reply = send(&mut store, &mut conn, &irregular_msg(node)).0;
            assert_eq!(reply, Message::Ack { of: TAG_SKETCH, info: 0 });
        }
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        assert_eq!(pad.allocated_slots().count(), 3 * PAD_CHUNK, "chunks 0, 1 and 2");
        for node in members {
            assert!(matches!(
                pad.ingest(node, SEED, &irregular_payload(node)),
                PadIngest::Duplicate
            ));
        }
        assert!(matches!(pad.ingest(301, SEED, &irregular_payload(301)), PadIngest::Accepted(_)));
        let reply = send(&mut store, &mut conn, &irregular_msg(301)).0;
        assert_eq!(reply, Message::Ack { of: TAG_SKETCH, info: 1 });
        let (nodes, duplicates, y) = seal_bits(&mut store);
        assert_eq!((nodes, duplicates), (4, 4));
        assert_eq!(y, fold_bits([5, 300, 301, 700].map(|n| (n, n))));
    }

    /// A snapshot leaves the pad open; a chunk first allocated after one
    /// snapshot is in the next one; a claim bounced by the seal allocates
    /// nothing.
    #[test]
    fn pad_snapshot_holds_a_chunk_allocated_mid_epoch() {
        let (mut store, _) = opened(1024, 1 << 16);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        assert!(matches!(pad.ingest(1, SEED, &irregular_payload(1)), PadIngest::Accepted(_)));
        let first = store.snapshot_bytes();
        assert_eq!(pad.allocated_slots().count(), PAD_CHUNK);
        assert!(matches!(pad.ingest(600, SEED, &irregular_payload(600)), PadIngest::Accepted(_)));
        assert_eq!(pad.allocated_slots().count(), 2 * PAD_CHUNK);

        let second = store.snapshot_bytes();
        for (snapshot, members) in [(first, vec![1]), (second, vec![1, 600])] {
            let mut rebuilt = SessionStore::from_snapshot_bytes(&snapshot, StoreLimits::default())
                .expect("valid snapshot");
            let sealed = (members.len() as u64, 0, fold_bits(members.iter().map(|&n| (n, n))));
            assert_eq!(seal_bits(&mut rebuilt), sealed);
        }

        assert!(matches!(pad.ingest(601, SEED, &irregular_payload(601)), PadIngest::Accepted(_)));
        assert_eq!(seal_bits(&mut store), (3, 0, fold_bits([1, 600, 601].map(|n| (n, n)))));
        assert!(matches!(pad.ingest(900, SEED, &irregular_payload(900)), PadIngest::Unavailable));
        assert_eq!(pad.allocated_slots().count(), 2 * PAD_CHUNK);
    }

    /// Two threads racing the first claim of a fresh chunk: exactly one
    /// wins, the other sees a duplicate, and the winner's sketch is the
    /// one sealed.
    #[test]
    fn pad_racing_first_claims_of_a_fresh_chunk_first_wins() {
        let (mut store, _) = opened(4096, 1 << 16);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        let mut winners = Vec::new();
        for chunk in 1..4096 / PAD_CHUNK {
            let node = (chunk * PAD_CHUNK + 7) as u32;
            let contenders = [node, node + 10_000];
            let barrier = std::sync::Barrier::new(2);
            let won: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = contenders
                    .map(|id| {
                        let (pad, barrier) = (&pad, &barrier);
                        s.spawn(move || {
                            let payload = irregular_payload(id);
                            barrier.wait();
                            match pad.ingest(node, SEED, &payload) {
                                PadIngest::Accepted(_) => true,
                                PadIngest::Duplicate => false,
                                other => panic!("unexpected outcome {other:?}"),
                            }
                        })
                    })
                    .into_iter()
                    .collect();
                handles.into_iter().map(|h| h.join().expect("claimer")).collect()
            });
            assert_eq!(won.iter().filter(|w| **w).count(), 1, "node {node}: {won:?}");
            winners.push((node, contenders[won.iter().position(|w| *w).expect("a winner")]));
        }
        let (nodes, duplicates, y) = seal_bits(&mut store);
        assert_eq!((nodes, duplicates), (winners.len() as u64, winners.len() as u64));
        assert_eq!(y, fold_bits(winners));
    }

    /// The pad's memory follows the nodes that arrive, not the key space.
    #[test]
    fn pad_for_a_huge_key_space_allocates_one_chunk_for_four_nodes() {
        let (mut store, _) = opened(1 << 20, StoreLimits::default().max_nodes_per_epoch);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        assert_eq!(pad.allocated_slots().count(), 0);
        for node in 0..4 {
            assert!(matches!(
                pad.ingest(node, SEED, &irregular_payload(node)),
                PadIngest::Accepted(_)
            ));
        }
        assert!(pad.allocated_slots().count() <= PAD_CHUNK);
        assert_eq!(seal_bits(&mut store).0, 4);
    }

    /// A sketch with a NaN or infinite value — from an F64/F32 entry or a
    /// Fixed16 `scale` — is refused on the lock-free pad and on the
    /// store-locked path alike, before anything is journaled; the epoch
    /// then seals and recovers over the finite leaves exactly as the
    /// in-process fold + BOMP does.
    #[test]
    fn non_finite_sketches_are_rejected_before_the_journal() {
        use crate::wal::WalRecord;
        // Node ids 0..4 are legal; nodes 0 and 3 take the locked path.
        let (mut store, mut conn) = opened(N, 4);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        let mut f64s = irregular(9).into_vec();
        f64s[2] = f64::NAN;
        let mut f32s: Vec<f32> = irregular(9).iter().map(|&v| v as f32).collect();
        f32s[5] = f32::INFINITY;
        let fixed = |scale: f64| EncodedSketch::Fixed16 { values: vec![3; M as usize], scale };
        let mut neg_inf = irregular(9).into_vec();
        neg_inf[0] = f64::NEG_INFINITY;
        let poisoned = [
            EncodedSketch::F64(f64s),
            EncodedSketch::F32(f32s),
            fixed(f64::NAN),
            fixed(f64::INFINITY),
            EncodedSketch::F64(neg_inf),
        ];
        for payload in &poisoned {
            assert!(matches!(pad.ingest(1, SEED, payload), PadIngest::BadSketch), "{payload:?}");
            for node in [0, 3] {
                let msg = Message::Sketch { node, seed: SEED, payload: payload.clone() };
                let (reply, effect) = send(&mut store, &mut conn, &msg);
                assert_eq!(code_of(&reply), RejectCode::BadSketch, "node {node}: {payload:?}");
                assert!(WalRecord::of_effect(&effect, &msg).is_none(), "nothing to journal");
            }
        }
        // The refused nodes are not members: their finite sketches join.
        let leaves = [0u32, 1, 3];
        for node in leaves {
            let reply = send(&mut store, &mut conn, &irregular_msg(node)).0;
            assert_eq!(reply, Message::Ack { of: TAG_SKETCH, info: 0 });
        }
        let (nodes, duplicates, y) = seal_bits(&mut store);
        assert_eq!((nodes, duplicates), (3, 0));
        assert_eq!(y, fold_bits(leaves.map(|n| (n, n))));

        let k = 2;
        let recover = Message::RecoverEpoch { session: 1, epoch: 0, k };
        let policy = RecoveryPolicy::default();
        let Dispatch::Recover(job) =
            store.dispatch(&mut conn, &recover, &policy, &mut StoreStats::new())
        else {
            panic!("expected a recover job");
        };
        let y = Vector::from_vec(y.iter().map(|&b| f64::from_bits(b)).collect());
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        assert_eq!(report_bits(&job.run().0), fresh_report(&op, &y, k));
    }

    /// Two ingesters with overlapping id sets (duplicates included) race a
    /// thread that snapshots the open pad, then seals. Every accepted
    /// claim is sealed exactly once with the winner's bits, `Unavailable`
    /// is met only after the seal began, and each snapshot holds every
    /// claim accepted before its serialization began.
    #[test]
    fn pad_claims_racing_snapshots_and_seal_count_each_node_once() {
        use std::sync::Mutex;
        use std::time::{Duration, Instant};
        const SNAPSHOTS: usize = 4;
        const IDS: usize = 1200;
        // A bound on the run should a thread fail: nobody waits forever.
        let deadline = Instant::now() + Duration::from_secs(20);
        let (mut store, _) = opened(4096, 1 << 16);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        // Whether the seal has begun.
        let sealing = AtomicBool::new(false);
        // `(node, sketch id)` of every accepted claim, recorded under its
        // permit (as the server journals), and the duplicate outcomes.
        let accepted = Mutex::new(Vec::<(u32, u32)>::new());
        let duplicates = AtomicU64::new(0);
        let ingest = |ids: Vec<u32>, tag: u32| {
            let payloads: Vec<(u32, EncodedSketch)> =
                ids.into_iter().map(|n| (n, irregular_payload(n + tag))).collect();
            while Instant::now() < deadline {
                for (node, payload) in &payloads {
                    match pad.ingest(*node, SEED, payload) {
                        PadIngest::Accepted(_) => {
                            accepted.lock().unwrap().push((*node, node + tag))
                        }
                        PadIngest::Duplicate => {
                            duplicates.fetch_add(1, Ordering::Relaxed);
                        }
                        PadIngest::Unavailable => {
                            assert!(
                                sealing.load(Ordering::SeqCst),
                                "node {node}: Unavailable before the seal began"
                            );
                            return;
                        }
                        other => panic!("node {node}: unexpected outcome {other:?}"),
                    }
                }
                std::thread::yield_now();
            }
        };
        let (snapshots, sealed) = std::thread::scope(|s| {
            s.spawn(|| ingest((0..IDS as u32 * 2 / 3).collect(), 0));
            s.spawn(|| ingest((IDS as u32 / 3..IDS as u32).rev().collect(), 10_000));
            let mut snapshots = Vec::new();
            for k in 1..=SNAPSHOTS {
                // Snapshot at k fifths of the first pass, so snapshots land
                // mid-ingest.
                while accepted.lock().unwrap().len() < k * IDS / (SNAPSHOTS + 1)
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                let before = accepted.lock().unwrap().clone();
                snapshots.push((before, store.snapshot_bytes()));
            }
            sealing.store(true, Ordering::SeqCst);
            (snapshots, seal_bits(&mut store))
        });
        assert!(Instant::now() < deadline, "the race ran out of time");
        let accepted = accepted.into_inner().unwrap();
        let mut nodes: Vec<u32> = accepted.iter().map(|&(node, _)| node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), accepted.len(), "a node was accepted twice");
        let (sealed_nodes, sealed_duplicates, y) = sealed;
        assert_eq!(sealed_nodes, accepted.len() as u64);
        assert_eq!(sealed_duplicates, duplicates.into_inner());
        assert_eq!(y, fold_bits(accepted.iter().copied()));
        for (k, (before, bytes)) in snapshots.into_iter().enumerate() {
            let mut rebuilt = SessionStore::from_snapshot_bytes(&bytes, StoreLimits::default())
                .expect("valid snapshot");
            let pad = rebuilt.pad_for(1, 0).expect("ingesting epoch");
            let before: std::collections::BTreeSet<(u32, u32)> = before.into_iter().collect();
            for &(node, id) in &accepted {
                let outcome = pad.ingest(node, SEED, &irregular_payload(id));
                match outcome {
                    PadIngest::Duplicate => {}
                    PadIngest::Accepted(_) if !before.contains(&(node, id)) => {}
                    other => {
                        panic!("snapshot {k}, node {node} accepted before it: {other:?}")
                    }
                }
            }
            // Topped up with the claims it missed, the snapshot seals to
            // the live bits: it held only the winners' sketches.
            assert_eq!(seal_bits(&mut rebuilt).2, y, "snapshot {k}");
        }
    }

    /// Node ids are bounded per epoch: `max_nodes_per_epoch` and every id
    /// past it are typed `NodeOutOfRange` rejects on the store-locked path
    /// and on the lock-free pad, with nothing to journal; and a journal
    /// holding such an ingest replays to that typed refusal, not a panic.
    #[test]
    fn node_ids_past_the_epoch_bound_are_typed_rejects() {
        use crate::wal::{Durability, Wal, WalError};
        let limits = StoreLimits::default();
        let bound = limits.max_nodes_per_epoch as u32;
        let hostile = [bound, bound + 1, 1_000_000, u32::MAX];
        let (mut store, mut conn) = opened(N, limits.max_nodes_per_epoch);
        let pad = store.pad_for(1, 0).expect("ingesting epoch");
        for node in hostile {
            let msg = irregular_msg(node);
            let (reply, effect) = send(&mut store, &mut conn, &msg);
            assert_eq!(code_of(&reply), RejectCode::NodeOutOfRange, "locked path, node {node}");
            assert!(matches!(effect, Effect::None), "locked path, node {node}");
            assert!(WalRecord::of_effect(&effect, &msg).is_none(), "locked path, node {node}");

            let outcome = pad.ingest(node, SEED, &irregular_payload(node));
            assert!(matches!(outcome, PadIngest::NodeOutOfRange), "pad, node {node}");
            let (reply, effect) = outcome.reply(1, 0, &mut StoreStats::new()).expect("resolved");
            assert_eq!(code_of(&reply), RejectCode::NodeOutOfRange, "pad, node {node}");
            assert!(matches!(effect, Effect::None), "pad, node {node}");
            assert!(WalRecord::of_effect(&effect, &msg).is_none(), "pad, node {node}");
        }
        assert_eq!(seal_bits(&mut store).0, 0, "no hostile id is a member");

        let open = WalRecord::Open {
            session: 1,
            epoch: 0,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0,
        };
        for node in hostile {
            let dir = std::env::temp_dir()
                .join(format!("cso-session-node-bound-{}-{node}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
            let payload = irregular_payload(node);
            let ingest = WalRecord::Ingest { session: 1, epoch: 0, node, seed: SEED, payload };
            wal.append(&open, &mut StoreStats::new());
            wal.append(&ingest, &mut StoreStats::new());
            assert!(!wal.failed());
            drop(wal);
            let code = RejectCode::NodeOutOfRange;
            let refused = ReplayError::Rejected { kind: ingest.kind(), session: 1, epoch: 0, code };
            let recovered = SessionStore::recover_from(&dir, limits);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(
                matches!(&recovered, Err(WalError::Replay(e)) if *e == refused),
                "replay, node {node}: {:?}",
                recovered.err()
            );
        }
    }

    // ---- 1024-node seal ---------------------------------------------------

    const FAN_IN: u32 = 1024;

    /// The `i`-th arrival: a fixed scramble of `0..FAN_IN`.
    fn arrival(i: u32) -> u32 {
        (i * 389 + 17) % FAN_IN
    }

    /// Dispatches arrivals `range` into `(1, 0)` through a pad, as a
    /// server lane does.
    fn ingest_arrivals(store: &mut SessionStore, range: std::ops::Range<u32>) {
        let mut conn = ConnState::new();
        send(store, &mut conn, &open_over(4096));
        store.pad_for(1, 0).expect("ingesting epoch");
        for i in range {
            let reply = send(store, &mut conn, &irregular_msg(arrival(i))).0;
            assert_eq!(reply, Message::Ack { of: TAG_SKETCH, info: 0 });
        }
    }

    fn all_leaves() -> Vec<u64> {
        fold_bits((0..FAN_IN).map(|n| (n, n)))
    }

    #[test]
    fn seal_1024_nodes_through_dispatch_matches_the_dyadic_fold() {
        let (mut store, _) = opened(4096, 1 << 16);
        ingest_arrivals(&mut store, 0..FAN_IN);
        assert_eq!(seal_bits(&mut store), (FAN_IN as u64, 0, all_leaves()));
    }

    #[test]
    fn seal_1024_nodes_after_a_mid_ingest_snapshot_matches_the_dyadic_fold() {
        let (mut store, _) = opened(4096, 1 << 16);
        ingest_arrivals(&mut store, 0..FAN_IN / 2);
        let snapshot = store.snapshot_bytes();
        let mut rebuilt = SessionStore::from_snapshot_bytes(&snapshot, StoreLimits::default())
            .expect("valid snapshot");
        ingest_arrivals(&mut rebuilt, FAN_IN / 2..FAN_IN);
        assert_eq!(seal_bits(&mut rebuilt), (FAN_IN as u64, 0, all_leaves()));
    }

    /// An ingesting epoch's `duplicates` tally is not durable, whichever
    /// way the restart goes: a restart from a snapshot and one from the
    /// journal alone seal with the same `(nodes, duplicates, y)`.
    #[test]
    fn duplicates_reset_alike_on_snapshot_and_replay_restart() {
        use crate::wal::{Durability, Wal};
        let base = std::env::temp_dir().join(format!("cso-session-dups-{}", std::process::id()));
        let mut sealed = Vec::new();
        for via_snapshot in [false, true] {
            let dir = base.join(if via_snapshot { "snapshot" } else { "journal" });
            let _ = std::fs::remove_dir_all(&dir);
            let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
            let mut stats = StoreStats::new();
            let (mut live, mut conn) = (SessionStore::new(), ConnState::new());
            for msg in [open_over(N), irregular_msg(5), irregular_msg(5)] {
                let (_, effect) = send(&mut live, &mut conn, &msg);
                if let Some(record) = WalRecord::of_effect(&effect, &msg) {
                    wal.append(&record, &mut stats);
                }
            }
            if via_snapshot {
                wal.cut_snapshot(&mut stats)
                    .expect("cut")
                    .persist(&live.snapshot_bytes(), &mut stats);
            }
            assert!(!wal.failed());
            drop(wal);
            let (mut restarted, report) =
                SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
            assert_eq!(report.snapshot_loaded, via_snapshot);
            sealed.push(seal_bits(&mut restarted));
        }
        let _ = std::fs::remove_dir_all(&base);
        assert_eq!(sealed[0], sealed[1], "journal vs snapshot restart");
        assert_eq!(sealed[0], (1, 0, fold_bits([(5, 5)])));
    }

    /// The snapshot cut is the journal rotation: a claim accepted before
    /// the cut but journaled after it — its permit held across the
    /// rotation and the serialization — is in the snapshot and in segment
    /// `S` both. Snapshot plus tail restores it as a member exactly once,
    /// and the seal gives the live seal's bits.
    #[test]
    fn snapshot_cut_counts_a_claim_straddling_the_rotation_once() {
        use crate::wal::{Durability, Wal};
        let dir = std::env::temp_dir().join(format!("cso-session-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
        let mut stats = StoreStats::new();
        let (mut live, mut conn) = (SessionStore::new(), ConnState::new());
        let journal = |wal: &mut Wal, effect: &Effect, msg: &Message| {
            let record = WalRecord::of_effect(effect, msg).expect("journaled");
            wal.append(&record, &mut StoreStats::new());
        };
        for msg in [open_over(N), irregular_msg(1)] {
            let (_, effect) = send(&mut live, &mut conn, &msg);
            journal(&mut wal, &effect, &msg);
        }
        let pad = live.pad_for(1, 0).expect("ingesting epoch");
        let straddler = irregular_msg(2);
        let claim = pad.ingest(2, SEED, &irregular_payload(2));
        let (_, effect) = claim.reply(1, 0, &mut stats).expect("accepted");
        assert!(matches!(claim, PadIngest::Accepted(_)));
        let cut = wal.cut_snapshot(&mut stats).expect("cut");
        let bytes = live.snapshot_bytes();
        journal(&mut wal, &effect, &straddler);
        drop(claim);
        cut.persist(&bytes, &mut stats);
        let late = irregular_msg(3);
        let (_, effect) = send(&mut live, &mut conn, &late);
        journal(&mut wal, &effect, &late);
        assert!(!wal.failed());
        drop(wal);

        let mut snapshot = SessionStore::from_snapshot_bytes(&bytes, StoreLimits::default())
            .expect("valid snapshot");
        assert_eq!(seal_bits(&mut snapshot).0, 2, "the snapshot holds nodes 1 and 2");
        let (mut restarted, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 2, "the tail holds nodes 2 and 3");
        let restored = seal_bits(&mut restarted);
        assert_eq!(restored, (3, 0, fold_bits([1, 2, 3].map(|n| (n, n)))));
        assert_eq!(restored, seal_bits(&mut live), "snapshot + tail vs the live seal");
    }

    /// The session and epoch caps are admission policy for live opens;
    /// recovery rebuilds the whole store. A store filled to its session
    /// cap — in its snapshot and in the journal after it — reloads whole
    /// under those caps, and so it does under lowered caps.
    #[test]
    fn sharded_snapshot_over_one_shards_cap_recovers_whole() {
        use crate::wal::{Durability, Wal};
        let dir = std::env::temp_dir().join(format!("cso-session-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
        let mut stats = StoreStats::new();
        let limits = StoreLimits { max_sessions: 192, ..StoreLimits::default() };
        let mut live = SessionStore::with_limits(limits);
        let sessions = limits.max_sessions as u64;
        for session in 0..sessions {
            if session == 2 * sessions / 3 {
                wal.cut_snapshot(&mut stats)
                    .expect("cut")
                    .persist(&live.snapshot_bytes(), &mut stats);
            }
            let open = Message::OpenEpoch {
                session,
                epoch: 0,
                m: M,
                n: N,
                seed: SEED,
                op_kind: 0,
                op_param: 0,
            };
            let mut conn = ConnState::new();
            for msg in [open, irregular_msg(session as u32)] {
                let (reply, effect) = send(&mut live, &mut conn, &msg);
                assert!(matches!(reply, Message::Ack { .. }), "session {session}: {reply:?}");
                wal.append(&WalRecord::of_effect(&effect, &msg).expect("journaled"), &mut stats);
            }
        }
        assert!(!wal.failed());
        drop(wal);
        let live = live.snapshot_bytes();
        let lowered = StoreLimits { max_sessions: 1, max_epochs_per_session: 1, ..limits };
        for limits in [limits, lowered] {
            let (restored, report) = SessionStore::recover_from(&dir, limits).expect("recover");
            assert!(report.snapshot_loaded);
            assert_eq!(restored.session_count(), sessions as usize);
            assert!(restored.snapshot_bytes() == live, "restored store differs from the live one");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The open of `(session, epoch)` under `op`.
    fn open_under((session, epoch): (u64, u64), op: &OpDescriptor) -> Message {
        let (m, n, seed) = (op.m as u32, op.n as u64, op.seed);
        Message::OpenEpoch {
            session,
            epoch,
            m,
            n,
            seed,
            op_kind: op.kind.code(),
            op_param: op.param,
        }
    }

    /// A live store journaling every effect's records, as the server does,
    /// into a journal that never snapshots and one that snapshots when
    /// asked.
    struct Journaled {
        live: SessionStore,
        conn: ConnState,
        base: std::path::PathBuf,
        wals: Vec<(std::path::PathBuf, crate::wal::Wal)>,
    }

    impl Journaled {
        fn new(tag: &str, limits: StoreLimits) -> Self {
            use crate::wal::{Durability, Wal};
            let base =
                std::env::temp_dir().join(format!("cso-session-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&base);
            let wals = ["journal", "snapshotted"].map(|name| {
                let dir = base.join(name);
                let wal = Wal::open(&Durability::at(&dir)).expect("open journal");
                (dir, wal)
            });
            let live = SessionStore::with_limits(limits);
            Journaled { live, conn: ConnState::new(), base, wals: wals.into() }
        }

        /// Journals `effect`'s records, as the server does.
        fn journal(&mut self, effect: Effect, msg: &Message) {
            let records = match effect {
                Effect::Records(records) => records,
                other => WalRecord::of_effect(&other, msg).into_iter().collect(),
            };
            for (_, wal) in &mut self.wals {
                records.iter().for_each(|record| wal.append(record, &mut StoreStats::new()));
            }
        }

        /// Dispatches `msg` on the harness's connection, running a recovery
        /// inline, and journals the records the store applied.
        fn send(&mut self, msg: &Message) -> Message {
            let (policy, mut stats) = (RecoveryPolicy::default(), StoreStats::new());
            let (reply, effect) = match self.live.dispatch(&mut self.conn, msg, &policy, &mut stats)
            {
                Dispatch::Reply(reply, effect) => (reply, effect),
                Dispatch::Recover(job) => {
                    let (session, epoch) = job.target();
                    let (reply, summary) = job.run();
                    assert!(summary.is_some(), "recover of ({session}, {epoch}): {reply:?}");
                    (reply, self.live.finish_recover(session, epoch, &mut stats))
                }
            };
            self.journal(effect, msg);
            reply
        }

        /// Opens `at` under `op`, ingests nodes 0 and 1, seals, then
        /// recovers it — or, as a relay does, marks it forwarded.
        fn finish(&mut self, at: (u64, u64), op: &OpDescriptor, forward: bool) {
            assert!(matches!(self.send(&open_under(at, op)), Message::Ack { .. }));
            for node in 0..2 {
                let sketch =
                    Message::Sketch { node, seed: op.seed, payload: irregular_payload(node) };
                assert_eq!(self.send(&sketch), Message::Ack { of: TAG_SKETCH, info: 0 });
            }
            let (session, epoch) = at;
            self.send(&Message::SealEpoch { session, epoch });
            if forward {
                let effect = self.live.mark_forwarded(session, epoch);
                self.journal(effect, &Message::Introspect);
            } else {
                let reply = self.send(&Message::RecoverEpoch { session, epoch, k: 1 });
                assert!(matches!(reply, Message::Report { .. }), "got {reply:?}");
            }
        }

        /// Snapshots the live store into the snapshotting journal.
        fn snapshot(&mut self) {
            let mut stats = StoreStats::new();
            let cut = self.wals[1].1.cut_snapshot(&mut stats).expect("cut");
            cut.persist(&self.live.snapshot_bytes(), &mut stats);
        }

        /// Restarts from the live store's snapshot and from each journal,
        /// asserting that every restart rebuilds the live store, and
        /// returns the store the plain journal rebuilt.
        fn restarted(self) -> SessionStore {
            let (live, limits) = (self.live.snapshot_bytes(), self.live.limits);
            let restored = SessionStore::from_snapshot_bytes(&live, limits).expect("restore");
            assert!(restored.snapshot_bytes() == live, "the snapshot restore differs");
            let mut replayed = Vec::new();
            for (dir, wal) in self.wals {
                assert!(!wal.failed());
                drop(wal);
                let (store, _) = SessionStore::recover_from(&dir, limits)
                    .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
                assert!(store.snapshot_bytes() == live, "{} replay differs", dir.display());
                replayed.push(store);
            }
            let _ = std::fs::remove_dir_all(&self.base);
            replayed.swap_remove(0)
        }
    }

    /// Finishes `(1, 0)` and then `second`, whose open evicts it under
    /// `limits`; reuses `(1, 0)` under `reuse` — which evicts `second` —
    /// and acks node 5's sketch into it. Every restart is the live store:
    /// `(1, 0)` ingests node 5's sketch alone and `second` is gone.
    fn reuse_an_evicted_id(
        tag: &str,
        limits: StoreLimits,
        second: (u64, u64),
        reuse: &OpDescriptor,
        forward: bool,
    ) {
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        let mut journaled = Journaled::new(tag, limits);
        journaled.finish((1, 0), &op, forward);
        journaled.snapshot();
        journaled.finish(second, &op, forward);
        assert_eq!(journaled.live.epoch_phase(1, 0), None, "{tag}: the open evicted (1, 0)");
        let ack = Message::Ack { of: TAG_OPEN_EPOCH, info: 0 };
        assert_eq!(journaled.send(&open_under((1, 0), reuse)), ack, "{tag}");
        let sketch = Message::Sketch { node: 5, seed: reuse.seed, payload: irregular_payload(5) };
        assert_eq!(journaled.send(&sketch), Message::Ack { of: TAG_SKETCH, info: 0 }, "{tag}");

        let mut restarted = journaled.restarted();
        assert_eq!(restarted.epoch_phase(1, 0), Some(EpochPhase::Ingest), "{tag}");
        assert_eq!(restarted.epoch_phase(second.0, second.1), None, "{tag}");
        assert_eq!(seal_bits(&mut restarted), (1, 0, fold_bits([(5, 5)])), "{tag}");
    }

    #[test]
    fn evicted_id_reuse_under_the_same_operator_restarts_as_live() {
        let limits = StoreLimits { max_epochs_per_session: 1, ..StoreLimits::default() };
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        reuse_an_evicted_id("reuse-same-op", limits, (1, 1), &op, false);
    }

    #[test]
    fn evicted_id_reuse_under_another_operator_restarts_as_live() {
        let limits = StoreLimits { max_epochs_per_session: 1, ..StoreLimits::default() };
        let other = OpDescriptor::dense(M as usize, N as usize, SEED + 1);
        reuse_an_evicted_id("reuse-other-op", limits, (1, 1), &other, false);
    }

    #[test]
    fn evicted_id_reuse_after_a_session_cap_eviction_restarts_as_live() {
        let limits = StoreLimits { max_sessions: 1, ..StoreLimits::default() };
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        reuse_an_evicted_id("reuse-session-cap", limits, (2, 0), &op, false);
    }

    /// A relay's sealed, forwarded epochs are evicted alike.
    #[test]
    fn evicted_id_reuse_of_a_forwarded_relay_epoch_restarts_as_live() {
        let limits = StoreLimits { max_epochs_per_session: 1, ..StoreLimits::default() };
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        reuse_an_evicted_id("reuse-relay", limits, (1, 1), &op, true);
    }

    /// A refused open undoes its insert whole: opens of new sessions at an
    /// epoch cap of zero leave no session behind, and journal nothing.
    #[test]
    fn refused_opens_of_new_sessions_leave_no_session_behind() {
        let limits = StoreLimits { max_epochs_per_session: 0, ..StoreLimits::default() };
        let op = OpDescriptor::dense(M as usize, N as usize, SEED);
        let mut store = SessionStore::with_limits(limits);
        for session in 1..=3 {
            let (reply, effect) =
                send(&mut store, &mut ConnState::new(), &open_under((session, 0), &op));
            assert_eq!(code_of(&reply), RejectCode::StoreFull);
            assert!(matches!(effect, Effect::None));
        }
        assert_eq!((store.session_count(), store.epoch_count()), (0, 0));
        let bytes = store.snapshot_bytes();
        let restored = SessionStore::from_snapshot_bytes(&bytes, limits).expect("restore");
        assert_eq!(restored.session_count(), store.session_count());
        assert!(restored.snapshot_bytes() == bytes);
    }

    #[test]
    fn seal_1024_nodes_after_wal_replay_matches_the_dyadic_fold() {
        use crate::wal::{Durability, Wal, WalRecord};
        let dir =
            std::env::temp_dir().join(format!("cso-session-seal-1024-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
        let mut stats = StoreStats::new();
        let open = open_over(4096);
        let (mut live, mut conn) = (SessionStore::new(), ConnState::new());
        let (_, opened_effect) = send(&mut live, &mut conn, &open);
        wal.append(&WalRecord::of_effect(&opened_effect, &open).expect("open record"), &mut stats);
        for i in 0..FAN_IN {
            let msg = irregular_msg(arrival(i));
            let (_, effect) = send(&mut live, &mut conn, &msg);
            wal.append(&WalRecord::of_effect(&effect, &msg).expect("ingest record"), &mut stats);
        }
        assert!(!wal.failed());
        drop(wal);

        let (mut replayed, report) =
            SessionStore::recover_from(&dir, StoreLimits::default()).expect("replay");
        assert_eq!(report.replayed_records, 1 + FAN_IN as u64);
        assert_eq!(seal_bits(&mut replayed), (FAN_IN as u64, 0, all_leaves()));
        assert_eq!(seal_bits(&mut live), (FAN_IN as u64, 0, all_leaves()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- operator cache ------------------------------------------------

    /// Opens `(session, epoch)` under `op` (`op.m == M`), ingests the
    /// irregular sketches of nodes `0..nodes`, seals it, and returns its
    /// measurement.
    fn sealed_under(
        store: &mut SessionStore,
        (session, epoch): (u64, u64),
        op: &OpDescriptor,
        nodes: u32,
    ) -> Vector {
        let mut conn = ConnState::new();
        let open = open_under((session, epoch), op);
        assert_eq!(send(store, &mut conn, &open).0, Message::Ack { of: TAG_OPEN_EPOCH, info: 0 });
        for node in 0..nodes {
            let sketch = Message::Sketch { node, seed: op.seed, payload: irregular_payload(node) };
            assert_eq!(send(store, &mut conn, &sketch).0, Message::Ack { of: TAG_SKETCH, info: 0 });
        }
        let seal = Message::SealEpoch { session, epoch };
        match WalRecord::of_effect(&send(store, &mut conn, &seal).1, &seal) {
            Some(WalRecord::Seal { y_bits, .. }) => {
                Vector::from_vec(y_bits.iter().map(|&b| f64::from_bits(b)).collect())
            }
            other => panic!("expected a seal effect, got {other:?}"),
        }
    }

    /// Dispatches a recover of `(session, epoch)`, counting into `stats`.
    fn recover_job(
        store: &mut SessionStore,
        (session, epoch): (u64, u64),
        k: u32,
        stats: &mut StoreStats,
    ) -> RecoverJob {
        let msg = Message::RecoverEpoch { session, epoch, k };
        match store.dispatch(&mut ConnState::new(), &msg, &RecoveryPolicy::default(), stats) {
            Dispatch::Recover(job) => job,
            Dispatch::Reply(reply, _) => panic!("expected a recover job, got {reply:?}"),
        }
    }

    thread_local! {
        /// Shared operators this thread built into a cache slot.
        pub(super) static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Ingest pads this thread built.
        pub(super) static PADS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// `(hits, misses)` the buffered recordings count.
    fn cache_counts(stats: &StoreStats) -> (u64, u64) {
        let count = |name| stats.pending().iter().filter(|(n, _)| *n == name).map(|(_, v)| v).sum();
        (count("serve.op_cache_hits"), count("serve.op_cache_misses"))
    }

    /// For every backend, a cold recover (which builds the shared
    /// operator), a warm one of the same epoch and one of a second epoch
    /// with the same descriptor all report the bits of a fresh, uncached
    /// recovery; only the cold one misses.
    #[test]
    fn op_cache_reports_are_bit_identical_cold_warm_and_across_epochs() {
        let (m, n) = (M as usize, N as usize);
        for op in [
            OpDescriptor::dense(m, n, SEED),
            OpDescriptor::srht(m, n, SEED),
            OpDescriptor::seeded_sparse(m, n, SEED, 4),
        ] {
            let mut store = SessionStore::new();
            let first = sealed_under(&mut store, (1, 0), &op, 3);
            let second = sealed_under(&mut store, (1, 1), &op, 5);
            let mut stats = StoreStats::new();
            for (epoch, y) in [(0, &first), (0, &first), (1, &second)] {
                let job = recover_job(&mut store, (1, epoch), 2, &mut stats);
                let reply = job.run().0;
                assert_eq!(report_bits(&reply), fresh_report(&op, y, 2), "{op:?} epoch {epoch}");
            }
            assert_eq!(cache_counts(&stats), (2, 1), "{op:?}");
        }
    }

    /// With room for exactly one `M × N` matrix, recovering two seeds in
    /// turn displaces the other's `Φ0` every time: every recover misses,
    /// every report keeps the fresh bits, and the displaced, built matrix
    /// leaves the store inside the job, to be freed outside the lock.
    #[test]
    fn op_cache_alternating_seeds_rebuild_with_the_fresh_bits() {
        let cap = 8 * u64::from(M) * N;
        let mut store =
            SessionStore::with_limits(StoreLimits { max_matrix_bytes: cap, ..Default::default() });
        let ops = [SEED, SEED + 1].map(|seed| OpDescriptor::dense(M as usize, N as usize, seed));
        let ys =
            [(1, &ops[0]), (2, &ops[1])].map(|(s, op)| sealed_under(&mut store, (s, 0), op, 3));
        let mut stats = StoreStats::new();
        for round in 0..6 {
            let i = round % 2;
            let job = recover_job(&mut store, (i as u64 + 1, 0), 2, &mut stats);
            let displaced = job.evicted.as_ref().is_some_and(|slot| slot.get().is_some());
            assert_eq!(displaced, round > 0, "round {round}");
            assert_eq!(report_bits(&job.run().0), fresh_report(&ops[i], &ys[i], 2));
        }
        assert_eq!(cache_counts(&stats), (0, 6));
    }

    /// Two threads recover two sealed epochs of one dense descriptor at
    /// once: the second dispatch hits the slot the first inserted, the two
    /// jobs share it, and `Φ0` is materialized once — the thread that
    /// loses the race waits for the other's build — with the fresh bits
    /// on both. `N` is large enough that the build outlasts the start
    /// skew the barrier leaves.
    #[test]
    fn op_cache_concurrent_recovers_of_one_descriptor_materialize_once() {
        let op = OpDescriptor::dense(M as usize, 1 << 17, SEED);
        let mut store = SessionStore::new();
        let ys =
            [(0, 3), (1, 5)].map(|(epoch, nodes)| sealed_under(&mut store, (1, epoch), &op, nodes));
        let mut stats = StoreStats::new();
        let jobs = [0, 1].map(|epoch| recover_job(&mut store, (1, epoch), 2, &mut stats));
        assert_eq!(cache_counts(&stats), (1, 1));
        assert!(Arc::ptr_eq(&jobs[0].shared, &jobs[1].shared), "one slot per descriptor");
        assert!(jobs[0].shared.get().is_none(), "nothing is built under the store lock");
        let start = std::sync::Barrier::new(2);
        let runs = std::thread::scope(|scope| {
            let start = &start;
            let runs = jobs.map(|job| {
                scope.spawn(move || {
                    start.wait();
                    (job.run().0, BUILDS.with(|builds| builds.get()))
                })
            });
            runs.map(|run| run.join().expect("recover thread"))
        });
        assert_eq!(runs.iter().map(|(_, builds)| builds).sum::<u64>(), 1, "one materialization");
        for ((reply, _), y) in runs.iter().zip(&ys) {
            assert_eq!(report_bits(reply), fresh_report(&op, y, 2));
        }
        assert!(store.op_cache.as_ref().is_some_and(|(_, slot)| slot.get().is_some()));
    }

    /// Finite sketches can fold to an infinite measurement. Its recover
    /// is a typed `BadSketch` reject (the clients' data, not the server),
    /// answered before the cache:
    /// no lookup is counted, no slot is inserted, no `Φ0` is built, and
    /// the epoch stays sealed.
    #[test]
    fn non_finite_fold_rejects_without_caching() {
        let (mut store, mut conn) = opened(N, 4);
        let huge = EncodedSketch::F64(vec![f64::MAX; M as usize]);
        for node in 0..2 {
            let msg = Message::Sketch { node, seed: SEED, payload: huge.clone() };
            assert_eq!(
                send(&mut store, &mut conn, &msg).0,
                Message::Ack { of: TAG_SKETCH, info: 0 }
            );
        }
        let (_, _, y) = seal_bits(&mut store);
        assert!(y.iter().all(|&b| f64::from_bits(b) == f64::INFINITY), "the fold overflows");
        let mut stats = StoreStats::new();
        let recover = Message::RecoverEpoch { session: 1, epoch: 0, k: 1 };
        let policy = RecoveryPolicy::default();
        let Dispatch::Reply(reply, effect) =
            store.dispatch(&mut conn, &recover, &policy, &mut stats)
        else {
            panic!("a non-finite measurement must not become a recover job");
        };
        assert_eq!(code_of(&reply), RejectCode::BadSketch);
        assert!(matches!(effect, Effect::None));
        assert_eq!(cache_counts(&stats), (0, 0));
        assert!(store.op_cache.is_none());
        assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Sealed));
    }
}
