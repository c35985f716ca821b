//! Wire format for protocol messages.
//!
//! The cost meter (Section 6.1.2's accounting) prices tuples abstractly;
//! this module makes the transport concrete: a small, versioned, little-
//! endian binary format for the three message kinds the protocols exchange.
//! Tests cross-check the encoded byte counts against the abstract
//! accounting, so the normalized-cost figures rest on real byte layouts.
//!
//! Every frame carries a CRC-32 trailer over the body. [`decode`] verifies
//! the checksum *before* touching the body, so a corrupted length field or
//! flipped payload bit is rejected outright instead of producing a garbage
//! sketch — the integrity property the fault-injection harness
//! ([`crate::fault`]) leans on.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0]        u8   message tag (1 = sketch, 2 = kv batch, 3 = mode broadcast,
//!                 4 = open epoch, 5 = seal epoch, 6 = recover epoch,
//!                 7 = ack, 8 = reject, 9 = report, 10 = epoch status query,
//!                 11 = status reply, 12 = introspect query,
//!                 13 = metrics reply)
//! [1]        u8   format version (currently 2)
//! ...             tag-specific body
//! [len-4..]  u32  CRC-32 (IEEE) over bytes [0, len-4)
//! ```
//!
//! Tags 1–3 are the original simulation messages; tags 4–9 are the serving
//! layer's control plane (`cso-serve`): session/epoch lifecycle requests
//! from clients and the server's acknowledgement / rejection / recovery-
//! report replies. Tags 12–13 are the in-band telemetry plane: a stateless
//! [`Message::Introspect`] poll answered by a [`Message::MetricsReply`]
//! carrying a full [`MetricsSnapshot`] (the client windows consecutive
//! replies via `MetricsSnapshot::delta`). They all ride the same version-2
//! CRC-sealed frames, so the corruption guarantees below apply to the
//! control and telemetry planes too.

use crate::quantize::{EncodedSketch, SketchEncoding};
use cso_obs::metrics::{Histogram, MetricsSnapshot};
use std::fmt;

/// Current format version. Version 2 added the CRC-32 trailer.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the CRC-32 trailer appended to every frame.
pub const CHECKSUM_BYTES: usize = 4;

/// Frame tag of [`Message::Sketch`].
pub const TAG_SKETCH: u8 = 1;
/// Frame tag of [`Message::KvBatch`].
pub const TAG_KV_BATCH: u8 = 2;
/// Frame tag of [`Message::ModeBroadcast`].
pub const TAG_MODE: u8 = 3;
/// Frame tag of [`Message::OpenEpoch`].
pub const TAG_OPEN_EPOCH: u8 = 4;
/// Frame tag of [`Message::SealEpoch`].
pub const TAG_SEAL_EPOCH: u8 = 5;
/// Frame tag of [`Message::RecoverEpoch`].
pub const TAG_RECOVER_EPOCH: u8 = 6;
/// Frame tag of [`Message::Ack`].
pub const TAG_ACK: u8 = 7;
/// Frame tag of [`Message::Reject`].
pub const TAG_REJECT: u8 = 8;
/// Frame tag of [`Message::Report`].
pub const TAG_REPORT: u8 = 9;
/// Frame tag of [`Message::EpochStatus`].
pub const TAG_EPOCH_STATUS: u8 = 10;
/// Frame tag of [`Message::Status`].
pub const TAG_STATUS: u8 = 11;
/// Frame tag of [`Message::Introspect`].
pub const TAG_INTROSPECT: u8 = 12;
/// Frame tag of [`Message::MetricsReply`].
pub const TAG_METRICS_REPLY: u8 = 13;
/// Frame tag of [`Message::RelayManifest`].
pub const TAG_RELAY_MANIFEST: u8 = 14;

/// The IEEE CRC-32 polynomial, reflected (`x^32` implied).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// IEEE CRC-32 slicing tables (reflected, polynomial [`CRC32_POLY`]).
/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[k][i]` is
/// the CRC state of byte `i` followed by `k` zero bytes, so eight lookups
/// advance the CRC by eight bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the common zlib/Ethernet variant). On x86-64
/// CPUs with `PCLMULQDQ` (detected at runtime) a carry-less-multiply
/// kernel folds 64 bytes per step; elsewhere, and for inputs too short to
/// fold, the CRC slices by eight bytes per step. Both give the same value.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(clmul) = clmul::Clmul::detect() {
        return !clmul.update(!0, bytes);
    }
    !crc32_sliced(!0, bytes)
}

/// Advances the CRC register `c` (the pre-inversion state) over `bytes`,
/// slicing by eight bytes per step with a byte-at-a-time tail. The
/// portable path of [`crc32`] and the tail of the folding kernel.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply CRC-32 kernel: the folding method of Gopal et
/// al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*
/// (Intel, 2009), in its bit-reflected form. Four 128-bit lanes fold 64
/// bytes per step, then merge into one lane that folds 16 bytes per step;
/// two more folds and a Barrett reduction bring the lane to the 32-bit CRC
/// register, and [`crc32_sliced`] finishes the tail under 16 bytes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{crc32_sliced, CRC32_POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel folds: its four lanes start full. Shorter
    /// inputs go to the sliced loop whole.
    const FOLD_MIN: usize = 64;

    /// `x^n mod P`, bit-reflected into the 33-bit operand form the
    /// reflected carry-less products take.
    const fn x_pow_mod_p(n: u32) -> i64 {
        let mut c = 0x8000_0000u32; // x^0, reflected
        let mut i = 0;
        while i < n {
            c = if c & 1 != 0 { (c >> 1) ^ CRC32_POLY } else { c >> 1 };
            i += 1;
        }
        (c as i64) << 1
    }

    /// The fold multipliers, each pair for a lane's (low, high) half.
    /// Moving a lane `d` bits forward multiplies its low half by
    /// `x^(d+32)` and its high half by `x^(d-32)`: four lanes move 512 bits
    /// per step, one lane 128, and the last fold takes the low word 64.
    const BY_FOUR: (i64, i64) = (x_pow_mod_p(4 * 128 + 32), x_pow_mod_p(4 * 128 - 32));
    const BY_ONE: (i64, i64) = (x_pow_mod_p(128 + 32), x_pow_mod_p(128 - 32));
    const BY_64: i64 = x_pow_mod_p(64);

    /// `P` itself as a 33-bit reflected operand (its `x^32` term is bit 0).
    const P: i64 = ((CRC32_POLY as i64) << 1) | 1;

    /// Barrett's `μ = ⌊x^64 / P⌋` as a 33-bit reflected operand.
    const MU: i64 = {
        let p = ((CRC32_POLY.reverse_bits() as u128) | (1 << 32)) << 32;
        let (mut rem, mut quotient, mut bit) = (1u128 << 64, 0u64, 32);
        loop {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= p >> (32 - bit);
                quotient |= 1 << bit;
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        (quotient.reverse_bits() >> 31) as i64
    };

    /// Proof that the running CPU has `PCLMULQDQ`: the only way to obtain
    /// one is [`Clmul::detect`], so [`Clmul::update`] may enter the
    /// `#[target_feature(enable = "pclmulqdq")]` kernel.
    #[derive(Clone, Copy)]
    pub(super) struct Clmul(());

    impl Clmul {
        /// `Some` exactly when the CPU reports `PCLMULQDQ` at runtime.
        #[inline]
        pub(super) fn detect() -> Option<Clmul> {
            std::arch::is_x86_feature_detected!("pclmulqdq").then_some(Clmul(()))
        }

        /// Advances the CRC register `c` over `bytes`, as
        /// [`crc32_sliced`] does.
        pub(super) fn update(self, c: u32, bytes: &[u8]) -> u32 {
            if bytes.len() < FOLD_MIN {
                return crc32_sliced(c, bytes);
            }
            // SAFETY: `self` exists only after `detect` saw PCLMULQDQ, and
            // `bytes` holds at least `FOLD_MIN` bytes.
            unsafe { fold(c, bytes) }
        }
    }

    /// The 16 bytes at the front of `block`, as one lane.
    ///
    /// # Safety
    /// `block` must hold at least 16 bytes.
    #[inline]
    unsafe fn load(block: &[u8]) -> __m128i {
        debug_assert!(block.len() >= 16);
        _mm_loadu_si128(block.as_ptr().cast())
    }

    /// Folds `lane` forward onto `next`: its low half times `k`'s low
    /// half, its high half times `k`'s high half, both added to `next`.
    ///
    /// # Safety
    /// PCLMULQDQ must be available.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_onto(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The register after `c` advances over `bytes`. Every `load` reads a
    /// 16-byte block of a 64-byte group or a 16-byte chunk.
    ///
    /// # Safety
    /// PCLMULQDQ must be available and `bytes` must hold at least
    /// `FOLD_MIN` bytes.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(c: u32, bytes: &[u8]) -> u32 {
        let (head, groups) = bytes.split_at(FOLD_MIN);
        let mut lanes = [load(head), load(&head[16..]), load(&head[32..]), load(&head[48..])];
        // The register is added into the first four message bytes, as the
        // byte loop adds it one byte at a time.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));

        // Each lane moves 512 bits forward onto its next block.
        let by_four = _mm_set_epi64x(BY_FOUR.1, BY_FOUR.0);
        let mut groups = groups.chunks_exact(FOLD_MIN);
        for group in &mut groups {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_onto(*lane, load(&group[16 * i..]), by_four);
            }
        }

        // Merge the four lanes, then fold 128 bits per step.
        let by_one = _mm_set_epi64x(BY_ONE.1, BY_ONE.0);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_onto(acc, lane, by_one);
        }
        let mut blocks = groups.remainder().chunks_exact(16);
        for block in &mut blocks {
            acc = fold_onto(acc, load(block), by_one);
        }

        // 128 → 96 bits: the low half times x^96 plus the high half.
        let acc =
            _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, by_one), _mm_srli_si128::<8>(acc));
        // 96 → 64 bits: the low word times x^64 plus the upper words.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let by_64 = _mm_set_epi64x(0, BY_64);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), by_64),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: 64 → 32 bits, without a division by P.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;

        crc32_sliced(c, blocks.remainder())
    }
}

/// A message a node or the aggregator puts on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A node's local measurement `y_l` (possibly quantized).
    Sketch {
        /// Sending node id.
        node: u32,
        /// Seed the node derived `Φ0` from (lets the aggregator verify
        /// configuration agreement).
        seed: u64,
        /// The measurement payload.
        payload: EncodedSketch,
    },
    /// A batch of keyid-value pairs (baselines, K+δ rounds 1/3).
    KvBatch {
        /// Sending node id.
        node: u32,
        /// `(key id, value)` pairs.
        pairs: Vec<(u32, f64)>,
    },
    /// The aggregator's mode broadcast (K+δ round 2).
    ModeBroadcast {
        /// Estimated mode.
        mode: f64,
    },
    /// Client → server: open (or attach to) an epoch of a session. Carries
    /// the full measurement configuration so the server can verify that
    /// every participant derives the same `Φ0`.
    OpenEpoch {
        /// Session (run) id the epoch belongs to.
        session: u64,
        /// Epoch number within the session.
        epoch: u64,
        /// Sketch length `M`.
        m: u32,
        /// Key-space size `N`.
        n: u64,
        /// Shared seed `Φ0` is derived from.
        seed: u64,
        /// Measurement-operator backend code (`cso_core::OpKind::code`):
        /// 0 = dense Gaussian, 1 = SRHT, 2 = seeded sparse. Unknown codes
        /// are rejected by the server with `RejectCode::BadOperator`.
        op_kind: u8,
        /// Backend parameter (`s` for the seeded-sparse backend; must be 0
        /// otherwise).
        op_param: u64,
    },
    /// Client → server: no more sketches for this epoch; freeze the
    /// membership for recovery.
    SealEpoch {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
    /// Client → server: recover the top-`k` outliers of a sealed epoch.
    RecoverEpoch {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Outlier budget `k`.
        k: u32,
    },
    /// Server → client: the request identified by `of` (a message tag)
    /// succeeded. `info` is tag-specific (accepted-sketch node count for
    /// seals, 0/1 duplicate flag for sketches).
    Ack {
        /// Tag of the message being acknowledged.
        of: u8,
        /// Tag-specific detail.
        info: u64,
    },
    /// Server → client: the request was refused. `code` is a
    /// `cso-serve` reject code (typed protocol error or backpressure);
    /// `retry_after_ms` is non-zero when the client should retry later
    /// (admission-queue backpressure).
    Reject {
        /// Typed reject code (see `cso-serve`'s `RejectCode`).
        code: u16,
        /// Suggested retry delay in milliseconds (0 = do not retry).
        retry_after_ms: u32,
    },
    /// Server → client: recovery report for one epoch.
    Report {
        /// Epoch the report describes.
        epoch: u64,
        /// Recovered mode `b`.
        mode: f64,
        /// Recovered `(key id, value)` outliers, ordered by decreasing
        /// deviation from the mode.
        outliers: Vec<(u32, f64)>,
    },
    /// Client → server: where is this epoch in its lifecycle? The query a
    /// client uses to resume idempotent ingest after a connection loss or
    /// a server restart — it tells the client whether the epoch still
    /// exists, whether it is still accepting sketches, and how many nodes
    /// the server already holds.
    EpochStatus {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
    },
    /// Server → client: reply to [`Message::EpochStatus`].
    Status {
        /// Epoch the status describes.
        epoch: u64,
        /// Lifecycle phase (0 = ingesting, 1 = sealed, 2 = recovered; see
        /// `cso-serve`'s `EpochPhase`).
        phase: u8,
        /// Nodes currently contributing to (or frozen into) the epoch.
        nodes: u64,
    },
    /// Client → server: report your live metrics. Stateless and read-only
    /// — the server answers from its metrics registry without touching the
    /// session store, so polling never perturbs ingest or recovery.
    Introspect,
    /// Server → client: reply to [`Message::Introspect`] — a full
    /// cumulative [`MetricsSnapshot`] (versioned, stamped with the
    /// registry's monotone snapshot sequence). Pollers difference
    /// consecutive replies with `MetricsSnapshot::delta` to obtain
    /// windowed rates and latency percentiles.
    MetricsReply {
        /// The server's cumulative metrics at reply time.
        snapshot: MetricsSnapshot,
    },
    /// Relay → upstream server: declare the subtree this connection
    /// forwards for. Sent after `OpenEpoch`, before the region's single
    /// pre-summed super-node sketch. The upstream validates the claim
    /// against the epoch's topology (first manifest wins the `fan_in`;
    /// every later one must agree) and rejects inconsistencies with the
    /// typed `TopologyMismatch`/`RegionConflict` codes instead of letting
    /// a misconfigured relay silently corrupt the fold.
    RelayManifest {
        /// Session id.
        session: u64,
        /// Epoch number.
        epoch: u64,
        /// Region id — also the super-node id the relay ingests under.
        region: u32,
        /// First absolute leaf id of the region's aligned block.
        leaf_lo: u64,
        /// One past the last absolute leaf id of the block.
        leaf_hi: u64,
        /// The topology's leaves-per-region (a power of two).
        fan_in: u64,
    },
}

impl Message {
    /// The message's wire tag — the discriminant byte [`encode`] writes.
    /// Server acknowledgements echo this in [`Message::Ack`]'s `of` field
    /// so a client can match replies to requests.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Sketch { .. } => TAG_SKETCH,
            Message::KvBatch { .. } => TAG_KV_BATCH,
            Message::ModeBroadcast { .. } => TAG_MODE,
            Message::OpenEpoch { .. } => TAG_OPEN_EPOCH,
            Message::SealEpoch { .. } => TAG_SEAL_EPOCH,
            Message::RecoverEpoch { .. } => TAG_RECOVER_EPOCH,
            Message::Ack { .. } => TAG_ACK,
            Message::Reject { .. } => TAG_REJECT,
            Message::Report { .. } => TAG_REPORT,
            Message::EpochStatus { .. } => TAG_EPOCH_STATUS,
            Message::Status { .. } => TAG_STATUS,
            Message::Introspect => TAG_INTROSPECT,
            Message::MetricsReply { .. } => TAG_METRICS_REPLY,
            Message::RelayManifest { .. } => TAG_RELAY_MANIFEST,
        }
    }
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// The frame's format version differs from the one this decoder speaks.
    VersionMismatch {
        /// Version byte found in the frame.
        got: u8,
        /// Version this decoder implements.
        want: u8,
    },
    /// Unknown sketch-encoding discriminant.
    BadEncoding(u8),
    /// A field carried a value outside its domain (e.g. a histogram
    /// bucket index past the fixed log₂ bucket count).
    BadField {
        /// Which field was out of domain.
        field: &'static str,
        /// The raw value received.
        value: u64,
    },
    /// The CRC-32 trailer disagrees with the body — the frame was corrupted
    /// in flight.
    ChecksumMismatch {
        /// Checksum carried in the trailer.
        stored: u32,
        /// Checksum computed over the received body.
        computed: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::VersionMismatch { got, want } => {
                write!(f, "wire version mismatch: frame says {got}, decoder speaks {want}")
            }
            WireError::BadEncoding(e) => write!(f, "unknown sketch encoding {e}"),
            WireError::BadField { field, value } => {
                write!(f, "field {field} out of domain: {value}")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: frame carries {stored:#010x}, body hashes to {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte sink: the encoder behind [`encode`], public so every
/// other on-disk or on-wire format in the workspace shares one codec.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Bounds-checked little-endian cursor: the decoder behind [`decode`].
/// Every getter returns [`WireError::Truncated`] past the end of the
/// buffer instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// One putter on [`Writer`] and one getter on [`Reader`] per fixed-width
/// type, all little-endian.
macro_rules! fixed_width {
    ($($t:ident),*) => {
        impl Writer {
            $(
                #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
                pub fn $t(&mut self, v: $t) {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            )*
        }
        impl Reader<'_> {
            $(
                #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
                pub fn $t(&mut self) -> Result<$t, WireError> {
                    let bytes = self.take(std::mem::size_of::<$t>())?;
                    Ok($t::from_le_bytes(bytes.try_into().expect("sized take")))
                }
            )*
        }
    };
}
fixed_width!(u8, u16, u32, u64, i16, f32, f64);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }
    /// Appends raw bytes (an already-encoded nested frame).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// A metric name behind a u16 length prefix (names beyond 64 KiB are
    /// truncated byte-wise — far past anything the taxonomy produces).
    fn str16(&mut self, s: &str) {
        let bytes = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
        self.u16(bytes.len() as u16);
        self.bytes(bytes);
    }
    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Takes every unread byte (a nested frame that runs to the end).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    /// A u16-length-prefixed metric name. Non-UTF-8 bytes decode lossily
    /// (the CRC rejects in-flight corruption; this guards resealed or
    /// hostile frames without a panic).
    fn str16(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }
    /// Unread bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Whether every byte has been read.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Caps an element count declared by a length field to what the rest of the
/// buffer could actually hold, so a corrupt count can never drive a huge
/// allocation (the checksum rejects such frames, but `decode` stays safe on
/// arbitrary bytes regardless).
fn capped(declared: usize, remaining_bytes: usize, elem_bytes: usize) -> usize {
    declared.min(remaining_bytes / elem_bytes.max(1))
}

fn encoding_tag(e: SketchEncoding) -> u8 {
    match e {
        SketchEncoding::F64 => 0,
        SketchEncoding::F32 => 1,
        SketchEncoding::Fixed16 => 2,
    }
}

/// Serializes a message, sealing it with the CRC-32 trailer.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    match msg {
        Message::Sketch { node, seed, payload } => {
            w.u8(TAG_SKETCH);
            w.u8(WIRE_VERSION);
            w.u32(*node);
            w.u64(*seed);
            w.u8(encoding_tag(payload.encoding()));
            w.u32(payload.len() as u32);
            match payload {
                EncodedSketch::F64(v) => v.iter().for_each(|&x| w.f64(x)),
                EncodedSketch::F32(v) => v.iter().for_each(|&x| w.f32(x)),
                EncodedSketch::Fixed16 { values, scale } => {
                    w.f64(*scale);
                    values.iter().for_each(|&x| w.i16(x));
                }
            }
        }
        Message::KvBatch { node, pairs } => {
            w.u8(TAG_KV_BATCH);
            w.u8(WIRE_VERSION);
            w.u32(*node);
            w.u32(pairs.len() as u32);
            for &(k, v) in pairs {
                w.u32(k);
                w.f64(v);
            }
        }
        Message::ModeBroadcast { mode } => {
            w.u8(TAG_MODE);
            w.u8(WIRE_VERSION);
            w.f64(*mode);
        }
        Message::OpenEpoch { session, epoch, m, n, seed, op_kind, op_param } => {
            w.u8(TAG_OPEN_EPOCH);
            w.u8(WIRE_VERSION);
            w.u64(*session);
            w.u64(*epoch);
            w.u32(*m);
            w.u64(*n);
            w.u64(*seed);
            w.u8(*op_kind);
            w.u64(*op_param);
        }
        Message::SealEpoch { session, epoch } => {
            w.u8(TAG_SEAL_EPOCH);
            w.u8(WIRE_VERSION);
            w.u64(*session);
            w.u64(*epoch);
        }
        Message::RecoverEpoch { session, epoch, k } => {
            w.u8(TAG_RECOVER_EPOCH);
            w.u8(WIRE_VERSION);
            w.u64(*session);
            w.u64(*epoch);
            w.u32(*k);
        }
        Message::Ack { of, info } => {
            w.u8(TAG_ACK);
            w.u8(WIRE_VERSION);
            w.u8(*of);
            w.u64(*info);
        }
        Message::Reject { code, retry_after_ms } => {
            w.u8(TAG_REJECT);
            w.u8(WIRE_VERSION);
            w.u16(*code);
            w.u32(*retry_after_ms);
        }
        Message::Report { epoch, mode, outliers } => {
            w.u8(TAG_REPORT);
            w.u8(WIRE_VERSION);
            w.u64(*epoch);
            w.f64(*mode);
            w.u32(outliers.len() as u32);
            for &(k, v) in outliers {
                w.u32(k);
                w.f64(v);
            }
        }
        Message::EpochStatus { session, epoch } => {
            w.u8(TAG_EPOCH_STATUS);
            w.u8(WIRE_VERSION);
            w.u64(*session);
            w.u64(*epoch);
        }
        Message::Status { epoch, phase, nodes } => {
            w.u8(TAG_STATUS);
            w.u8(WIRE_VERSION);
            w.u64(*epoch);
            w.u8(*phase);
            w.u64(*nodes);
        }
        Message::Introspect => {
            w.u8(TAG_INTROSPECT);
            w.u8(WIRE_VERSION);
        }
        Message::MetricsReply { snapshot } => {
            w.u8(TAG_METRICS_REPLY);
            w.u8(WIRE_VERSION);
            w.u32(snapshot.version);
            w.u64(snapshot.seq);
            w.u32(snapshot.counters.len() as u32);
            for (name, &v) in &snapshot.counters {
                w.str16(name);
                w.u64(v);
            }
            w.u32(snapshot.gauges.len() as u32);
            for (name, &v) in &snapshot.gauges {
                w.str16(name);
                w.f64(v);
            }
            w.u32(snapshot.histograms.len() as u32);
            for (name, h) in &snapshot.histograms {
                w.str16(name);
                w.u64(h.count);
                w.u64(h.sum);
                w.u64(h.min);
                w.u64(h.max);
                // Buckets travel sparse: log₂ histograms of latency-shaped
                // data occupy a handful of the 65 slots.
                let nonzero: Vec<(usize, u64)> =
                    h.buckets.iter().copied().enumerate().filter(|&(_, c)| c > 0).collect();
                w.u8(nonzero.len() as u8);
                for (idx, c) in nonzero {
                    w.u8(idx as u8);
                    w.u64(c);
                }
            }
        }
        Message::RelayManifest { session, epoch, region, leaf_lo, leaf_hi, fan_in } => {
            w.u8(TAG_RELAY_MANIFEST);
            w.u8(WIRE_VERSION);
            w.u64(*session);
            w.u64(*epoch);
            w.u32(*region);
            w.u64(*leaf_lo);
            w.u64(*leaf_hi);
            w.u64(*fan_in);
        }
    }
    let sum = crc32(&w.buf);
    w.u32(sum);
    w.into_bytes()
}

/// Deserializes a message, requiring the buffer to contain exactly one
/// checksum-sealed frame. The CRC is verified before any of the body is
/// interpreted.
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    // Smallest legal frame: tag + version + CRC trailer.
    if buf.len() < 2 + CHECKSUM_BYTES {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - CHECKSUM_BYTES);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }

    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { got: version, want: WIRE_VERSION });
    }
    let msg = match tag {
        TAG_SKETCH => {
            let node = r.u32()?;
            let seed = r.u64()?;
            let enc = r.u8()?;
            let len = r.u32()? as usize;
            let payload = match enc {
                0 => {
                    let mut v = Vec::with_capacity(capped(len, r.remaining(), 8));
                    for _ in 0..len {
                        v.push(r.f64()?);
                    }
                    EncodedSketch::F64(v)
                }
                1 => {
                    let mut v = Vec::with_capacity(capped(len, r.remaining(), 4));
                    for _ in 0..len {
                        v.push(r.f32()?);
                    }
                    EncodedSketch::F32(v)
                }
                2 => {
                    let scale = r.f64()?;
                    let mut values = Vec::with_capacity(capped(len, r.remaining(), 2));
                    for _ in 0..len {
                        values.push(r.i16()?);
                    }
                    EncodedSketch::Fixed16 { values, scale }
                }
                other => return Err(WireError::BadEncoding(other)),
            };
            Message::Sketch { node, seed, payload }
        }
        TAG_KV_BATCH => {
            let node = r.u32()?;
            let len = r.u32()? as usize;
            let mut pairs = Vec::with_capacity(capped(len, r.remaining(), 12));
            for _ in 0..len {
                let k = r.u32()?;
                let v = r.f64()?;
                pairs.push((k, v));
            }
            Message::KvBatch { node, pairs }
        }
        TAG_MODE => Message::ModeBroadcast { mode: r.f64()? },
        TAG_OPEN_EPOCH => Message::OpenEpoch {
            session: r.u64()?,
            epoch: r.u64()?,
            m: r.u32()?,
            n: r.u64()?,
            seed: r.u64()?,
            op_kind: r.u8()?,
            op_param: r.u64()?,
        },
        TAG_SEAL_EPOCH => Message::SealEpoch { session: r.u64()?, epoch: r.u64()? },
        TAG_RECOVER_EPOCH => {
            Message::RecoverEpoch { session: r.u64()?, epoch: r.u64()?, k: r.u32()? }
        }
        TAG_ACK => Message::Ack { of: r.u8()?, info: r.u64()? },
        TAG_REJECT => Message::Reject { code: r.u16()?, retry_after_ms: r.u32()? },
        TAG_REPORT => {
            let epoch = r.u64()?;
            let mode = r.f64()?;
            let len = r.u32()? as usize;
            let mut outliers = Vec::with_capacity(capped(len, r.remaining(), 12));
            for _ in 0..len {
                let k = r.u32()?;
                let v = r.f64()?;
                outliers.push((k, v));
            }
            Message::Report { epoch, mode, outliers }
        }
        TAG_EPOCH_STATUS => Message::EpochStatus { session: r.u64()?, epoch: r.u64()? },
        TAG_STATUS => Message::Status { epoch: r.u64()?, phase: r.u8()?, nodes: r.u64()? },
        TAG_INTROSPECT => Message::Introspect,
        TAG_METRICS_REPLY => {
            let mut snapshot =
                MetricsSnapshot { version: r.u32()?, seq: r.u64()?, ..MetricsSnapshot::default() };
            for _ in 0..r.u32()? {
                let name = r.str16()?;
                snapshot.counters.insert(name, r.u64()?);
            }
            for _ in 0..r.u32()? {
                let name = r.str16()?;
                snapshot.gauges.insert(name, r.f64()?);
            }
            let buckets = Histogram::default().buckets.len();
            for _ in 0..r.u32()? {
                let name = r.str16()?;
                let mut h = Histogram {
                    count: r.u64()?,
                    sum: r.u64()?,
                    min: r.u64()?,
                    max: r.u64()?,
                    ..Histogram::default()
                };
                for _ in 0..r.u8()? {
                    let idx = usize::from(r.u8()?);
                    if idx >= buckets {
                        return Err(WireError::BadField {
                            field: "histogram bucket index",
                            value: idx as u64,
                        });
                    }
                    h.buckets[idx] = r.u64()?;
                }
                snapshot.histograms.insert(name, h);
            }
            Message::MetricsReply { snapshot }
        }
        TAG_RELAY_MANIFEST => Message::RelayManifest {
            session: r.u64()?,
            epoch: r.u64()?,
            region: r.u32()?,
            leaf_lo: r.u64()?,
            leaf_hi: r.u64()?,
            fan_in: r.u64()?,
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    if !r.finished() {
        return Err(WireError::Truncated); // trailing garbage = framing bug
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{KV_PAIR_BITS, VALUE_BITS};
    use crate::quantize;
    use cso_linalg::Vector;

    fn sketch_msg(encoding: SketchEncoding) -> Message {
        let y = Vector::from_vec(vec![1.0, -2.5, 3e7, 0.0]);
        Message::Sketch { node: 3, seed: 99, payload: quantize::encode(&y, encoding) }
    }

    /// Recomputes the trailer after a test deliberately edits the body, so
    /// the edit reaches the parser instead of tripping the checksum.
    fn reseal(buf: &mut Vec<u8>) {
        let body_len = buf.len() - CHECKSUM_BYTES;
        let sum = crc32(&buf[..body_len]);
        buf.truncate(body_len);
        buf.extend_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC every path must equal bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc32_matches_the_byte_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(32);
        let buf: Vec<u8> = (0..8 + 64).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start}, len {len}");
            }
        }
        for _ in 0..32 {
            let len = rng.gen_range(0..=64 * 1024);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        }
    }

    /// Checks one CRC path against the byte loop: the IEEE check value,
    /// every length through 1 KiB at every start offset mod 16 (so every
    /// length below the kernel's threshold and every tail length), and 32
    /// random lengths up to 1 MiB.
    fn assert_matches_the_byte_loop(name: &str, crc: impl Fn(&[u8]) -> u32) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert_eq!(crc(b"123456789"), 0xCBF4_3926, "{name}");
        let mut rng = StdRng::seed_from_u64(25);
        let buf: Vec<u8> = (0..16 + (1usize << 20)).map(|_| rng.gen()).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc(bytes), crc32_bytewise(bytes), "{name}: start {start}, len {len}");
            }
        }
        for _ in 0..32 {
            let (start, len) = (rng.gen_range(0..16usize), rng.gen_range(0..=1usize << 20));
            let bytes = &buf[start..start + len];
            assert_eq!(crc(bytes), crc32_bytewise(bytes), "{name}: start {start}, len {len}");
        }
    }

    /// The folding kernel (where the CPU has it) and the sliced loop, each
    /// called directly rather than through the dispatch in [`crc32`].
    #[test]
    fn folded_and_sliced_crc32_match_the_byte_loop() {
        assert_matches_the_byte_loop("sliced", |bytes| !crc32_sliced(!0, bytes));
        #[cfg(target_arch = "x86_64")]
        if let Some(clmul) = clmul::Clmul::detect() {
            assert_matches_the_byte_loop("folded", |bytes| !clmul.update(!0, bytes));
        }
    }

    #[test]
    fn sketch_round_trip_all_encodings() {
        for enc in [SketchEncoding::F64, SketchEncoding::F32, SketchEncoding::Fixed16] {
            let msg = sketch_msg(enc);
            let back = decode(&encode(&msg)).unwrap();
            assert_eq!(back, msg, "{enc:?}");
        }
    }

    #[test]
    fn kv_batch_round_trip() {
        let msg =
            Message::KvBatch { node: 7, pairs: vec![(0, 1.5), (4_000_000, -2.25), (42, f64::MAX)] };
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn mode_broadcast_round_trip() {
        let msg = Message::ModeBroadcast { mode: -1800.75 };
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn control_plane_round_trips() {
        let msgs = [
            Message::OpenEpoch {
                session: 7,
                epoch: 3,
                m: 128,
                n: 1 << 40,
                seed: u64::MAX,
                op_kind: 2,
                op_param: 12,
            },
            Message::SealEpoch { session: 7, epoch: 3 },
            Message::RecoverEpoch { session: 7, epoch: 3, k: 8 },
            Message::Ack { of: 4, info: 12 },
            Message::Reject { code: 2, retry_after_ms: 40 },
            Message::Report { epoch: 3, mode: 5000.5, outliers: vec![(9, 1.25), (0, -2e9)] },
            Message::EpochStatus { session: 7, epoch: 3 },
            Message::Status { epoch: 3, phase: 1, nodes: 12 },
            Message::Introspect,
            Message::MetricsReply { snapshot: sample_snapshot() },
            Message::RelayManifest {
                session: 7,
                epoch: 3,
                region: 2,
                leaf_lo: 8,
                leaf_hi: 12,
                fan_in: 4,
            },
        ];
        for msg in msgs {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    /// A snapshot exercising every section of the metrics codec, built the
    /// way real ones are — through a registry.
    fn sample_snapshot() -> cso_obs::MetricsSnapshot {
        let reg = cso_obs::MetricsRegistry::new();
        reg.counter_add("serve.sketches_accepted", 1234);
        reg.counter_add("serve.frames_handled", 9);
        reg.gauge_set("serve.queue_depth", 3.5);
        for v in [0u64, 1, 900, u64::MAX / 2] {
            reg.histogram_record("serve.ingest_ns", v);
        }
        reg.snapshot()
    }

    #[test]
    fn metrics_reply_round_trips_empty_and_full() {
        for snapshot in [cso_obs::MetricsSnapshot::default(), sample_snapshot()] {
            let msg = Message::MetricsReply { snapshot };
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn metrics_reply_bad_bucket_index_is_typed() {
        // One histogram, one sparse bucket entry with index 70 (≥ 65).
        let mut buf = encode(&Message::MetricsReply { snapshot: sample_snapshot() });
        let body_len = buf.len() - CHECKSUM_BYTES;
        // Find the first sparse bucket entry: it follows the histogram
        // header. Easier: rebuild by hand via the public encoding shape.
        let mut w = Vec::new();
        w.extend_from_slice(&[TAG_METRICS_REPLY, WIRE_VERSION]);
        w.extend_from_slice(&1u32.to_le_bytes()); // snapshot version
        w.extend_from_slice(&1u64.to_le_bytes()); // seq
        w.extend_from_slice(&0u32.to_le_bytes()); // counters
        w.extend_from_slice(&0u32.to_le_bytes()); // gauges
        w.extend_from_slice(&1u32.to_le_bytes()); // histograms
        w.extend_from_slice(&1u16.to_le_bytes()); // name len
        w.push(b'h');
        for v in [1u64, 1, 1, 1] {
            w.extend_from_slice(&v.to_le_bytes()); // count/sum/min/max
        }
        w.push(1); // one sparse bucket
        w.push(70); // out-of-domain index
        w.extend_from_slice(&1u64.to_le_bytes());
        buf.truncate(body_len);
        buf.clear();
        buf.extend_from_slice(&w);
        buf.extend_from_slice(&crc32(&w).to_le_bytes());
        assert_eq!(
            decode(&buf),
            Err(WireError::BadField { field: "histogram bucket index", value: 70 })
        );
    }

    #[test]
    fn tags_match_the_encoded_discriminant() {
        let msgs = [
            sketch_msg(SketchEncoding::F64),
            Message::KvBatch { node: 0, pairs: vec![] },
            Message::ModeBroadcast { mode: 0.0 },
            Message::OpenEpoch {
                session: 0,
                epoch: 0,
                m: 0,
                n: 0,
                seed: 0,
                op_kind: 0,
                op_param: 0,
            },
            Message::SealEpoch { session: 0, epoch: 0 },
            Message::RecoverEpoch { session: 0, epoch: 0, k: 0 },
            Message::Ack { of: 0, info: 0 },
            Message::Reject { code: 0, retry_after_ms: 0 },
            Message::Report { epoch: 0, mode: 0.0, outliers: vec![] },
            Message::EpochStatus { session: 0, epoch: 0 },
            Message::Status { epoch: 0, phase: 0, nodes: 0 },
            Message::Introspect,
            Message::MetricsReply { snapshot: cso_obs::MetricsSnapshot::default() },
            Message::RelayManifest {
                session: 0,
                epoch: 0,
                region: 0,
                leaf_lo: 0,
                leaf_hi: 0,
                fan_in: 0,
            },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(msg.tag(), i as u8 + 1);
            assert_eq!(encode(msg)[0], msg.tag());
        }
    }

    #[test]
    fn sketch_payload_matches_cost_accounting() {
        // The abstract meter charges 64 bits per sketch value; the real
        // f64 payload is exactly that plus fixed header + CRC trailer.
        let m = 4;
        let bytes = encode(&sketch_msg(SketchEncoding::F64)).len() as u64;
        let header = 1 + 1 + 4 + 8 + 1 + 4; // tag, ver, node, seed, enc, len
        assert_eq!(bytes, header + m * VALUE_BITS / 8 + CHECKSUM_BYTES as u64);
    }

    #[test]
    fn kv_payload_matches_cost_accounting() {
        // 96 bits per pair (32-bit key id + 64-bit value), plus framing.
        let pairs = 3u64;
        let msg = Message::KvBatch { node: 1, pairs: vec![(1, 1.0), (2, 2.0), (3, 3.0)] };
        let bytes = encode(&msg).len() as u64;
        let header = 1 + 1 + 4 + 4;
        assert_eq!(bytes, header + pairs * KV_PAIR_BITS / 8 + CHECKSUM_BYTES as u64);
    }

    #[test]
    fn truncated_buffers_rejected() {
        // Too short to even hold the trailer → Truncated; cut mid-frame the
        // trailer no longer matches the remaining body → ChecksumMismatch.
        // Either way no bytes are ever interpreted as a message.
        let full = encode(&sketch_msg(SketchEncoding::F64));
        for cut in [0usize, 1, 5] {
            assert_eq!(decode(&full[..cut]), Err(WireError::Truncated), "cut = {cut}");
        }
        for cut in [7usize, full.len() - 1] {
            assert!(
                matches!(decode(&full[..cut]), Err(WireError::ChecksumMismatch { .. })),
                "cut = {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = encode(&Message::ModeBroadcast { mode: 1.0 });
        buf.push(0);
        reseal(&mut buf);
        assert_eq!(decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        // CRC-32 detects all single-bit errors: flip each bit of a frame in
        // turn and the decoder must reject every variant (checksum first,
        // or Truncated/parse errors never yielding a wrong message).
        let good = encode(&sketch_msg(SketchEncoding::Fixed16));
        let original = decode(&good).unwrap();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(
                    decode(&bad).ok(),
                    Some(original.clone()),
                    "flip at byte {byte} bit {bit} silently accepted"
                );
                assert!(
                    matches!(decode(&bad), Err(WireError::ChecksumMismatch { .. })),
                    "flip at byte {byte} bit {bit} not caught by the checksum"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_round_trip() {
        let mut buf = encode(&Message::ModeBroadcast { mode: 1.0 });
        buf[0] = 99;
        reseal(&mut buf);
        assert_eq!(decode(&buf), Err(WireError::UnknownTag(99)));
    }

    #[test]
    fn version_mismatch_round_trip() {
        let mut buf = encode(&Message::ModeBroadcast { mode: 1.0 });
        buf[1] = 9;
        reseal(&mut buf);
        assert_eq!(decode(&buf), Err(WireError::VersionMismatch { got: 9, want: WIRE_VERSION }));
    }

    #[test]
    fn bad_encoding_rejected() {
        let mut buf = encode(&sketch_msg(SketchEncoding::F64));
        buf[14] = 7; // encoding byte (after tag, ver, node, seed)
        reseal(&mut buf);
        assert_eq!(decode(&buf), Err(WireError::BadEncoding(7)));
    }

    #[test]
    fn corrupt_length_field_cannot_drive_allocation() {
        // Declare u32::MAX elements: the checksum rejects the frame, and
        // even a resealed frame parses within the buffer's actual bytes.
        let mut buf = encode(&sketch_msg(SketchEncoding::F64));
        buf[15..19].copy_from_slice(&u32::MAX.to_le_bytes()); // len field
        assert!(matches!(decode(&buf), Err(WireError::ChecksumMismatch { .. })));
        reseal(&mut buf);
        assert_eq!(decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::UnknownTag(5).to_string().contains('5'));
        assert!(WireError::VersionMismatch { got: 9, want: 2 }.to_string().contains('9'));
        assert!(WireError::ChecksumMismatch { stored: 1, computed: 2 }
            .to_string()
            .contains("checksum"));
    }
}
