//! Snapshot decoder fuzz.
//!
//! A snapshot is a `u64` record count followed by `[len u32][crc u32]
//! [payload]` records, replayed by [`SessionStore::from_snapshot_bytes`].
//! Starting from a real snapshot of a live store that holds an ingesting,
//! a sealed, a recovered and a relay-manifested epoch, every damage below
//! must come back as a typed [`ReplayError`], never a panic:
//!
//! - bit flips at random offsets (and at every offset, exhaustively);
//! - hostile record-length words: 0, `MAX_RECORD_BYTES + 1`, `u32::MAX`,
//!   and a length running past the end of the body;
//! - a wrong declared record count;
//! - a `Seal` record re-framed under a valid CRC whose `m` disagrees with
//!   its measurement body, up to `m = u32::MAX` — refused before anything
//!   is sized by `m`.
//!
//! Garbage payloads re-framed under a valid CRC replay to a store or a
//! typed error, never a panic.

use cso_distributed::quantize::{self, SketchEncoding};
use cso_distributed::wire::{self, Message, WireError};
use cso_linalg::Vector;
use cso_obs::Recorder;
use cso_serve::wal::MAX_RECORD_BYTES;
use cso_serve::{
    ConnState, EpochPhase, RecoveryPolicy, ReplayError, SessionStore, StoreLimits, WalRecord,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const M: u32 = 8;
const N: u64 = 64;
const SEED: u64 = 5;
/// Bytes of the snapshot's leading record count.
const COUNT_BYTES: usize = 8;

fn sketch(node: u32) -> Message {
    let y =
        Vector::from_vec((0..M as usize).map(|i| (node as f64 + 1.0) * 0.5 + i as f64).collect());
    Message::Sketch { node, seed: SEED, payload: quantize::encode(&y, SketchEncoding::F64) }
}

/// The snapshot of a live store holding every epoch shape: epoch 0
/// recovered, 1 sealed, 2 ingesting, and 3 ingesting under a relay
/// manifest.
fn live_snapshot() -> Vec<u8> {
    let (policy, rec) = (RecoveryPolicy::default(), Recorder::disabled());
    let mut store = SessionStore::new();
    let mut send = |conn: &mut ConnState, msg: Message| {
        let (reply, _) = store.handle(conn, &msg, &policy, &rec);
        assert!(!matches!(reply, Message::Reject { .. }), "{msg:?} -> {reply:?}");
    };
    for epoch in 0..4u64 {
        let mut conn = ConnState::new();
        let (m, n, seed) = (M, N, SEED);
        send(
            &mut conn,
            Message::OpenEpoch { session: 1, epoch, m, n, seed, op_kind: 0, op_param: 0 },
        );
        send(&mut conn, sketch(epoch as u32));
        send(&mut conn, sketch(epoch as u32 + 9));
    }
    let mut conn = ConnState::new();
    let manifest = Message::RelayManifest {
        session: 1,
        epoch: 3,
        region: 1,
        leaf_lo: 4,
        leaf_hi: 8,
        fan_in: 4,
    };
    send(&mut conn, manifest);
    send(&mut conn, Message::SealEpoch { session: 1, epoch: 0 });
    send(&mut conn, Message::SealEpoch { session: 1, epoch: 1 });
    send(&mut conn, Message::RecoverEpoch { session: 1, epoch: 0, k: 1 });
    assert_eq!(store.epoch_phase(1, 0), Some(EpochPhase::Recovered));
    assert_eq!(store.epoch_phase(1, 1), Some(EpochPhase::Sealed));
    assert_eq!(store.epoch_phase(1, 2), Some(EpochPhase::Ingest));
    assert!(store.topology_of(1, 3).is_some());
    store.snapshot_bytes()
}

fn load(bytes: &[u8]) -> Result<SessionStore, ReplayError> {
    SessionStore::from_snapshot_bytes(bytes, StoreLimits::default())
}

/// `(offset, payload length)` of every framed record, in order.
fn records(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = COUNT_BYTES;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos, len));
        pos += 8 + len;
    }
    assert_eq!(pos, bytes.len(), "a live snapshot frames exactly");
    out
}

/// `bytes` with the record at `at` (of payload length `len`) replaced by
/// `payload`, framed under its own valid CRC.
fn reframed(bytes: &[u8], (at, len): (usize, usize), payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&wire::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[at + 8 + len..]);
    out
}

fn is_decode_error(result: Result<SessionStore, ReplayError>) -> bool {
    matches!(result, Err(ReplayError::Decode(_)))
}

#[test]
fn the_live_snapshot_round_trips() {
    let bytes = live_snapshot();
    let store = load(&bytes).expect("an undamaged snapshot loads");
    assert_eq!(store.snapshot_bytes(), bytes);
}

/// Every single-bit flip is caught: in the count by the count check, in a
/// length word by the framing, and anywhere else by the record CRC.
#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let bytes = live_snapshot();
    for offset in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[offset] ^= 1 << bit;
            assert!(is_decode_error(load(&damaged)), "offset {offset} bit {bit}");
        }
    }
}

#[test]
fn hostile_record_lengths_are_typed_errors() {
    let bytes = live_snapshot();
    for (at, _) in records(&bytes) {
        let past_the_end = (bytes.len() - at) as u32;
        for len in [0, MAX_RECORD_BYTES + 1, u32::MAX, past_the_end] {
            let mut damaged = bytes.clone();
            damaged[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert!(is_decode_error(load(&damaged)), "record at {at}, length {len}");
        }
    }
}

#[test]
fn a_wrong_record_count_is_a_typed_error() {
    let bytes = live_snapshot();
    let count = records(&bytes).len() as u64;
    for wrong in [0, count - 1, count + 1, u64::MAX] {
        let mut damaged = bytes.clone();
        damaged[..COUNT_BYTES].copy_from_slice(&wrong.to_le_bytes());
        let err = load(&damaged).err();
        assert!(
            matches!(
                err,
                Some(ReplayError::Decode(WireError::BadField {
                    field: "snapshot record count",
                    ..
                }))
            ),
            "count {wrong}: {err:?}"
        );
    }
}

/// A seal whose `m` disagrees with the measurement it carries is refused
/// by the record decoder before any `m`-sized allocation: `m = u32::MAX`
/// would otherwise ask for 32 GiB.
#[test]
fn a_seal_whose_m_disagrees_with_its_body_is_refused() {
    let bytes = live_snapshot();
    let (seal, payload) = records(&bytes)
        .into_iter()
        .map(|(at, len)| ((at, len), &bytes[at + 8..at + 8 + len]))
        .find(|(_, payload)| matches!(WalRecord::decode(payload), Ok(WalRecord::Seal { .. })))
        .expect("the snapshot holds a seal");
    // `[kind u8][session u64][epoch u64][seed u64][m u32]…`
    let m_at = 1 + 8 + 8 + 8;
    for m in [0, M - 1, M + 1, u32::MAX] {
        let mut forged = payload.to_vec();
        forged[m_at..m_at + 4].copy_from_slice(&m.to_le_bytes());
        let err = load(&reframed(&bytes, seal, &forged)).err();
        assert!(
            matches!(
                err,
                Some(ReplayError::Decode(WireError::BadField {
                    field: "seal measurement bytes",
                    ..
                }))
            ),
            "m = {m}: {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Up to four distinct bit flips anywhere in the snapshot are a typed
    /// error: CRC-32 detects every burst of so few bits in records this
    /// short, the count word is checked against the records, and a damaged
    /// length word re-slices a record whose CRC then fails (a collision
    /// has odds of 2^-32).
    #[test]
    fn random_bit_flips_are_typed_errors(
        flips in prop::collection::vec((0usize..1 << 20, 0u8..8), 1..5),
    ) {
        let bytes = live_snapshot();
        let mut damaged = bytes.clone();
        let positions: BTreeSet<(usize, u8)> =
            flips.iter().map(|&(at, bit)| (at % bytes.len(), bit)).collect();
        for &(at, bit) in &positions {
            damaged[at] ^= 1 << bit;
        }
        prop_assert!(is_decode_error(load(&damaged)), "flips {:?}", positions);
    }

    /// Any payload re-framed under a valid CRC in place of any record
    /// replays to a store or a typed error — never a panic.
    #[test]
    fn garbage_records_under_a_valid_crc_never_panic(
        which in 0usize..1 << 20,
        kind in 0u8..9,
        body in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let bytes = live_snapshot();
        let all = records(&bytes);
        let mut payload = vec![kind];
        payload.extend_from_slice(&body);
        let _ = load(&reframed(&bytes, all[which % all.len()], &payload));
    }
}
