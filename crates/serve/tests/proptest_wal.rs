//! WAL replay property tests (PR 6 satellite).
//!
//! The journal's contract is **prefix consistency, never a panic**:
//!
//! - replaying the records a live store produced rebuilds that store
//!   bit-identically (`snapshot_bytes` equality);
//! - replay is idempotent — duplicating any record subset changes nothing;
//! - *arbitrary* record interleavings (seals without opens, recovers
//!   before seals, ingest after seal, evictions of any epoch) replay to a
//!   deterministic store or a typed error, never a panic;
//! - a tail truncated at **every** byte offset and a tail with a flipped
//!   bit yield either a successful prefix recovery or a typed
//!   [`WalError`] — never a panic, never silently wrong bytes beyond the
//!   flip;
//! - a wrong-version or wrong-magic segment is a typed
//!   [`WalError::BadSegment`], while a version 4 segment or snapshot (the
//!   current format without evict records) still replays.

use cso_distributed::quantize::{self, SketchEncoding};
use cso_linalg::Vector;
use cso_serve::wal::WAL_VERSION;
use cso_serve::{Durability, SessionStore, StoreLimits, StoreStats, WalError, WalRecord};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

const M: u32 = 6;
const N: u64 = 48;
const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("cso-pwal-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sketch_bits(node: u32) -> Vec<u64> {
    (0..M as usize).map(|i| ((node as f64) * 3.5 + i as f64).to_bits()).collect()
}

/// A strategy over arbitrary (not necessarily well-ordered) records on a
/// small id space, so interleavings collide interestingly.
fn arb_record() -> impl Strategy<Value = WalRecord> {
    let ids = || (0u64..3, 0u64..3);
    prop_oneof![
        ids().prop_map(|(session, epoch)| WalRecord::Open {
            session,
            epoch,
            m: M,
            n: N,
            seed: SEED,
            op_kind: 0,
            op_param: 0
        }),
        (ids(), 0u32..6).prop_map(|((session, epoch), node)| {
            let y =
                Vector::from_vec(sketch_bits(node).iter().map(|&b| f64::from_bits(b)).collect());
            WalRecord::Ingest {
                session,
                epoch,
                node,
                seed: SEED,
                payload: quantize::encode(&y, SketchEncoding::F64),
            }
        }),
        (ids(), 0u64..6, 0u64..3).prop_map(|((session, epoch), nodes, duplicates)| {
            WalRecord::Seal {
                session,
                epoch,
                seed: SEED,
                m: M,
                n: N,
                nodes,
                duplicates,
                op_kind: 0,
                op_param: 0,
                y_bits: sketch_bits(nodes as u32),
            }
        }),
        ids().prop_map(|(session, epoch)| WalRecord::RecoverDone { session, epoch }),
        ids().prop_map(|(session, epoch)| WalRecord::Evict { session, epoch }),
        Just(WalRecord::CleanShutdown),
    ]
}

/// Writes `records` to a fresh WAL directory and returns it.
fn journal(records: &[WalRecord], tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let mut stats = StoreStats::new();
    let mut wal = cso_serve::Wal::open(&Durability::at(&dir)).expect("wal open");
    for r in records {
        wal.append(r, &mut stats);
    }
    assert!(!wal.failed(), "append must not fail on a healthy filesystem");
    dir
}

/// Replays a record list into a fresh in-memory store the same way
/// recovery does, returning `None` where recovery would surface a typed
/// replay error.
fn mirror(records: &[WalRecord]) -> Option<SessionStore> {
    let mut store = SessionStore::new();
    for r in records {
        if r.replay(&mut store).is_err() {
            return None;
        }
    }
    Some(store)
}

/// A well-ordered script: open, distinct ingests, seal, recover — the
/// shape a real server journals.
fn well_ordered(nodes: &[u32]) -> Vec<WalRecord> {
    let mut records = vec![WalRecord::Open {
        session: 1,
        epoch: 0,
        m: M,
        n: N,
        seed: SEED,
        op_kind: 0,
        op_param: 0,
    }];
    for &node in nodes {
        let y = Vector::from_vec(sketch_bits(node).iter().map(|&b| f64::from_bits(b)).collect());
        records.push(WalRecord::Ingest {
            session: 1,
            epoch: 0,
            node,
            seed: SEED,
            payload: quantize::encode(&y, SketchEncoding::F64),
        });
    }
    records.push(WalRecord::Seal {
        session: 1,
        epoch: 0,
        seed: SEED,
        m: M,
        n: N,
        nodes: nodes.len() as u64,
        duplicates: 0,
        op_kind: 0,
        op_param: 0,
        y_bits: sketch_bits(0),
    });
    records.push(WalRecord::RecoverDone { session: 1, epoch: 0 });
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Journal → recover rebuilds the mirrored store bit-identically, and
    /// duplicating an arbitrary record leaves recovery unchanged
    /// (idempotent replay).
    #[test]
    fn recovery_matches_mirror_and_duplicates_are_noops(
        nodes in prop::collection::vec(0u32..8, 1..6),
        dup_at in 0usize..16,
    ) {
        let records = well_ordered(&nodes);
        let expected = mirror(&records).expect("well-ordered replay succeeds");

        // Duplicate one record in place — replay must not diverge.
        let mut dup = records.clone();
        let at = dup_at % dup.len();
        dup.insert(at + 1, dup[at].clone());

        for (tag, script) in [("plain", &records), ("dup", &dup)] {
            let dir = journal(script, tag);
            let (rebuilt, report) =
                SessionStore::recover_from(&dir, StoreLimits::default()).expect("recover");
            prop_assert!(!report.torn_tail);
            prop_assert_eq!(
                rebuilt.snapshot_bytes(),
                expected.snapshot_bytes(),
                "{} replay diverged", tag
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Arbitrary interleavings — including seals without opens and
    /// recovers before seals — recover to a deterministic store or a
    /// typed error; two recoveries of the same journal always agree.
    #[test]
    fn arbitrary_interleavings_never_panic_and_are_deterministic(
        records in prop::collection::vec(arb_record(), 0..20),
    ) {
        let dir = journal(&records, "interleave");
        let first = SessionStore::recover_from(&dir, StoreLimits::default());
        let second = SessionStore::recover_from(&dir, StoreLimits::default());
        match (first, second) {
            (Ok((a, _)), Ok((b, _))) => {
                prop_assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
                if let Some(m) = mirror(&records) {
                    prop_assert_eq!(a.snapshot_bytes(), m.snapshot_bytes());
                }
            }
            (Err(WalError::Replay(_)), Err(WalError::Replay(_))) => {
                // An inconsistent interleaving is a typed error — and the
                // mirror must agree that it is inconsistent.
                prop_assert!(mirror(&records).is_none());
            }
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in the segment yields a typed
    /// outcome: recovery succeeds on some prefix, or fails with a typed
    /// error. Never a panic.
    #[test]
    fn bit_flips_anywhere_are_typed_outcomes(
        nodes in prop::collection::vec(0u32..8, 1..4),
        flip_byte in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let records = well_ordered(&nodes);
        let dir = journal(&records, "flip");
        let seg = dir.join("wal-00000000.log");
        let mut bytes = std::fs::read(&seg).expect("segment");
        let at = flip_byte % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        std::fs::write(&seg, &bytes).expect("rewrite");

        match SessionStore::recover_from(&dir, StoreLimits::default()) {
            Ok((_, _)) => {}
            Err(WalError::BadSegment { .. }) => prop_assert!(
                at < 12,
                "BadSegment from a body flip at {at}"
            ),
            Err(WalError::Replay(_)) => {} // CRC collision window: typed, fine
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Exhaustive (non-proptest) torn-tail sweep: recovery at *every*
/// truncation offset of a realistic journal is a successful prefix
/// recovery — and the recovered record count is monotone in the cut.
#[test]
fn torn_tail_truncation_at_every_offset() {
    let records = well_ordered(&[0, 1, 2, 3]);
    let dir = journal(&records, "torn-sweep");
    let seg = dir.join("wal-00000000.log");
    let full = std::fs::read(&seg).expect("segment");

    // Record boundaries: a cut exactly at one is indistinguishable from a
    // shorter-but-complete journal, so no torn tail is reported there.
    let mut boundaries = vec![12usize];
    let mut pos = 12usize;
    while pos + 8 <= full.len() {
        let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().unwrap(), full.len(), "journal ends mid-record?");

    let mut last_count = u64::MAX;
    for cut in (12..=full.len()).rev() {
        std::fs::write(&seg, &full[..cut]).expect("truncate");
        let (_, report) = SessionStore::recover_from(&dir, StoreLimits::default())
            .unwrap_or_else(|e| panic!("cut {cut}: typed failure {e}"));
        assert_eq!(
            report.torn_tail,
            !boundaries.contains(&cut),
            "cut {cut}: torn-tail report wrong"
        );
        let expect = boundaries.iter().filter(|&&b| b > 12 && b <= cut).count() as u64;
        assert_eq!(
            report.replayed_records, expect,
            "cut {cut}: replayed {} records, prefix holds {expect}",
            report.replayed_records
        );
        assert!(report.replayed_records <= last_count, "cut {cut}: replay not monotone");
        last_count = report.replayed_records;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wrong-magic and wrong-version segments are typed `BadSegment` errors.
#[test]
fn foreign_segments_are_typed_errors() {
    for (tag, mutate) in [("magic", 0usize), ("version", 8usize)] {
        let dir = journal(&well_ordered(&[0]), tag);
        let seg = dir.join("wal-00000000.log");
        let mut bytes = std::fs::read(&seg).expect("segment");
        bytes[mutate] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("rewrite");
        assert!(
            matches!(
                SessionStore::recover_from(&dir, StoreLimits::default()),
                Err(WalError::BadSegment { .. })
            ),
            "{tag} corruption must be BadSegment"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A version 4 segment, and a version 4 snapshot, replay under this
/// build: the current format is version 4 plus the evict record.
#[test]
fn version_4_segments_and_snapshots_replay() {
    assert_eq!(WAL_VERSION, 5);
    let records = well_ordered(&[0, 1, 2]);
    let expected = mirror(&records).expect("well-ordered replay succeeds").snapshot_bytes();
    let as_version_4 = |path: &std::path::Path| {
        let mut bytes = std::fs::read(path).expect("read");
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(path, &bytes).expect("rewrite");
    };

    let dir = journal(&records, "v4-segment");
    as_version_4(&dir.join("wal-00000000.log"));
    let (rebuilt, report) =
        SessionStore::recover_from(&dir, StoreLimits::default()).expect("a v4 segment replays");
    assert_eq!(report.replayed_records, records.len() as u64);
    assert!(rebuilt.snapshot_bytes() == expected);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = temp_dir("v4-snapshot");
    let mut wal = cso_serve::Wal::open(&Durability::at(&dir)).expect("wal open");
    let mut stats = StoreStats::new();
    wal.cut_snapshot(&mut stats).expect("cut").persist(&expected, &mut stats);
    drop(wal);
    as_version_4(&dir.join("snapshot-00000001.bin"));
    let (rebuilt, report) =
        SessionStore::recover_from(&dir, StoreLimits::default()).expect("a v4 snapshot loads");
    assert!(report.snapshot_loaded);
    assert!(rebuilt.snapshot_bytes() == expected);
    let _ = std::fs::remove_dir_all(&dir);
}
