//! Admission against the journal: a restarted store is the live one.
//!
//! Random open, sketch, seal, recover and forward sequences drive a live
//! [`SessionStore`] at small caps (two sessions, two epochs each) over
//! session and epoch ids `0..3`, so opens evict finished work and reuse
//! evicted ids often. Every effect's records are journaled as the server
//! journals them, with snapshots taken at random points, and
//! [`SessionStore::recover_from`] must rebuild the live store byte for
//! byte (`snapshot_bytes` equality). The live store keeps its caps and
//! holds no session without an epoch throughout.

use cso_distributed::quantize::{self, SketchEncoding};
use cso_distributed::wire::Message;
use cso_linalg::Vector;
use cso_serve::{
    ConnState, Dispatch, Durability, Effect, RecoveryPolicy, SessionStore, StoreLimits, StoreStats,
    Wal, WalRecord,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const M: u32 = 6;
const N: u64 = 48;
const SEED: u64 = 13;
const LIMITS: StoreLimits = StoreLimits {
    max_n: 1 << 22,
    max_matrix_bytes: 256 << 20,
    max_sessions: 2,
    max_epochs_per_session: 2,
    max_nodes_per_epoch: 1 << 16,
};

#[derive(Debug, Clone)]
enum Step {
    /// Opens `(session, epoch)` under one of two seeds (the other one is a
    /// `SpecMismatch` on an epoch that exists).
    Open(u64, u64, u64),
    /// Sends node's sketch on the connection bound by the last open.
    Sketch(u32),
    Seal(u64, u64),
    Recover(u64, u64),
    /// Marks a sealed epoch forwarded, as a relay does once its upstream
    /// acks the pre-sum.
    Forward(u64, u64),
    /// Snapshots the live store into the journal.
    Snapshot,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let ids = || (0u64..3, 0u64..3);
    prop_oneof![
        (ids(), 0u64..2).prop_map(|((s, e), seed)| Step::Open(s, e, SEED + seed)),
        (0u32..4).prop_map(Step::Sketch),
        ids().prop_map(|(s, e)| Step::Seal(s, e)),
        ids().prop_map(|(s, e)| Step::Recover(s, e)),
        ids().prop_map(|(s, e)| Step::Forward(s, e)),
        Just(Step::Snapshot),
    ]
}

fn temp_dir() -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("cso-padmit-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sketch(node: u32, seed: u64) -> Message {
    let y =
        Vector::from_vec((0..M as usize).map(|i| (node as f64 + 1.0) * 0.7 + i as f64).collect());
    Message::Sketch { node, seed, payload: quantize::encode(&y, SketchEncoding::F64) }
}

/// Runs `steps` against a live store, journaling every transition's
/// records into `wal`; returns the live store.
fn drive(steps: &[Step], wal: &mut Wal) -> Result<SessionStore, TestCaseError> {
    let (policy, mut stats) = (RecoveryPolicy::default(), StoreStats::new());
    let mut live = SessionStore::with_limits(LIMITS);
    let (mut conn, mut seed) = (ConnState::new(), SEED);
    for step in steps {
        let msg = match *step {
            Step::Open(session, epoch, s) => {
                seed = s;
                Message::OpenEpoch { session, epoch, m: M, n: N, seed, op_kind: 0, op_param: 0 }
            }
            Step::Sketch(node) => sketch(node, seed),
            Step::Seal(session, epoch) => Message::SealEpoch { session, epoch },
            Step::Recover(session, epoch) => Message::RecoverEpoch { session, epoch, k: 1 },
            Step::Forward(session, epoch) => {
                let effect = live.mark_forwarded(session, epoch);
                journal(wal, effect, &Message::Introspect, &mut stats);
                continue;
            }
            Step::Snapshot => {
                wal.cut_snapshot(&mut stats)
                    .expect("cut")
                    .persist(&live.snapshot_bytes(), &mut stats);
                continue;
            }
        };
        let effect = match live.dispatch(&mut conn, &msg, &policy, &mut stats) {
            Dispatch::Reply(_, effect) => effect,
            Dispatch::Recover(job) => {
                let (session, epoch) = job.target();
                let (reply, summary) = job.run();
                prop_assert!(summary.is_some(), "recover of ({session}, {epoch}): {reply:?}");
                live.finish_recover(session, epoch, &mut stats)
            }
        };
        journal(wal, effect, &msg, &mut stats);
        prop_assert!(live.session_count() <= LIMITS.max_sessions, "{step:?}");
        prop_assert!(live.epoch_count() <= LIMITS.max_sessions * LIMITS.max_epochs_per_session);
        prop_assert!(live.epoch_count() >= live.session_count(), "an empty session after {step:?}");
    }
    Ok(live)
}

/// Appends `effect`'s records, in application order, as the server does.
fn journal(wal: &mut Wal, effect: Effect, msg: &Message, stats: &mut StoreStats) {
    let records = match effect {
        Effect::Records(records) => records,
        other => WalRecord::of_effect(&other, msg).into_iter().collect(),
    };
    records.iter().for_each(|record| wal.append(record, stats));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Journal replay, from the last snapshot on, rebuilds the live store
    /// whatever the live opens evicted.
    #[test]
    fn recovery_rebuilds_the_live_store(steps in prop::collection::vec(arb_step(), 1..48)) {
        let dir = temp_dir();
        let mut wal = Wal::open(&Durability::at(&dir)).expect("open journal");
        let live = drive(&steps, &mut wal)?;
        prop_assert!(!wal.failed());
        drop(wal);
        let (restored, _) = SessionStore::recover_from(&dir, LIMITS).expect("recover");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(restored.snapshot_bytes() == live.snapshot_bytes(), "the restart differs");
        prop_assert_eq!(restored.session_count(), live.session_count());
    }
}
