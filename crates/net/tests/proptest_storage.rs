//! Property-based tests for the pluggable stable-storage layer: the
//! simulator's default store (`FaultyStore<SimStore>`) and the real
//! file-backed device behind the same fault wrapper must be
//! observationally equivalent under arbitrary operation/fault
//! sequences, recovery must be a fixpoint on both, the ping-pong slots
//! must fall back correctly under every corruption combination, and a
//! `FileStore` must survive reopen-from-disk and crash-mid-checkpoint.
//!
//! Equivalence is over `load()` payloads, WAL suffixes, durable-state
//! flags and operation counters.

use mykil_net::{scratch_dir, FaultyStore, FileStore, SimStore, StableStore, StoreFault};
use proptest::prelude::*;
use std::path::Path;

/// One storage operation or injected fault.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<u8>),
    Commit(Vec<u8>),
    Sync,
    Checkpoint(Vec<u8>),
    Crash,
    ArmLostTail,
    ArmTorn,
    CorruptCkpt,
    CorruptSlot(u8),
    Heal,
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        payload().prop_map(Op::Append),
        payload().prop_map(Op::Commit),
        Just(Op::Sync),
        payload().prop_map(Op::Checkpoint),
        Just(Op::Crash),
        Just(Op::ArmLostTail),
        Just(Op::ArmTorn),
        Just(Op::CorruptCkpt),
        (0u8..2).prop_map(Op::CorruptSlot),
        Just(Op::Heal),
    ]
}

fn apply(store: &mut dyn StableStore, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Append(b) => store.wal_append(b.clone()),
            Op::Commit(b) => store.wal_commit(b.clone()),
            Op::Sync => store.sync(),
            Op::Checkpoint(b) => store.checkpoint(b.clone()),
            Op::Crash => {
                let _ = store.on_crash();
            }
            Op::ArmLostTail => {
                store.inject(StoreFault::LostTail);
            }
            Op::ArmTorn => {
                store.inject(StoreFault::TornWrite);
            }
            Op::CorruptCkpt => {
                store.inject(StoreFault::CorruptCheckpoint);
            }
            Op::CorruptSlot(i) => {
                store.inject(StoreFault::CorruptSlot(*i));
            }
            Op::Heal => store.heal(),
        }
    }
}

/// Everything two equivalent devices must agree on after any history.
fn view(store: &dyn StableStore) -> (Option<Vec<u8>>, Vec<Vec<u8>>, bool, u64, u64) {
    let r = store.load();
    (
        r.checkpoint.map(|(_, p)| p),
        r.wal,
        store.has_durable_state(),
        store.sync_count(),
        store.checkpoint_count(),
    )
}

/// The simulator's default store.
fn sim_backed() -> FaultyStore<SimStore> {
    FaultyStore::new(SimStore::new())
}

fn file_backed(dir: &Path) -> FaultyStore<FileStore> {
    FaultyStore::new(FileStore::open(dir).expect("open scratch file store"))
}

proptest! {
    /// The simulator's default store and a fault-wrapped real file
    /// device agree on every observable after any mixed
    /// operation/fault history — `FaultyStore<FileStore>` really is a
    /// drop-in for `FaultyStore<SimStore>`.
    #[test]
    fn sim_and_file_devices_are_equivalent(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-equiv");
        let mut sim = sim_backed();
        let mut file = file_backed(&dir);
        apply(&mut sim, &ops);
        apply(&mut file, &ops);
        prop_assert_eq!(view(&sim), view(&file));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// load → write the loaded state back as a checkpoint → load is a
    /// fixpoint on both backends: the second load returns exactly the
    /// re-checkpointed payload with an empty WAL suffix, and repeating
    /// the cycle changes nothing further.
    #[test]
    fn recovery_is_a_fixpoint_on_both_backends(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-fixpoint");
        let stores: Vec<Box<dyn StableStore>> =
            vec![Box::new(sim_backed()), Box::new(file_backed(&dir))];
        for mut store in stores {
            apply(store.as_mut(), &ops);
            // A crashed-then-healed device: recovery never runs against
            // live armed faults.
            let _ = store.on_crash();
            store.heal();

            let first = store.load();
            // "Replay" is opaque here: fold the recovered state into a
            // synthetic full-state snapshot, as real recovery does.
            let mut snapshot = Vec::new();
            if let Some((_, c)) = &first.checkpoint {
                snapshot.extend_from_slice(c);
            }
            for rec in &first.wal {
                snapshot.extend_from_slice(rec);
            }
            store.checkpoint(snapshot.clone());

            let second = store.load();
            prop_assert_eq!(
                second.checkpoint.as_ref().map(|(_, p)| p.clone()),
                Some(snapshot.clone()),
                "checkpoint written by recovery did not read back"
            );
            prop_assert!(second.wal.is_empty(), "WAL suffix survived the checkpoint");

            store.checkpoint(snapshot.clone());
            let third = store.load();
            prop_assert_eq!(third.checkpoint.map(|(_, p)| p), Some(snapshot));
            prop_assert!(third.wal.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whatever was durable before a crash is exactly what a fresh
    /// `FileStore` opened over the same directory recovers — the
    /// wrapper's post-crash view IS the on-disk truth.
    #[test]
    fn file_store_reopens_to_the_post_crash_state(
        ops in proptest::collection::vec(op(), 0..24)
    ) {
        let dir = scratch_dir("storage-reopen");
        let mut store = file_backed(&dir);
        apply(&mut store, &ops);
        let _ = store.on_crash();
        store.heal();
        let before = store.load();
        drop(store);

        let reopened = FileStore::open(&dir).expect("reopen");
        let after = reopened.load();
        prop_assert_eq!(before.checkpoint, after.checkpoint);
        prop_assert_eq!(before.wal, after.wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Exhaustive ping-pong fallback matrix, run against both backends.
/// History: checkpoint `p1`, commit `a`, checkpoint `p2`, commit `b` —
/// so one slot holds `p1`, the other `p2`, and the WAL holds `[a, b]`
/// (`a` is above `p1`'s position, so installing `p2` must not truncate
/// it). Every subset of corrupted slots has a forced recovery outcome.
#[test]
fn older_slot_fallback_under_every_corruption_combination() {
    let p1 = b"ckpt-one".to_vec();
    let p2 = b"ckpt-two".to_vec();
    let a = b"rec-a".to_vec();
    let b = b"rec-b".to_vec();

    let build = |which: &str| -> Vec<Box<dyn StableStore>> {
        let dir = scratch_dir(&format!("storage-slots-{which}"));
        vec![Box::new(sim_backed()), Box::new(file_backed(&dir))]
    };

    for combo in 0u8..4 {
        for mut store in build(&format!("combo{combo}")) {
            store.checkpoint(p1.clone());
            store.wal_commit(a.clone());
            store.checkpoint(p2.clone());
            store.wal_commit(b.clone());
            if combo & 1 != 0 {
                store.inject(StoreFault::CorruptSlot(0));
            }
            if combo & 2 != 0 {
                store.inject(StoreFault::CorruptSlot(1));
            }
            let r = store.load();
            let got = (r.checkpoint.map(|(_, p)| p), r.wal);
            match combo {
                // Both slots healthy: newest checkpoint, newest suffix.
                0 => assert_eq!(got, (Some(p2.clone()), vec![b.clone()])),
                // One slot corrupted: whichever checkpoint survived,
                // with exactly the WAL suffix written after it.
                1 | 2 => {
                    let newer = (Some(p2.clone()), vec![b.clone()]);
                    let older = (Some(p1.clone()), vec![a.clone(), b.clone()]);
                    assert!(
                        got == newer || got == older,
                        "combo {combo}: unexpected recovery {got:?}"
                    );
                }
                // Both corrupted: no checkpoint; the whole surviving
                // WAL (nothing below `p1` existed to truncate).
                _ => assert_eq!(got, (None, vec![a.clone(), b.clone()])),
            }
        }
    }

    // Corrupting slot 0 and slot 1 must hit *different* checkpoints:
    // exactly one of the single-slot corruptions forces the older-slot
    // fallback.
    let mut fallbacks = 0;
    for slot in 0u8..2 {
        for mut store in build(&format!("which{slot}")) {
            store.checkpoint(p1.clone());
            store.wal_commit(a.clone());
            store.checkpoint(p2.clone());
            store.inject(StoreFault::CorruptSlot(slot));
            let r = store.load();
            if r.checkpoint.map(|(_, p)| p) == Some(p1.clone()) {
                fallbacks += 1;
            }
        }
    }
    assert_eq!(
        fallbacks, 2,
        "each backend must fall back for exactly one of the two slots"
    );
}

/// A crash halfway through writing the newest checkpoint slot: the
/// partially-written slot file is unparseable garbage on reopen, and
/// recovery falls back to the older slot plus the longer WAL suffix —
/// the install is atomic-or-ignored, never half-applied.
#[test]
fn file_store_crash_mid_checkpoint_falls_back_on_reopen() {
    let dir = scratch_dir("storage-midckpt");
    let mut store = FileStore::open(&dir).expect("open");
    store.checkpoint(b"stable".to_vec());
    store.wal_commit(b"delta-1".to_vec());
    store.checkpoint(b"newest".to_vec());
    store.wal_commit(b"delta-2".to_vec());
    drop(store);

    // Find the slot file holding "newest" and tear it: keep a prefix,
    // as a crash mid-write would.
    let mut torn = false;
    for slot in ["ckpt0.slot", "ckpt1.slot"] {
        let path = dir.join(slot);
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        if bytes
            .windows(b"newest".len())
            .any(|w| w == b"newest")
        {
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear slot");
            torn = true;
        }
    }
    assert!(torn, "newest checkpoint slot file not found");

    let reopened = FileStore::open(&dir).expect("reopen after torn install");
    let r = reopened.load();
    assert_eq!(
        r.checkpoint.map(|(_, p)| p),
        Some(b"stable".to_vec()),
        "torn slot was not ignored"
    );
    assert_eq!(r.wal, vec![b"delta-1".to_vec(), b"delta-2".to_vec()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash halfway through a WAL frame: the partial trailing frame is
/// discarded on reopen and the durable prefix survives untouched.
#[test]
fn file_store_truncates_partial_trailing_wal_frame() {
    let dir = scratch_dir("storage-partial-frame");
    let mut store = FileStore::open(&dir).expect("open");
    store.wal_commit(b"whole-record".to_vec());
    store.wal_commit(b"doomed-record".to_vec());
    drop(store);

    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).expect("read wal");
    // Chop mid-way through the last frame's payload.
    std::fs::write(&wal_path, &bytes[..bytes.len() - 4]).expect("tear wal");

    let reopened = FileStore::open(&dir).expect("reopen after torn frame");
    let r = reopened.load();
    assert_eq!(r.wal, vec![b"whole-record".to_vec()]);
    let _ = std::fs::remove_dir_all(&dir);
}
