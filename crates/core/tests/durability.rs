//! Crash-durability regression tests (ISSUE 4): controllers and the
//! registration server persist their authoritative state through a
//! write-ahead log plus checkpoints, and a crash wipes everything
//! volatile. These scenarios pin down recovery composed with backup
//! takeover and with injected storage faults: a primary that recovers
//! before its backup promotes resumes its role from stable storage;
//! one that recovers after promotion is epoch-fenced back down; a torn
//! WAL tail falls back to the last checkpoint and the orphaned member
//! re-syncs via its ticket; a corrupted checkpoint falls back to the
//! older ping-pong slot.
//!
//! Every scenario runs twice — once against the simulator's default
//! store, the simulated [`SimStore`](mykil_net::SimStore) device behind
//! [`FaultyStore`](mykil_net::FaultyStore), and once against a real
//! file-backed [`FileStore`](mykil_net::FileStore) in a scratch
//! directory behind the same wrapper (the `*_file_backed` variants).
//! The recovery outcome must be identical: the durable-state contract
//! does not depend on the backend.

use mykil::area::Role;
use mykil::durable::{AcCheckpoint, AcSnapshot, AcWalRecord, DurableMember};
use mykil::group::GroupBuilder;
use mykil::invariants::{InvariantChecker, InvariantViolation};
use mykil_net::{Duration, FaultyStore, FileStore, NodeId, StableStore, StoreFault};

/// Routes a deployment's stable storage to per-node `FileStore`
/// directories under a fresh scratch root, wrapped in `FaultyStore` so
/// every storage fault keeps injecting.
fn file_backed(b: GroupBuilder, tag: &'static str) -> GroupBuilder {
    let root = mykil_net::scratch_dir(tag);
    b.storage_factory(move |n: NodeId| {
        let dir = root.join(format!("node{}", n.index()));
        Box::new(FaultyStore::new(
            FileStore::open(&dir).expect("open file-backed store"),
        )) as Box<dyn StableStore>
    })
}

/// A primary that crashes and restarts before the backup's watchdog
/// fires reconstructs its membership, tree and replication state from
/// stable storage — no takeover, no member churn.
fn primary_recovers_before_promotion(file: bool) {
    let mut b = GroupBuilder::new(61).rsa_bits(512).areas(2).replicated(true);
    if file {
        b = file_backed(b, "durability-recover-pre-promotion");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let area = 1usize;
    let node = g.primaries[area];
    let members_before = g.ac(area).member_ids();

    // Crash and restart within the same instant: the backup's
    // heartbeat watchdog never fires, so recovery must come entirely
    // from the node's own WAL + checkpoint.
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();

    assert_eq!(g.stats().counter("ac-recoveries"), 1);
    assert_eq!(
        g.stats().counter("ac-takeovers"),
        0,
        "backup promoted despite the instant restart"
    );
    assert_eq!(g.ac(area).role(), Role::Primary);
    assert_eq!(
        g.ac(area).member_ids(),
        members_before,
        "recovery lost the durable membership"
    );
    for &m in &members {
        assert!(g.is_member(m), "member session died with the AC restart");
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after in-place recovery"
    );
}

#[test]
fn primary_recovers_from_storage_before_backup_promotion() {
    primary_recovers_before_promotion(false);
}

#[test]
fn primary_recovers_from_storage_before_backup_promotion_file_backed() {
    primary_recovers_before_promotion(true);
}

/// A primary that recovers *after* its backup promoted wakes up with a
/// durable `Primary` role — and must still lose the epoch fence: the
/// promoted backup's higher takeover epoch demotes it, and the
/// demotion itself is made durable (checked by the durability
/// invariant at the end).
fn recovered_primary_is_fenced_down(file: bool) {
    let mut b = GroupBuilder::new(62).rsa_bits(512).areas(2).replicated(true);
    if file {
        b = file_backed(b, "durability-fenced-down");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    g.crash_ac(1);
    g.run_for(Duration::from_secs(3));
    assert_eq!(g.backup(1).role(), Role::Primary, "backup never took over");

    assert!(g.sim.restart(g.primaries[1]));
    g.run_for(Duration::from_secs(5));

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert!(g.stats().counter("ac-demotions") >= 1);
    assert_eq!(
        g.ac(1).role(),
        Role::Backup { primary: g.backups[1] },
        "recovered primary's durable role beat the epoch fence"
    );
    assert_eq!(g.backup(1).role(), Role::Primary);
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after recovery + demotion"
    );
    for m in members {
        assert!(g.is_member(m));
    }
}

#[test]
fn recovered_primary_after_promotion_is_fenced_down() {
    recovered_primary_is_fenced_down(false);
}

#[test]
fn recovered_primary_after_promotion_is_fenced_down_file_backed() {
    recovered_primary_is_fenced_down(true);
}

/// A lying fsync leaves a torn record at the WAL tail: the admission
/// committed there is genuinely lost, recovery falls back to the last
/// checkpoint plus the valid WAL prefix, and the orphaned member —
/// admitted by the pre-crash primary but unknown to the recovered one
/// — re-enters through its durable ticket.
fn torn_wal_tail_recovery(file: bool) {
    let mut b = GroupBuilder::new(63).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-torn-tail");
    }
    let mut g = b.build();
    let old_timers: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    assert!(g.sim.storage_mut(node).inject(StoreFault::TornWrite));
    let newcomer = g.register_member(9);
    g.run_for(Duration::from_secs(2));
    assert!(g.is_member(newcomer), "join did not complete pre-crash");

    g.sim.crash(node);
    assert!(g.sim.restart(node));
    assert_eq!(g.stats().counter("storage-torn-write"), 1);
    g.run_for(Duration::from_secs(10));

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert_eq!(g.ac(0).role(), Role::Primary);
    // The newcomer's admission died with the torn tail; its disconnect
    // detector noticed the dead session and the ticket rejoin restored
    // membership without a fresh registration.
    assert!(
        g.is_member(newcomer),
        "orphaned member never re-entered the group"
    );
    for m in old_timers {
        assert!(g.is_member(m));
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after torn-tail recovery"
    );
}

#[test]
fn torn_wal_tail_falls_back_to_checkpoint_and_member_resyncs() {
    torn_wal_tail_recovery(false);
}

#[test]
fn torn_wal_tail_falls_back_to_checkpoint_and_member_resyncs_file_backed() {
    torn_wal_tail_recovery(true);
}

/// Bit-rot in the newest checkpoint slot: recovery must fall back to
/// the older ping-pong slot and replay the longer WAL suffix, landing
/// on the same membership.
fn corrupt_checkpoint_fallback(file: bool) {
    let mut b = GroupBuilder::new(64).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-ckpt-fallback");
    }
    let mut g = b.build();
    let members: Vec<_> = (0..3).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    let members_before = g.ac(0).member_ids();
    assert!(
        g.sim.storage(node).checkpoint_count() >= 2,
        "scenario needs both ping-pong slots populated"
    );
    assert!(g
        .sim
        .storage_mut(node)
        .inject(StoreFault::CorruptCheckpoint));
    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();

    assert!(g.stats().counter("ac-recoveries") >= 1);
    assert_eq!(
        g.stats().counter("ac-recovery-bad-checkpoint"),
        0,
        "fallback slot failed to parse"
    );
    assert_eq!(g.ac(0).role(), Role::Primary);
    assert_eq!(
        g.ac(0).member_ids(),
        members_before,
        "older-slot recovery lost members"
    );
    for m in members {
        assert!(g.is_member(m));
    }
    assert_eq!(
        checker.check(&g),
        vec![],
        "invariants violated after checkpoint-corruption recovery"
    );
}

#[test]
fn corrupt_checkpoint_falls_back_to_older_slot() {
    corrupt_checkpoint_fallback(false);
}

#[test]
fn corrupt_checkpoint_falls_back_to_older_slot_file_backed() {
    corrupt_checkpoint_fallback(true);
}

/// The primary checkpoint's replica snapshot goes through the one
/// codec: it decodes, re-encodes to the same bytes, and carries the
/// live membership and epoch.
fn snapshot_codec_matches_live_state(file: bool) {
    let mut b = GroupBuilder::new(65).rsa_bits(512).areas(1).replicated(true);
    if file {
        b = file_backed(b, "durability-snapshot-codec");
    }
    let mut g = b.build();
    for i in 0..3 {
        g.register_member(i);
    }
    g.settle();

    let rec = g.sim.storage(g.primaries[0]).load();
    let (_, ckpt_bytes) = rec.checkpoint.expect("settled primary has a checkpoint");
    let ckpt = AcCheckpoint::from_bytes(&ckpt_bytes).expect("checkpoint parses");
    assert!(ckpt.primary);
    let raw = ckpt.snapshot.expect("primary checkpoint embeds a snapshot");
    let snap = AcSnapshot::from_bytes(&raw).expect("snapshot decodes");
    assert_eq!(snap.to_bytes(), raw, "snapshot codec is not byte-identical");
    let members: std::collections::BTreeSet<u64> = snap.members.iter().map(|m| m.client).collect();
    assert_eq!(members.len(), 3);
    assert_eq!(members, g.ac(0).member_ids());
    assert_eq!(snap.epoch, g.ac(0).epoch());
}

#[test]
fn checkpoint_snapshot_codec_matches_live_state() {
    snapshot_codec_matches_live_state(false);
}

#[test]
fn checkpoint_snapshot_codec_matches_live_state_file_backed() {
    snapshot_codec_matches_live_state(true);
}

/// A `Join` record whose public key does not parse is corruption:
/// recovery could never install that member. Recovery and the
/// durability invariant read the WAL through the same fold, so both
/// stop at the record and neither reports drift.
#[test]
fn join_with_unparseable_pubkey_stops_recovery_and_invariant_alike() {
    let mut g = GroupBuilder::new(67)
        .rsa_bits(512)
        .areas(1)
        .replicated(true)
        .build();
    let members: Vec<_> = (0..2).map(|i| g.register_member(i)).collect();
    g.settle();
    let mut checker = InvariantChecker::new();
    assert_eq!(checker.check(&g), vec![]);

    let node = g.primaries[0];
    let members_before = g.ac(0).member_ids();
    g.sim.storage_mut(node).wal_commit(
        AcWalRecord::Join(DurableMember {
            client: 999,
            node: 0,
            pubkey: vec![1, 2, 3],
            device: None,
            valid_until_us: u64::MAX,
        })
        .to_bytes(),
    );
    let drift = |v: &[InvariantViolation]| {
        v.iter()
            .filter(|v| matches!(v, InvariantViolation::DurabilityDrift { .. }))
            .count()
    };
    assert_eq!(drift(&checker.check(&g)), 0, "live node drifted from storage");

    g.sim.crash(node);
    assert!(g.sim.restart(node));
    g.settle();
    assert_eq!(g.stats().counter("ac-recovery-bad-wal-record"), 1);
    assert_eq!(drift(&checker.check(&g)), 0, "recovered node drifted");
    assert_eq!(g.ac(0).member_ids(), members_before);
    for m in members {
        assert!(g.is_member(m));
    }
    assert_eq!(checker.check(&g), vec![]);
}

/// The registration server's client-id counter is burned to the WAL
/// before any reply leaves the node: a crash/restart cycle can drop
/// in-flight handshakes but must never reissue an id.
fn rs_recovery_id_monotonic(file: bool) {
    let mut b = GroupBuilder::new(66).rsa_bits(512).areas(2);
    if file {
        b = file_backed(b, "durability-rs-ids");
    }
    let mut g = b.build();
    let first = g.register_member(0);
    g.settle();
    assert!(g.is_member(first));
    let first_id = g.member(first).client_id().expect("active member has an id");
    let next_before = g.registration_server().next_client();

    g.sim.crash(g.rs());
    assert!(g.sim.restart(g.rs()));
    g.run_for(Duration::from_secs(2));
    assert_eq!(g.stats().counter("rs-recoveries"), 1);
    assert!(
        g.registration_server().next_client() >= next_before,
        "client-id counter regressed across the RS restart"
    );

    let second = g.register_member(1);
    g.run_for(Duration::from_secs(6));
    assert!(g.is_member(second), "join never completed after RS recovery");
    assert_ne!(
        g.member(second).client_id().expect("active member has an id"),
        first_id,
        "recovered RS reissued a client id"
    );
}

#[test]
fn rs_recovery_never_reissues_client_ids() {
    rs_recovery_id_monotonic(false);
}

#[test]
fn rs_recovery_never_reissues_client_ids_file_backed() {
    rs_recovery_id_monotonic(true);
}
